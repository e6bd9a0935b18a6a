#!/usr/bin/env python3
"""List the package functions that none of the README's commands enters.

Usage: python scripts/unreached.py

Runs every subcommand and flag that README.md shows, in process, at small
sizes and with ``--jobs 1`` (the ``trace`` module does not follow forked
workers), under the standard library's line tracer. Then prints, module by
module, each function of ``src/orthokernel`` whose body ran no line. Exit
status 0 when every command exited 0, else 1, naming the command on
stderr. Standard library only.
"""

import contextlib
import io
import json
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orthokernel import cli  # noqa: E402

from ledger import _package_modules  # noqa: E402

TYPE = ["--m", "1", "--k1", "2", "--k2", "2"]
# a form file of "p/q" strings, as --form FILE reads it
FORM = [["2", "1/2", "0"], ["1/2", "2", "1/2"], ["0", "1/2", "2"]]


def commands(workdir: Path) -> list:
    """The README's commands, each at a small size."""
    form = workdir / "form.json"
    form.write_text(json.dumps(FORM))
    report = str(workdir / "out.json")
    check = ["check", "--dim", "3", "--trials", "4", "--seed", "42", "--jobs", "1"]
    lemma = ["witness", "--dim", "5", "--m", "1", "--k1", "2", "--k2", "3", "--lemma"]
    recon = ["reconstruct", "--dim", "4", "--pairs", "20"]
    return [
        [*check, "--props", "all", "--json", report],
        [*check, "--props", "core", "--form", str(form)],
        [*check, "--props", "core", "--form", "all"],
        ["witness", "--dim", "4", *TYPE, "--count", "3"],
        [*lemma, "1"],
        [*lemma, "2"],
        [*recon, *TYPE, "--seed", "7"],
        # k1 > k2 reaches the wrap with the larger flat first
        [*recon, "--m", "1", "--k1", "3", "--k2", "2"],
        [*recon, *TYPE, "--mode", "witness"],
        [*recon, *TYPE, "--mode", "sampled", "--samples", "50"],
        ["counterexample"],
        ["check", "--help"],
    ]


def _functions(code: types.CodeType, prefix: str):
    """(qualified name, code) of each named function compiled in code,
    nested ones included; a class body adds its name to the prefix."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue
        name = f"{prefix}{const.co_name}"
        if const.co_flags & 0x1:  # CO_OPTIMIZED: a function, not a class body
            yield name, const
            yield from _functions(const, f"{name}.<locals>.")
        else:
            yield from _functions(const, f"{name}.")


def _body_lines(code: types.CodeType) -> set:
    """The lines a call runs: every line of the code but its first, which
    is the def (or a decorator) and runs when the module is loaded."""
    return {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}


def unreached(counts: dict) -> dict:
    """For each module, the functions none of whose body lines ran."""
    out = {}
    for module in _package_modules():
        path = module.__file__
        code = compile(Path(path).read_text(), path, "exec")
        names = [
            name
            for name, fn in _functions(code, "")
            if not any((path, line) in counts for line in _body_lines(fn))
        ]
        if names:
            out[module.__name__] = names
    return out


def main() -> int:
    tracer = trace.Trace(count=1, trace=0)
    failed = []
    with tempfile.TemporaryDirectory() as workdir:
        for args in commands(Path(workdir)):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    status = tracer.runfunc(cli.main, args)
                except SystemExit as exc:  # --help
                    status = exc.code
            if status:
                failed.append(f"orthokernel {' '.join(args)}: exit {status}")
    for line in failed:
        print(line, file=sys.stderr)
    for module, names in unreached(tracer.results().counts).items():
        print(module)
        for name in names:
            print(f"  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
