#!/usr/bin/env python3
"""Check that pinned commands write the same bytes under each interpreter.

Usage: python scripts/check_interpreters.py PY [PY ...]

Each PY is a Python executable. Every pinned command runs as
``PY -m orthokernel ...`` from the repository root with ``PYTHONPATH=src``,
and the sha256 of what it writes is compared with its pinned value: the
``--json`` report for ``check``, whose stdout carries timings, and stdout
for the others. Prints one line per command that matches. Exit status 0
when every hash matches, 1 at the first mismatch, which is named on
stderr, and 2 when no interpreter is given. Standard library only, so it
runs under interpreters that have no test packages installed.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TYPE = ["--m", "1", "--k1", "2", "--k2", "3"]
WITNESS = ["witness", "--dim", "6", *TYPE, "--count", "5", "--seed", "3"]

# each command with the full sha256 of its output
PINNED = (
    (
        ["check", "--dim", "4", "--props", "all", "--form", "all", "--trials", "30", "--seed", "5"],
        "bc5cc4119c5d9f323ecbfeda9126efc71da627855eacc326057e5a9a3bff9582",
    ),
    (
        ["reconstruct", "--dim", "6", *TYPE, "--pairs", "60", "--seed", "7"],
        "9f8eebf4b133e7a91845bf3ad3b1607b8873986894ad15f88a9d34d0de127a10",
    ),
    (
        ["reconstruct", "--dim", "5", "--m", "0", "--k1", "3", "--k2", "2", "--pairs", "60", "--seed", "7"],
        "d2378d186fad34c06eccfc62005060175bdf6e5db93e7f8b11d995f27e75cff1",
    ),
    (WITNESS, "168e778db8668733261ac9fe6fd71d282028d69f4533fcd79885e93e6f79e306"),
    ([*WITNESS, "--lemma", "1"], "3a7a0a7eaf9c253fb300f4ac9ad8f943ab77a3f28f3d2b8b27cca5226173c5d7"),
    ([*WITNESS, "--lemma", "2"], "b07e9f2f60425b370fa2689d03ee1b0a507d941bb5ea13e05646a262701db499"),
    (["counterexample"], "5c53a55fa0142298bed2656ed526ba009639d98d66a77d55abb204b3ebf42886"),
)


def output_hash(python: str, args: list, report: Path) -> str:
    """The sha256 of what one command writes, or why there is none."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ORTHOKERNEL_SEED", None)
    is_check = args[0] == "check"
    if is_check:
        report.unlink(missing_ok=True)
        args = [*args, "--json", str(report)]
    try:
        done = subprocess.run(
            [python, "-m", "orthokernel", *args],
            cwd=ROOT, env=env, capture_output=True, timeout=600,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"not run: {exc}"
    if is_check:
        if not report.exists():
            return f"no report written (exit {done.returncode})"
        return hashlib.sha256(report.read_bytes()).hexdigest()
    return hashlib.sha256(done.stdout).hexdigest()


def main(pythons: list) -> int:
    if not pythons:
        print(f"usage: {Path(__file__).name} PY [PY ...]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        report = Path(workdir) / "report.json"
        for python in pythons:
            for args, want in PINNED:
                command = f"{python} -m orthokernel {' '.join(args)}"
                got = output_hash(python, args, report)
                if got != want:
                    print(f"mismatch: {command}\n  want {want}\n  got  {got}", file=sys.stderr)
                    return 1
                print(f"ok {want[:8]}  {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
