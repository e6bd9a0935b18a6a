"""The example scripts run end to end and print what they printed before,
and the README's Quick start prints what its comments say."""

import ast
import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "reconstruct_demo.py"
FULL_CHECK = ROOT / "scripts" / "run_full_check.py"
CHECK_INTERPRETERS = ROOT / "scripts" / "check_interpreters.py"
LEDGER = ROOT / "scripts" / "ledger.py"
UNREACHED = ROOT / "scripts" / "unreached.py"

# the feet and verdict lines of scripts/reconstruct_demo.py
DEMO_CASES = {
    "default": (
        [],
        [
            "direct direction check: True",
            "common perpendicular feet:",
            '  on l1: ["64/27", "20/27", "-3", "-373/54", "82/9"]',
            '  on l2: ["-187/650", "1487/650", "-1857/650", "-2787/650", "6963/650"]',
            "witness mode verdict: True",
            "sampled mode verdict (K=20): True",
            "agreement with direct check: ok",
        ],
    ),
    "oblique": (
        ["--oblique"],
        [
            "direct direction check: False",
            "witness mode verdict: False",
            "sampled mode verdict (K=20): False",
            "agreement with direct check: ok",
        ],
    ),
    "dim6": (
        ["--seed", "11", "--dim", "6", "--m", "1", "--k1", "2", "--k2", "3"],
        [
            "direct direction check: True",
            "common perpendicular feet:",
            '  on l1: ["-4/3", "-2/7", "-100/21", "3/14", "-51/7", "8/3"]',
            '  on l2: ["-8/3", "89/84", "-445/84", "-289/84", "-403/84", "-299/42"]',
            "witness mode verdict: True",
            "sampled mode verdict (K=20): True",
            "agreement with direct check: ok",
        ],
    ),
}

CHECKED_PREFIXES = ("direct", "common", "  on l", "witness", "sampled", "agreement")


def run_script(script, *argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(script), *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def run_demo(*argv):
    return run_script(DEMO, *argv)


@pytest.mark.parametrize("case", sorted(DEMO_CASES))
def test_reconstruct_demo_prints_the_same_feet_and_verdicts(case):
    argv, want = DEMO_CASES[case]
    proc = run_demo(*argv)
    assert proc.returncode == 0, proc.stderr
    got = [ln for ln in proc.stdout.splitlines() if ln.startswith(CHECKED_PREFIXES)]
    assert got == want


@pytest.mark.parametrize(
    "argv, dims",
    [
        # k1 > k2: one query per flat of the cover of the 2-flat x2,
        # ceil(2 / 1) = 2, each in the oracle's own slot order
        (["--dim", "4", "--m", "1", "--k1", "3", "--k2", "2"], (3, 2, 3, 2)),
        # k2 = 1 < k1: the wrap pads l1 to the plane, l2 stays a line
        (["--dim", "3", "--m", "0", "--k1", "2", "--k2", "1"], (2, 1)),
        # skew lines of any type but (0, 1, 1) have no wrapping pair
        (["--oblique"], None),
    ],
)
def test_reconstruct_demo_prints_what_the_oracle_was_asked(argv, dims):
    proc = run_demo(*argv)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    shown = [
        len(json.loads(ln.split(" = ", 1)[1])["basis"])
        for ln in lines
        if ln.startswith(("  x1 = ", "  x2 = "))
    ]
    if dims is None:
        assert shown == [] and any(ln.startswith("oracle not asked") for ln in lines)
    else:
        assert tuple(shown) == dims


def test_reconstruct_demo_refuses_unsatisfiable_params():
    proc = run_demo("--dim", "3", "--m", "0", "--k1", "1", "--k2", "3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "unsatisfiable in dimension 3" in proc.stderr


def test_reconstruct_demo_refuses_no_samples():
    proc = run_demo("--samples", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: sample_count must be at least 1\n"


@pytest.mark.parametrize("dims", ["", " , ", "3,x", "3.5"])
def test_full_check_refuses_bad_dims(dims, tmp_path):
    out = tmp_path / "reports"
    proc = run_script(FULL_CHECK, "--dims", dims, "--trials", "1", "--out", str(out))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "--dims" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("name", ["report", "report/reports"])
def test_full_check_refuses_an_out_it_cannot_make_a_directory(name, tmp_path):
    # an existing file, and a path under one
    (tmp_path / "report").write_text("kept\n")
    proc = run_script(
        FULL_CHECK, "--dims", "3", "--trials", "1", "--out", str(tmp_path / name)
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: --out needs a directory")
    assert [p.name for p in tmp_path.iterdir()] == ["report"]
    assert (tmp_path / "report").read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["--trials", "0"], []),
        (["--trials", "1", "--props", "P-NOPE"], []),
        # dimension 3 runs and writes its report before 1 is refused
        (["--trials", "1", "--props", "P-SYM", "--dims", "3,1"], [3]),
    ],
)
def test_full_check_stops_at_a_refused_dimension(argv, ran, tmp_path):
    out = tmp_path / "reports"
    proc = run_script(FULL_CHECK, *argv, "--out", str(out))
    assert proc.returncode == 2
    assert [ln for ln in proc.stdout.splitlines() if ln.startswith("dim ")] == [
        f"dim {n}: exit 0, report written to {out / f'check-dim{n}.json'}" for n in ran
    ]
    assert sorted(p.name for p in out.iterdir()) == [f"check-dim{n}.json" for n in ran]
    assert proc.stderr.startswith("error:")
    assert proc.stderr.splitlines()[-1].endswith("exit 2, no report written")


def test_full_check_stops_when_a_generator_gives_up(monkeypatch, capsys, tmp_path):
    """check exits 2 on a GenerationError as on refused input, and writes
    no report either way, so the run stops there as well."""
    from orthokernel import properties
    from orthokernel.errors import GenerationError

    def gives_up(ctx):
        raise GenerationError("no draw after 64 tries")

    monkeypatch.setitem(properties.REGISTRY, "P-SYM", gives_up)
    out = tmp_path / "reports"
    argv = ["--trials", "1", "--props", "P-SYM", "--dims", "3,4", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", [str(FULL_CHECK), *argv])
    assert runpy.run_path(str(FULL_CHECK))["main"]() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: no draw after 64 tries", "dim 3: exit 2, no report written"
    ]
    assert list(out.iterdir()) == []


def test_pinned_outputs_hold_under_this_interpreter():
    proc = run_script(CHECK_INTERPRETERS, sys.executable)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 7 and all(ln.startswith("ok ") for ln in lines)


def test_check_interpreters_names_the_first_mismatch(tmp_path):
    # an "interpreter" that writes no report and the wrong stdout
    fake = tmp_path / "python"
    fake.write_text("#!/bin/sh\necho 0\n")
    fake.chmod(0o755)
    proc = run_script(CHECK_INTERPRETERS, str(fake))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"mismatch: {fake} -m orthokernel check --dim 4")
    assert "no report written" in proc.stderr
    assert run_script(CHECK_INTERPRETERS).returncode == 2


def _ledger_changes(committed: dict, fresh: dict) -> list:
    """Each (section, unit, counter, committed, fresh) that differs; a unit
    or counter present on one side only reads None on the other."""
    out = []
    for section in sorted(committed.keys() | fresh.keys()):
        old, new = committed.get(section, {}), fresh.get(section, {})
        for unit in sorted(old.keys() | new.keys()):
            a, b = old.get(unit, {}), new.get(unit, {})
            for counter in sorted(a.keys() | b.keys()):
                if a.get(counter) != b.get(counter):
                    out.append((section, unit, counter, a.get(counter), b.get(counter)))
    return out


def test_ledger_changes_name_each_moved_counter():
    committed = {"cli": {"counterexample": {"_draws": 0, "_rref_int": 9}}}
    fresh = {"cli": {"counterexample": {"_draws": 0, "_rref_int": 8, "queries": 1}}}
    assert _ledger_changes(committed, fresh) == [
        ("cli", "counterexample", "_rref_int", 9, 8),
        ("cli", "counterexample", "queries", None, 1),
    ]
    assert _ledger_changes(fresh, fresh) == []


def test_the_committed_ledger_is_a_fresh_run(tmp_path):
    # a change to the kernel's work regenerates LEDGER.json; the message
    # names the lines that moved
    path = tmp_path / "ledger.json"
    proc = run_script(LEDGER, str(path))
    assert proc.returncode == 0, proc.stderr
    fresh, committed = path.read_text(), (ROOT / "LEDGER.json").read_text()
    if fresh != committed:
        changes = _ledger_changes(json.loads(committed), json.loads(fresh))
        pytest.fail(
            "LEDGER.json is not a fresh run; (section, unit, counter, committed, fresh):\n"
            + "\n".join(map(str, changes))
        )


# what scripts/unreached.py prints: each function that none of the README's
# commands enters, with its reason in ROADMAP item 9
UNREACHED_NAMES = """\
orthokernel.flats
  AffineSubspace.make
  AffineSubspace.from_point
  AffineSubspace.from_points
orthokernel.linalg
  scalar
  rref_basis
orthokernel.properties
  _wire
  _ce
  run_property
orthokernel.reconstruct
  reconstruct_line_perp
"""


def test_unreached_lists_the_justified_names():
    proc = run_script(UNREACHED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == UNREACHED_NAMES


def _run_with_stated_outputs(block, namespace):
    """Run a code block statement by statement, as the interactive
    interpreter would, and pair what each expression printed or evaluated
    to with the output its comment states: the comment on its last line,
    else the comment lines right below it (None when there is none)."""
    lines = block.splitlines()
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }

    def whole_line(lineno):
        return lines[lineno - 1].lstrip().startswith("#")

    pairs = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        got = out.getvalue().strip() if value is None else repr(value)
        end = stmt.end_lineno
        if end in comments and not whole_line(end):
            stated = comments[end]
        else:
            below = []
            while end + 1 in comments and whole_line(end + 1):
                end += 1
                below.append(comments[end])
            stated = "\n".join(below) or None
        pairs.append((got, stated))
    return pairs


def test_readme_quick_start_prints_what_it_states():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    pairs = [p for block in blocks for p in _run_with_stated_outputs(block, namespace)]
    # perp_g and perp_m, the wire dict, the round trip
    assert len(pairs) == 4 and all(stated for _, stated in pairs)
    assert [got for got, _ in pairs] == [stated for _, stated in pairs]
