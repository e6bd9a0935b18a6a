"""The example scripts run end to end and print what they printed before."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "reconstruct_demo.py"
FULL_CHECK = ROOT / "scripts" / "run_full_check.py"

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
        # k1 > k2: the oracle's slots are swapped back for the query
        (["--dim", "4", "--m", "1", "--k1", "3", "--k2", "2"], (3, 2)),
        # k2 = 1 but wrapped, since the swapped type has k2 = 2
        (["--dim", "3", "--m", "0", "--k1", "2", "--k2", "1"], (2, 1)),
        # skew lines with k2 > 1 have no wrapping pair
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


@pytest.mark.parametrize("dims", ["", " , ", "3,x", "3.5"])
def test_full_check_refuses_bad_dims(dims, tmp_path):
    out = tmp_path / "reports"
    proc = run_script(FULL_CHECK, "--dims", dims, "--trials", "1", "--out", str(out))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "--dims" in proc.stderr
    assert not out.exists()
