"""CLI contract: exit codes, report schema, seeding, byte-stable output."""

import hashlib
import json
import subprocess
import sys

import pytest

from orthokernel.cli import main
from orthokernel.errors import InternalError
from orthokernel.flats import AffineSubspace, meet
from orthokernel.generators import resolve_space, trial_rng
from orthokernel.ortho import TypedPerpParams, perp_m, perp_x
from orthokernel.properties import REGISTRY, PropertyReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_passes_and_prints_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--dim", "2", "--trials", "5",
        "--props", "P-SYM,P-NOINC", "--form", "identity",
    )
    assert code == 0
    assert "P-SYM" in out and "P-NOINC" in out
    assert "total violations: 0" in out


def test_check_exit_one_on_violation(capsys, monkeypatch):
    fake = PropertyReport(
        property_id="P-SYM",
        form="identity",
        trials=5,
        violations=2,
        first_counterexample={"trial": 0, "reason": "synthetic"},
        elapsed_ms=1,
    )
    monkeypatch.setattr("orthokernel.cli.run_suite", lambda *a, **k: [fake])
    code, out, _ = run_cli(capsys, "check", "--dim", "2", "--trials", "5")
    assert code == 1
    assert "total violations: 2" in out


def test_check_reports_a_raising_trial_as_its_violation(capsys, monkeypatch, tmp_path):
    # P-SYM raises at trial 3 of every form; the run still reports every row
    bad = trial_rng(5, "P-SYM", 3).getstate()
    honest = REGISTRY["P-SYM"]

    def raising(ctx):
        if ctx.rng.getstate() == bad:
            raise InternalError("planted")
        return honest(ctx)

    monkeypatch.setitem(REGISTRY, "P-SYM", raising)
    reports = {}
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.json"
        code, out, _ = run_cli(
            capsys, "check", "--dim", "3", "--trials", "16", "--seed", "5",
            "--props", "P-SYM,P-PAR", "--form", "all",
            "--jobs", jobs, "--json", str(path),
        )
        assert code == 1
        assert "total violations: 3" in out
        reports[jobs] = path.read_bytes()
    assert reports["1"] == reports["2"]
    rows = json.loads(reports["1"])["reports"]
    assert [(r["property_id"], r["form"]) for r in rows] == [
        (pid, form) for pid in ("P-PAR", "P-SYM") for form in ("identity", "diag", "tridiag")
    ]
    for row in rows:
        if row["property_id"] == "P-SYM":
            assert row["violations"] == 1
            assert row["first_counterexample"] == {
                "trial": 3, "reason": "raised InternalError: planted"
            }
        else:
            assert row["violations"] == 0


def test_check_unknown_property_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "check", "--dim", "3", "--trials", "2", "--props", "NO-SUCH"
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("props", [",", ""])
def test_check_empty_property_selection_exits_two(capsys, props):
    code, out, err = run_cli(
        capsys, "check", "--dim", "3", "--trials", "2", "--props", props
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("props", ["P-SYM", "P-LEM1-BWD"])
def test_check_unsatisfiable_pinned_params_exit_two(capsys, props):
    code, out, err = run_cli(
        capsys,
        "check", "--dim", "3", "--trials", "2", "--props", props,
        "--m", "0", "--k1", "1", "--k2", "3",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "unsatisfiable in dimension 3" in err


@pytest.mark.parametrize("props", ["P-LEM2", "P-SYM,P-LEM2", "all"])
def test_check_lem2_below_dimension_three_exits_two(capsys, monkeypatch, props):
    # P-LEM2 can draw nothing in the plane; its row would pass vacuously
    ran = []
    monkeypatch.setattr(
        "orthokernel.properties._run_slice", lambda *a: ran.append(a)
    )
    code, out, err = run_cli(
        capsys, "check", "--dim", "2", "--trials", "200", "--props", props
    )
    assert code == 2
    assert out == "" and ran == []
    assert err.startswith("error:") and "P-LEM2" in err


def test_check_lem2_runs_from_dimension_three(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--dim", "3", "--trials", "3", "--props", "P-LEM2",
        "--form", "identity",
    )
    assert code == 0
    assert "P-LEM2" in out and "total violations: 0" in out


def test_check_unknown_form_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "check", "--dim", "3", "--trials", "2", "--form", "lorentz"
    )
    assert code == 2
    assert "lorentz" in err


def test_check_missing_form_file_exits_two(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(
        capsys, "check", "--dim", "2", "--trials", "2", "--form", str(missing)
    )
    assert code == 2
    assert "error:" in err


def test_check_form_file(capsys, tmp_path):
    form_file = tmp_path / "form.json"
    form_file.write_text('[["2", "0"], ["0", "1"]]')
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "check", "--dim", "2", "--trials", "4", "--props", "P-SYM",
        "--form", str(form_file), "--json", str(report_file),
    )
    assert code == 0
    payload = json.loads(report_file.read_text())
    assert payload["config"]["forms"] == [[["2", "0"], ["0", "1"]]]
    assert payload["reports"][0]["form"] == "custom"


def test_check_form_file_of_other_dim_exits_two(capsys, tmp_path):
    form_file = tmp_path / "form.json"
    form_file.write_text('[["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]')
    report_file = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys,
        "check", "--dim", "5", "--trials", "4", "--props", "P-SYM",
        "--form", str(form_file), "--json", str(report_file),
    )
    assert code == 2
    assert err.startswith("error:") and "3 x 3" in err
    assert not report_file.exists()


@pytest.mark.parametrize("rows", ["[1, 2]", "[[1, 2], 3]"])
def test_check_form_file_rows_not_lists_exits_two(capsys, tmp_path, rows):
    form_file = tmp_path / "form.json"
    form_file.write_text(rows)
    code, _, err = run_cli(
        capsys,
        "check", "--dim", "2", "--trials", "4", "--props", "P-SYM",
        "--form", str(form_file),
    )
    assert code == 2
    assert err.startswith("error:")


def test_check_json_report_schema(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "check", "--dim", "3", "--trials", "5", "--seed", "11",
        "--props", "P-SYM,P-PAR", "--form", "identity",
        "--json", str(report_file),
    )
    assert code == 0
    payload = json.loads(report_file.read_text())
    assert payload["schema"] == 1
    cfg = payload["config"]
    assert cfg["dim"] == 3 and cfg["seed"] == 11 and cfg["trials"] == 5
    assert cfg["props"] == ["P-PAR", "P-SYM"]
    assert cfg["forms"] == ["identity"]
    # the fixed draw policy stays in the config as fields of schema 1
    assert cfg["numerator_bound"] == 9
    assert cfg["denominator_bound"] == 3
    assert cfg["retries"] == 64
    assert cfg["sample_count"] == 20
    reports = payload["reports"]
    assert [r["property_id"] for r in reports] == ["P-PAR", "P-SYM"]
    for r in reports:
        assert r["violations"] == 0
        assert "elapsed_ms" not in r
        assert "first_counterexample" not in r


def test_check_reports_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            "check", "--dim", "3", "--trials", "10", "--seed", "42",
            "--props", "P-SYM,P-REFL,P-UNIQ", "--form", "all",
            "--json", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_check_report_bytes_are_pinned(capsys, tmp_path):
    # pins every draw of every property and form at dim 4: a change to any
    # draw, verdict or report field changes this hash
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "check", "--dim", "4", "--trials", "20", "--seed", "42",
        "--props", "all", "--form", "all", "--jobs", "1", "--json", str(path),
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7925ff92d4893f3f86cfbbd319d508da6f9ff46ac2fd4e26371cf203cf51ba2b"
    )


@pytest.mark.parametrize("form", ["all", "custom"])
def test_check_report_bytes_do_not_depend_on_jobs(capsys, tmp_path, form):
    if form == "custom":
        form = tmp_path / "form.json"
        form.write_text(
            '[["3/2", "1/3", "0"], ["1/3", "2", "1/2"], ["0", "1/2", "5/4"]]'
        )
    paths = []
    # 13 trials: 2 and 3 jobs make unequal slices, 4 jobs run in process
    for jobs in (1, 2, 3, 4):
        path = tmp_path / f"jobs{jobs}.json"
        code, _, _ = run_cli(
            capsys,
            "check", "--dim", "3", "--trials", "13", "--props", "all",
            "--form", str(form), "--jobs", str(jobs), "--json", str(path),
        )
        assert code == 0
        paths.append(path)
    assert all(p.read_bytes() == paths[0].read_bytes() for p in paths[1:])


def test_check_pinned_params_flow_into_config(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "check", "--dim", "4", "--trials", "4", "--props", "P-NONTRIV",
        "--form", "identity", "--m", "1", "--k1", "2", "--k2", "2",
        "--json", str(report_file),
    )
    assert code == 0
    payload = json.loads(report_file.read_text())
    assert payload["config"]["perp_params"] == {"m": 1, "k1": 2, "k2": 2}


def test_check_rejects_swapped_pinned_params(capsys):
    code, _, err = run_cli(
        capsys,
        "check", "--dim", "4", "--trials", "2",
        "--m", "1", "--k1", "3", "--k2", "2",
    )
    assert code == 2 and "k1 <= k2" in err


def test_check_accepts_swapped_pinned_params_without_lemma_one(capsys):
    # only P-LEM1-BWD needs k1 <= k2; these ids read the pinned type
    code, out, _ = run_cli(
        capsys,
        "check", "--dim", "5", "--trials", "6", "--form", "all",
        "--props", "P-LEM1-FWD,P-RECON,P-MODE-CONSIST",
        "--m", "0", "--k1", "3", "--k2", "2",
    )
    assert code == 0 and "total violations: 0" in out


def test_check_rejects_partial_params(capsys):
    code, _, err = run_cli(capsys, "check", "--dim", "4", "--trials", "2", "--m", "1")
    assert code == 2 and "together" in err


# ---------------------------------------------------------------------------
# seeding


def test_seed_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOKERNEL_SEED", "77")
    report_file = tmp_path / "report.json"
    run_cli(
        capsys,
        "check", "--dim", "2", "--trials", "2", "--props", "P-SYM",
        "--form", "identity", "--json", str(report_file),
    )
    assert json.loads(report_file.read_text())["config"]["seed"] == 77


def test_seed_flag_beats_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOKERNEL_SEED", "77")
    report_file = tmp_path / "report.json"
    run_cli(
        capsys,
        "check", "--dim", "2", "--trials", "2", "--props", "P-SYM",
        "--form", "identity", "--seed", "5", "--json", str(report_file),
    )
    assert json.loads(report_file.read_text())["config"]["seed"] == 5


def test_invalid_seed_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("ORTHOKERNEL_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "check", "--dim", "2", "--trials", "2")
    assert code == 2
    assert "ORTHOKERNEL_SEED" in err


# ---------------------------------------------------------------------------
# witness


def test_witness_emits_verified_pairs(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness", "--dim", "4", "--count", "2",
        "--m", "1", "--k1", "2", "--k2", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["witnesses"]) == 2
    space = resolve_space(4, "identity")
    params = TypedPerpParams(1, 2, 2)
    for item in payload["witnesses"]:
        x1 = AffineSubspace.from_wire(space, item["x1"])
        x2 = AffineSubspace.from_wire(space, item["x2"])
        assert perp_m(x1, x2, params)


def test_witness_lemma_one_items(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness", "--dim", "4", "--count", "2", "--lemma", "1",
        "--m", "1", "--k1", "2", "--k2", "2",
    )
    assert code == 0
    payload = json.loads(out)
    space = resolve_space(4, "identity")
    for item in payload["witnesses"]:
        x1 = AffineSubspace.from_wire(space, item["x1"])
        x2 = AffineSubspace.from_wire(space, item["x2"])
        assert x1.dim == 2
        cut = meet(x1, x2)
        assert cut is not None and cut.dim == 1


def test_witness_lemma_two_items(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness", "--dim", "4", "--count", "3", "--lemma", "2",
        "--m", "0", "--k1", "1", "--k2", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["witnesses"]) == 3
    space = resolve_space(4, "identity")
    for item in payload["witnesses"]:
        x1 = AffineSubspace.from_wire(space, item["x1"])
        x2 = AffineSubspace.from_wire(space, item["x2"])
        assert perp_x(x1, x2)


def test_witness_swapped_params_need_lemma_one_only(capsys):
    argv = ("witness", "--dim", "5", "--count", "3", "--m", "0", "--k1", "3", "--k2", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    space = resolve_space(5, "identity")
    params = TypedPerpParams(0, 3, 2)
    for item in json.loads(out)["witnesses"]:
        x1 = AffineSubspace.from_wire(space, item["x1"])
        x2 = AffineSubspace.from_wire(space, item["x2"])
        assert perp_m(x1, x2, params)
    assert run_cli(capsys, *argv, "--lemma", "2")[0] == 0
    code, _, err = run_cli(capsys, *argv, "--lemma", "1")
    assert code == 2 and "k1 <= k2" in err


def test_witness_requires_params(capsys):
    code, _, err = run_cli(capsys, "witness", "--dim", "3")
    assert code == 2 and "required" in err


def test_witness_unsatisfiable_params_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "witness", "--dim", "3", "--m", "0", "--k1", "2", "--k2", "2"
    )
    assert code == 2 and "error:" in err


def test_witness_lemma_two_needs_wide_partner(capsys):
    code, _, err = run_cli(
        capsys,
        "witness", "--dim", "4", "--lemma", "2",
        "--m", "0", "--k1", "1", "--k2", "1",
    )
    assert code == 2 and "k2 >= 2" in err


def test_witness_lemma_two_needs_room(capsys):
    code, _, _ = run_cli(
        capsys,
        "witness", "--dim", "3", "--lemma", "2",
        "--m", "0", "--k1", "2", "--k2", "2",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_small_run(capsys, tmp_path):
    report_file = tmp_path / "recon.json"
    code, out, _ = run_cli(
        capsys,
        "reconstruct", "--dim", "2", "--pairs", "6",
        "--m", "0", "--k1", "1", "--k2", "1",
        "--samples", "4", "--json", str(report_file),
    )
    assert code == 0
    assert "witness agreement 6/6" in out
    assert "sampled contradictions 0" in out
    payload = json.loads(report_file.read_text())
    assert payload["witness_agreements"] == 6
    assert payload["sampled_contradictions"] == 0


def test_reconstruct_witness_only_mode(capsys, tmp_path):
    report_file = tmp_path / "recon.json"
    code, out, _ = run_cli(
        capsys,
        "reconstruct", "--dim", "4", "--pairs", "4", "--mode", "witness",
        "--m", "1", "--k1", "2", "--k2", "2", "--json", str(report_file),
    )
    assert code == 0
    assert "sampled" not in out
    payload = json.loads(report_file.read_text())
    assert payload["witness_agreements"] == 4
    assert payload["sampled_contradictions"] is None


def test_reconstruct_unsatisfiable_exits_two(capsys):
    code, _, err = run_cli(
        capsys,
        "reconstruct", "--dim", "2", "--pairs", "2",
        "--m", "1", "--k1", "2", "--k2", "2",
    )
    assert code == 2 and "unsatisfiable" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["witness", "--dim", "3", "--m", "0", "--k1", "1", "--k2", "1",
          "--count", "-1"], "--count"),
        (["check", "--dim", "2", "--trials", "8", "--props", "P-SYM",
          "--form", "identity", "--jobs", "0"], "--jobs"),
        (["reconstruct", "--dim", "2", "--m", "0", "--k1", "1", "--k2", "1",
          "--pairs", "-1"], "--pairs"),
        (["reconstruct", "--dim", "2", "--m", "0", "--k1", "1", "--k2", "1",
          "--pairs", "0"], "--pairs"),
    ],
)
def test_nonpositive_counts_exit_two(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and flag in err


def _refuse_work(*args, **kwargs):
    raise AssertionError("work ran before the report path was checked")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--dim", "3", "--trials", "2", "--props", "P-SYM"],
        ["reconstruct", "--dim", "3", "--m", "0", "--k1", "1", "--k2", "1",
         "--pairs", "2"],
        ["counterexample"],
    ],
)
def test_json_into_a_missing_directory_exits_two_before_any_work(
    capsys, monkeypatch, tmp_path, argv
):
    for name in ("run_suite", "gen_line_pair", "emit_counterexamples"):
        monkeypatch.setattr(f"orthokernel.cli.{name}", _refuse_work)
    # a file in a missing directory, an empty name, an existing directory
    for target, named in (
        (str(tmp_path / "missing" / "report.json"), str(tmp_path / "missing")),
        ("", "--json"),
        (str(tmp_path), str(tmp_path)),
    ):
        code, out, err = run_cli(capsys, *argv, "--json", target)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err


def test_json_write_failure_exits_two(capsys, monkeypatch, tmp_path):
    def refuse_write(self, *args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr("pathlib.Path.write_text", refuse_write)
    target = tmp_path / "cex.json"
    code, _, err = run_cli(capsys, "counterexample", "--json", str(target))
    assert code == 2
    assert err.startswith("error:") and str(target) in err
    assert "no space left" in err


# ---------------------------------------------------------------------------
# counterexample and parser plumbing


def test_counterexample_output(capsys, tmp_path):
    out_file = tmp_path / "cex.json"
    code, out, _ = run_cli(capsys, "counterexample", "--json", str(out_file))
    assert code == 0
    stdout_payload = json.loads(out)
    assert [i["label"] for i in stdout_payload["instances"]] == [
        "grow-partner-breaks-perp",
        "shrink-partner-breaks-perp",
    ]
    assert json.loads(out_file.read_text()) == stdout_payload


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_bad_flag_exits_two(capsys):
    assert main(["check", "--dim", "3", "--no-such-flag"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, usage, stray",
    [
        (["check", "--dim", "4", "--retries", "1"], "orthokernel check ",
         "--retries 1"),
        (["witness", "--dim", "4", "--no-such-flag"], "orthokernel witness ",
         "--no-such-flag"),
        (["reconstruct", "--dim", "4", "stray"], "orthokernel reconstruct ",
         "stray"),
        (["counterexample", "--no-such-flag"], "orthokernel counterexample ",
         "--no-such-flag"),
        # an option before the subcommand is the top-level parser's
        (["--no-such-flag", "check", "--dim", "4"], "orthokernel [-h]",
         "--no-such-flag"),
    ],
    ids=["check", "witness", "reconstruct", "counterexample", "top-level"],
)
def test_unknown_argument_shows_the_usage_it_belongs_to(capsys, argv, usage, stray):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: {usage}")
    assert f"error: unrecognized arguments: {stray}\n" in err


@pytest.mark.parametrize(
    "flag", [("--retries", "64"), ("--numerator-bound", "9"),
             ("--denominator-bound", "3")],
    ids=lambda flag: flag[0],
)
def test_draw_policy_is_not_a_flag(capsys, monkeypatch, tmp_path, flag):
    monkeypatch.setattr("orthokernel.cli.run_suite", _refuse_work)
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "check", "--dim", "3", "--trials", "2", *flag,
        "--json", str(report),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage:") and f"unrecognized arguments: {flag[0]}" in err
    assert not report.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "orthokernel",
            "check", "--dim", "2", "--trials", "3",
            "--props", "P-SYM", "--form", "identity",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total violations: 0" in proc.stdout
