"""Property runner: registry, report shape, determinism, self-falsification."""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import pytest

import orthokernel.properties as props
from orthokernel.cli import main
from orthokernel.errors import GenerationError, InputError
from orthokernel.generators import GenConfig, space_of, super_flat, trial_rng
from orthokernel.ortho import TypedPerpParams
from orthokernel.properties import (
    ALL_PROPERTY_IDS,
    CORE_PROPERTY_IDS,
    EXTENDED_PROPERTY_IDS,
    REGISTRY,
    default_forms,
    run_property,
    run_suite,
)


def small_cfg(**kwargs):
    base = {"dim": 3, "seed": 2024}
    base.update(kwargs)
    return GenConfig(**base)


# ---------------------------------------------------------------------------
# registry


def test_registry_is_complete():
    assert len(CORE_PROPERTY_IDS) == 23
    assert len(EXTENDED_PROPERTY_IDS) == 6
    assert ALL_PROPERTY_IDS == CORE_PROPERTY_IDS + EXTENDED_PROPERTY_IDS
    assert len(set(ALL_PROPERTY_IDS)) == len(ALL_PROPERTY_IDS)
    assert set(REGISTRY) == set(ALL_PROPERTY_IDS)


@pytest.mark.parametrize("property_id", ALL_PROPERTY_IDS)
def test_property_holds_on_small_battery(property_id):
    report = run_property(property_id, small_cfg(), trials=25)
    assert report.trials == 25
    assert report.violations == 0
    assert report.first_counterexample is None


def test_properties_hold_on_other_forms():
    for form in ("diag", "tridiag"):
        for pid in ("P-SYM", "P-UNIQ", "P-NONTRIV", "P-RECON"):
            report = run_property(pid, small_cfg(dim=4, form=form), trials=10)
            assert report.violations == 0, (pid, form)


# ---------------------------------------------------------------------------
# runner validation


def test_run_property_rejects_unknown_id():
    with pytest.raises(InputError):
        run_property("P-NOPE", small_cfg(), trials=5)


def test_run_property_rejects_bad_trials():
    with pytest.raises(InputError):
        run_property("P-SYM", small_cfg(), trials=0)


@pytest.mark.parametrize("trials", [True, 2.5, 10.0, "10"])
def test_run_suite_rejects_trials_that_are_not_ints(trials):
    # True would run one trial and report "trials": true
    with pytest.raises(InputError, match="^trials must be an int$"):
        run_suite(small_cfg(), ["P-SYM"], trials)


@pytest.mark.parametrize("jobs", [True, 1.5, 2.0])
def test_run_suite_rejects_jobs_that_are_not_ints(jobs):
    with pytest.raises(InputError, match="^jobs must be an int$"):
        run_suite(small_cfg(), ["P-SYM"], 10, jobs=jobs)


def test_run_property_rejects_tiny_dimension():
    with pytest.raises(InputError):
        run_property("P-SYM", small_cfg(dim=1), trials=5)


# ---------------------------------------------------------------------------
# what the laws build


def _meets_built(monkeypatch, property_id: str) -> int:
    """Meet flats the law builds over 50 trials at dims 3-6 under each
    named form, seed 11: 600 trials."""
    built = 0
    real = props.meet

    def counted(x, y):
        nonlocal built
        built += 1
        return real(x, y)

    monkeypatch.setattr(props, "meet", counted)
    for n in range(3, 7):
        for report in run_suite(GenConfig(dim=n, seed=11), [property_id], 50):
            assert report.violations == 0
    return built


@pytest.mark.parametrize("property_id", ["P-MEET-NONEMPTY", "P-AXO-b", "P-PAR", "P-REFL"])
def test_a_non_emptiness_test_builds_no_meet(monkeypatch, property_id):
    # these laws only ask whether two flats meet, which the meet's
    # dimension answers
    assert _meets_built(monkeypatch, property_id) == 0


def test_uniqueness_builds_one_meet_per_trial(monkeypatch):
    # the complement's own meet with b; a random candidate that fails the
    # relation has its meet never built
    assert _meets_built(monkeypatch, "P-UNIQ") == 600


# ---------------------------------------------------------------------------
# the harness must be able to see a broken relation


def test_falsified_relation_is_caught(monkeypatch):
    def biased(x, y):
        return x.dim < y.dim

    monkeypatch.setattr(props, "perp_g", biased)
    report = run_property("P-SYM", small_cfg(), trials=40)
    assert report.violations > 0
    fc = report.first_counterexample
    assert fc is not None
    assert isinstance(fc["trial"], int) and 0 <= fc["trial"] < 40
    assert isinstance(fc["reason"], str)
    assert set(fc["a"]) == {"point", "basis"}
    assert set(fc["b"]) == {"point", "basis"}


def test_counterexample_key_tracks_violations(monkeypatch):
    clean = run_property("P-SYM", small_cfg(), trials=10)
    assert clean.violations == 0
    assert "first_counterexample" not in clean.to_json_dict()

    monkeypatch.setattr(props, "perp_g", lambda x, y: x.dim < y.dim)
    dirty = run_property("P-SYM", small_cfg(), trials=40)
    assert dirty.violations > 0
    assert "first_counterexample" in dirty.to_json_dict()


def test_lem2_draws_do_not_depend_on_samples(monkeypatch):
    # --samples counts sampled-reconstruction candidates only: P-LEM2 tries
    # the same super-flat pairs around non-orthogonal lines at any count
    calls = []

    def counted_super_flat(*args):
        calls.append(args[1])
        return super_flat(*args)

    monkeypatch.setattr(props, "super_flat", counted_super_flat)
    draws = {}
    for samples in (1, 20):
        cfg = small_cfg(dim=4, sample_count=samples)
        space = space_of(cfg)
        calls.clear()
        states = []
        for t in range(40):
            rng = trial_rng(cfg.seed, "P-LEM2", t)
            assert REGISTRY["P-LEM2"](props.TrialContext(space, cfg, rng, Counter())) is None
            states.append(rng.getstate())
        draws[samples] = (list(calls), states)
    assert draws[1] == draws[20]
    assert len(draws[20][0]) > 80


# ---------------------------------------------------------------------------
# reports


def test_report_json_shape():
    report = run_property("P-REFL", small_cfg(), trials=30)
    payload = report.to_json_dict()
    assert payload["property_id"] == "P-REFL"
    assert payload["form"] == "identity"
    assert payload["trials"] == 30
    assert payload["violations"] == 0
    assert "elapsed_ms" not in payload
    json.dumps(payload)


def test_report_is_frozen():
    report = run_property("P-SYM", small_cfg(), trials=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.violations = 1


def test_identical_runs_identical_reports():
    a = run_property("P-REFL", small_cfg(), trials=30)
    b = run_property("P-REFL", small_cfg(), trials=30)
    assert a.to_json_dict() == b.to_json_dict()


def test_worker_count_does_not_change_report():
    serial = run_property("P-REFL", small_cfg(), trials=24, jobs=1)
    forked = run_property("P-REFL", small_cfg(), trials=24, jobs=2)
    assert serial.to_json_dict() == forked.to_json_dict()


# ---------------------------------------------------------------------------
# suites


def test_default_forms():
    assert default_forms() == ("identity", "diag", "tridiag")


def test_run_suite_ordering():
    reports = run_suite(small_cfg(), ["P-SYM", "P-PAR", "P-NOINC"], trials=5)
    labels = [(r.property_id, r.form) for r in reports]
    assert labels == [
        ("P-NOINC", "identity"),
        ("P-NOINC", "diag"),
        ("P-NOINC", "tridiag"),
        ("P-PAR", "identity"),
        ("P-PAR", "diag"),
        ("P-PAR", "tridiag"),
        ("P-SYM", "identity"),
        ("P-SYM", "diag"),
        ("P-SYM", "tridiag"),
    ]
    assert all(r.violations == 0 for r in reports)


def test_run_suite_rejects_unknown_ids():
    with pytest.raises(InputError) as exc:
        run_suite(small_cfg(), ["P-SYM", "P-BAD", "P-WORSE"], trials=5)
    assert "P-BAD" in str(exc.value) and "P-WORSE" in str(exc.value)


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial ran before the pinned params were checked")


def test_run_suite_rejects_swapped_pinned_params(monkeypatch):
    monkeypatch.setattr(props, "_run_slice", _no_trial)
    cfg = GenConfig(dim=4, perp_params=TypedPerpParams(0, 2, 1))
    with pytest.raises(InputError, match="k1 <= k2"):
        run_suite(cfg, ["P-LEM1-BWD"], 5)


def test_run_suite_custom_form_label():
    form = (("2", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))
    reports = run_suite(small_cfg(), ["P-SYM"], trials=5, forms=[form])
    assert len(reports) == 1
    assert reports[0].form == "custom"
    assert reports[0].violations == 0


# ---------------------------------------------------------------------------
# one fork context per suite


def counting_get_context(monkeypatch):
    calls = []
    real = props.get_context

    def counted(method):
        calls.append(method)
        return real(method)

    monkeypatch.setattr(props, "get_context", counted)
    return calls


@pytest.mark.parametrize(
    "jobs, trials, pools", [(2, 16, 1), (1, 16, 0), (2, 7, 0), (3, 11, 0)]
)
def test_run_suite_forks_at_most_one_pool(monkeypatch, jobs, trials, pools):
    calls = counting_get_context(monkeypatch)
    reports = run_suite(
        small_cfg(), ["P-SYM", "P-PAR", "P-NOINC"], trials=trials, jobs=jobs
    )
    assert len(reports) == 9
    assert all(r.trials == trials and r.violations == 0 for r in reports)
    assert calls == ["fork"] * pools


def test_violation_survives_the_scatter(monkeypatch):
    cfg = small_cfg()
    bad = {trial_rng(cfg.seed, "P-SYM", t).getstate(): t for t in (5, 13)}
    honest = REGISTRY["P-SYM"]

    def flaky(ctx):
        t = bad.get(ctx.rng.getstate())
        if t is not None:
            return {"reason": f"planted failure at trial {t}"}
        return honest(ctx)

    monkeypatch.setitem(REGISTRY, "P-SYM", flaky)
    calls = counting_get_context(monkeypatch)
    args = (cfg, ["P-SYM", "P-REFL"], 16, ["identity", "diag"])
    pooled = run_suite(*args, jobs=2)
    assert calls == ["fork"]
    serial = run_suite(*args, jobs=1)
    assert [r.to_json_dict() for r in pooled] == [r.to_json_dict() for r in serial]
    refl = [r for r in pooled if r.property_id == "P-REFL"]
    assert all(r.notes is not None for r in refl)
    for r in pooled:
        if r.property_id == "P-SYM":
            assert r.violations == 2
            assert r.first_counterexample == {
                "trial": 5, "reason": "planted failure at trial 5"
            }


def test_elapsed_ms_sums_the_slices(monkeypatch):
    def slow(ctx):
        time.sleep(0.01)
        return None

    monkeypatch.setitem(REGISTRY, "P-SYM", slow)
    (report,) = run_suite(small_cfg(), ["P-SYM"], 16, ["identity"], jobs=2)
    # the caller and one worker share the 16 trials; their loop times add up
    assert report.elapsed_ms >= 160


# ---------------------------------------------------------------------------
# the caller's share and the forked workers


def _logging_trial(path, cfg, property_id):
    """The property's trial, appending its pid, form and trial index to
    path, through which the forked workers' trials come back too."""
    index = {trial_rng(cfg.seed, property_id, t).getstate(): t for t in range(64)}
    honest = REGISTRY[property_id]

    def trial(ctx):
        with open(path, "a") as out:
            out.write(f"{os.getpid()} {ctx.cfg.form} {index[ctx.rng.getstate()]}\n")
        return honest(ctx)

    return trial


def test_the_caller_runs_slice_0_and_jobs_minus_1_workers_the_rest(monkeypatch, tmp_path):
    cfg, jobs, trials = small_cfg(), 3, 13
    log = tmp_path / "trials.log"
    monkeypatch.setitem(REGISTRY, "P-SYM", _logging_trial(log, cfg, "P-SYM"))
    run_suite(cfg, ["P-SYM"], trials, ["identity", "diag"], jobs=jobs)
    runs = [line.split() for line in log.read_text().splitlines()]
    forms = ("diag", "identity")
    assert sorted((form, int(t)) for _, form, t in runs) == [
        (form, t) for form in forms for t in range(trials)
    ]
    bounds = [trials * i // jobs for i in range(jobs + 1)]
    slices = {}
    for pid, form, t in runs:
        slices.setdefault(int(pid), set()).add((form, bisect_right(bounds, int(t)) - 1))
    assert slices.pop(os.getpid()) == {(form, 0) for form in forms}
    assert sorted(map(sorted, slices.values())) == [
        [(form, w) for form in forms] for w in range(1, jobs)
    ]


def _fails_in_workers(monkeypatch, error):
    """P-SYM raises error in every process but this one."""
    caller, honest = os.getpid(), REGISTRY["P-SYM"]

    def trial(ctx):
        if os.getpid() != caller:
            raise error
        return honest(ctx)

    monkeypatch.setitem(REGISTRY, "P-SYM", trial)


def test_a_generation_error_in_a_worker_exits_2(monkeypatch, capsys):
    _fails_in_workers(monkeypatch, GenerationError("planted in a worker"))
    argv = ["check", "--dim", "3", "--props", "P-SYM", "--form", "identity",
            "--trials", "16", "--seed", "1", "--jobs", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: planted in a worker\n"


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("planted", [False, True])
def test_a_scattered_call_leaves_no_child_and_no_fd(monkeypatch, planted):
    if planted:
        _fails_in_workers(monkeypatch, GenerationError("planted in a worker"))
    before = _open_fds()
    with pytest.raises(GenerationError) if planted else contextlib.nullcontext():
        run_suite(small_cfg(), ["P-PAR", "P-SYM"], 16, jobs=3)
    assert multiprocessing.active_children() == []
    assert _open_fds() <= before


DYING_WORKER = """
import multiprocessing, os
from orthokernel import properties
from orthokernel.errors import InternalError
from orthokernel.generators import GenConfig

caller, honest = os.getpid(), properties.REGISTRY["P-SYM"]

def trial(ctx):
    if os.getpid() != caller:
        os._exit(3)
    return honest(ctx)

properties.REGISTRY["P-SYM"] = trial
before = len(os.listdir("/proc/self/fd"))
try:
    properties.run_suite(GenConfig(dim=3, seed=1), ["P-SYM"], 16, ["identity"], jobs=2)
except InternalError as exc:
    print(exc)
print(multiprocessing.active_children())
print(len(os.listdir("/proc/self/fd")) - before)
"""


def test_a_dying_worker_makes_the_run_raise():
    # in a subprocess: a runner that waits for the dead worker for good
    # fails this test by its timeout instead of hanging the suite
    src = Path(props.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", DYING_WORKER],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    message, children, fds = done.stdout.splitlines()
    assert message == "a check worker exited with code 3 before sending its trials"
    assert children == "[]" and int(fds) <= 0
