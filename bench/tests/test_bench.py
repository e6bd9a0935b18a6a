"""Self-tests of the benchmark: span arithmetic, seeded inputs, checks.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def ok():
    return wl.import_fresh()


def build(ok, name, seed, **kwargs):
    return wl.WORKLOADS[name](ok, seed, 1, BENCH / "out", **kwargs)


# ---------------------------------------------------------------------------
# span arithmetic


def scripted_tracer(times):
    ticks = iter(times)
    return tracing.Tracer(clock=lambda: next(ticks))


def test_self_time_subtracts_direct_children():
    # reads: outer start 0, inner 1..3, inner 4..7, outer end 10
    tracer = scripted_tracer([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    s = tracer.summary()
    assert s["outer"]["calls"] == 1
    assert s["outer"]["self_ms"] == pytest.approx(5000.0)
    assert s["outer"]["us_p50"] == pytest.approx(10e6)
    assert s["inner"]["calls"] == 2
    assert s["inner"]["self_ms"] == pytest.approx(5000.0)
    assert s["inner"]["us_p50"] == pytest.approx(2.5e6)
    assert tracer.child_counts("outer", "inner") == 2
    assert tracer.child_counts("inner", "outer") == 0


def test_grandchildren_count_only_against_their_parent():
    # outer 0..20 > middle 2..12 > leaf 4..8
    tracer = scripted_tracer([0.0, 2.0, 4.0, 8.0, 12.0, 20.0])
    leaf = tracer.wrap("leaf", lambda: None)
    middle = tracer.wrap("middle", leaf)
    tracer.wrap("outer", middle)()
    s = tracer.summary()
    assert s["outer"]["self_ms"] == pytest.approx(10000.0)
    assert s["middle"]["self_ms"] == pytest.approx(6000.0)
    assert s["leaf"]["self_ms"] == pytest.approx(4000.0)


def test_raised_span_is_closed_and_generation_error_counted_once(ok):
    tracer = scripted_tracer([0.0, 1.0, 2.0, 5.0])
    tracer.gen_error_type = ok.errors.GenerationError

    def fail():
        raise ok.errors.GenerationError("no draw")

    inner = tracer.wrap("inner", fail)
    with pytest.raises(ok.errors.GenerationError):
        tracer.wrap("outer", inner)()
    s = tracer.summary()
    assert s["outer"]["raised"] == 1 and s["inner"]["raised"] == 1
    assert s["outer"]["self_ms"] == pytest.approx(4000.0)
    assert tracer.generation_errors() == 1


def test_install_wraps_every_binding_and_uninstall_restores(ok):
    perp_m = ok.ortho.perp_m
    meet_parts = ok.flats._meet_parts
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (ok.ortho, ok.reconstruct, ok.properties):
            assert mod.perp_m is not perp_m and mod.perp_m.__wrapped__ is perp_m
        assert ok.ortho._meet_parts.__wrapped__ is meet_parts
        assert ok.flats._meet_parts is meet_parts
    finally:
        tracer.uninstall()
    assert ok.ortho.perp_m is perp_m and ok.reconstruct.perp_m is perp_m
    assert ok.ortho._meet_parts is meet_parts
    assert not any(hasattr(f, "__wrapped__") for f in ok.properties.REGISTRY.values())


def test_reference_factors_average_a_window_around_each_entry():
    import reference

    nominal = reference.NOMINAL_S
    refs = [nominal, 3 * nominal, 2 * nominal, 2 * nominal]
    assert reference.factors(refs, half=1) == pytest.approx([2.0, 2.0, 7 / 3, 2.0])
    assert reference.factor(refs) == pytest.approx(2.0)


def test_steady_takes_each_op_at_its_median_pass_at_nominal_speed():
    import run

    def one_pass(lat, factors):
        return wl.Pass(latencies=lat, keys=["a", "b"], walls=lat, cpus=lat,
                       factors=factors, unit_factors=factors)

    passes = [one_pass([2.0, 6.0], [2.0, 2.0]),   # a slow pass
              one_pass([1.0, 9.0], [1.0, 1.0]),   # b hit by a burst
              one_pass([1.5, 4.5], [1.5, 1.5])]
    lat, walls, cpus = run.steady(passes)
    assert lat == [1.0, 3.0]
    assert walls == [1.0, 3.0] and cpus == [1.0, 3.0]


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(ok, name):
    first = build(ok, name, 7).input_bytes()
    assert build(ok, name, 7).input_bytes() == first
    assert build(ok, name, 8).input_bytes() != first


# ---------------------------------------------------------------------------
# correctness checks reject wrong verdicts


class LyingOracle(wl.CountingOracle):
    """The ground-truth oracle with every verdict negated."""

    def query(self, x1, x2):
        return not super().query(x1, x2)


def test_props_core_rejects_a_counterexample_and_an_exception(ok):
    ids = ok.properties.CORE_PROPERTY_IDS
    lying = build(ok, "props-core", 1, registry={p: lambda ctx: {"reason": "stub"} for p in ids})
    units = lying.units[:5]
    assert lying.run(units).verdicts == [False] * 5

    def raising(ctx):
        raise ValueError("stub")

    broken = build(ok, "props-core", 1, registry={p: raising for p in ids})
    assert broken.run(units).verdicts == [False] * 5

    honest = build(ok, "props-core", 1)
    assert honest.run(units).verdicts == [True] * 5


def test_props_pool_rejects_violations_wrong_counts_and_errors(ok):
    pool = build(ok, "props-pool", 1)
    good = {"property_id": "P-SYM", "form": "identity", "trials": pool.trials,
            "violations": 0}
    wrong = [
        (0, {**good, "violations": 1, "first_counterexample": {"trial": 0}}),
        (0, {**good, "trials": pool.trials - 1}),
        (1, good),
        (0, None),
    ]
    assert pool.failed_trials(0, good) == 0
    assert [pool.failed_trials(*out) for out in wrong] == [1] + [pool.trials] * 3


def test_recon_lines_rejects_a_lying_oracle(ok):
    honest = build(ok, "recon-lines", 3)
    assert all(honest.run(honest.units[:60]).verdicts)
    # units carry their oracles, so the lying run takes its own units
    lying = build(ok, "recon-lines", 3, oracle_factory=LyingOracle)
    units = lying.units[:60]
    verdicts = lying.run(units).verdicts
    consulted = sum(o.queries for o in lying.oracles["witness"])
    assert consulted > 0
    assert verdicts.count(False) >= consulted
    assert not wl.verdict(lying.check_one, units[0], ValueError("stub"))


def test_witness_emit_rejects_a_false_verdict_and_a_bad_round_trip(ok):
    honest = build(ok, "witness-emit", 2)
    units = honest.units[:6]
    outputs = honest.run(units, check=False).outputs
    assert honest.check_all(units, outputs).verdicts == [True] * 6
    lying = build(ok, "witness-emit", 2, verdict=lambda x1, x2, params: False)
    assert lying.check_all(units, outputs).verdicts == [False] * 6
    swapped = [(x1, x2, y2, y1) for x1, x2, y1, y2 in outputs]
    assert honest.check_all(units, swapped).verdicts == [False] * 6


# ---------------------------------------------------------------------------
# the command line contract


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "witness-emit",
         "--seed", "4", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json_and_calls_repeat():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    plain = run_bench("--trace", "0")
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    first, second = run_bench("--trace", "1"), run_bench("--trace", "1")
    assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"]:
        if m["unit"] == "count":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]]
    assert first["metrics"]["ortho.make_perp_pair.calls"]["value"] > 0
