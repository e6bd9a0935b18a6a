"""Benchmark for orthokernel: one workload per run, result as a JSON line.

    python3 bench/run.py --workload props-core --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs the same units once untraced and once with
spans around each layer's public functions, and prints the per-layer
metrics.  The last line of standard output is the result object;
the full result, with its context block, also goes to ``bench/out/``.
The exit code is 1 when any op fails its correctness check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
# reference blocks timed on each side of a set-up
SETUP_REFS = 64


def load_workload_module():
    """Put the checkout's own ``src`` first on the path; refuse without it."""
    if not (SRC / "orthokernel" / "__init__.py").is_file():
        sys.exit(f"error: no orthokernel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_digest() -> str:
    """sha256 over every file under src/, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def timed_pass(workload, units, check: bool = True):
    """Run the units once; checks run between ops and outside every time."""
    kids0 = child_cpu_seconds()
    result = workload.run(units, check)
    result.child_cpu = child_cpu_seconds() - kids0
    return result


def steady(passes) -> tuple[list, list, list]:
    """Per op and per unit, the median over passes of its time at nominal
    host speed: each time divided by the host's slowdown around it.

    Every pass runs the same units on the same inputs; the median drops a
    pass that a burst of load hit harder than the reference blocks around
    it show.
    """
    lat: dict = {}
    for p in passes:
        for key, x, f in zip(p.keys, p.latencies, p.factors):
            lat.setdefault(key, []).append(x / f)
    walls = zip(*([w / f for w, f in zip(p.walls, p.unit_factors)] for p in passes))
    cpus = zip(*([c / f for c, f in zip(p.cpus, p.unit_factors)] for p in passes))
    return ([statistics.median(v) for v in lat.values()],
            [statistics.median(v) for v in walls], [statistics.median(v) for v in cpus])


def nominal_wall(p) -> float:
    """Time a pass spent inside ops, at nominal host speed."""
    return sum(w / f for w, f in zip(p.walls, p.unit_factors))


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_times(n: int) -> list[float]:
    clock, out = time.perf_counter, []
    for _ in range(n):
        t0 = clock()
        reference.block()
        out.append(clock() - t0)
    return out


def set_up(wl, name: str, seed: int, seconds: int):
    """Import, resolve spaces, generate inputs and warm up; median of repeats,
    each at nominal host speed as measured by reference blocks on both sides."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_times(SETUP_REFS)
        t0 = time.perf_counter()
        ok = wl.import_fresh()
        workload = wl.WORKLOADS[name](ok, seed, seconds, OUT)
        workload.run(workload.warmup)
        took = time.perf_counter() - t0
        times.append(took / reference.factor(before + reference_times(SETUP_REFS)))
    # inputs live for the whole run; keep them out of every collection
    gc.collect()
    gc.freeze()
    return workload, statistics.median(times)


def end_to_end(workload, setup_s: float) -> tuple[dict, dict]:
    from workloads import ROUNDS

    passes = [timed_pass(workload, workload.units) for _ in range(ROUNDS)]
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    lat, walls, cpus = steady(passes)
    wall, cpu = sum(walls), sum(cpus)
    lat_ms = [x * 1e3 for x in lat]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "ops_per_s": (len(lat) / wall, "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p99": (percentile(lat_ms, 99), "ms"),
        "peak_rss_mb": ((me + kids) / 1024, "MB"),
    }
    extra = {"latency_samples": len(lat_ms), "rounds": len(passes),
             "round_walls_s": [sum(p.walls) for p in passes],
             "round_cpus_s": [sum(p.cpus) for p in passes],
             "round_host_factors": [reference.factor(p.refs) for p in passes]}
    samples = {"op_ms": lat_ms}
    return metrics, {"passes": passes, "samples": samples, **extra}


def per_layer(workload) -> tuple[dict, dict]:
    import tracing

    units = workload.units
    plain = timed_pass(workload, units)
    tracer = tracing.Tracer()
    workload.instrument(tracer)
    workload.reset_counts()
    tracer.install()
    try:
        traced = timed_pass(workload, units, check=False)
    finally:
        tracer.uninstall()
    if traced.outputs is not None:
        checked = workload.check_all(units, traced.outputs)
        traced.verdicts, traced.first_failure = checked.verdicts, checked.first_failure
    summary = tracer.summary()
    metrics: dict = {}
    for span in tracing.SPAN_NAMES:
        row = summary.get(span, {"calls": 0, "self_ms": 0.0, "us_p50": 0.0})
        metrics[f"{span}.calls"] = (row["calls"], "count")
        metrics[f"{span}.self_ms"] = (row["self_ms"], "ms")
        metrics[f"{span}.us_p50"] = (row["us_p50"], "us")
    made = summary.get("ortho.make_perp_pair", {"calls": 0, "raised": 0})
    verified = tracer.child_counts("ortho.make_perp_pair", "ortho.perp_m")
    metrics["ortho.make_perp_pair.verify_ratio"] = (
        (made["calls"] - made["raised"]) / verified if verified else 0.0, "ratio")
    n_ops = len(traced.verdicts)
    for key, value in workload.layer_counts(n_ops).items():
        metrics[key] = (value, "count/op")
    for mode in ("witness", "sampled"):
        metrics.setdefault(f"reconstruct.oracle.queries_per_pair.{mode}", (0.0, "count/op"))
    metrics["generators.generation_errors"] = (tracer.generation_errors(), "count")
    rates = workload.trials_by_pid(units, plain)
    for pid in workload.ok.properties.CORE_PROPERTY_IDS:
        trials, secs = rates.get(pid, (0, 0.0))
        metrics[f"properties.{pid}.trials_per_s"] = (trials / secs if secs else 0.0, "1/s")
    metrics["properties.pool.starts"] = (
        summary.get("properties.pool", {"calls": 0})["calls"], "count")
    metrics["properties.pool.busy_ratio"] = (
        plain.child_cpu / (workload.jobs * sum(plain.walls)), "ratio")
    metrics["trace_overhead_ratio"] = (nominal_wall(traced) / nominal_wall(plain), "ratio")
    spans_file = OUT / f"{workload.name}-seed{workload.seed}.spans.tsv"
    tracer.write_tsv(spans_file)
    return metrics, {"passes": [plain, traced], "spans": len(tracer.start),
                     "spans_file": str(spans_file.relative_to(ROOT))}


def main(argv=None) -> int:
    wl = load_workload_module()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    OUT.mkdir(exist_ok=True)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_revision": git_revision(),
        "src_sha256": src_digest(), "loadavg_1m_start": os.getloadavg()[0],
        "client": "closed loop, one client, one op at a time",
    }
    workload, setup_s = set_up(wl, args.workload, args.seed, args.seconds)
    if args.trace:
        metrics, detail = per_layer(workload)
    else:
        metrics, detail = end_to_end(workload, setup_s)
    context["loadavg_1m_end"] = os.getloadavg()[0]
    context["setup_s"] = setup_s
    context["setup_repeats"] = SETUP_REPEATS
    context["jobs"] = workload.jobs
    for key in ("latency_samples", "rounds", "round_walls_s", "round_cpus_s",
                "round_host_factors"):
        if key in detail:
            context[key] = detail[key]
    if detail.get("spans_file"):
        context["spans"] = detail["spans"]
        context["spans_file"] = detail["spans_file"]
    if getattr(workload, "report_sha256", None):
        context["report_sha256"] = workload.report_sha256

    attempted = sum(len(p.verdicts) for p in detail["passes"])
    failed = sum(not ok for p in detail["passes"] for ok in p.verdicts)
    context["fail_ratio"] = failed / attempted
    for p in detail["passes"]:
        if p.first_failure is not None:
            print(f"first failed op output: {p.first_failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"context": context, **result, "samples": detail.get("samples")}
    (OUT / name).write_text(json.dumps(record) + "\n")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
