"""The four benchmark workloads and their correctness checks.

Each workload turns the benchmark seed into a fixed list of units (one or
more ops each), runs them as a closed-loop single client, and checks every
op's output exactly, between ops and outside their time.  The program only
ever sees generated inputs.  The amount of work is a fixed function of
``seconds``, sized so that ``ROUNDS`` passes over the units take about that
long with the seed code on a 2-core machine; a fixed amount keeps wall and
CPU time comparable between commits and keeps traced call counts exact
for a seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import struct
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import reference

# timed passes over the same units; each op counts with its median pass
ROUNDS = 3

MODULES = ("errors", "linalg", "flats", "ortho", "generators", "reconstruct",
           "properties", "cli")


def import_fresh() -> SimpleNamespace:
    """Import orthokernel from scratch, dropping any earlier copy.

    Each call pays the package's full import and starts with empty caches
    (``resolve_space``'s lru_cache included), so set-up can be repeated.
    """
    for name in [n for n in sys.modules if n == "orthokernel" or n.startswith("orthokernel.")]:
        del sys.modules[name]
    importlib.import_module("orthokernel")
    return SimpleNamespace(**{
        m: importlib.import_module(f"orthokernel.{m}") for m in MODULES
    })


def derive_seed(*parts) -> int:
    """A 63-bit seed that depends only on the given parts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Pass:
    """One run over a list of units.

    ``latencies`` holds one entry per op and ``keys`` names each op, so
    that repeated passes over the same units can be matched op by op;
    ``walls`` and ``cpus`` hold the seconds each unit spent inside its ops.
    A unit is one op, except on ``props-pool``, where it is one ``check``
    call and its ops are trials.  ``refs`` holds the time of the reference
    block run after each op, ``factors`` the host's slowdown around each
    op and ``unit_factors`` that around each unit (see ``reference``).
    ``outputs`` is kept only when the ops were not checked as they ran.
    """

    verdicts: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    unit_factors: list = field(default_factory=list)
    outputs: Optional[list] = None
    first_failure: Optional[str] = None
    # property of each latency, where trials run out of order in workers
    trial_pids: list = field(default_factory=list)

    def record(self, ok: bool, out) -> None:
        self.verdicts.append(ok)
        if not ok and self.first_failure is None:
            self.first_failure = repr(out)[:2000]


def verdict(check, unit, out) -> bool:
    """A check's verdict on one output; exceptions count as wrong outputs."""
    if isinstance(out, Exception):
        return False
    try:
        return bool(check(unit, out))
    except Exception:  # the program raising inside a check is a failed op
        return False


def closed_loop(op, items, check=None) -> Pass:
    """Run one op at a time, then the reference block, then check the op's
    output outside every time.

    Without ``check`` the outputs are kept for a later check instead.
    """
    result = Pass(outputs=None if check else [])
    clock, cpu, ref = time.perf_counter, time.process_time, reference.block
    for k, item in enumerate(items):
        t0, c0 = clock(), cpu()
        try:
            out = op(item)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out = exc
        t1, c1 = clock(), cpu()
        ref()
        result.refs.append(clock() - t1)
        result.latencies.append(t1 - t0)
        result.keys.append(k)
        result.walls.append(t1 - t0)
        result.cpus.append(c1 - c0)
        if check is None:
            result.outputs.append(out)
        else:
            result.record(verdict(check, item, out), out)
    result.factors = result.unit_factors = reference.factors(result.refs)
    return result


class Workload:
    """A seeded list of units; subclasses define ops, checks and inputs."""

    name = ""
    jobs = 1

    def __init__(self, ok: SimpleNamespace, seed: int, seconds: int, workdir: Path):
        self.ok = ok
        self.seed = seed
        self.workdir = workdir

    def run(self, units, check: bool = True) -> Pass:
        return closed_loop(self.op, units, self.check_one if check else None)

    def check_all(self, units, outputs) -> Pass:
        """Verdicts on outputs kept by an unchecked pass."""
        result = Pass()
        for unit, out in zip(units, outputs):
            result.record(verdict(self.check_one, unit, out), out)
        return result

    def instrument(self, tracer) -> None:
        """Route the workload's own hooks through the tracer."""

    def reset_counts(self) -> None:
        """Zero the workload's own counters before a traced pass."""

    def layer_counts(self, n_ops: int) -> dict[str, float]:
        """Per-layer values from the workload's own counters."""
        return {}

    def trials_by_pid(self, units, result: Pass) -> dict[str, tuple[int, float]]:
        """Per property id: trials run and seconds spent in them."""
        return {}


# ---------------------------------------------------------------------------


class PropsCore(Workload):
    """The A-PROPS battery at reduced trials, one trial per op in process.

    The kernel layers do almost all the work: no pool, CLI, wire format or
    reconstruction.  P-REFL at dim 6 makes the latency tail.
    """

    name = "props-core"
    DIMS = (3, 4, 5, 6)

    def __init__(self, ok, seed, seconds, workdir, registry=None):
        super().__init__(ok, seed, seconds, workdir)
        props, gen = ok.properties, ok.generators
        self.registry = props.REGISTRY if registry is None else registry
        # trial seeds depend on the property and the trial index only, so
        # each (dim, form) gets its own config seed: otherwise one trial's
        # draws repeat across forms and dims, and the slowest trials of a
        # run (P-REFL at dims 5 and 6) would rest on a third of the draws
        self.cells = [
            (pid, cfg, gen.space_of(cfg))
            for dim in self.DIMS
            for form in gen.NAMED_FORMS
            for cfg in [gen.GenConfig(dim=dim, form=form,
                                      seed=derive_seed("props-core", seed, dim, form))]
            for pid in props.CORE_PROPERTY_IDS
        ]
        per_cell = max(1, round(0.5 * seconds))
        self.units = [cell + (t,) for t in range(per_cell) for cell in self.cells]
        self.warmup = [cell + (per_cell,) for cell in self.cells]

    def op(self, unit):
        pid, cfg, space, t = unit
        props = self.ok.properties
        rng = self.ok.generators.trial_rng(cfg.seed, pid, t)
        return self.registry[pid](props.TrialContext(space, cfg, rng, Counter()))

    def check_one(self, unit, out) -> bool:
        return out is None

    def input_bytes(self) -> bytes:
        rows = [(pid, cfg.dim, cfg.form, cfg.seed, t) for pid, cfg, _, t in self.units]
        return json.dumps(rows).encode()

    def trials_by_pid(self, units, result):
        out: dict[str, list] = {}
        for (pid, *_), lat in zip(units, result.latencies):
            acc = out.setdefault(pid, [0, 0.0])
            acc[0] += 1
            acc[1] += lat
        return {pid: tuple(v) for pid, v in out.items()}


class PropsPool(Workload):
    """The user's ``check`` path in process, one trial per op.

    With few trials per (property, form) the runner's 87 fork pools per
    call and the CLI take a large share of the time.
    """

    name = "props-pool"
    DIM = 4
    # property index, hash of the trial's form and rng state, start, CPU
    # time of the trial and of the reference block run after it
    LATENCY = struct.Struct("<Hqddd")

    def __init__(self, ok, seed, seconds, workdir):
        super().__init__(ok, seed, seconds, workdir)
        props = ok.properties
        self.jobs = min(2, os.cpu_count() or 1)
        # run_property forks a pool only from 4 trials per worker upward
        self.trials = 8 * self.jobs
        self.pids = sorted(props.ALL_PROPERTY_IDS)
        calls = max(1, round(seconds / 20))
        self.units = [("all", derive_seed("props-pool", seed, i)) for i in range(calls)]
        self.warmup = [("P-SYM", derive_seed("props-pool", seed, "warm-up"))]
        self.report_sha256: list[str] = []

    def argv(self, unit, report: Path) -> list[str]:
        props, seed = unit
        return ["check", "--dim", str(self.DIM), "--trials", str(self.trials),
                "--props", props, "--form", "all", "--jobs", str(self.jobs),
                "--seed", str(seed), "--json", str(report)]

    def _timed_registry(self, spool: Path):
        """Registry entries that append each trial's latency to a per-process
        file; pool workers inherit them through fork and are killed without
        notice when their pool closes, so every record is written unbuffered.
        Trial seeds depend on the property and the trial index but not on
        the form, so a trial is named by its form and its rng state, read
        before the clock starts.  Trials and blocks are timed in CPU time,
        since the two workers share one CPU (see ``run``); the start is read
        from the system-wide clock, so the parent can order the trials of
        both workers in time."""
        fds: dict[int, int] = {}
        pack, ref = self.LATENCY.pack, reference.block
        clock, cpu = time.perf_counter, time.thread_time

        def timed(index, fn):
            def trial(ctx):
                key = hash((ctx.cfg.form, ctx.rng.getstate()))
                start, c0 = clock(), cpu()
                try:
                    return fn(ctx)
                finally:
                    c1 = cpu()
                    ref()
                    c2 = cpu()
                    pid = os.getpid()
                    if pid not in fds:
                        fds[pid] = os.open(spool / f"{pid}.bin",
                                           os.O_WRONLY | os.O_CREAT | os.O_APPEND)
                    os.write(fds[pid], pack(index, key, start, c1 - c0, c2 - c1))
            return trial

        registry = self.ok.properties.REGISTRY
        return {pid: timed(i, registry[pid]) for i, pid in enumerate(self.pids)}, fds

    def _drain(self, spool: Path, result: "Pass", call: int) -> None:
        """Take one call's trials, in the order they started, into the pass."""
        records = []
        for path in sorted(spool.glob("*.bin")):
            records += self.LATENCY.iter_unpack(path.read_bytes())
            path.unlink()
        records.sort(key=lambda rec: rec[2])
        refs = [rec[4] for rec in records]
        for (index, key, _, lat, _), f in zip(records, reference.factors(refs)):
            result.latencies.append(lat)
            result.keys.append((call, index, key))
            result.trial_pids.append(index)
            result.factors.append(f)
        result.refs += refs
        result.unit_factors.append(reference.factor(refs) if refs else 1.0)

    def run(self, units, check: bool = True) -> Pass:
        """Rows are checked as each call ends, since the check only reads the
        report; a unit is one check call, an op one trial.

        The calls, their pool workers included, run on one CPU: on a shared
        2-core machine another tenant holds the second core for minutes at
        a time, which would double the time of the parallel part at random.
        On one CPU a call's time is the runner's own cost.
        """
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            return self._run(units)
        finally:
            os.sched_setaffinity(0, allowed)

    def _run(self, units) -> Pass:
        registry = self.ok.properties.REGISTRY
        saved = dict(registry)
        spool = self.workdir / f"props-pool-{os.getpid()}"
        spool.mkdir(parents=True, exist_ok=True)
        report = spool / "report.json"
        result = Pass()
        timed, fds = self._timed_registry(spool)
        registry.update(timed)
        try:
            for call, unit in enumerate(units):
                t0, c0 = time.perf_counter(), cpu_seconds()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.ok.cli.main(self.argv(unit, report))
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
                rows = []
                if report.exists():
                    blob = report.read_bytes()
                    report.unlink()
                    self.report_sha256.append(hashlib.sha256(blob).hexdigest())
                    rows = json.loads(blob)["reports"]
                ids = self.pids if unit[0] == "all" else [unit[0]]
                rows += [None] * (len(ids) * len(self.ok.properties.default_forms()) - len(rows))
                for row in rows:
                    bad = self.failed_trials(rc, row)
                    for k in range(self.trials):
                        result.record(k >= bad, row)
                self._drain(spool, result, call)
                result.walls.append(wall)
                result.cpus.append(cpu)
        finally:
            registry.update(saved)
            for fd in fds.values():
                os.close(fd)
            spool.rmdir()
        return result

    def failed_trials(self, rc: int, row: Optional[dict]) -> int:
        """Trials of one report row that count as failed ops."""
        if row is None or row["trials"] != self.trials:
            return self.trials
        if row["violations"]:
            return min(self.trials, row["violations"])
        return 0 if rc == 0 and "first_counterexample" not in row else self.trials

    def input_bytes(self) -> bytes:
        return json.dumps(self.units).encode()

    def trials_by_pid(self, units, result):
        out: dict[str, list] = {}
        for index, lat in zip(result.trial_pids, result.latencies):
            acc = out.setdefault(self.pids[index], [0, 0.0])
            acc[0] += 1
            acc[1] += lat
        return {pid: tuple(v) for pid, v in out.items()}


class CountingOracle:
    """``ground_truth_oracle(params)`` behind a query counter."""

    def __init__(self, reconstruct, params):
        self._truth = reconstruct.ground_truth_oracle(params).query
        self.params = params
        self.queries = 0
        self.oracle = reconstruct.PerpOracle(params, self.query)

    def query(self, x1, x2) -> bool:
        self.queries += 1
        return self._truth(x1, x2)


class ReconLines(Workload):
    """Line pairs over the A-RECON grid, each decided in both modes.

    The reconstruct layer and the oracle's ``perp_m`` dominate; witness
    mode makes one query, sampled mode up to K.
    """

    name = "recon-lines"
    GRID = ((0, 1, 1), (1, 2, 2), (1, 2, 3), (2, 3, 3))
    SAMPLES = 20

    def __init__(self, ok, seed, seconds, workdir, oracle_factory=CountingOracle):
        super().__init__(ok, seed, seconds, workdir)
        gen, recon = ok.generators, ok.reconstruct
        self.master = derive_seed("recon-lines", seed)
        self.witness_mode = recon.ReconstructionMode.witness()
        self.truth: dict = {}
        self.oracles: dict[str, list] = {"witness": [], "sampled": []}
        configs = []
        for m, k1, k2 in self.GRID:
            params = ok.ortho.TypedPerpParams(m, k1, k2)
            pair = {mode: oracle_factory(recon, params) for mode in self.oracles}
            for mode, counting in pair.items():
                self.oracles[mode].append(counting)
            for n in range(k1 + k2 - m, 7):
                cfg = gen.GenConfig(dim=n, seed=self.master, perp_params=params,
                                    sample_count=self.SAMPLES)
                gen.space_of(cfg)
                configs.append((f"reconstruct:{m}:{k1}:{k2}:{n}", cfg, pair))
        # orthogonal and skew pairs alternate
        per_config = max(2, round(3.6 * seconds))
        self.units = [self._unit(c, i) for i in range(per_config) for c in configs]
        self.warmup = [self._unit(c, per_config) for c in configs]

    def _unit(self, config, i):
        label, cfg, pair = config
        rng = self.ok.generators.trial_rng(cfg.seed, label, i)
        l1, l2 = self.ok.generators.gen_line_pair(cfg, rng, orthogonal=(i % 2 == 0))
        mode = self.ok.reconstruct.ReconstructionMode.sampled(
            self.SAMPLES, derive_seed(label, cfg.seed, i, "sampled"))
        return label, i, cfg.perp_params, l1, l2, mode, pair

    def op(self, unit):
        _, _, params, l1, l2, mode, pair = unit
        decide = self.ok.reconstruct.reconstruct_line_perp
        got_w = decide(l1, l2, params, pair["witness"].oracle, self.witness_mode)
        got_s = decide(l1, l2, params, pair["sampled"].oracle, mode)
        return got_w, got_s

    def check_one(self, unit, out) -> bool:
        got_w, got_s = out
        label, i, _, l1, l2, _, _ = unit
        # every pass decides the same pairs; the truth is worked out once
        truth = self.truth.get((label, i))
        if truth is None:
            truth = self.truth[label, i] = self.ok.reconstruct.line_perp_ground_truth(l1, l2)
        # sampled mode is sound on false: it may never deny a true pair
        return got_w == truth and (got_s or not truth)

    def input_bytes(self) -> bytes:
        rows = [(label, i, l1.to_wire(), l2.to_wire(), mode.seed)
                for label, i, _, l1, l2, mode, _ in self.units]
        return json.dumps(rows).encode()

    def instrument(self, tracer) -> None:
        from tracing import ORACLE_SPAN

        for counting in self.oracles["witness"] + self.oracles["sampled"]:
            counting.oracle = self.ok.reconstruct.PerpOracle(
                counting.params, tracer.wrap(ORACLE_SPAN, counting.query))

    def reset_counts(self) -> None:
        for counting in self.oracles["witness"] + self.oracles["sampled"]:
            counting.queries = 0

    def layer_counts(self, n_ops):
        return {
            f"reconstruct.oracle.queries_per_pair.{mode}":
                sum(c.queries for c in oracles) / n_ops
            for mode, oracles in self.oracles.items()
        }


class WitnessEmit(Workload):
    """Typed pairs built and sent through the wire format: the "write" use.

    Construction (``xi_complement`` over the full space, ``subspace_sum``)
    and the wire boundary dominate.
    """

    name = "witness-emit"

    def __init__(self, ok, seed, seconds, workdir, verdict=None):
        super().__init__(ok, seed, seconds, workdir)
        gen = ok.generators
        self.verdict = ok.ortho.perp_m if verdict is None else verdict
        self.master = derive_seed("witness-emit", seed)
        self.spaces = {n: gen.resolve_space(n, "tridiag") for n in (7, 8)}
        count = 70 * seconds
        self.units = [self._unit(i) for i in range(count)]
        self.warmup = [self._unit(count + i) for i in range(8)]

    def _unit(self, i):
        n = 7 + i % 2
        params = self.ok.generators.rand_params(
            random.Random(derive_seed(self.master, "params", i)), n)
        return n, params, derive_seed(self.master, "pair", i)

    def op(self, unit):
        n, params, pair_seed = unit
        space = self.spaces[n]
        flat = self.ok.flats.AffineSubspace
        x1, x2 = self.ok.ortho.make_perp_pair(space, params, random.Random(pair_seed))
        w1, w2 = x1.to_wire(), x2.to_wire()
        return x1, x2, flat.from_wire(space, w1), flat.from_wire(space, w2)

    def check_one(self, unit, out) -> bool:
        x1, x2, y1, y2 = out
        return y1 == x1 and y2 == x2 and self.verdict(y1, y2, unit[1])

    def input_bytes(self) -> bytes:
        rows = [(n, p.m, p.k1, p.k2, s) for n, p, s in self.units]
        return json.dumps(rows).encode()


WORKLOADS = {w.name: w for w in (PropsCore, PropsPool, ReconLines, WitnessEmit)}
