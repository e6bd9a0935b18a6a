"""In-memory spans recorded around calls into orthokernel's public functions.

The tracer patches module bindings from outside the package: each traced
function is replaced, in every ``orthokernel`` module that binds it, by a
wrapper that appends one span (name, parent, start, end, status) to flat
arrays.  Nothing under ``src/`` changes; ``uninstall`` puts every original
binding back.  Spans are aggregated and written out only after the run.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

OK, RAISED, GEN_ERROR = 0, 1, 2


@dataclass(frozen=True)
class Target:
    """One traced binding: ``attr`` of ``orthokernel.<module>``.

    ``attr`` may be ``Class.method``.  With ``everywhere`` set, every module
    of the package that binds the same function object is patched too;
    otherwise only the named module's binding is.
    """

    span: str
    module: str
    attr: str
    everywhere: bool = True


# Span names are the per-layer metric prefixes listed in BENCHMARK.json.
TARGETS: tuple[Target, ...] = (
    Target("linalg.rref_basis", "linalg", "rref_basis"),
    Target("linalg.subspace_sum", "linalg", "subspace_sum"),
    Target("linalg.xi_complement", "linalg", "xi_complement"),
    Target("linalg.mat_inverse", "linalg", "mat_inverse"),
    Target("flats.make", "flats", "AffineSubspace.make"),
    Target("flats.meet", "flats", "meet"),
    # ortho calls the meet kernel directly; flats.meet itself calls the
    # flats binding, which stays unwrapped so no meet is counted twice
    Target("flats.meet", "ortho", "_meet_parts", everywhere=False),
    Target("flats.join", "flats", "join"),
    Target("flats.wire", "flats", "AffineSubspace.to_wire"),
    Target("flats.wire", "flats", "AffineSubspace.from_wire"),
    Target("ortho.perp_g", "ortho", "perp_g"),
    Target("ortho.perp_go", "ortho", "perp_go"),
    Target("ortho.perp_m", "ortho", "perp_m"),
    Target("ortho.reflection", "ortho", "reflection"),
    Target("ortho.reflections_commute", "ortho", "reflections_commute"),
    Target("ortho.make_perp_pair", "ortho", "make_perp_pair"),
    Target("generators.gen_subspace", "generators", "gen_subspace"),
    Target("generators.gen_pair_with_meet_dim", "generators", "gen_pair_with_meet_dim"),
    Target("generators.gen_line_pair", "generators", "gen_line_pair"),
    Target("reconstruct.reconstruct_line_perp", "reconstruct", "reconstruct_line_perp"),
    Target("reconstruct.lemma2_witness", "reconstruct", "lemma2_witness"),
    Target("reconstruct.decide_perp0", "reconstruct", "decide_perp0"),
    Target("properties.run_property", "properties", "run_property"),
    Target("properties.pool", "properties", "get_context", everywhere=False),
    Target("cli.main", "cli", "main"),
)

# spans without a Target: trial functions are wrapped inside REGISTRY, and
# the oracle's query is the benchmark's own callable
TRIAL_SPAN = "properties.trial"
ORACLE_SPAN = "reconstruct.oracle.query"

SPAN_NAMES: tuple[str, ...] = tuple(
    dict.fromkeys([t.span for t in TARGETS if t.span != "properties.pool"]
                  + [TRIAL_SPAN, ORACLE_SPAN])
)


class Tracer:
    """Span recorder for one thread; spans nest through an explicit stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # set by install(); a test may set it directly
        self.gen_error_type: type = type(None)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span: str, fn: Callable) -> Callable:
        """``fn`` with one span recorded around each call."""
        nid = self.name_id(span)
        name, parent, start, end, status = (
            self.name, self.parent, self.start, self.end, self.status
        )
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            status.append(OK)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                status[i] = GEN_ERROR if isinstance(exc, self.gen_error_type) else RAISED
                raise
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__qualname__ = getattr(fn, "__qualname__", span)
        return traced

    # -- patching the package ------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "orthokernel") -> None:
        """Wrap every target binding and every registered trial function."""
        mods = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        self.gen_error_type = mods[package + ".errors"].GenerationError
        for t in TARGETS:
            home = mods[f"{package}.{t.module}"]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self.wrap(t.span, raw.__func__)))
                else:
                    self._set(cls, meth, self.wrap(t.span, raw))
                continue
            orig = getattr(home, t.attr)
            wrapped = self.wrap(t.span, orig)
            owners = mods.values() if t.everywhere else [home]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
        registry = mods[package + ".properties"].REGISTRY
        originals = dict(registry)
        self._patches.append((registry, None, originals))
        for pid, fn in originals.items():
            registry[pid] = self.wrap(TRIAL_SPAN, fn)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if attr is None:
                owner.update(value)
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_ms, us_p50 and the raw outcome counts.

        Self time is a span's duration minus the durations of its direct
        children; children of one span run one after another in one
        thread, so their durations never overlap.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        per_name: dict[str, dict] = {}
        durations: dict[str, list[float]] = {}
        for i in range(n):
            nm = self.names[self.name[i]]
            row = per_name.setdefault(nm, {"calls": 0, "self_s": 0.0, "raised": 0,
                                           "gen_errors": 0})
            row["calls"] += 1
            row["self_s"] += dur[i] - covered[i]
            row["raised"] += self.status[i] != OK
            row["gen_errors"] += self.status[i] == GEN_ERROR
            durations.setdefault(nm, []).append(dur[i])
        for nm, row in per_name.items():
            row["self_ms"] = row.pop("self_s") * 1e3
            row["us_p50"] = statistics.median(durations[nm]) * 1e6
        return per_name

    def child_counts(self, parent_span: str, child_span: str) -> int:
        """Spans named ``child_span`` whose direct parent is ``parent_span``."""
        pid, cid = self._name_ids.get(parent_span), self._name_ids.get(child_span)
        if pid is None or cid is None:
            return 0
        return sum(
            1 for i in range(len(self.start))
            if self.name[i] == cid and self.parent[i] >= 0
            and self.name[self.parent[i]] == pid
        )

    def generation_errors(self) -> int:
        """GenerationErrors counted once each, at the innermost span raising them."""
        raised_child = set()
        count = 0
        for i in range(len(self.start) - 1, -1, -1):
            if self.status[i] == GEN_ERROR and i not in raised_child:
                count += 1
            p = self.parent[i]
            if p >= 0 and self.status[i] == GEN_ERROR:
                raised_child.add(p)
        return count

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\tstatus\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.status[i]}\n"
                )
