"""Randomized property suite for the orthogonality relations.

Each property is a trial function: given a context (space, config, per-trial
rng) it either returns None or a serialized counterexample.  Antecedents are
hit constructively (orthogonal pairs from make_perp_pair, chains from
controlled sub/super-flat draws) because rejection sampling would almost
never reach them; every antecedent is still re-checked honestly before the
conclusion is asserted, so a generator bug cannot hide a violation.

Trial seeds derive from (master seed, property id, trial index), which makes
reports independent of execution order and of the worker count.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from multiprocessing import get_context
from typing import Callable, Optional, Sequence

from .errors import GenerationError, InputError, UnsatisfiableParams
from .flats import (
    AffineSubspace,
    is_subflat,
    join,
    meet,
    parallel,
    translate_through,
)
from .generators import (
    NAMED_FORMS,
    GenConfig,
    flat_between,
    form_label,
    gen_line_pair,
    gen_pair_with_meet_dim,
    gen_perp_to,
    gen_point,
    gen_subspace,
    rand_params,
    random_point_of,
    space_of,
    sub_flat,
    super_flat,
    trial_rng,
)
from .linalg import QuadraticSpace, zero_subspace
from .ortho import (
    RETRIES,
    TypedPerpParams,
    make_perp_pair,
    orthocomplement_in,
    perp_g,
    perp_go,
    perp_m,
    perp_subspaces,
    perp_x,
    reflections_commute,
    unique_complement,
)
from .reconstruct import (
    ReconstructionMode,
    decide_perp0,
    ground_truth_oracle,
    judge_line_pair,
    lemma1_witness,
    lemma2_witness,
    line_perp_ground_truth,
)


@dataclass
class TrialContext:
    space: QuadraticSpace
    cfg: GenConfig
    rng: random.Random
    counters: Counter

    def note(self, key: str) -> None:
        self.counters[key] += 1


TrialFn = Callable[[TrialContext], Optional[dict]]
Relation = Callable[[AffineSubspace, AffineSubspace], bool]


def _wire(value):
    if isinstance(value, AffineSubspace):
        return value.to_wire()
    if isinstance(value, TypedPerpParams):
        return asdict(value)
    return value


def _ce(reason: str, **items) -> dict:
    out = {"reason": reason}
    for name, value in items.items():
        out[name] = _wire(value)
    return out


def _base_point(x: AffineSubspace) -> AffineSubspace:
    """x's canonical base point as a point flat."""
    return AffineSubspace(x.space, x.int_point, zero_subspace(x.ambient_dim))


def _mixed_pair(ctx: TrialContext):
    """A pair drawn from orthogonal / fixed-meet / nested / free regimes."""
    n = ctx.space.dim
    rng = ctx.rng
    r = rng.random()
    if r < 0.45:
        return make_perp_pair(ctx.space, rand_params(rng, n), rng)
    if r < 0.70:
        k1 = rng.randint(0, n)
        k2 = rng.randint(0, n)
        m = rng.randint(max(0, k1 + k2 - n), min(k1, k2))
        return gen_pair_with_meet_dim(ctx.cfg, k1, k2, m, rng)
    if r < 0.85:
        b = gen_subspace(ctx.cfg, rng.randint(0, n), rng)
        return sub_flat(b, rng.randint(0, b.dim), rng), b
    return (
        gen_subspace(ctx.cfg, rng.randint(0, n), rng),
        gen_subspace(ctx.cfg, rng.randint(0, n), rng),
    )


def _nested_pair(ctx: TrialContext, min_outer: int = 0):
    n = ctx.space.dim
    outer = gen_subspace(ctx.cfg, ctx.rng.randint(min_outer, n), ctx.rng)
    inner = sub_flat(outer, ctx.rng.randint(0, outer.dim), ctx.rng)
    return inner, outer


# ---------------------------------------------------------------------------
# core relation properties


def _p_sym(ctx: TrialContext) -> Optional[dict]:
    a, b = _mixed_pair(ctx)
    if perp_g(a, b) != perp_g(b, a):
        return _ce("perp_g is not symmetric on this pair", a=a, b=b)
    if perp_go(a, b) != perp_go(b, a):
        return _ce("perp_go is not symmetric on this pair", a=a, b=b)
    return None


def _meet_nonempty_check(ctx: TrialContext, rel: Relation, name: str) -> Optional[dict]:
    a, b = _mixed_pair(ctx)
    if ctx.rng.random() < 0.3:
        b = translate_through(b, gen_point(ctx.cfg, ctx.rng))
    if rel(a, b) and meet(a, b) is None:
        return _ce(f"{name} held for a disjoint pair", a=a, b=b)
    return None


def _p_meet_nonempty(ctx: TrialContext) -> Optional[dict]:
    return _meet_nonempty_check(ctx, perp_g, "perp_g")


def _p_par(ctx: TrialContext) -> Optional[dict]:
    a, b = make_perp_pair(ctx.space, rand_params(ctx.rng, ctx.space.dim), ctx.rng)
    if ctx.rng.random() < 0.75:
        pt = random_point_of(a, ctx.rng)
    else:
        pt = gen_point(ctx.cfg, ctx.rng)
    c = translate_through(b, pt)
    if perp_g(a, b) and parallel(b, c) and meet(a, c) is not None:
        if not perp_g(a, c):
            return _ce("parallel transport broke perp_g", a=a, b=b, c=c)
    return None


def _p_noinc(ctx: TrialContext) -> Optional[dict]:
    a, b = _nested_pair(ctx)
    if perp_g(a, b) or perp_g(b, a):
        return _ce("perp_g held for nested flats", a=a, b=b)
    return None


def _chain(ctx: TrialContext):
    n = ctx.space.dim
    cdim = ctx.rng.randint(2, n)
    bdim = ctx.rng.randint(1, cdim - 1)
    adim = ctx.rng.randint(0, bdim - 1)
    c = gen_subspace(ctx.cfg, cdim, ctx.rng)
    b = sub_flat(c, bdim, ctx.rng)
    a = sub_flat(b, adim, ctx.rng)
    return a, b, c


def _uniq_check(ctx: TrialContext, rel: Relation) -> Optional[dict]:
    a, b, c = _chain(ctx)
    bp = unique_complement(a, b, c)

    def clauses(cand: AffineSubspace) -> bool:
        return meet(b, cand) == a and rel(b, cand) and join(b, cand) == c

    if not clauses(bp):
        return _ce("complement fails its defining clauses", a=a, b=b, c=c, bp=bp)
    want = a.dim + c.dim - b.dim
    for _ in range(2):
        cand = flat_between(a, c, want, ctx.rng)
        if cand != bp and clauses(cand):
            return _ce(
                "a second flat satisfies the complement clauses",
                a=a, b=b, c=c, bp=bp, cand=cand,
            )
    return None


def _p_uniq(ctx: TrialContext) -> Optional[dict]:
    return _uniq_check(ctx, perp_g)


def _p_pointmeet(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    k1 = ctx.rng.randint(1, n - 1)
    k2 = ctx.rng.randint(1, n - k1)
    if ctx.rng.random() < 0.5:
        a, b = make_perp_pair(ctx.space, TypedPerpParams(0, k1, k2), ctx.rng)
    else:
        a, b = gen_pair_with_meet_dim(ctx.cfg, k1, k2, 0, ctx.rng)
    if perp_g(a, b) != perp_x(a, b):
        return _ce("point-meet pair splits perp_g from perp_x", a=a, b=b)
    return None


def _p_perpxsup(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    rng = ctx.rng
    q = gen_point(ctx.cfg, rng)
    full = AffineSubspace.full(ctx.space)
    y = flat_between(q, full, rng.randint(1, n - 1), rng)
    comp = orthocomplement_in(y, full, q)
    x1 = flat_between(q, comp, rng.randint(0, comp.dim), rng)
    if rng.random() < 0.8:
        x2 = flat_between(q, comp, rng.randint(0, comp.dim), rng)
    else:
        x2 = flat_between(q, full, rng.randint(0, n), rng)
    if perp_x(x1, y) and perp_x(x2, y):
        if not perp_x(join(x1, x2), y):
            return _ce("join broke shared-point orthogonality", y=y, x1=x1, x2=x2)
    return None


def _p_refl(ctx: TrialContext) -> Optional[dict]:
    a, b = _mixed_pair(ctx)
    if ctx.rng.random() < 0.125:
        b = translate_through(b, gen_point(ctx.cfg, ctx.rng))
        if meet(a, b) is None:
            # no shared point: the equivalence is out of scope, so only
            # record how often the reflections happen to commute anyway
            ctx.note("disjoint_pairs")
            if reflections_commute(a, b):
                ctx.note("disjoint_commuting")
            return None
    if reflections_commute(a, b) != perp_go(a, b):
        return _ce("reflection commutation disagrees with perp_go", a=a, b=b)
    return None


def _p_iso(ctx: TrialContext) -> Optional[dict]:
    a, b = _nested_pair(ctx)
    if not (perp_go(a, b) and perp_go(b, a)):
        return _ce("nested flats are not perp_go", a=a, b=b)
    return None


def _p_ggo(ctx: TrialContext) -> Optional[dict]:
    a, b = _mixed_pair(ctx)
    want = perp_g(a, b) or is_subflat(a, b) or is_subflat(b, a)
    if perp_go(a, b) != want:
        return _ce("perp_go differs from perp_g-or-inclusion", a=a, b=b)
    return None


def _p_go_q_indep(ctx: TrialContext) -> Optional[dict]:
    rng = ctx.rng
    found = None
    for _ in range(RETRIES):
        a, b = _mixed_pair(ctx)
        mm = meet(a, b)
        if mm is not None:
            found = (a, b, mm)
            break
    if found is None:
        raise GenerationError("no intersecting pair for the base-point check")
    a, b, mm = found
    base = perp_go(a, b)
    points = [_base_point(mm), random_point_of(mm, rng), random_point_of(mm, rng)]
    for q in points:
        for s, t in ((a, b), (b, a)):
            z = orthocomplement_in(mm, s, q)
            if perp_subspaces(z, t) != base:
                return _ce(
                    "verdict depends on the base point or the side",
                    a=a, b=b, q=q.to_wire()["point"],
                )
    return None


def _p_sqcup(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    a = gen_subspace(ctx.cfg, ctx.rng.randint(1, n - 1), ctx.rng)
    b = gen_perp_to(a, random_point_of(a, ctx.rng), ctx.rng)
    c = gen_perp_to(a, random_point_of(a, ctx.rng), ctx.rng)
    if perp_g(a, b) and perp_g(a, c):
        bc = join(b, c)
        if not (perp_g(a, bc) or is_subflat(a, bc)):
            return _ce("join of two orthogonal flats lost both outcomes",
                       a=a, b=b, c=c)
    return None


def _restriction_check(
    ctx: TrialContext, a: AffineSubspace, b: AffineSubspace,
    rel: Relation, name: str, margin: int,
) -> Optional[dict]:
    """a rel b survives shrinking b to a flat c with a ∩ b ⊆ c ⊆ b; margin 1
    keeps c off the meet, for a relation that fails on nested flats."""
    mm = meet(a, b)
    c = flat_between(mm, b, ctx.rng.randint(mm.dim + margin, b.dim), ctx.rng)
    if rel(a, b) and not rel(a, c):
        return _ce(f"restriction above the meet lost {name}", a=a, b=b, c=c)
    return None


def _piece_join_check(
    ctx: TrialContext, a: AffineSubspace, b: AffineSubspace,
    rel: Relation, name: str, margin: int,
) -> Optional[dict]:
    """a rel b survives joining b with a flat c with a ∩ b ⊆ c ⊆ a; margin 1
    keeps c off a, for a relation that fails on nested flats."""
    mm = meet(a, b)
    c = flat_between(mm, a, ctx.rng.randint(mm.dim, a.dim - margin), ctx.rng)
    if rel(a, b) and not rel(a, join(b, c)):
        return _ce(f"join with a piece of a lost {name}", a=a, b=b, c=c)
    return None


def _p_cosik2(ctx: TrialContext) -> Optional[dict]:
    a, b = make_perp_pair(ctx.space, rand_params(ctx.rng, ctx.space.dim), ctx.rng)
    return _restriction_check(ctx, a, b, perp_g, "perp_g", margin=1)


def _p_cosik(ctx: TrialContext) -> Optional[dict]:
    a, b = make_perp_pair(ctx.space, rand_params(ctx.rng, ctx.space.dim), ctx.rng)
    return _piece_join_check(ctx, a, b, perp_g, "perp_g", margin=1)


def _p_meetprop(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    a = gen_subspace(ctx.cfg, ctx.rng.randint(1, n - 1), ctx.rng)
    q = random_point_of(a, ctx.rng)
    b = gen_perp_to(a, q, ctx.rng)
    c = gen_perp_to(a, q, ctx.rng)
    if perp_g(a, b) and perp_g(a, c):
        bc = meet(b, c)
        if bc is not None and meet(a, bc) is not None:
            if not (perp_g(a, bc) or is_subflat(bc, a)):
                return _ce("meet of two orthogonal flats lost both outcomes",
                           a=a, b=b, c=c)
    return None


# ---------------------------------------------------------------------------
# inclusion-tolerant variants


def _p_axo_a(ctx: TrialContext) -> Optional[dict]:
    a, b = _mixed_pair(ctx)
    if perp_go(a, b) != perp_go(b, a):
        return _ce("perp_go is not symmetric on this pair", a=a, b=b)
    return None


def _p_axo_b(ctx: TrialContext) -> Optional[dict]:
    return _meet_nonempty_check(ctx, perp_go, "perp_go")


def _go_pair(ctx: TrialContext):
    """A pair intended to satisfy perp_go: orthogonal or nested."""
    if ctx.rng.random() < 0.6:
        return make_perp_pair(ctx.space, rand_params(ctx.rng, ctx.space.dim), ctx.rng)
    return _nested_pair(ctx, min_outer=1)


def _p_axo_c(ctx: TrialContext) -> Optional[dict]:
    a, b = _go_pair(ctx)
    c = translate_through(b, random_point_of(a, ctx.rng))
    if perp_go(a, b) and not perp_go(a, c):
        return _ce("parallel transport broke perp_go", a=a, b=b, c=c)
    return None


def _p_axo_d(ctx: TrialContext) -> Optional[dict]:
    return _uniq_check(ctx, perp_go)


def _p_axo_e(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    rng = ctx.rng
    a = gen_subspace(ctx.cfg, rng.randint(1, n - 1), rng)
    r = rng.random()
    if r < 0.5:
        b = gen_perp_to(a, random_point_of(a, rng), rng)
        c = gen_perp_to(a, random_point_of(a, rng), rng)
    elif r < 0.75:
        b = super_flat(a, rng.randint(a.dim, n), rng)
        c = gen_perp_to(a, random_point_of(a, rng), rng)
    else:
        b = gen_perp_to(a, random_point_of(a, rng), rng)
        c = sub_flat(a, rng.randint(0, a.dim), rng)
    if perp_go(a, b) and perp_go(a, c):
        if not perp_go(a, join(b, c)):
            return _ce("join lost perp_go", a=a, b=b, c=c)
    return None


def _p_axo_f(ctx: TrialContext) -> Optional[dict]:
    a, b = _go_pair(ctx)
    return _restriction_check(ctx, a, b, perp_go, "perp_go", margin=0)


def _p_axo_g(ctx: TrialContext) -> Optional[dict]:
    a, b = _go_pair(ctx)
    return _piece_join_check(ctx, a, b, perp_go, "perp_go", margin=0)


def _p_axo_h(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    rng = ctx.rng
    a = gen_subspace(ctx.cfg, rng.randint(1, n - 1), rng)
    q = random_point_of(a, rng)
    r = rng.random()
    if r < 0.6:
        b = gen_perp_to(a, q, rng)
        c = gen_perp_to(a, q, rng)
    elif r < 0.8:
        b = super_flat(a, rng.randint(a.dim, n), rng)
        c = gen_perp_to(a, q, rng)
    else:
        b = gen_perp_to(a, q, rng)
        c = flat_between(q, a, rng.randint(0, a.dim), rng)
    if perp_go(a, b) and perp_go(a, c):
        bc = meet(b, c)
        if bc is not None and meet(a, bc) is not None:
            if not perp_go(a, bc):
                return _ce("meet lost perp_go", a=a, b=b, c=c)
    return None


# ---------------------------------------------------------------------------
# generation and reconstruction properties


def _p_nontriv(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    rng = ctx.rng
    k1 = rng.randint(1, n)
    k2 = rng.randint(k1, n)
    m = rng.randint(0, k1 - 1)
    params = TypedPerpParams(m, k1, k2)
    if params.satisfiable_in(n):
        try:
            x1, x2 = make_perp_pair(ctx.space, params, ctx.rng)
        except UnsatisfiableParams:
            return _ce("satisfiable params were refused", params=params)
        if not perp_m(x1, x2, params):
            return _ce("generated pair fails the typed relation",
                       params=params, x1=x1, x2=x2)
        if join(x1, x2).dim != k1 + k2 - m:
            return _ce("generated pair has the wrong join dimension",
                       params=params, x1=x1, x2=x2)
    else:
        try:
            make_perp_pair(ctx.space, params, ctx.rng)
        except UnsatisfiableParams:
            return None
        return _ce("unsatisfiable params were accepted", params=params)
    return None


def _p_lem1_fwd(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    params = ctx.cfg.perp_params or rand_params(ctx.rng, n)
    x1, x2 = make_perp_pair(ctx.space, params, ctx.rng)
    mm = meet(x1, x2)
    y1 = orthocomplement_in(mm, x1, _base_point(mm))
    oracle = ground_truth_oracle(params)
    mode = ReconstructionMode.sampled(ctx.cfg.sample_count)
    if not decide_perp0(y1, x2, oracle, mode, ctx.rng):
        return _ce(
            "an incidence-valid candidate failed the oracle on an"
            " orthogonal instance",
            params=params, y1=y1, x2=x2,
        )
    return None


def _p_lem1_bwd(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    params = ctx.cfg.perp_params or rand_params(ctx.rng, n)
    y1, x2 = gen_pair_with_meet_dim(
        ctx.cfg, params.k1 - params.m, params.k2, 0, ctx.rng
    )
    if perp_x(y1, x2):
        return None
    witness = lemma1_witness(
        y1, x2, params.m, ctx.rng if ctx.rng.random() < 0.5 else None
    )
    if perp_m(witness, x2, params):
        return _ce(
            "witness passed the oracle although the core pair is not"
            " orthogonal",
            params=params, y1=y1, x2=x2, witness=witness,
        )
    return None


# super-flat pairs tried around non-orthogonal lines; --samples does not
# reach this check
_LEM2_ATTEMPTS = 8


def _p_lem2(ctx: TrialContext) -> Optional[dict]:
    n = ctx.space.dim
    rng = ctx.rng
    k1 = rng.randint(1, n - 2)
    k2 = rng.randint(2, n - k1)
    l1, l2 = gen_line_pair(ctx.cfg, rng, orthogonal=rng.random() < 0.5)
    if line_perp_ground_truth(l1, l2):
        x1, x2 = lemma2_witness(l1, l2, k1, k2, rng if rng.random() < 0.5 else None)
        ok = (
            x1.dim == k1
            and x2.dim == k2
            and is_subflat(l1, x1)
            and is_subflat(l2, x2)
            and perp_x(x1, x2)
        )
        if not ok:
            return _ce("wrapping pair violates a clause",
                       l1=l1, l2=l2, x1=x1, x2=x2)
    else:
        for _ in range(_LEM2_ATTEMPTS):
            x1 = super_flat(l1, rng.randint(1, n - 1), rng)
            x2 = super_flat(l2, rng.randint(1, n - 1), rng)
            if perp_x(x1, x2):
                return _ce(
                    "non-orthogonal lines sit inside an orthogonal pair",
                    l1=l1, l2=l2, x1=x1, x2=x2,
                )
    return None


def _recon_instance(ctx: TrialContext):
    params = ctx.cfg.perp_params or rand_params(ctx.rng, ctx.space.dim)
    l1, l2 = gen_line_pair(ctx.cfg, ctx.rng, orthogonal=ctx.rng.random() < 0.5)
    return params, l1, l2


def _p_recon(ctx: TrialContext) -> Optional[dict]:
    params, l1, l2 = _recon_instance(ctx)
    v = judge_line_pair(l1, l2, params, "witness", ctx.cfg.sample_count, ctx.rng)
    if not v.witness_agrees:
        return _ce("reconstruction disagrees with ground truth",
                   params=params, l1=l1, l2=l2, got=v.witness, want=v.truth)
    return None


def _p_mode_consist(ctx: TrialContext) -> Optional[dict]:
    params, l1, l2 = _recon_instance(ctx)
    v = judge_line_pair(l1, l2, params, "both", ctx.cfg.sample_count, ctx.rng)
    if v.sampled_contradicts:
        return _ce("sampled mode contradicted a witness-mode true",
                   params=params, l1=l1, l2=l2)
    return None


# each id names one of the paper's laws and is written only here; the id
# tuples below keep the order written
_CORE: dict[str, TrialFn] = {
    "P-SYM": _p_sym,
    "P-MEET-NONEMPTY": _p_meet_nonempty,
    "P-PAR": _p_par,
    "P-NOINC": _p_noinc,
    "P-UNIQ": _p_uniq,
    "P-POINTMEET": _p_pointmeet,
    "P-PERPXSUP": _p_perpxsup,
    "P-REFL": _p_refl,
    "P-ISO": _p_iso,
    "P-GGO": _p_ggo,
    "P-GO-Q-INDEP": _p_go_q_indep,
    "P-SQCUP": _p_sqcup,
    "P-COSIK2": _p_cosik2,
    "P-COSIK": _p_cosik,
    "P-MEETPROP": _p_meetprop,
    "P-AXO-a": _p_axo_a,
    "P-AXO-b": _p_axo_b,
    "P-AXO-c": _p_axo_c,
    "P-AXO-d": _p_axo_d,
    "P-AXO-e": _p_axo_e,
    "P-AXO-f": _p_axo_f,
    "P-AXO-g": _p_axo_g,
    "P-AXO-h": _p_axo_h,
}

_EXTENDED: dict[str, TrialFn] = {
    "P-NONTRIV": _p_nontriv,
    "P-LEM1-FWD": _p_lem1_fwd,
    "P-LEM1-BWD": _p_lem1_bwd,
    "P-LEM2": _p_lem2,
    "P-RECON": _p_recon,
    "P-MODE-CONSIST": _p_mode_consist,
}

CORE_PROPERTY_IDS: tuple[str, ...] = tuple(_CORE)
EXTENDED_PROPERTY_IDS: tuple[str, ...] = tuple(_EXTENDED)
ALL_PROPERTY_IDS: tuple[str, ...] = CORE_PROPERTY_IDS + EXTENDED_PROPERTY_IDS

# the runner looks trial functions up here at call time, so an entry
# replaced before a run is the one that runs, in pool workers too
REGISTRY: dict[str, TrialFn] = {**_CORE, **_EXTENDED}


# ---------------------------------------------------------------------------
# runner


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    form: str
    trials: int
    violations: int
    first_counterexample: Optional[dict]
    elapsed_ms: int
    notes: Optional[str] = None

    def to_json_dict(self) -> dict:
        # elapsed_ms stays out: reports must be byte-identical across runs
        out = {
            "property_id": self.property_id,
            "form": self.form,
            "trials": self.trials,
            "violations": self.violations,
        }
        if self.first_counterexample is not None:
            out["first_counterexample"] = self.first_counterexample
        if self.notes is not None:
            out["notes"] = self.notes
        return out


def _run_slice(property_id: str, cfg: GenConfig, start: int, stop: int):
    t0 = time.perf_counter()
    fn = REGISTRY[property_id]
    space = space_of(cfg)
    counters: Counter = Counter()
    violations = 0
    first: Optional[dict] = None
    for t in range(start, stop):
        ctx = TrialContext(space, cfg, trial_rng(cfg.seed, property_id, t), counters)
        try:
            result = fn(ctx)
        except GenerationError:
            raise
        except Exception as exc:
            # a trial that raises is that trial's violation, not the run's end
            result = {"reason": f"raised {type(exc).__name__}: {exc}"}
        if result is not None:
            violations += 1
            if first is None:
                first = {"trial": t, **result}
    return violations, first, counters, time.perf_counter() - t0


def _notes_for(property_id: str, counters: Counter) -> Optional[str]:
    if property_id == "P-REFL" and counters.get("disjoint_pairs"):
        return (
            f"disjoint pairs seen: {counters['disjoint_pairs']},"
            f" commuting reflections among them:"
            f" {counters.get('disjoint_commuting', 0)}"
        )
    return None


def _fold(property_id: str, cfg: GenConfig, trials: int, parts) -> PropertyReport:
    """One report row from its slices, taken in trial-index order."""
    counters: Counter = Counter()
    for part in parts:
        counters.update(part[2])
    return PropertyReport(
        property_id=property_id,
        form=form_label(cfg.form),
        trials=trials,
        violations=sum(part[0] for part in parts),
        first_counterexample=next((p[1] for p in parts if p[1] is not None), None),
        elapsed_ms=int(sum(part[3] for part in parts) * 1000),
        notes=_notes_for(property_id, counters),
    )


def run_property(
    property_id: str, cfg: GenConfig, trials: int, jobs: int = 1
) -> PropertyReport:
    """Run one property for `trials` seeded instances and summarize."""
    return run_suite(cfg, [property_id], trials, [cfg.form], jobs)[0]


def default_forms() -> tuple:
    """The standard form battery: identity, graded diagonal, tridiagonal."""
    return NAMED_FORMS


def run_suite(
    cfg: GenConfig,
    property_ids: Sequence[str],
    trials: int,
    forms: Optional[Sequence] = None,
    jobs: int = 1,
) -> list[PropertyReport]:
    """Run a battery of properties over a battery of forms.

    Report order is fixed: property ids sorted lexicographically, forms in
    the given order inside each id.  With ``jobs > 1`` and at least four
    trials per worker, every row is cut into ``jobs`` slices and all slices
    of all rows go to one fork pool, opened by this call so that workers
    see ``REGISTRY`` as it stands now.  Worker count never changes a
    report: per-trial seeds are derived from the trial index and slices
    fold in index order.
    """
    if not property_ids:
        raise InputError("no property ids given")
    unknown = [p for p in property_ids if p not in REGISTRY]
    if unknown:
        raise InputError(f"unknown property ids: {', '.join(unknown)}")
    if trials < 1:
        raise InputError("trials must be positive")
    if cfg.dim < 2:
        raise InputError("property trials need ambient dimension at least 2")
    if cfg.dim < 3 and "P-LEM2" in property_ids:
        # its wrapping pairs need k1 >= 1, k2 >= 2 and k1 + k2 <= dim
        raise InputError("P-LEM2 needs ambient dimension at least 3")
    params = cfg.perp_params
    if params is not None and params.k1 > params.k2:
        raise InputError("pinned params need k1 <= k2")
    if forms is None:
        forms = default_forms()
    rows = [
        (pid, replace(cfg, form=form))
        for pid in sorted(set(property_ids))
        for form in forms
    ]
    for _, row_cfg in rows:
        space_of(row_cfg)  # reject a bad form before any trial runs
    if jobs <= 1 or trials < 4 * jobs:
        parts = [[_run_slice(pid, row_cfg, 0, trials)] for pid, row_cfg in rows]
    else:
        bounds = [trials * i // jobs for i in range(jobs + 1)]
        tasks = [
            (pid, row_cfg, bounds[i], bounds[i + 1])
            for pid, row_cfg in rows
            for i in range(jobs)
        ]
        with get_context("fork").Pool(jobs) as pool:
            flat = pool.starmap(_run_slice, tasks)
        parts = [flat[r * jobs : (r + 1) * jobs] for r in range(len(rows))]
    return [
        _fold(pid, row_cfg, trials, row_parts)
        for (pid, row_cfg), row_parts in zip(rows, parts)
    ]
