"""Recovering line orthogonality from a black-box typed relation.

The pipeline mirrors two reductions.  First, queries about a low-dimensional
pair (Y1, X2) meeting in a point are lifted to the typed relation by
extending Y1 with an m-flat drawn inside X2 through the common point; the
extension's meet with X2 is exactly that m-flat, so the lifted query has the
right dimension type whether or not the configuration is orthogonal.
Second, a pair of orthogonal lines is wrapped in a perp-x pair of flats of
prescribed dimensions built around their common perpendicular; for
non-orthogonal lines no such wrapping exists, which the feet system detects.

Two execution modes: WITNESS follows the constructions above and is exact;
SAMPLED replaces the canonical extension by random incidence-valid
candidates and answers with the conjunction of oracle replies, so a false
answer is sound and a true answer is probabilistic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional

from .errors import (
    GenerationError,
    InputError,
    InternalError,
    PreconditionError,
)
from .flats import (
    AffineSubspace,
    _check_same_space,
    _point_difference,
    join,
    meet,
    parallel,
)
from .linalg import (
    _subspace_from_int_rows,
    full_subspace,
    subspace_sum,
    xi_complement,
    zero_subspace,
)
from .ortho import (
    RETRIES,
    TypedPerpParams,
    perp_m,
    perp_x,
    rand_subspace_of,
)


@dataclass(frozen=True)
class PerpOracle:
    """A queryable typed-orthogonality predicate of dimension type params."""

    params: TypedPerpParams
    query: Callable[[AffineSubspace, AffineSubspace], bool]


def ground_truth_oracle(params: TypedPerpParams) -> PerpOracle:
    return PerpOracle(params, lambda x1, x2: perp_m(x1, x2, params))


@dataclass(frozen=True)
class ReconstructionMode:
    """WITNESS: exact canonical construction.  SAMPLED: K random candidates."""

    kind: str
    samples: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("witness", "sampled"):
            raise InputError(f"unknown mode kind: {self.kind!r}")
        if self.kind == "sampled" and self.samples < 1:
            raise InputError("sampled mode needs at least one candidate")

    @classmethod
    def witness(cls) -> "ReconstructionMode":
        return cls("witness")

    @classmethod
    def sampled(cls, samples: int, seed: int = 0) -> "ReconstructionMode":
        return cls("sampled", samples, seed)


def _single_point_meet(y1: AffineSubspace, x2: AffineSubspace) -> AffineSubspace:
    """The common point flat of y1 and x2, which must meet in a single
    point."""
    m = meet(y1, x2)
    if m is None or m.dim != 0:
        raise PreconditionError("flats must intersect in a single point")
    return m


def _leading_subspace(rows_source, count: int):
    return _subspace_from_int_rows(
        list(rows_source.int_rows[:count]), rows_source.ambient_dim
    )


def lemma1_witness(
    y1: AffineSubspace,
    x2: AffineSubspace,
    m: int,
    rng: Optional[random.Random] = None,
) -> AffineSubspace:
    """Extend y1 to dimension dim(y1) + m with meet of dimension m in x2.

    V = y1 ⊔ x2, W = orthocomplement of y1 in V through the common point,
    T = an m-flat through that point inside W ⊓ x2 (first canonical
    directions, or random under rng), result = T ⊔ y1.  The result's meet
    with x2 equals T regardless of any orthogonality between y1 and x2.
    """
    _check_same_space(y1, x2)
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    if y1.dim < 1:
        raise PreconditionError("y1 must be at least a line")
    if m > x2.dim:
        raise PreconditionError("m cannot exceed dim(x2)")
    if y1.dim + m > x2.dim:
        raise PreconditionError("need dim(y1) + m <= dim(x2)")
    q = _single_point_meet(y1, x2)
    if m == 0:
        return y1
    space = y1.space
    v = join(y1, x2)
    # y1 lies in v and q on y1: the orthocomplement of y1 in v through q
    w = AffineSubspace._canonical(
        space, *q.int_point, xi_complement(space, y1.direction, v.direction)
    )
    wx2 = meet(w, x2)
    if wx2 is None or wx2.dim < m:
        raise InternalError("orthocomplement misses x2 at the required dimension")
    if rng is None:
        t_dir = _leading_subspace(wx2.direction, m)
    else:
        t_dir = rand_subspace_of(wx2.direction, m, rng)
    t = AffineSubspace._canonical(space, *q.int_point, t_dir)
    x1 = join(t, y1)
    if x1.dim != y1.dim + m:
        raise InternalError("extension has the wrong dimension")
    x1x2 = meet(x1, x2)
    if x1x2 is None or x1x2.dim != m:
        raise InternalError("extension meets x2 at the wrong dimension")
    return x1


def decide_perp0(
    y1: AffineSubspace,
    x2: AffineSubspace,
    oracle: PerpOracle,
    mode: ReconstructionMode,
    rng: Optional[random.Random] = None,
) -> bool:
    """Decide point-meet orthogonality of (y1, x2) through the typed oracle.

    WITNESS queries the canonical extension once.  SAMPLED queries K
    incidence-valid candidates y1 ⊔ T with T a random m-flat inside x2
    through the common point and returns the conjunction.
    """
    _check_same_space(y1, x2)
    params = oracle.params
    if y1.dim != params.k1 - params.m or x2.dim != params.k2:
        raise PreconditionError("flat dimensions do not match oracle params")
    if mode.kind == "witness":
        return oracle.query(lemma1_witness(y1, x2, params.m), x2)
    q = _single_point_meet(y1, x2)
    if params.m == 0:
        return oracle.query(y1, x2)
    sample_rng = rng if rng is not None else random.Random(mode.seed)
    for _ in range(mode.samples):
        candidate = None
        for _ in range(RETRIES):
            t_dir = rand_subspace_of(x2.direction, params.m, sample_rng)
            # y1 ⊔ T: q lies on y1, so the directions' sum through q
            x1 = AffineSubspace._canonical(
                y1.space, *q.int_point, subspace_sum(y1.direction, t_dir)
            )
            if x1.dim == params.k1:
                candidate = x1
                break
        if candidate is None:
            raise GenerationError("no incidence-valid candidate after retries")
        if not oracle.query(candidate, x2):
            return False
    return True


def common_perpendicular_feet(
    l1: AffineSubspace, l2: AffineSubspace
) -> tuple[AffineSubspace, AffineSubspace]:
    """Unique point flats (q on l1, p on l2) with p - q orthogonal to both
    lines.

    Requires orthogonal lines; the 2x2 system is then diagonal with
    anisotropic (hence nonzero) entries.  Intersecting lines give q = p.
    With the scaled form F, direction rows d1, d2 and p2 - p1 = delta / e,
    q = p1 + (delta F d1) / (e d1 F d1) d1 and
    p = p2 - (delta F d2) / (e d2 F d2) d2, every factor an integer.
    """
    _check_same_space(l1, l2)
    if l1.dim != 1 or l2.dim != 1:
        raise PreconditionError("both arguments must be lines")
    (d1,), (f1,) = l1.direction.int_rows, l1.form_rows
    (d2,), (f2,) = l2.direction.int_rows, l2.form_rows
    if sum(map(mul, f1, d2)):
        raise PreconditionError("lines are not orthogonal")
    delta, e = _point_difference(l1, l2)
    (u1, e1), (u2, e2) = l1.int_point, l2.int_point
    # F is positive definite, so g1, g2 > 0 and so are the denominators
    g1, g2 = sum(map(mul, f1, d1)), sum(map(mul, f2, d2))
    a1, a2 = sum(map(mul, f1, delta)), sum(map(mul, f2, delta))
    s1, s2 = e // e1 * g1, e // e2 * g2
    q = [x * s1 + a1 * y for x, y in zip(u1, d1)]
    p = [x * s2 - a2 * y for x, y in zip(u2, d2)]
    zero = zero_subspace(l1.ambient_dim)
    return (
        AffineSubspace._canonical(l1.space, q, e * g1, zero),
        AffineSubspace._canonical(l2.space, p, e * g2, zero),
    )


def lemma2_witness(
    l1: AffineSubspace,
    l2: AffineSubspace,
    k1: int,
    k2: int,
    rng: Optional[random.Random] = None,
) -> tuple[AffineSubspace, AffineSubspace]:
    """Wrap orthogonal lines in a perp-x pair of dimensions (k1, k2).

    x2 spans l2's direction and the common-perpendicular vector w, padded
    from the xi-complement of span(d1, d2, w); x1 spans l1's direction,
    padded from the xi-complement of x2's direction.  x2 needs w inside it
    so that it reaches across to l1's foot, which is where k2 > 1 is spent.
    """
    _check_same_space(l1, l2)
    if l1.dim != 1 or l2.dim != 1:
        raise PreconditionError("both arguments must be lines")
    if k1 < 1 or k2 <= 1:
        raise PreconditionError("need k1 >= 1 and k2 > 1")
    space = l1.space
    n = space.dim
    if k1 + k2 > n:
        raise GenerationError(f"k1 + k2 = {k1 + k2} exceeds dimension {n}")
    q, p = common_perpendicular_feet(l1, l2)
    # p - q scaled by a positive integer
    w, _ = _point_difference(q, p)
    d1 = l1.direction.int_rows[0]
    d2 = l2.direction.int_rows[0]

    full = full_subspace(n)
    core2 = _subspace_from_int_rows([d2, w], n)
    span_all = _subspace_from_int_rows([d1, d2, w], n)
    comp2 = xi_complement(space, span_all, full)
    pad2 = k2 - core2.rank
    if rng is None:
        extra2 = _leading_subspace(comp2, pad2)
    else:
        extra2 = rand_subspace_of(comp2, pad2, rng)
    dir2 = subspace_sum(core2, extra2)
    x2 = AffineSubspace._canonical(space, *p.int_point, dir2)

    comp1 = xi_complement(space, dir2, full)
    rest1 = xi_complement(space, l1.direction, comp1)
    if rng is None:
        extra1 = _leading_subspace(rest1, k1 - 1)
    else:
        extra1 = rand_subspace_of(rest1, k1 - 1, rng)
    dir1 = subspace_sum(l1.direction, extra1)
    x1 = AffineSubspace._canonical(space, *q.int_point, dir1)

    if x1.dim != k1 or x2.dim != k2 or not perp_x(x1, x2):
        raise InternalError("wrapping pair failed its own construction")
    return x1, x2


def line_perp_ground_truth(l1: AffineSubspace, l2: AffineSubspace) -> bool:
    """Direct direction-vector orthogonality of two lines."""
    _check_same_space(l1, l2)
    if l1.dim != 1 or l2.dim != 1:
        raise PreconditionError("both arguments must be lines")
    return not sum(map(mul, l1.form_rows[0], l2.direction.int_rows[0]))


def reconstruct_line_perp(
    l1: AffineSubspace,
    l2: AffineSubspace,
    params: TypedPerpParams,
    oracle: PerpOracle,
    mode: ReconstructionMode,
    rng: Optional[random.Random] = None,
) -> bool:
    """Decide line orthogonality using only the typed oracle plus incidence.

    Stage one reduces the typed relation to point-meet orthogonality of a
    (k1 - m)-flat against a k2-flat.  Stage two wraps the two lines into
    such a configuration around their common perpendicular; when the feet
    system has no solution the wrapping is impossible for any flat pair,
    which already settles the answer as false.  Lines of equal direction
    admit no common perpendicular either, hence the parallel early-out.
    """
    _check_same_space(l1, l2)
    if l1.dim != 1 or l2.dim != 1:
        raise InputError("both arguments must be lines")
    if params != oracle.params:
        raise InputError("params disagree with the oracle")
    space = l1.space
    if not params.satisfiable_in(space.dim):
        raise InputError("params are unsatisfiable in this dimension")
    if params.k1 > params.k2:
        swapped = params.swapped
        inner = oracle
        oracle = PerpOracle(swapped, lambda a, b: inner.query(b, a))
        params = swapped
    # verdicts are translation-invariant; normalize to a base point at zero
    # (the origin has zeros at every pivot, so it is already canonical)
    origin = ((0,) * space.dim, 1)
    l1w = AffineSubspace(space, origin, l1.direction)
    l2w = AffineSubspace._canonical(space, *_point_difference(l1, l2), l2.direction)
    k1p = params.k1 - params.m
    if params.k2 == 1:
        # lines against lines leave no room for a wrapping pair: move l2
        # through l1's base point and ask about the crossing directly
        if parallel(l1w, l2w):
            return False
        l2t = AffineSubspace(space, origin, l2.direction)
        return decide_perp0(l1w, l2t, oracle, mode, rng)
    try:
        x1, x2 = lemma2_witness(l1w, l2w, k1p, params.k2)
    except PreconditionError:
        return False
    return decide_perp0(x1, x2, oracle, mode, rng)


@dataclass(frozen=True)
class LinePairVerdicts:
    """Ground truth and the reconstructed verdicts of one line pair; a mode
    that was not run leaves its verdict None."""

    truth: bool
    witness: Optional[bool]
    sampled: Optional[bool]

    @property
    def witness_agrees(self) -> bool:
        return self.witness == self.truth

    @property
    def sampled_contradicts(self) -> bool:
        """Sampled mode said false where witness mode (else the truth) said
        true; sampled falses are sound, so this is always an error."""
        reference = self.truth if self.witness is None else self.witness
        return reference and self.sampled is False


def judge_line_pair(
    l1: AffineSubspace,
    l2: AffineSubspace,
    params: TypedPerpParams,
    mode: str,
    samples: int,
    rng: random.Random,
) -> LinePairVerdicts:
    """Decide a line pair against the ground-truth oracle of type params in
    mode "witness", "sampled" (K = samples candidates drawn from rng) or
    "both"; the truth is always computed."""
    oracle = ground_truth_oracle(params)
    witness = sampled = None
    if mode != "sampled":
        witness = reconstruct_line_perp(
            l1, l2, params, oracle, ReconstructionMode.witness()
        )
    if mode != "witness":
        sampled = reconstruct_line_perp(
            l1, l2, params, oracle, ReconstructionMode.sampled(samples), rng
        )
    return LinePairVerdicts(line_perp_ground_truth(l1, l2), witness, sampled)
