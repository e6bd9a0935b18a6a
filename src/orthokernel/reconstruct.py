"""Recovering line orthogonality from a black-box typed relation.

A line pair is decided in two stages.  The wrap stage uses only the metric
and incidence and never queries the oracle: it turns the lines, once, into
flats meeting in a point, the lines moved to cross when k2 = 1 and else a
perp-x pair built around their common perpendicular (lemma 2); for
non-orthogonal lines no such wrapping exists, so the wrap first tests the
directions of the lines as given and refuses those; it moves the lines only
for a pair it hands on.  The decide stage asks the oracle
about that pair (Y1, X2), lifted to the typed relation by extending Y1
with an m-flat drawn inside X2 through the common point (lemma 1); the
extension's meet with X2 is exactly that m-flat, so the lifted query has
the right dimension type whether or not the configuration is orthogonal.

Two execution modes: WITNESS follows the constructions above and is exact;
SAMPLED replaces the canonical extension by random incidence-valid
candidates and answers with the conjunction of oracle replies, so a false
answer is sound and a true answer is probabilistic.  A predicate answers
the same question the same way, so each distinct candidate is asked once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional

from .errors import (
    InputError,
    InternalError,
    PreconditionError,
)
from .flats import (
    AffineSubspace,
    _check_same_space,
    _point_difference,
    parallel,
)
from .linalg import (
    _mat_mul_int,
    _subspace_from_int_rows,
    _xi_complement_rows,
    full_subspace,
    zero_subspace,
)
from .ortho import (
    TypedPerpParams,
    _meet_dim,
    _rand_extension,
    _reduced_draw,
    perp_m,
    perp_subspaces,
    perp_x,
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


def lemma1_witness(
    y1: AffineSubspace,
    x2: AffineSubspace,
    m: int,
    rng: Optional[random.Random] = None,
) -> AffineSubspace:
    """Extend y1 to dimension dim(y1) + m with meet of dimension m in x2.

    With q the common point, W the orthocomplement of y1 through q inside
    y1 ⊔ x2, and T an m-flat through q inside W ⊓ x2 (first canonical
    directions, or random under rng), the result is T ⊔ y1.  x2's direction
    lies in that join's, so W ⊓ x2 is q plus the directions of x2 that are
    xi-orthogonal to y1: it is computed as such, and the result as y1's
    direction and T's, in one reduction, through y1's base point; that
    flat contains y1, hence q, so it is T ⊔ y1.  The result's meet with x2
    equals T regardless of any orthogonality between y1 and x2.  The meets
    are checked by their dimensions alone; none is built.
    """
    _check_same_space(y1, x2)
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    if y1.dim < 1:
        raise PreconditionError("y1 must be at least a line")
    if y1.dim + m > x2.dim:
        raise PreconditionError("need dim(y1) + m <= dim(x2)")
    if _meet_dim(y1, x2) != 0:
        raise PreconditionError("flats must intersect in a single point")
    if m == 0:
        return y1
    space = y1.space
    wx2 = _xi_complement_rows(space, y1.direction.int_rows, x2.direction)
    if wx2.rank < m:
        raise InternalError("orthocomplement misses x2 at the required dimension")
    # y1 and x2 meet in a point, so their directions meet only in zero
    x1 = AffineSubspace._canonical(
        space, *y1.int_point, _rand_extension(y1.direction.int_rows, wx2, m, rng)
    )
    if x1.dim != y1.dim + m:
        raise InternalError("extension has the wrong dimension")
    if _meet_dim(x1, x2) != m:
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

    WITNESS queries the canonical extension once.  SAMPLED draws K
    incidence-valid candidates y1 ⊔ T with T a random m-flat inside x2
    through the common point and returns the conjunction of the answers.
    T is drawn as m combinations of x2's rows, reduced to the rows that name
    it, and redrawn while they have rank below m, as rand_subspace_of draws.
    A T drawn before has been asked about and is skipped; the answer, the
    draws and the rng's state after the decision are those of asking every
    draw.  The directions of y1 and x2 meet only in zero, so a new candidate
    is one reduction of y1's rows and T's and always has dimension k1.
    """
    _check_same_space(y1, x2)
    params = oracle.params
    if y1.dim != params.k1 - params.m or x2.dim != params.k2:
        raise PreconditionError("flat dimensions do not match oracle params")
    if mode.kind == "witness":
        return oracle.query(lemma1_witness(y1, x2, params.m), x2)
    if _meet_dim(y1, x2) != 0:
        raise PreconditionError("flats must intersect in a single point")
    if params.m == 0:
        return oracle.query(y1, x2)
    sample_rng = rng if rng is not None else random.Random(mode.seed)
    y1_rows, x2_rows = y1.direction.int_rows, x2.direction.int_rows
    asked = set()
    for _ in range(mode.samples):
        # T in x2's coordinates; a T already asked about has its answer
        coeffs, _ = _reduced_draw((), None, params.m, params.k2, sample_rng)
        if coeffs in asked:
            continue
        asked.add(coeffs)
        # y1 ⊔ T: the common point lies on y1, so the directions' sum
        # through y1's base point
        direction = _subspace_from_int_rows(
            [*y1_rows, *_mat_mul_int(coeffs, x2_rows)], y1.ambient_dim
        )
        candidate = AffineSubspace._canonical(y1.space, *y1.int_point, direction)
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
    if not perp_subspaces(l1, l2):
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
        raise PreconditionError(f"k1 + k2 = {k1 + k2} exceeds dimension {n}")
    q, p = common_perpendicular_feet(l1, l2)
    # p - q scaled by a positive integer
    w, _ = _point_difference(q, p)
    d1 = l1.direction.int_rows[0]
    d2 = l2.direction.int_rows[0]

    # d1, d2 and w are mutually orthogonal: core2 has rank 2 unless the
    # lines meet (w = 0), and the complements come from spanning rows.  A
    # complement is built only when rows are drawn from it; an extension by
    # nothing reads no rows and draws nothing, so it is handed the whole
    # space instead
    full = full_subspace(n)
    core2 = [d2, w] if any(w) else [d2]
    comp2 = full
    if k2 > len(core2):
        comp2 = _xi_complement_rows(space, [d1, d2, w], full)
    dir2 = _rand_extension(core2, comp2, k2 - len(core2), rng)
    x2 = AffineSubspace._canonical(space, *p.int_point, dir2)

    # the complement of dir2, then of d1 inside it, is that of dir2 + d1
    rest1 = full
    if k1 > 1:
        rest1 = _xi_complement_rows(space, [*dir2.int_rows, d1], full)
    dir1 = _rand_extension([d1], rest1, k1 - 1, rng)
    x1 = AffineSubspace._canonical(space, *q.int_point, dir1)

    if x1.dim != k1 or x2.dim != k2 or not perp_x(x1, x2):
        raise InternalError("wrapping pair failed its own construction")
    return x1, x2


def line_perp_ground_truth(l1: AffineSubspace, l2: AffineSubspace) -> bool:
    """Direct direction-vector orthogonality of two lines."""
    _check_same_space(l1, l2)
    if l1.dim != 1 or l2.dim != 1:
        raise PreconditionError("both arguments must be lines")
    return perp_subspaces(l1, l2)


def _wrap_line_pair(
    l1: AffineSubspace, l2: AffineSubspace, oracle: PerpOracle
) -> tuple[Optional[tuple[AffineSubspace, AffineSubspace]], PerpOracle]:
    """The wrap stage: the point-meet pair standing for the two lines, or
    None when there is none, with the oracle's slots in that pair's order;
    the type is the oracle's.  Draws nothing and queries nothing.

    The smaller dimension goes first.  For k2 = 1 the pair is the lines
    moved to cross; otherwise it is the lemma-2 wrapping pair, which only
    orthogonal lines admit: the wrap tests that under the space's form and
    refuses the rest.  Parallel lines admit neither.  Both tests read only
    the directions, so they run on the lines as given; the lines are moved
    only for a pair that is handed on.
    """
    _check_same_space(l1, l2)
    if l1.dim != 1 or l2.dim != 1:
        raise InputError("both arguments must be lines")
    params = oracle.params
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
    if params.k2 == 1:
        # lines against lines leave no room for a wrapping pair: move both
        # through the origin and ask about the crossing directly
        if parallel(l1, l2):
            return None, oracle
        return (
            AffineSubspace(space, origin, l1.direction),
            AffineSubspace(space, origin, l2.direction),
        ), oracle
    if not perp_subspaces(l1, l2):
        return None, oracle
    l1w = AffineSubspace(space, origin, l1.direction)
    l2w = AffineSubspace._canonical(space, *_point_difference(l1, l2), l2.direction)
    return lemma2_witness(l1w, l2w, params.k1 - params.m, params.k2), oracle


def reconstruct_line_perp(
    l1: AffineSubspace,
    l2: AffineSubspace,
    params: TypedPerpParams,
    oracle: PerpOracle,
    mode: ReconstructionMode,
    rng: Optional[random.Random] = None,
) -> bool:
    """Decide line orthogonality using only the typed oracle plus incidence:
    wrap the lines in a point-meet pair (metric and incidence only), then
    decide that pair through the oracle."""
    if params != oracle.params:
        raise InputError("params disagree with the oracle")
    core, oracle = _wrap_line_pair(l1, l2, oracle)
    return core is not None and decide_perp0(*core, oracle, mode, rng)


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
    "both"; the lines are wrapped once for every mode asked for, and the
    truth is always computed."""
    if mode not in ("witness", "sampled", "both"):
        raise InputError(f"unknown mode: {mode!r}")
    core, oracle = _wrap_line_pair(l1, l2, ground_truth_oracle(params))
    witness = sampled = None
    if mode != "sampled":
        witness = core is not None and decide_perp0(
            *core, oracle, ReconstructionMode.witness()
        )
    if mode != "witness":
        sampled = core is not None and decide_perp0(
            *core, oracle, ReconstructionMode.sampled(samples), rng
        )
    return LinePairVerdicts(line_perp_ground_truth(l1, l2), witness, sampled)
