"""Recovering line orthogonality from a black-box typed relation.

A line pair is decided in two stages.  The wrap stage uses only the metric
and incidence and is given no oracle.  Line orthogonality depends only on
the directions, so it tests the lines as given, refuses a pair that admits
no wrapping, and builds the pair it hands on through the origin: the lines
moved there for the type (0, 1, 1), else their directions padded to a
perp-x pair, which only orthogonal lines admit.  The decide stage reads no
form: it asks the oracle about that pair (Y1, X2), lifted to the typed
relation by extending Y1 with m-flats T inside X2 through the common point
(lemma 1); each extension's meet with X2 is exactly T, so the lifted query
has the right dimension type whether or not the pair is orthogonal.

Two execution modes choose the T's: WITNESS asks a fixed cover of X2 by
m-flats meeting only in zero and is exact; SAMPLED draws K random ones and
stops asking once those asked meet only in zero: a false answer is sound, a
true one exact if it stopped so and probable otherwise.  Both answer with
the conjunction of the replies, and ask each distinct candidate once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterator, Optional, Sequence

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
    LinearSubspace,
    QuadraticSpace,
    _echelon_kernel,
    _mat_mul_int,
    _rref_int,
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
    xi-orthogonal to y1: it is computed as such, from the form rows kept
    with y1's direction, and the result as y1's direction and T's, in one
    reduction, through y1's base point; that flat contains y1, hence q, so
    it is T ⊔ y1.  The result's meet with x2 equals T regardless of any
    orthogonality between y1 and x2.  The meets are checked by their
    dimensions alone; none is built.
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
    wx2 = _xi_complement_rows(space, y1.direction.form_rows(space), x2.direction)
    if wx2.rank < m:
        raise InternalError("orthocomplement misses x2 at the required dimension")
    # y1 and x2 meet in a point, so their directions meet only in zero
    x1 = AffineSubspace._canonical(
        space, *y1.int_point, _rand_extension(y1.direction, wx2, m, rng)
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

    Both modes ask about candidates y1 ⊔ T, T an m-flat inside x2 through
    the common point, and return the conjunction of the answers.  A
    candidate passes exactly when T holds the oracle's projection of y1's
    direction onto x2's, which is zero for an orthogonal pair.  WITNESS
    asks x2's rows without each block of k2 - m consecutive rows, the
    blocks covering every row and the last ending at row k2; these T meet
    only in zero, so the answer is exact.  SAMPLED draws K T's as
    rand_subspace_of draws, reduced to the rows that name T; a T drawn
    before is skipped, and once the T's asked meet only in zero all later
    ones would pass, so they are drawn and rank-tested but neither reduced
    nor asked: the answer, the draws and the rng's state are those of
    asking every draw.  Each candidate is one reduction of y1's rows and
    T's, of dimension k1, since the directions meet only in zero.
    """
    _check_same_space(y1, x2)
    params = oracle.params
    if y1.dim != params.k1 - params.m or x2.dim != params.k2:
        raise PreconditionError("flat dimensions do not match oracle params")
    if _meet_dim(y1, x2) != 0:
        raise PreconditionError("flats must intersect in a single point")
    if params.m == 0:
        return oracle.query(y1, x2)
    y1_rows, x2_rows = y1.direction.int_rows, x2.direction.int_rows
    if mode.kind == "witness":
        gap = params.k2 - params.m
        starts = [min(s, params.m) for s in range(0, params.k2, gap)]
        flats = ([*x2_rows[:s], *x2_rows[s + gap :]] for s in starts)
    else:
        flats = _sampled_flats(x2_rows, params.m, mode, rng)
    for t_rows in flats:
        # y1 ⊔ T: the common point lies on y1, so the directions' sum
        # through y1's base point
        direction = _subspace_from_int_rows([*y1_rows, *t_rows], y1.ambient_dim)
        candidate = AffineSubspace._canonical(y1.space, *y1.int_point, direction)
        if not oracle.query(candidate, x2):
            return False
    return True


def _sampled_flats(
    x2_rows: tuple, m: int, mode: ReconstructionMode, rng: Optional[random.Random]
) -> Iterator[list[list[int]]]:
    """Each distinct T of all K draws, as rows, until those asked meet only
    in zero (their annihilators span Q^k2); drawn from rng, else the seed."""
    sample_rng = rng if rng is not None else random.Random(mode.seed)
    k2 = len(x2_rows)
    asked, annihilators = set(), []
    for _ in range(mode.samples):
        if len(annihilators) == k2:
            # covered: the draw is made for the rng's state, not reduced
            _reduced_draw((), None, m, k2, sample_rng, reduce=False)
            continue
        coeffs, pivots = _reduced_draw((), None, m, k2, sample_rng)
        if coeffs not in asked:
            asked.add(coeffs)
            yield _mat_mul_int(coeffs, x2_rows)
            annihilators.extend(_echelon_kernel(coeffs, pivots, k2))
            annihilators = _rref_int(annihilators)[0]


def common_perpendicular_feet(
    l1: AffineSubspace, l2: AffineSubspace
) -> tuple[AffineSubspace, AffineSubspace]:
    """Unique point flats (q on l1, p on l2) with p - q orthogonal to both
    lines.

    Requires orthogonal lines; the 2x2 system is then diagonal with
    anisotropic (hence nonzero) entries.  Intersecting lines give q = p,
    and each point is stored over a positive denominator.
    With the scaled form F, direction rows d1, d2 and p2 - p1 = delta / e,
    q = p1 + (delta F d1) / (e d1 F d1) d1 and
    p = p2 - (delta F d2) / (e d2 F d2) d2, every factor an integer.
    """
    _check_same_space(l1, l2)
    if l1.dim != 1 or l2.dim != 1:
        raise PreconditionError("both arguments must be lines")
    (d1,), (f1,) = l1.direction.int_rows, l1.direction.form_rows(l1.space)
    (d2,), (f2,) = l2.direction.int_rows, l2.direction.form_rows(l2.space)
    if not perp_subspaces(l1, l2):
        raise PreconditionError("lines are not orthogonal")
    delta, e = _point_difference(l1, l2)
    (u1, e1), (u2, e2) = l1.int_point, l2.int_point
    # anisotropy gives g1, g2 != 0; a negative g is negated with its a
    g1, g2 = sum(map(mul, f1, d1)), sum(map(mul, f2, d2))
    a1, a2 = sum(map(mul, f1, delta)), sum(map(mul, f2, delta))
    if g1 < 0:
        g1, a1 = -g1, -a1
    if g2 < 0:
        g2, a2 = -g2, -a2
    s1, s2 = e // e1 * g1, e // e2 * g2
    q = [x * s1 + a1 * y for x, y in zip(u1, d1)]
    p = [x * s2 - a2 * y for x, y in zip(u2, d2)]
    zero = zero_subspace(l1.ambient_dim)
    return (
        AffineSubspace._canonical(l1.space, q, e * g1, zero),
        AffineSubspace._canonical(l2.space, p, e * g2, zero),
    )


def _wrapping_pair(
    space: QuadraticSpace,
    point: tuple[Sequence[int], int],
    dir1: LinearSubspace,
    dir2: LinearSubspace,
    k1: int,
    k2: int,
    rng: Optional[random.Random],
) -> tuple[AffineSubspace, AffineSubspace]:
    """The perp-x pair (x1, x2) of dimensions (k1, k2) through the point
    (numerators, denominator) of mutually orthogonal directions: dir2
    padded to k2, then dir1 to k1, each from the xi-complement of itself
    and the other direction as it then stands, read from the form rows
    kept with both; a direction that gains no rows is handed on as it is.
    An InternalError says the pair is not perp-x."""
    full = full_subspace(space.dim)

    def pad(d, k, before):
        if k == d.rank:
            return d
        fd = [*before.form_rows(space), *d.form_rows(space)]
        comp = _xi_complement_rows(space, fd, full)
        return _rand_extension(d, comp, k - d.rank, rng)

    dir2 = pad(dir2, k2, dir1)
    dir1 = pad(dir1, k1, dir2)
    x1, x2 = (AffineSubspace._canonical(space, *point, d) for d in (dir1, dir2))
    if x1.dim != k1 or x2.dim != k2 or not perp_x(x1, x2):
        raise InternalError("wrapping pair failed its own construction")
    return x1, x2


def lemma2_witness(
    l1: AffineSubspace,
    l2: AffineSubspace,
    k1: int,
    k2: int,
    rng: Optional[random.Random] = None,
) -> tuple[AffineSubspace, AffineSubspace]:
    """Wrap orthogonal lines in a perp-x pair of dimensions (k1, k2) through
    l1's foot q: x1 spans l1's direction, and x2 spans l2's direction and
    w = p - q for l2's foot p, which reaches across to q (so x2 holds p)
    and is where k2 > 1 is spent; each is padded as a wrapping pair is."""
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
    # p - q scaled by a positive integer, orthogonal to both lines
    w, _ = _point_difference(q, p)
    dir2 = l2.direction
    if any(w):
        dir2 = _subspace_from_int_rows([*dir2.int_rows, w], n)
    return _wrapping_pair(space, q.int_point, l1.direction, dir2, k1, k2, rng)


def line_perp_ground_truth(l1: AffineSubspace, l2: AffineSubspace) -> bool:
    """Direct direction-vector orthogonality of two lines."""
    _check_same_space(l1, l2)
    if l1.dim != 1 or l2.dim != 1:
        raise PreconditionError("both arguments must be lines")
    return perp_subspaces(l1, l2)


def _wrap_line_pair(
    l1: AffineSubspace, l2: AffineSubspace, params: TypedPerpParams
) -> Optional[tuple[AffineSubspace, AffineSubspace]]:
    """The wrap stage: the point-meet pair of type params standing for the
    two lines, in the oracle's slot order, or None when there is none.
    Reads the metric and incidence only, and draws nothing.

    Line orthogonality depends only on the directions, so the pair is built
    through the origin: for (0, 1, 1) the lines moved there, else their
    directions padded as lemma 2 pads lines that meet.  Only orthogonal
    lines admit that pair, and parallel lines admit neither: the wrap tests
    the lines as given under the space's form and refuses the rest.
    """
    _check_same_space(l1, l2)
    if l1.dim != 1 or l2.dim != 1:
        raise InputError("both arguments must be lines")
    space = l1.space
    if not params.satisfiable_in(space.dim):
        raise InputError("params are unsatisfiable in this dimension")
    # the dimensions of the point-meet pair
    k1, k2 = params.k1 - params.m, params.k2
    # the origin has zeros at every pivot, so it is already canonical
    origin = ((0,) * space.dim, 1)
    if k1 == k2 == 1:
        if parallel(l1, l2):
            return None
        return (
            AffineSubspace(space, origin, l1.direction),
            AffineSubspace(space, origin, l2.direction),
        )
    if not perp_subspaces(l1, l2):
        return None
    return _wrapping_pair(space, origin, l1.direction, l2.direction, k1, k2, None)


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
    core = _wrap_line_pair(l1, l2, params)
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
    core = _wrap_line_pair(l1, l2, params)
    oracle = ground_truth_oracle(params)
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
