"""Orthogonality relations on affine flats, reflections, and witnesses.

All relations reduce to exact integer tests on direction bases.  The graded
relation on flats meeting in M asks whether the canonical witness Z1, the
orthocomplement of M's direction inside x1's direction, is orthogonal to
x2: any valid witness has its direction inside that complement, and the
join condition forces equality.  It is settled by one rank: with direction
rows D1, D2 (k1 and k2 of them), the form F and m = dim(D1 ∩ D2),
D1 ∩ D2^⊥ has dimension k1 - rank(D1 F D2^T).  That space lies inside Z1
(it is orthogonal to D2, hence to M).  Because F is anisotropic,
F(v, v) ≠ 0 for v ≠ 0 (as for every positive-definite form), it meets M
only in zero, and M ∩ M^⊥ = 0 gives Z1 dimension exactly k1 - m.  So
Z1 ⊥ D2 exactly when the Gram matrix D1 F D2^T has rank m, and plain
orthogonality of directions is its all-zero case.  No search is involved.

The same test runs on the xi-complements C1, C2 of the directions.  The
rank condition says that the F-orthogonal projections P1, P2 onto D1, D2
commute, and I - P1, I - P2, the projections onto C1, C2, commute exactly
when P1, P2 do (Halmos, "Two subspaces", Trans. AMS 144, 1969).  With E1,
E2 the directions' equations, C_i is the row space of E_i F^-1, so
C1 F C2^T = E1 F^-1 E2^T, and dim(C1 ∩ C2) = n - dim(D1 + D2) =
n - k1 - k2 + m.  So D1, D2 pass the test exactly when E1 F^-1 E2^T has
rank n - k1 - k2 + m: an (n - k1) x (n - k2) matrix instead of a k1 x k2
one, which the graded relations take when it has under a quarter of the
entries, as for a hyperplane against a flat of codimension 2.  The zero
test (m = 0) stays on the directions: it needs no elimination, and with
m = 0, k1 + k2 <= n, so the complements' matrix is never the smaller.

A reflection is held as integers, a matrix, a translation and one scale
(``reflection``), and ``reflections_commute`` decides on them; no
rational isometry is built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .errors import (
    GenerationError,
    InputError,
    InternalError,
    PreconditionError,
    UnsatisfiableParams,
)
from .flats import (
    AffineSubspace,
    _check_same_space,
    _meet_parts,
    is_subflat,
)
from .linalg import (
    LinearSubspace,
    QuadraticSpace,
    _forward_steps,
    _mat_mul_int,
    _rref_int,
    _subspace_from_int_rows,
    full_subspace,
    mat_inverse,
    subspace_sum,
    xi_complement,
    zero_subspace,
)


# ---------------------------------------------------------------------------
# the orthogonality relations


def _gram(x1: AffineSubspace, x2: AffineSubspace) -> list[list[int]]:
    """D1 F D2^T for the direction rows D1, D2 and the scaled form F.

    F is symmetric, so this is D1 (D2 F)^T, from the form rows kept with
    x2's direction."""
    fd2 = x2.direction.form_rows(x2.space)
    return [[sum(map(mul, u, fv)) for fv in fd2] for u in x1.direction.int_rows]


def perp_subspaces(x: AffineSubspace, y: AffineSubspace) -> bool:
    """Direction-wise orthogonality; point flats are orthogonal to all."""
    _check_same_space(x, y)
    return _complement_perp(x, y, 0)


def perp_x(x: AffineSubspace, y: AffineSubspace) -> bool:
    """Orthogonal with a common point."""
    _check_same_space(x, y)
    return _complement_perp(x, y, 0) and _meet_parts(x, y) is not None


def orthocomplement_in(
    x: AffineSubspace, v: AffineSubspace, q: AffineSubspace
) -> AffineSubspace:
    """The maximal flat through the point flat q inside v that is perp-x
    to x.

    Requires x ⊆ v and q ∈ x.  A point flat complements to v itself; x = v
    complements to the single point q.
    """
    _check_same_space(x, v)
    if not q.is_point:
        raise InputError("q must be a point flat")
    if not is_subflat(x, v):
        raise PreconditionError("x must be a subflat of v")
    if not is_subflat(q, x):
        raise PreconditionError("q must lie on x")
    direction = xi_complement(x.space, x.direction, v.direction)
    return AffineSubspace._canonical(x.space, *q.int_point, direction)


def _complement_perp(x1: AffineSubspace, x2: AffineSubspace, m: int) -> bool:
    """The canonical witness test: Z1, the xi-complement of the meet's
    direction inside x1's direction, is orthogonal to x2's direction.

    ``m`` is the dimension of the meet's direction M.  D1 ∩ D2^⊥ lies in
    Z1 and has dimension k1 - rank(D1 F D2^T); the form is anisotropic, so
    it misses M, and Z1 has dimension k1 - m as M ∩ M^⊥ = 0.  So the test
    holds exactly when the Gram matrix has rank m (see the module
    docstring).  For m = 0 that is a zero Gram matrix.  Otherwise the rank
    is the number of steps of one forward pass, over the k1 x k2 Gram
    matrix, or over the (n - k1) x (n - k2) one of ``_equations_perp``
    when that has under a quarter of the entries.
    """
    if not m:
        return not any(map(any, _gram(x1, x2)))
    n = x1.space.dim
    k1, k2 = len(x1.direction.int_rows), len(x2.direction.int_rows)
    if 4 * (n - k1) * (n - k2) < k1 * k2:
        return _equations_perp(x1, x2, m)
    return len(_forward_steps(_gram(x1, x2))) == m


def _equations_perp(x1: AffineSubspace, x2: AffineSubspace, m: int) -> bool:
    """``_complement_perp`` on the directions' xi-complements C1, C2: the
    Gram matrix E1 F^-1 E2^T, from x1's equations and the complement rows
    kept with x2's direction, has rank n - k1 - k2 + m = dim(C1 ∩ C2)."""
    cr = x2.direction.complement_rows(x2.space)
    gram = [[sum(map(mul, e, c)) for c in cr] for e in x1.direction.equations]
    return len(_forward_steps(gram)) == x1.space.dim - x1.dim - x2.dim + m


def _meet_dim(x1: AffineSubspace, x2: AffineSubspace) -> Optional[int]:
    """The dimension of the meet, or None for disjoint flats: x1's
    dimension less the pivots of the meet system, with no meet built."""
    parts = _meet_parts(x1, x2)
    return None if parts is None else x1.dim - len(parts[1])


def perp_go(x1: AffineSubspace, x2: AffineSubspace) -> bool:
    """Graded orthogonality without the non-inclusion constraint.

    False for disjoint flats.  Otherwise, with M the meet: the complement
    of M's direction inside x1's direction must be orthogonal to x2.
    """
    _check_same_space(x1, x2)
    m = _meet_dim(x1, x2)
    return m is not None and _complement_perp(x1, x2, m)


def perp_g(x1: AffineSubspace, x2: AffineSubspace) -> bool:
    """Graded orthogonality: perp_go with neither flat inside the other."""
    _check_same_space(x1, x2)
    m = _meet_dim(x1, x2)
    if m is None:
        return False
    # meet = x_i exactly when dims agree, since meet ⊆ x_i always
    if m == x1.dim or m == x2.dim:
        return False
    return _complement_perp(x1, x2, m)


@dataclass(frozen=True)
class TypedPerpParams:
    """Dimension type (m, k1, k2) of the graded relation."""

    m: int
    k1: int
    k2: int

    def __post_init__(self) -> None:
        # a bool is an int, and serialises as true
        for name in ("m", "k1", "k2"):
            if type(getattr(self, name)) is not int:
                raise InputError(f"{name} must be an int")
        if self.m < 0:
            raise InputError("m must be nonnegative")
        if not (self.m < self.k1 and self.m < self.k2):
            raise InputError("m must be strictly below both k1 and k2")

    def satisfiable_in(self, dim: int) -> bool:
        return self.k1 + self.k2 - self.m <= dim


def perp_m(x1: AffineSubspace, x2: AffineSubspace, params: TypedPerpParams) -> bool:
    """perp_g restricted to dims (k1, k2) with meet of dimension m."""
    _check_same_space(x1, x2)
    if x1.dim != params.k1 or x2.dim != params.k2:
        return False
    if _meet_dim(x1, x2) != params.m:
        return False
    # m < k1, k2 already rules out inclusions
    return _complement_perp(x1, x2, params.m)


# ---------------------------------------------------------------------------
# reflections


def reflection(x: AffineSubspace) -> tuple[list[list[int]], list[int], int]:
    """The involutory isometry fixing the flat x pointwise, as integers
    (A, T, d): p -> (A p + T / e) / d, where the point of x has
    denominator e.

    The linear part is 2P - I, where P projects onto x's direction along
    its xi-complement: P = B^T (B F B^T)^{-1} B F for direction rows B and
    the scaled form F.  With L (B F B^T)^{-1} integral (``mat_inverse``),
    A = 2 B^T (L (B F B^T)^{-1}) B F - L I is that linear part scaled by
    d = L; T = d u - A u for the point u / e.
    """
    n = x.space.dim
    b = x.direction.int_rows
    if not b:
        a = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
        d = 1
    else:
        ginv, d = mat_inverse(_gram(x, x))
        fb = x.direction.form_rows(x.space)
        proj = _mat_mul_int(tuple(zip(*b)), _mat_mul_int(ginv, fb))
        a = [[2 * v - (d if i == j else 0) for j, v in enumerate(r)]
             for i, r in enumerate(proj)]
    u, _ = x.int_point
    t = [d * ui - sum(map(mul, row, u)) for ui, row in zip(u, a)]
    return a, t, d


def reflections_commute(x1: AffineSubspace, x2: AffineSubspace) -> bool:
    """Whether the reflections in x1 and x2 commute, decided on integers.

    With reflection i as p -> (A_i p + T_i / e_i) / d_i, the linear parts
    commute iff A1 A2 = A2 A1, and the translations of the two composites
    agree iff e1 A1 T2 + d2 e2 T1 = e2 A2 T1 + d1 e1 T2.  The composites
    are compared row by row, an entry at a time, and the first entry that
    differs decides False; only commuting linear parts are formed in full.
    """
    _check_same_space(x1, x2)
    a1, t1, d1 = reflection(x1)
    a2, t2, d2 = reflection(x2)
    cols1, cols2 = tuple(zip(*a1)), tuple(zip(*a2))
    for r1, r2 in zip(a1, a2):
        for c1, c2 in zip(cols1, cols2):
            if sum(map(mul, r1, c2)) != sum(map(mul, r2, c1)):
                return False
    e1, e2 = x1.int_point[1], x2.int_point[1]
    return all(
        e1 * sum(map(mul, r1, t2)) + d2 * e2 * s1
        == e2 * sum(map(mul, r2, t1)) + d1 * e1 * s2
        for r1, r2, s1, s2 in zip(a1, a2, t1, t2)
    )


# ---------------------------------------------------------------------------
# constructive witnesses


# The one draw policy of every generator: point coordinates p/q with
# |p| <= NUMERATOR_BOUND and 1 <= q <= DENOMINATOR_BOUND, direction rows as
# integer combinations with coefficients in [-COEFF_BOUND, COEFF_BOUND], and
# a draw whose rank collapses retried up to RETRIES times before a
# GenerationError.
NUMERATOR_BOUND = 9
DENOMINATOR_BOUND = 3
RETRIES = 64
COEFF_BOUND = 3


def _draws(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers of [lo, hi], drawn as ``Random.randint`` draws them:
    each is lo + getrandbits(k), k the bit length of the range's size, and
    a draw past hi is dropped for the next one.  So the values and the
    generator's state after them are those of as many ``randint`` calls,
    and a range of one value still takes a word; only ``getrandbits`` is
    relied on."""
    size = hi - lo + 1
    if size < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k = size.bit_length()
    out = []
    while len(out) < count:
        r = rng.getrandbits(k)
        if r < size:
            out.append(lo + r)
    return out


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    """One integer of [lo, hi], drawn as ``_draws`` draws each."""
    return _draws(rng, lo, hi, 1)[0]


def _rand_int_point(n: int, rng: random.Random) -> tuple[list[int], int]:
    """A random point of Q^n as numerators over the lcm of its denominators.

    Each coordinate draws its numerator, then its denominator."""
    draws = [
        (
            _draw(rng, -NUMERATOR_BOUND, NUMERATOR_BOUND),
            _draw(rng, 1, DENOMINATOR_BOUND),
        )
        for _ in range(n)
    ]
    den = math.lcm(*[d for _, d in draws])
    return [x * (den // d) for x, d in draws], den


def rand_subspace_of(w: LinearSubspace, k: int, rng: random.Random) -> LinearSubspace:
    """A random k-dimensional subspace of w (small integer combinations)."""
    return _rand_extension(zero_subspace(w.ambient_dim), w, k, rng)


def _rand_extension(
    base: LinearSubspace,
    w: LinearSubspace,
    k: int,
    rng: Optional[random.Random],
) -> LinearSubspace:
    """base extended by k random combinations of w's rows (w's first k
    canonical rows with rng None), from one reduction per draw, redrawn
    while the extension has rank below rank(base) + k; base itself, with
    the products kept on it, when k = 0.

    When w meets base only in zero, this is
    subspace_sum(base, rand_subspace_of(w, k, rng)): the sum has full rank
    exactly when the draw does, so every draw, retry and GenerationError is
    rand_subspace_of's.  When base lies in w, the result is a
    (rank(base) + k)-subspace of w between the two, which needs
    rank(base) + k <= rank w (flat_between's range check).
    """
    rank = w.rank
    if not 0 <= k <= rank:
        raise InputError(f"cannot draw a {k}-dimensional subspace of rank {rank}")
    if not k:
        return base
    n = w.ambient_dim
    if rng is None or k == rank:
        # nothing to draw
        if base.is_zero and k == rank:
            return w
        return _subspace_from_int_rows([*base.int_rows, *w.int_rows[:k]], n)
    # a w of full rank is the whole space, whose rows are the unit rows
    w_rows = None if rank == n else w.int_rows
    return LinearSubspace(n, *_reduced_draw(base.int_rows, w_rows, k, rank, rng))


def _reduced_draw(
    base_rows: Sequence[Sequence[int]],
    w_rows: Optional[Sequence[Sequence[int]]],
    k: int,
    rank: int,
    rng: random.Random,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduce base_rows with k random combinations of w_rows, the rows of
    a w of the given rank (None: the whole space's unit rows, whose
    combinations are the coefficients), and return the reduced rows and
    pivots of the first draw that keeps all len(base_rows) + k rows.  The
    one rank-checked draw: at most RETRIES draws, then GenerationError.
    With no base and w_rows None the rows name the subspace of any such w
    that the draw picks (their span times its rows): equal rows, equal pick.
    A sampled decision takes one such draw per T and none after its cover."""
    for _ in range(RETRIES):
        coeffs = [_draws(rng, -COEFF_BOUND, COEFF_BOUND, rank) for _ in range(k)]
        if w_rows is not None:
            coeffs = _mat_mul_int(coeffs, w_rows)
        rows = [*base_rows, *coeffs]
        reduced, pivots = _rref_int(rows)
        if len(reduced) == len(rows):
            return tuple(map(tuple, reduced)), tuple(pivots)
    raise GenerationError(f"no independent {k}-subspace after {RETRIES} draws")


def make_perp_pair(
    space: QuadraticSpace, params: TypedPerpParams, rng: random.Random
) -> tuple[AffineSubspace, AffineSubspace]:
    """A random pair in the typed relation, or a refusal when impossible.

    Build: common point q, meet flat M of dimension m through q, then Z1
    inside the xi-complement of M's direction and Z2 inside the
    xi-complement of that direction extended by Z1, so the two extensions
    are mutually orthogonal and meet M's direction trivially.  Every draw
    follows the fixed policy above, so a draw whose rank collapses is
    redrawn up to RETRIES times, then GenerationError.  The pair is built
    once: the form is anisotropic, F(v, v) ≠ 0 for v ≠ 0 (positive
    definiteness implies it), so each complement misses what it
    complements and the construction cannot fail its perp_m
    verification; an InternalError says it did.
    """
    n = space.dim
    if not params.satisfiable_in(n):
        raise UnsatisfiableParams(
            f"k1 + k2 - m = {params.k1 + params.k2 - params.m} exceeds dimension {n}"
        )
    full = full_subspace(n)
    q = _rand_int_point(n, rng)
    dir_m = rand_subspace_of(full, params.m, rng)
    comp1 = xi_complement(space, dir_m, full)
    d1 = _rand_extension(dir_m, comp1, params.k1 - params.m, rng)
    comp2 = xi_complement(space, d1, full)
    d2 = _rand_extension(dir_m, comp2, params.k2 - params.m, rng)
    x1 = AffineSubspace._canonical(space, *q, d1)
    x2 = AffineSubspace._canonical(space, *q, d2)
    if not perp_m(x1, x2, params):
        raise InternalError("constructed pair failed its perp_m verification")
    return x1, x2


def unique_complement(
    a: AffineSubspace, b: AffineSubspace, c: AffineSubspace
) -> AffineSubspace:
    """The unique b' with b ∩ b' = a, b perp-g b', b ⊔ b' = c.

    Requires the strict chain a ⊊ b ⊊ c.  The complement is a joined with
    the orthocomplement of b in c, through a's base point.
    """
    _check_same_space(a, b)
    _check_same_space(b, c)
    if not (is_subflat(a, b) and a.dim < b.dim):
        raise PreconditionError("need a strictly inside b")
    if not (is_subflat(b, c) and b.dim < c.dim):
        raise PreconditionError("need b strictly inside c")
    z = xi_complement(a.space, b.direction, c.direction)
    return AffineSubspace._canonical(
        a.space, *a.int_point, subspace_sum(a.direction, z)
    )
