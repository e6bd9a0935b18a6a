"""Exact linear algebra over the rationals.

Scalars at the API are `fractions.Fraction` (aliased ``QQ``); every
predicate downstream is an exact algebraic condition, so nothing here ever
rounds.  Row reduction runs fraction-free over machine/bignum integers:
each row is scaled by the lcm of its denominators and kept primitive
(gcd 1) during elimination.  Subspaces are stored in reduced row-echelon
form as primitive integer rows, which makes equality of subspaces plain
structural equality.  The form enters as ``QuadraticSpace.int_form``, the
form scaled to integers, and every product of rows with it is taken over
the form's nonzero entries (``QuadraticSpace.int_form_entries``) alone, so
a diagonal form costs n multiplications per row and a tridiagonal one
3n - 2, not n^2.  Rank, determinant and definiteness come from one
fraction-free forward pass (``_forward_steps``) and its pivot steps, and
every inverse from one augmented reduction (``_int_inverse``).

A k-dimensional subspace D has two sides: its k canonical rows and its
n - k equations (``LinearSubspace.equations``), with
``QuadraticSpace.int_form_inverse`` a positive integer multiple of F^-1.
The xi-complement of D in the whole space is the kernel of D F, or
equally the row space of E F^-1; ``xi_complement`` works on whichever
side has fewer rows.  A complement inside W and a meet's direction are
read by ``_kernel_in`` from one reduction over W's rows in reverse order.

Rationals exist only at the boundary: parsing scalars, vectors and forms
(``scalar``, ``vector``, ``matrix``, ``rref_basis``, ``QuadraticSpace``)
and the rational results of ``determinant`` (public, with no caller in
the package) and ``mat_inverse`` (which has none either: it stays for the
benchmark's tracer, which patches it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError, PreconditionError

QQ = Fraction

Vector = tuple[QQ, ...]
Matrix = tuple[Vector, ...]
IntRow = tuple[int, ...]

Scalarish = Union[QQ, int, str]


def scalar(x: Scalarish) -> QQ:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(x, QQ):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return QQ(x)
    if isinstance(x, str):
        try:
            return QQ(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {x!r}") from exc
    raise InputError(f"not a rational: {x!r}")


def vector(entries: Iterable[Scalarish]) -> Vector:
    if isinstance(entries, (str, bytes)):
        raise InputError(f"not a vector: {entries!r}")
    return tuple(scalar(x) for x in entries)


def matrix(rows: Iterable[Iterable[Scalarish]]) -> Matrix:
    return tuple(vector(r) for r in rows)


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(QQ(1) if i == j else QQ(0) for j in range(n)) for i in range(n)
    )


# ---------------------------------------------------------------------------
# integer row machinery (fraction-free elimination core)


def _int_vector(row: Sequence[QQ]) -> tuple[list[int], int]:
    """Numerators of a rational row over the lcm of its denominators."""
    den = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def _int_row(row: Sequence[QQ]) -> list[int]:
    """Scale a rational row by the lcm of its denominators."""
    return _int_vector(row)[0]


def _primitive(row: list[int]) -> list[int]:
    """Divide out the gcd of a row's entries; zero rows pass through."""
    g = math.gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def _rref_int(rows: Iterable[Sequence[int]], pivot_limit: Optional[int] = None) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan.

    Returns the nonzero echelon rows (each primitive, positive pivot, zeros
    above and below every pivot) together with the pivot column indices.
    Every row kept is a new list; the input rows are never changed.
    ``pivot_limit`` restricts pivot search to the first columns, which lets
    callers reduce augmented systems without pivoting on the right-hand side.
    """
    gcd = math.gcd
    work = []
    for row in rows:
        g = gcd(*row)
        if g:
            work.append([x // g for x in row] if g > 1 else list(row))
    if not work:
        return [], []
    ncols = len(work[0]) if pivot_limit is None else pivot_limit
    nrows = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if work[i][c]:
                break
        else:
            continue
        prow = work[i]
        work[i] = work[r]
        if prow[c] < 0:
            prow = [-x for x in prow]
        work[r] = prow
        pv = prow[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [x * a - y * b for x, y in zip(row, prow)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            return work, pivots
    # under a pivot_limit, rows nonzero only beyond the limit must survive:
    # they are the inconsistency witnesses of augmented systems
    return work[:r] + [row for row in work[r:] if any(row)], pivots


def _forward_steps(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Fraction-free forward elimination: for each step, the index of the
    row it took among the remaining rows, and its pivot.  The rank is the
    number of steps.

    Bareiss's scheme (Math. Comp. 22, 1968): each update ``x pv - y f`` is
    divided exactly by the previous pivot, so every entry stays a minor of
    the input.  A step takes the first remaining row nonzero in the current
    column; the rows left keep only the columns right of it, and zero rows
    are dropped, as they stay zero.  On a square matrix of full rank no row
    is dropped and no column skipped: the k-th pivot is the leading k x k
    minor of the rows in the order taken.
    """
    work = [row for row in rows if any(row)]
    steps = []
    prev = 1
    while work:
        for i, prow in enumerate(work):
            if prow[0]:
                break
        else:
            # the column is zero in every remaining row
            work = [row[1:] for row in work]
            continue
        del work[i]
        pv, tail = prow[0], prow[1:]
        steps.append((i, pv))
        work = [
            new
            for new in (
                [(x * pv - y * row[0]) // prev for x, y in zip(row[1:], tail)]
                for row in work
            )
            if any(new)
        ]
        prev = pv
    return steps


def _mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


# ---------------------------------------------------------------------------
# linear subspaces


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subspace of Q^n held in canonical reduced row-echelon form.

    ``int_rows`` are the echelon basis rows scaled to primitive integer
    vectors (positive pivots).  Two subspaces are equal iff their canonical
    forms coincide.
    """

    ambient_dim: int
    int_rows: tuple[IntRow, ...]
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.int_rows)

    @property
    def is_zero(self) -> bool:
        return not self.int_rows

    @cached_property
    def equations(self) -> list[list[int]]:
        """Integer rows e, one per missing dimension, with e . v = 0 for
        every row of E exactly when v lies in the subspace."""
        return _echelon_kernel(self.int_rows, self.pivots, self.ambient_dim)


def _lies_in(rows: Iterable[Sequence[int]], w: LinearSubspace) -> bool:
    """Whether every integer row lies in w: each of w's cached equations
    vanishes on it."""
    eqs = w.equations
    return not any(sum(map(mul, e, r)) for r in rows for e in eqs)


def _subspace_from_int_rows(rows: Sequence[Sequence[int]], ambient_dim: int) -> LinearSubspace:
    rref_rows, pivots = _rref_int(rows)
    return LinearSubspace(
        ambient_dim,
        tuple(tuple(r) for r in rref_rows),
        tuple(pivots),
    )


def zero_subspace(ambient_dim: int) -> LinearSubspace:
    return LinearSubspace(ambient_dim, (), ())


@lru_cache(maxsize=None)
def full_subspace(ambient_dim: int) -> LinearSubspace:
    rows = tuple(
        tuple(1 if i == j else 0 for j in range(ambient_dim))
        for i in range(ambient_dim)
    )
    return LinearSubspace(ambient_dim, rows, tuple(range(ambient_dim)))


def rref_basis(vectors: Iterable[Sequence[QQ]], ambient_dim: int) -> LinearSubspace:
    """Canonical RREF basis of the span of the given rational vectors."""
    rows = []
    for v in map(vector, vectors):
        if len(v) != ambient_dim:
            raise InputError(
                f"vector has length {len(v)}, ambient dimension is {ambient_dim}"
            )
        rows.append(_int_row(v))
    return _subspace_from_int_rows(rows, ambient_dim)


def subspace_sum(a: LinearSubspace, b: LinearSubspace) -> LinearSubspace:
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimension mismatch")
    return _subspace_from_int_rows(a.int_rows + b.int_rows, a.ambient_dim)


def _echelon_kernel(
    rref_rows: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int
) -> list[list[int]]:
    """Kernel basis of the first ``ncols`` columns of reduced echelon rows."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    if not free_cols:
        return []
    lcm_p = math.lcm(*[row[c] for row, c in zip(rref_rows, pivots)])
    out = []
    for f in free_cols:
        v = [0] * ncols
        v[f] = lcm_p
        for row, c in zip(rref_rows, pivots):
            v[c] = -row[f] * (lcm_p // row[c])
        out.append(_primitive(v))
    return out


def _kernel_in(
    rref_rows: Sequence[Sequence[int]], pivots: Sequence[int], w: LinearSubspace
) -> LinearSubspace:
    """The canonical subspace of W on which reduced echelon rows vanish,
    their column c the coefficient of W's row w.rank - 1 - c.

    Read backwards, each echelon kernel vector leads at its own free column,
    where the others are zero, so its combination of W's rows leads alone
    at that row's pivot: in reverse order, each divided by its gcd, the
    combinations are the canonical rows (in the whole space, the vectors).
    """
    r = w.rank
    rows = [v[::-1] for v in reversed(_echelon_kernel(rref_rows, pivots, r))]
    if r < w.ambient_dim:
        rows = [_primitive(row) for row in _mat_mul_int(rows, w.int_rows)]
    own = [w.pivots[r - 1 - c] for c in reversed(range(r)) if c not in pivots]
    return LinearSubspace(w.ambient_dim, tuple(map(tuple, rows)), tuple(own))


def _int_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(A, d) with rows . A = d I and d > 0, for a square integer matrix.

    One fraction-free reduction of [rows | I] leaves diag(p) on the left
    and diag(p) rows^-1 on the right; scaling each row to the lcm d of the
    pivots gives A = d rows^-1.  Raises PreconditionError when the rows are
    singular.
    """
    k = len(rows)
    aug = [[*row, *(int(i == j) for j in range(k))] for i, row in enumerate(rows)]
    red, pivots = _rref_int(aug, pivot_limit=k)
    if len(pivots) < k:
        raise PreconditionError("matrix is singular")
    d = math.lcm(*[row[i] for i, row in enumerate(red)])
    return [[v * (d // row[i]) for v in row[k:]] for i, row in enumerate(red)], d


def mat_inverse(m: Matrix) -> Matrix:
    """The inverse of a square rational matrix: the rational view of
    ``_int_inverse``.  With row i scaled to integers by c_i, N = C M and
    N A = d I, so M^-1 = A C / d."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise InputError("matrix is not square")
    scaled = [_int_vector(row) for row in m]
    a, d = _int_inverse([r for r, _ in scaled])
    return tuple(
        tuple(QQ(v * c, d) for v, (_, c) in zip(row, scaled)) for row in a
    )


# ---------------------------------------------------------------------------
# determinants and the quadratic space


def determinant(m: Sequence[Sequence[QQ]]) -> QQ:
    n = len(m)
    if any(len(r) != n for r in m):
        raise InputError("matrix is not square")
    # the integer rows' determinant over the product of the rows' denominators
    scaled = [_int_vector(row) for row in m]
    steps = _forward_steps([r for r, _ in scaled])
    if len(steps) < n:
        return QQ(0)
    det = steps[-1][1] if steps else 1
    # taking the row at index i moves it past i others
    if sum(i for i, _ in steps) % 2:
        det = -det
    return QQ(det, math.prod(d for _, d in scaled))


def is_symmetric(form: Sequence[Sequence[QQ]]) -> bool:
    n = len(form)
    return all(len(r) == n for r in form) and all(
        form[i][j] == form[j][i] for i in range(n) for j in range(i + 1, n)
    )


def is_positive_definite(form: Sequence[Sequence[QQ]]) -> bool:
    """Sylvester's criterion: every leading principal minor is positive.

    One forward pass over the rows scaled to integers, which keeps every
    leading minor's sign: while the steps take the top row, the k-th pivot
    is the k-th leading minor; a step past the top row finds it zero.

    Positive definiteness guarantees the form is anisotropic, which the
    whole orthogonality layer relies on (orthogonal subspaces can only
    share the zero direction).
    """
    if not is_symmetric(form):
        raise InputError("form must be symmetric")
    steps = _forward_steps([_int_row(row) for row in form])
    return len(steps) == len(form) and all(i == 0 and pv > 0 for i, pv in steps)


@dataclass(frozen=True)
class QuadraticSpace:
    """Q^n equipped with a symmetric positive-definite bilinear form."""

    dim: int
    form: Matrix

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputError("dimension must be positive")
        if len(self.form) != self.dim or any(len(r) != self.dim for r in self.form):
            raise InputError("form must be a dim x dim matrix")
        if not is_positive_definite(self.form):
            raise InputError("form must be positive definite")

    @classmethod
    def euclidean(cls, dim: int) -> "QuadraticSpace":
        return cls(dim, identity_matrix(dim))

    @classmethod
    def diagonal(cls, weights: Sequence[Scalarish]) -> "QuadraticSpace":
        w = vector(weights)
        n = len(w)
        form = tuple(
            tuple(w[i] if i == j else QQ(0) for j in range(n)) for i in range(n)
        )
        return cls(n, form)

    @classmethod
    def from_matrix(cls, rows: Iterable[Iterable[Scalarish]]) -> "QuadraticSpace":
        form = matrix(rows)
        return cls(len(form), form)

    @cached_property
    def int_form(self) -> tuple[IntRow, ...]:
        """The form scaled by a positive integer; orthogonality is unchanged."""
        den = math.lcm(*[x.denominator for row in self.form for x in row])
        return tuple(
            tuple(x.numerator * (den // x.denominator) for x in row)
            for row in self.form
        )

    @cached_property
    def int_form_entries(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """The nonzero entries of ``int_form`` grouped by row: (i, ((j, f), ...))
        for each row i, listing every f = int_form[i][j] that is not zero."""
        return tuple(
            (i, tuple((j, f) for j, f in enumerate(row) if f))
            for i, row in enumerate(self.int_form)
        )

    @cached_property
    def int_form_inverse(self) -> tuple[IntRow, ...]:
        """A positive integer multiple of the inverse form, with no common
        factor: ``int_form`` times it is a positive multiple of the
        identity.  It is symmetric, as the form is."""
        a, _ = _int_inverse(self.int_form)
        g = math.gcd(*[x for row in a for x in row])
        return tuple(tuple(x // g for x in row) for row in a)


def _times_form(rows: Iterable[Sequence[int]], space: QuadraticSpace) -> list[list[int]]:
    """The integer rows times the space's ``int_form``, accumulated over the
    form's nonzero entries; a zero entry of a row skips its whole form row."""
    entries = space.int_form_entries
    n = space.dim
    out = []
    for row in rows:
        acc = [0] * n
        for i, form_row in entries:
            x = row[i]
            if x:
                for j, f in form_row:
                    acc[j] += x * f
        out.append(acc)
    return out


def _times_inverse(rows: Iterable[Sequence[int]], space: QuadraticSpace) -> list[list[int]]:
    """The integer rows times the space's ``int_form_inverse``; the inverse
    is symmetric, so each entry is a row's product with one of its rows."""
    inv = space.int_form_inverse
    return [[sum(map(mul, row, col)) for col in inv] for row in rows]


def xi_complement(space: QuadraticSpace, d: LinearSubspace, w: LinearSubspace) -> LinearSubspace:
    """{x in W : xi(x, d) = 0 for all d in D}, for D a subspace of W.

    With a positive-definite form the result is a true complement of D
    inside W: the dimensions add up and the intersection is zero.  In the
    whole space the complement is taken from the smaller side of D: the
    kernel of its k rows times F (``_xi_complement_rows``) while
    k <= n - k, else the row space of its n - k equations times F^-1
    (``_equations_complement``).  Inside a smaller W it is always the
    former, over W's rows.  Either way the result is the canonical subspace.
    """
    if d.ambient_dim != space.dim or w.ambient_dim != space.dim:
        raise InputError("ambient dimension mismatch")
    if d.is_zero:
        return w
    if w.rank == space.dim:
        if 2 * d.rank > space.dim:
            return _equations_complement(space, d)
    elif not _lies_in(d.int_rows, w):
        raise PreconditionError("D must be a subspace of W")
    return _xi_complement_rows(space, d.int_rows, w)


def _equations_complement(space: QuadraticSpace, d: LinearSubspace) -> LinearSubspace:
    """The xi-complement of D in the whole space, from D's equations E.

    x is xi-orthogonal to D exactly when F x vanishes on D, that is when
    F x is a combination of E's rows; so the complement is the row space
    of E F^-1 (F^-1 is symmetric), n - k rows reduced once.
    """
    return _subspace_from_int_rows(_times_inverse(d.equations, space), space.dim)


def _xi_complement_rows(
    space: QuadraticSpace, d_rows: Sequence[Sequence[int]], w: LinearSubspace
) -> LinearSubspace:
    """{x in W : xi(x, d) = 0 for every row d}, from any rows spanning D and
    with no condition on how D sits against W: D F over W's rows (the
    coordinates in the whole space), reversed, reduced once."""
    fd = _times_form(d_rows, space)
    if w.rank < space.dim:
        fd = [[sum(map(mul, row, wi)) for wi in w.int_rows] for row in fd]
    return _kernel_in(*_rref_int([row[::-1] for row in fd]), w)
