"""Exact linear algebra over the rationals.

One function, ``int_vector``, reads rational input (ints, ``Fraction``s,
aliased ``QQ``, and "p/q" strings) as integers over one denominator; every
predicate downstream is an exact algebraic condition, so nothing here ever
rounds.  Row reduction runs fraction-free over machine/bignum integers,
rows kept primitive (gcd 1).  Subspaces are stored in reduced row-echelon
form as primitive integer rows, which makes equality of subspaces plain
structural equality.  A ``QuadraticSpace`` holds only ``int_form``, the
form's least positive integral multiple, and every product of rows with
it is taken over the form's nonzero entries
(``QuadraticSpace.int_form_entries``) alone, so a diagonal form costs n
multiplications per row and a tridiagonal one 3n - 2, not n^2.  Rank and
definiteness come from one fraction-free forward pass (``_forward_steps``)
and its pivot steps.  Every reduced system comes from one plain
Gauss-Jordan (``_rref_int``); an augmented one, the inverse's
[A | I] (``mat_inverse``) or the meet's (``flats._meet_parts``), is
answered by where its pivots fall.

A k-dimensional subspace D has two sides: its k canonical rows and its
n - k equations (``LinearSubspace.equations``), with
``QuadraticSpace.int_form_inverse`` a positive integer multiple of F^-1.
The xi-complement of D in the whole space is the kernel of D F, or
equally the row space of E F^-1; ``xi_complement`` works on whichever
side has fewer rows.  Each side's product is made once per space and
kept with the subspace (``LinearSubspace.form_rows``, ``complement_rows``)
for every reader.  A complement inside W and a meet's direction are
read by ``_kernel_in`` from one reduction over W's rows in reverse order.
W keeps the last xi-complement taken inside it, in one slot keyed by the
space and a weak reference to D, so the laws that ask for the same
complement again (the canonical witness Z1 of one pair from several base
points, two flats drawn orthogonal to one A) reduce once.

Rationals exist only at the boundary.  Input is read by ``int_vector``,
whose fallback ``scalar`` decides the value and the error of any entry
that is not an int or a canonical "p" or "p/q" string.  Past it every
value is an integer; ``mat_inverse``, for one, returns an integer matrix
and its scale.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import InputError, PreconditionError

QQ = Fraction

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


# the canonical wire strings, read without a Fraction; anything else is
# parsed by ``scalar``
_WIRE_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def int_vector(entries: Iterable[Scalarish]) -> tuple[list[int], int]:
    """Rational entries as integer numerators over the lcm of their
    denominators as written ("0/5" counts 5): the one reader of rational
    input.

    Ints and the canonical wire strings ("p" and "p/q") are read as
    integers, "0" with no pattern match at all; any other entry goes
    through :func:`scalar`, which decides its value and its errors.  A str
    or bytes is refused as a whole vector.
    """
    if isinstance(entries, (str, bytes)):
        raise InputError(f"not a vector: {entries!r}")
    nums, dens = [], []
    for x in entries:
        if x == "0":
            nums.append(0)
            dens.append(1)
            continue
        m = _WIRE_RATIO.fullmatch(x) if isinstance(x, str) else None
        p = q = 0
        if m is not None:
            try:
                p, q = int(m[1]), int(m[2] or 1)
            except ValueError:  # past int's digit limit
                pass
        if not q:  # not canonical, or a zero denominator: scalar decides
            if type(x) is int:
                p, q = x, 1
            else:
                r = scalar(x)
                p, q = r.numerator, r.denominator
        nums.append(p)
        dens.append(q)
    den = math.lcm(*dens)
    if den == 1:
        return nums, 1
    return [p * (den // q) for p, q in zip(nums, dens)], den


def _int_matrix(rows: Iterable[Iterable[Scalarish]]) -> list[list[int]]:
    """Rational rows times the lcm of their entries' denominators in lowest
    terms: a positive integral multiple of the matrix, with the signs of
    its entries and of its leading minors."""
    read = [int_vector(row) for row in rows]
    lcm = math.lcm(*[den // math.gcd(den, *nums) for nums, den in read])
    return [[x * lcm // den for x in nums] for nums, den in read]


# ---------------------------------------------------------------------------
# integer row machinery (fraction-free elimination core)


def _primitive(row: list[int]) -> list[int]:
    """Divide out the gcd of a row's entries; zero rows pass through."""
    g = math.gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def _rref_int(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan.

    Returns the nonzero echelon rows (each primitive, positive pivot, zeros
    above and below every pivot) together with the pivot column indices.
    Every row kept is a new list; the input rows are never changed.  An
    augmented system is answered by where its pivots fall: a pivot in a
    right-hand column is a row that reads 0 = nonzero on the left.
    """
    gcd = math.gcd
    work = []
    for row in rows:
        g = gcd(*row)
        if g:
            work.append([x // g for x in row] if g > 1 else list(row))
    if not work:
        return [], []
    ncols = len(work[0])
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
    return work[:r], pivots


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
    forms coincide.  Besides ``equations`` it keeps its products with a
    space's form, ``form_rows`` and ``complement_rows``, one slot each
    keyed by the space, read by every flat with this direction and every
    complement taken of it, and the last complement taken inside it (see
    ``xi_complement``).  Callers must not mutate them.
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

    # plain dict slots: before Python 3.12 a cached_property takes a lock on
    # every first read, and these are keyed by the space besides
    def form_rows(self, space: QuadraticSpace) -> list[list[int]]:
        """The rows times the space's ``int_form``."""
        slot = self.__dict__.get("_form_rows")
        if slot is None or slot[0] is not space:
            slot = space, _times_form(self.int_rows, space)
            self.__dict__["_form_rows"] = slot
        return slot[1]

    def complement_rows(self, space: QuadraticSpace) -> list[list[int]]:
        """The equations times the space's ``int_form_inverse``: rows
        spanning the xi-complement."""
        slot = self.__dict__.get("_complement_rows")
        if slot is None or slot[0] is not space:
            slot = space, _times_inverse(self.equations, space)
            self.__dict__["_complement_rows"] = slot
        return slot[1]


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


def rref_basis(vectors: Iterable[Sequence[Scalarish]], ambient_dim: int) -> LinearSubspace:
    """Canonical RREF basis of the span of the given rational vectors."""
    rows = []
    for v in vectors:
        nums, _ = int_vector(v)
        if len(nums) != ambient_dim:
            raise InputError(
                f"vector has length {len(nums)}, ambient dimension is {ambient_dim}"
            )
        rows.append(nums)
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


def mat_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(A, d) with rows . A = d I and d > 0, for a square integer matrix.

    One fraction-free reduction of [rows | I] leaves diag(p) on the left
    and diag(p) rows^-1 on the right; scaling each row to the lcm d of the
    pivots gives A = d rows^-1.  Raises InputError when the matrix is not
    square and PreconditionError when its rows are singular.
    """
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise InputError("matrix is not square")
    aug = [[*row, *(int(i == j) for j in range(k))] for i, row in enumerate(rows)]
    red, pivots = _rref_int(aug)
    # [rows | I] has rank k; regular rows put its pivots on its first k columns
    if pivots != list(range(k)):
        raise PreconditionError("matrix is singular")
    d = math.lcm(*[row[i] for i, row in enumerate(red)])
    return [[v * (d // row[i]) for v in row[k:]] for i, row in enumerate(red)], d


# ---------------------------------------------------------------------------
# the quadratic space


def is_symmetric(form: Sequence[Sequence[Union[QQ, int]]]) -> bool:
    n = len(form)
    return all(len(r) == n for r in form) and all(
        form[i][j] == form[j][i] for i in range(n) for j in range(i + 1, n)
    )


def is_positive_definite(form: Sequence[Sequence[Scalarish]]) -> bool:
    """Sylvester's criterion: every leading principal minor is positive.

    One forward pass over the form scaled to integers (``_int_matrix``),
    which keeps every leading minor's sign: while the steps take the top row, the k-th pivot
    is the k-th leading minor; a step past the top row finds it zero.

    Positive definiteness implies anisotropy, F(v, v) ≠ 0 for v ≠ 0, and
    that is all the orthogonality layer relies on: a subspace meets its
    xi-complement only in zero, so orthogonal subspaces share only the
    zero direction.
    """
    rows = _int_matrix(form)
    if not is_symmetric(rows):
        raise InputError("form must be symmetric")
    steps = _forward_steps(rows)
    return len(steps) == len(rows) and all(i == 0 and pv > 0 for i, pv in steps)


@dataclass(frozen=True)
class QuadraticSpace:
    """Q^n with a symmetric positive-definite bilinear form, held only as
    ``int_form``: the least positive integral multiple of the form, the
    rational form (read by ``diagonal`` or ``from_matrix``) times the lcm of
    its denominators, then divided by the gcd of its entries, as the raw
    constructor's integers are.  No relation changes under a positive
    factor, so spaces compare by their integer forms."""

    dim: int
    int_form: tuple[IntRow, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputError("dimension must be positive")
        form = self.int_form
        if len(form) != self.dim or any(len(r) != self.dim for r in form):
            raise InputError("form must be a dim x dim matrix")
        if any(type(x) is not int for row in form for x in row):
            raise InputError("form entries must be ints; see from_matrix")
        g = math.gcd(*[x for row in form for x in row])
        if g > 1:
            form = tuple(tuple(x // g for x in row) for row in form)
            object.__setattr__(self, "int_form", form)
        if not is_positive_definite(form):
            raise InputError("form must be positive definite")

    @classmethod
    def euclidean(cls, dim: int) -> "QuadraticSpace":
        return cls(dim, full_subspace(dim).int_rows)

    @classmethod
    def diagonal(cls, weights: Iterable[Scalarish]) -> "QuadraticSpace":
        (w,) = _int_matrix([weights])
        form = tuple(
            tuple(x if i == j else 0 for j in range(len(w))) for i, x in enumerate(w)
        )
        return cls(len(w), form)

    @classmethod
    def from_matrix(cls, rows: Iterable[Iterable[Scalarish]]) -> "QuadraticSpace":
        form = tuple(map(tuple, _int_matrix(rows)))
        return cls(len(form), form)

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
        a, _ = mat_inverse(self.int_form)
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

    The form is anisotropic, so D ∩ D^⊥ = 0 and the result is a true
    complement of D inside W: the dimensions add up and the intersection
    is zero.  In the whole space the complement is taken from the smaller
    side of D, from the products kept with D: the kernel of its k
    ``form_rows`` (``_xi_complement_rows``) while k <= n - k, else the row
    space of its n - k ``complement_rows`` E F^-1, as F x vanishes on D
    exactly when it is a combination of D's equations E.  Inside a smaller
    W it is always the former, over W's rows.  Either way the result is
    the canonical subspace.

    W keeps the result in one slot of its instance dict, with the space and
    a weak reference to D, filled only once D ⊆ W has been checked, and
    hands the same object back when that space and that D ask again.  W
    holds no D alive, and the slot stays out of ``==``, ``hash`` and
    ``repr``.  A zero D is answered by W itself and never reaches the slot.
    """
    if d.ambient_dim != space.dim or w.ambient_dim != space.dim:
        raise InputError("ambient dimension mismatch")
    if d.is_zero:
        return w
    slot = w.__dict__.get("_complement")
    if slot is not None and slot[0] is space and slot[1]() is d:
        return slot[2]
    if w.rank == space.dim and 2 * d.rank > space.dim:
        comp = _subspace_from_int_rows(d.complement_rows(space), space.dim)
    elif w.rank < space.dim and not _lies_in(d.int_rows, w):
        raise PreconditionError("D must be a subspace of W")
    else:
        comp = _xi_complement_rows(space, d.form_rows(space), w)
    w.__dict__["_complement"] = (space, weakref.ref(d), comp)
    return comp


def _xi_complement_rows(
    space: QuadraticSpace, fd: Sequence[Sequence[int]], w: LinearSubspace
) -> LinearSubspace:
    """{x in W : xi(x, d) = 0 for every row d}, from fd, rows spanning D
    already times the form (as ``LinearSubspace.form_rows`` are), with no
    condition on how D sits against W: fd over W's rows (the coordinates
    in the whole space), reversed, reduced once."""
    if w.rank < space.dim:
        fd = [[sum(map(mul, row, wi)) for wi in w.int_rows] for row in fd]
    return _kernel_in(*_rref_int([row[::-1] for row in fd]), w)
