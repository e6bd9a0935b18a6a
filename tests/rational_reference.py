"""Rational reference helpers for the tests.

These build, in plain rationals, what the package decides in integers:
the product and the inverse of matrices, the inverse by plain
Gauss-Jordan over ``Fraction``; affine isometries that check they keep
the form, the reflection in a flat from the projection formula, the
identity isometry, the image of a point, composition and equality of
isometries; the matrix-vector product, the kernel of a matrix and the
intersection of two subspaces, again by plain Gauss-Jordan; the bilinear
form on two vectors, the base point of a flat and the basis of a
subspace as rationals.  The tests use them as the independent side of
their checks; nothing in the package calls them.  One adapter,
``rational_reflection``, is not independent: it reads the package's
integer reflection as a rational isometry, for the tests that compare it
with the projection formula.
"""

import math
from dataclasses import dataclass
from fractions import Fraction as QQ
from typing import Sequence

from orthokernel.errors import InputError, PreconditionError
from orthokernel.flats import AffineSubspace
from orthokernel.linalg import LinearSubspace, QuadraticSpace, zero_subspace
from orthokernel.ortho import reflection

Vector = tuple[QQ, ...]
Matrix = tuple[Vector, ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(QQ(1) if i == j else QQ(0) for j in range(n)) for i in range(n)
    )


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: QQ, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def rational_point(flat: AffineSubspace) -> Vector:
    """The base point of a flat as rationals."""
    nums, den = flat.int_point
    return tuple(QQ(x, den) for x in nums)


def rational_basis(subspace: LinearSubspace) -> Matrix:
    """The canonical echelon rows of a subspace as rationals, each scaled to
    pivot 1."""
    return tuple(
        tuple(QQ(x, row[c]) for x in row)
        for row, c in zip(subspace.int_rows, subspace.pivots)
    )


def bilinear_eval(space: QuadraticSpace, u: Sequence[QQ], v: Sequence[QQ]) -> QQ:
    """Exact value of the space's integer form on two vectors: a positive
    multiple of the rational form's value, as ``int_form`` is."""
    if len(u) != space.dim or len(v) != space.dim:
        raise InputError(f"vectors must have length {space.dim}")
    return sum(
        (ui * sum(f * vj for f, vj in zip(row, v)) for ui, row in zip(u, space.int_form)),
        start=QQ(0),
    )


def rational_rref(rows: Sequence[Sequence[QQ]], ncols: int) -> tuple[list[list[QQ]], list[int]]:
    """Reduced row-echelon form (pivots 1) of rational rows, with its pivot
    columns; zero rows are dropped."""
    work = [[QQ(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pick is None:
            continue
        work[r], work[pick] = work[pick], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y if y else x for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def rational_kernel(rows: Sequence[Sequence[QQ]], ncols: int) -> list[list[QQ]]:
    """A basis of {v : row . v = 0 for every row}, one vector per free column."""
    red, pivots = rational_rref(rows, ncols)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [QQ(0)] * ncols
        v[f] = QQ(1)
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        out.append(v)
    return out


def canonical_subspace(vectors: Sequence[Sequence[QQ]], n: int) -> LinearSubspace:
    """The span of rational vectors in the package's canonical form: the
    reduced echelon rows, each scaled to a primitive integer row."""
    red, pivots = rational_rref(vectors, n)
    int_rows = []
    for row in red:
        den = math.lcm(*[x.denominator for x in row])
        nums = [x.numerator * (den // x.denominator) for x in row]
        g = math.gcd(*nums)
        int_rows.append(tuple(x // g for x in nums))
    return LinearSubspace(n, tuple(int_rows), tuple(pivots))


def subspace_intersect(a: LinearSubspace, b: LinearSubspace) -> LinearSubspace:
    """Intersection of two subspaces via kernel of the stacked coefficient map."""
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimension mismatch")
    if a.is_zero or b.is_zero:
        return zero_subspace(a.ambient_dim)
    # columns: coefficients on a's rows then b's rows; kernel rows give
    # combinations with sum_a c_i a_i = sum_b d_j b_j.
    n = a.ambient_dim
    ra, rb = a.rank, b.rank
    sys_rows = []
    for coord in range(n):
        sys_rows.append(
            [a.int_rows[i][coord] for i in range(ra)]
            + [-b.int_rows[j][coord] for j in range(rb)]
        )
    ker = rational_kernel(sys_rows, ra + rb)
    vecs = []
    for coeffs in ker:
        vecs.append(
            [
                sum(coeffs[i] * a.int_rows[i][coord] for i in range(ra))
                for coord in range(n)
            ]
        )
    return canonical_subspace(vecs, n)


def mat_inverse(m: Sequence[Sequence[QQ]]) -> Matrix:
    """The inverse of a square rational matrix, from the reduced form of
    [m | I]; PreconditionError when m is singular, when a pivot falls in
    the right half."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise InputError("matrix is not square")
    aug = [[*row, *(QQ(int(i == j)) for j in range(n))] for i, row in enumerate(m)]
    red, pivots = rational_rref(aug, 2 * n)
    if pivots != list(range(n)):
        raise PreconditionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)


@dataclass(frozen=True)
class AffineIsometry:
    """Affine map p ↦ A p + t whose linear part preserves the form: A^T F A
    = F, checked on ``int_form``, which a positive factor leaves as it is."""

    space: QuadraticSpace
    matrix: Matrix
    translation: Vector

    def __post_init__(self) -> None:
        n = self.space.dim
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise InputError("matrix shape differs from ambient dimension")
        if len(self.translation) != n:
            raise InputError("translation length differs from ambient dimension")
        at = tuple(zip(*self.matrix))
        form = self.space.int_form
        if mat_mul(mat_mul(at, form), self.matrix) != form:
            raise InputError("linear part does not preserve the form")


def rational_reflection(x: AffineSubspace) -> AffineIsometry:
    """The package's reflection in x, (A, T, d) as integers, read as the
    isometry with matrix A / d and translation T / (d e), e the
    denominator of x's point."""
    a, t, d = reflection(x)
    de = d * x.int_point[1]
    return AffineIsometry(
        x.space,
        tuple(tuple(QQ(v, d) for v in row) for row in a),
        tuple(QQ(v, de) for v in t),
    )


def projection_reflection(x: AffineSubspace) -> AffineIsometry:
    """The reflection in the flat x from the projection formula.

    Linear part 2P - I, where P projects onto x's direction along its
    xi-complement: P = B^T (B F B^T)^{-1} B F for direction basis rows B.
    """
    space = x.space
    n = space.dim
    b = rational_basis(x.direction)
    if not b:
        proj = tuple((QQ(0),) * n for _ in range(n))
    else:
        bt = tuple(zip(*b))
        gram = mat_mul(mat_mul(b, space.int_form), bt)
        proj = mat_mul(mat_mul(bt, mat_inverse(gram)), mat_mul(b, space.int_form))
    ident = identity_matrix(n)
    a = tuple(
        tuple(2 * proj[i][j] - ident[i][j] for j in range(n)) for i in range(n)
    )
    q = rational_point(x)
    t = vec_sub(q, mat_vec(a, q))
    return AffineIsometry(space, a, t)


def identity_isometry(space: QuadraticSpace) -> AffineIsometry:
    return AffineIsometry(space, identity_matrix(space.dim), (QQ(0),) * space.dim)


def apply_isometry(f: AffineIsometry, p: Sequence[QQ]) -> Vector:
    """The image f(p) = A p + t of a rational point."""
    return vec_add(mat_vec(f.matrix, p), f.translation)


def isometry_compose(f: AffineIsometry, g: AffineIsometry) -> AffineIsometry:
    """Apply g first, then f."""
    if f.space != g.space:
        raise InputError("isometries live in different ambient spaces")
    a = mat_mul(f.matrix, g.matrix)
    t = tuple(
        x + y for x, y in zip(mat_vec(f.matrix, g.translation), f.translation)
    )
    return AffineIsometry(f.space, a, t)


def isometry_equal(f: AffineIsometry, g: AffineIsometry) -> bool:
    if f.space != g.space:
        raise InputError("isometries live in different ambient spaces")
    return f.matrix == g.matrix and f.translation == g.translation
