"""Rational reference helpers for the tests.

These build, in plain rationals, what the package decides in integers:
the reflection in a flat from the projection formula, composition and
equality of isometries, the intersection of two subspaces, the bilinear
form on two vectors, the base point of a flat and the basis of a
subspace as rationals.  The tests use them as the independent side of
their checks; nothing in the package calls them.
"""

from fractions import Fraction as QQ
from typing import Sequence

from orthokernel.errors import InputError
from orthokernel.flats import AffineSubspace
from orthokernel.linalg import (
    LinearSubspace,
    Matrix,
    QuadraticSpace,
    Vector,
    _int_kernel,
    _subspace_from_int_rows,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_vec,
    vec_sub,
    zero_subspace,
)
from orthokernel.ortho import AffineIsometry


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
    """Exact value of the space's bilinear form on two vectors."""
    if len(u) != space.dim or len(v) != space.dim:
        raise InputError(f"vectors must have length {space.dim}")
    return sum(
        (ui * sum(f * vj for f, vj in zip(row, v)) for ui, row in zip(u, space.form)),
        start=QQ(0),
    )


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
    ker = _int_kernel(sys_rows, ra + rb)
    vecs = []
    for coeffs in ker:
        vecs.append(
            [
                sum(coeffs[i] * a.int_rows[i][coord] for i in range(ra))
                for coord in range(n)
            ]
        )
    return _subspace_from_int_rows(vecs, n)


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
        gram = mat_mul(mat_mul(b, space.form), bt)
        proj = mat_mul(mat_mul(bt, mat_inverse(gram)), mat_mul(b, space.form))
    ident = identity_matrix(n)
    a = tuple(
        tuple(2 * proj[i][j] - ident[i][j] for j in range(n)) for i in range(n)
    )
    q = rational_point(x)
    t = vec_sub(q, mat_vec(a, q))
    return AffineIsometry(space, a, t)


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
