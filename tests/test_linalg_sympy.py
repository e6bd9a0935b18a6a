"""The exact linear algebra checked against sympy as an independent oracle.

Seeded rational matrices up to 8 x 8, dense and sparse, full rank and
rank-deficient, some with entries near 10^12: rank (by RREF and by forward
elimination alone), RREF, the canonical kernel (rows and pivots against
sympy's nullspace in RREF), inverse (singular exactly when sympy's
determinant is zero), the product of rows with a form, the complement in
the whole space, for a subspace of every
dimension grown from each matrix's rows (so from either side of it), the
complement inside a smaller subspace, and the direction of a meet must
agree with sympy exactly.  Seeded symmetric matrices up to
8 x 8 (definite, semidefinite, indefinite, and sparse with zero leading
entries) check positive definiteness, and the definite ones the scaled
inverse form.
"""

import random
from fractions import Fraction

import pytest

from orthokernel.errors import PreconditionError
from orthokernel.flats import AffineSubspace, meet
from orthokernel.linalg import (
    QuadraticSpace,
    _forward_steps,
    _kernel_in,
    _rref_int,
    _times_form,
    _xi_complement_rows,
    full_subspace,
    int_vector,
    is_positive_definite,
    mat_inverse,
    rref_basis,
    xi_complement,
)

from rational_reference import canonical_subspace, rational_basis

sympy = pytest.importorskip("sympy")


def _entry(rng: random.Random, big: bool) -> Fraction:
    num = rng.randint(-9, 9)
    if big:
        num += rng.choice((-1, 1)) * 10**12
    return Fraction(num, rng.randint(1, 7))


def _matrix(rng: random.Random, rows: int, cols: int, rank: int, big: bool):
    """rows x cols of rank at most `rank`: a product of random factors."""
    left = [[_entry(rng, big) for _ in range(rank)] for _ in range(rows)]
    right = [[_entry(rng, False) for _ in range(cols)] for _ in range(rank)]
    return [
        [sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
         for j in range(cols)]
        for i in range(rows)
    ]


def _sparse(rng: random.Random, n: int, big: bool):
    """Mostly zeros, so elimination has to look past zero pivots."""
    return [
        [_entry(rng, big) if rng.random() < 0.35 else Fraction(0) for _ in range(n)]
        for _ in range(n)
    ]


def _cases():
    rng = random.Random(20260815)
    for n in range(1, 9):
        for big in (False, True):
            yield _matrix(rng, n, n, n, big)
            yield _matrix(rng, n, n, rng.randint(0, n - 1), big)
            cols = rng.randint(1, 8)
            yield _matrix(rng, n, cols, rng.randint(0, min(n, cols)), big)
            yield _sparse(rng, n, big)
            yield _sparse(rng, n, big)


CASES = list(_cases())


def _to_sympy(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def _int_matrix(rows, cols):
    """Integer rows as a sympy matrix, keeping the shape when there are none."""
    return sympy.Matrix(len(rows), cols, [x for row in rows for x in row])


def _from_sympy(m):
    return [
        tuple(Fraction(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols))
        for i in range(m.rows)
    ]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_rank_rref_and_kernel_match_sympy(index):
    rows = CASES[index]
    cols = len(rows[0])
    ref = _to_sympy(rows)
    ref_rref, ref_pivots = ref.rref()
    ours = rref_basis(rows, cols)
    assert ours.rank == ref.rank() == len(ref_pivots)
    assert ours.pivots == tuple(ref_pivots)
    assert list(rational_basis(ours)) == _from_sympy(ref_rref[: len(ref_pivots), :])
    assert len(_forward_steps([int_vector(row)[0] for row in rows])) == ours.rank

    # the rows reduced with their columns reversed, read through the helper
    reversed_rows = [int_vector(row)[0][::-1] for row in rows]
    kernel = _kernel_in(*_rref_int(reversed_rows), full_subspace(cols))
    assert kernel == _sympy_span(ref.nullspace(), cols)


def _sympy_span(vectors, cols):
    """The span of sympy column vectors as a canonical subspace: the rows of
    sympy's RREF, each scaled to a primitive integer row."""
    if not vectors:
        return canonical_subspace([], cols)
    red, pivots = sympy.Matrix.hstack(*vectors).T.rref()
    return canonical_subspace(_from_sympy(red[: len(pivots), :]), cols)


@pytest.mark.parametrize("index", [i for i, c in enumerate(CASES) if len(c) == len(c[0])])
def test_determinant_and_inverse_match_sympy(index):
    rows = CASES[index]
    ref = _to_sympy(rows)
    # row i is N_i / c_i, so N = C M and N A = d I give M^-1 = A C / d
    scaled = [int_vector(row) for row in rows]
    if ref.det() == 0:
        with pytest.raises(PreconditionError):
            mat_inverse([n for n, _ in scaled])
    else:
        a, d = mat_inverse([n for n, _ in scaled])
        assert d > 0
        inv = [tuple(Fraction(v * c, d) for v, (_, c) in zip(row, scaled)) for row in a]
        assert inv == _from_sympy(ref.inv())


def _dense_form(n):
    """A dense rational form, diagonally dominant hence positive definite."""
    return [
        [Fraction(n + 1) if i == j else Fraction(1, 1 + i + j) for j in range(n)]
        for i in range(n)
    ]


def _every_rank(rows, extra, cols):
    """For k = 0..rank, a k-dimensional subspace: the span of the first of
    ``rows`` then ``extra`` that raise the rank."""
    taken, out = [], [rref_basis([], cols)]
    for row in [*rows, *extra]:
        cand = rref_basis([*taken, row], cols)
        if cand.rank > len(taken):
            taken.append(row)
            out.append(cand)
    return out


@pytest.mark.parametrize("index", range(len(CASES)))
def test_complement_in_full_space_matches_sympy(index):
    # the kernel of d F for k <= n - k, the row space of e F^-1 past that:
    # every dimension, starting from the case's own rows, reaches both
    rows = CASES[index]
    cols = len(rows[0])
    form = _dense_form(cols)
    space = QuadraticSpace.from_matrix(form)
    int_rows = [int_vector(row)[0] for row in rows]
    for product_rows in (int_rows, rref_basis(rows, cols).int_rows):
        ours = _times_form(product_rows, space)
        ref_product = _int_matrix(product_rows, cols) * sympy.Matrix(space.int_form)
        assert _int_matrix(ours, cols) == ref_product
    full = full_subspace(cols)
    subspaces = _every_rank(rows, form, cols)
    assert [d.rank for d in subspaces] == list(range(cols + 1))
    for d in subspaces:
        ref = (_int_matrix(d.int_rows, cols) * _to_sympy(form)).nullspace()
        want = rref_basis([_from_sympy(v.T)[0] for v in ref], cols)
        assert xi_complement(space, d, full) == want


def _sympy_complement_in(space, d_rows, w, cols):
    """sympy's {x in W : d F x = 0 for every row d}: the combinations c of
    W's rows B with d F B^T c = 0."""
    b = _int_matrix(w.int_rows, cols)
    system = _int_matrix(d_rows, cols) * sympy.Matrix(space.int_form) * b.T
    return _sympy_span([b.T * c for c in system.nullspace()], cols)


@pytest.mark.parametrize("index", [i for i, c in enumerate(CASES) if len(c[0]) > 1])
def test_complement_inside_a_smaller_subspace_matches_sympy(index):
    # for each W smaller than the space, D inside W and D from the form's
    # rows, which mostly lies outside it, each of half W's dimension
    rows = CASES[index]
    cols = len(rows[0])
    form = _dense_form(cols)
    space = QuadraticSpace.from_matrix(form)
    inner = _every_rank(rows, form, cols)
    outer = _every_rank(form, rows, cols)
    for w in inner[1:-1]:
        for d in (inner[w.rank // 2], outer[(w.rank + 1) // 2]):
            ours = _xi_complement_rows(space, d.int_rows, w)
            assert ours == _sympy_complement_in(space, d.int_rows, w, cols)


@pytest.mark.parametrize("index", [i for i, c in enumerate(CASES) if len(c[0]) > 1])
def test_meet_direction_matches_sympy(index):
    # two flats through a common point, their directions drawn from the
    # chains of the case's rows and of the form's rows, with meets of
    # dimension 0, 1, 2 and k1: D1 ∩ D2 is the span of D1^T c over the
    # solutions of D1^T c = D2^T c'
    rows = CASES[index]
    cols = len(rows[0])
    form = _dense_form(cols)
    space = QuadraticSpace.from_matrix(form)
    inner = _every_rank(rows, form, cols)
    outer = _every_rank(form, rows, cols)
    point = rows[0]
    for k1 in range(1, cols + 1):
        x1 = AffineSubspace.make(space, point, inner[k1])
        b1 = _int_matrix(inner[k1].int_rows, cols)
        for k2 in sorted({max(1, cols - k1), cols + 1 - k1, min(cols, cols + 2 - k1), cols}):
            d2 = outer[k2]
            shift = [p + x for p, x in zip(point, rational_basis(d2)[0])]
            x2 = AffineSubspace.make(space, shift, d2)
            b2 = _int_matrix(d2.int_rows, cols)
            system = sympy.Matrix.hstack(b1.T, -b2.T)
            ref = _sympy_span([b1.T * c[:k1, :] for c in system.nullspace()], cols)
            assert meet(x1, x2).direction == ref


def _gram_of(left, signs, n):
    """left^T diag(signs) left, n x n: with ``left`` square and invertible
    it is definite for positive signs and indefinite for mixed ones; with
    fewer rows than n it is at best semidefinite."""
    return [
        [sum((s * row[i] * row[j] for s, row in zip(signs, left)), Fraction(0))
         for j in range(n)]
        for i in range(n)
    ]


def _symmetric_sparse(rng: random.Random, n: int):
    """Mostly zeros, symmetric, with a zero leading entry."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i, j) != (0, 0) and rng.random() < 0.35:
                rows[i][j] = rows[j][i] = _entry(rng, False)
    return rows


def _symmetric_cases():
    """(whether the matrix is positive definite, the matrix)."""
    rng = random.Random(20261019)
    for n in range(1, 9):
        for big in (False, True):
            full = [[_entry(rng, big) for _ in range(n)] for _ in range(n)]
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            yield True, _gram_of(full, weights, n)
            low = full[: rng.randint(0, n - 1)]
            yield False, _gram_of(low, weights, n)
            if n > 1:
                yield False, _gram_of(full, [-1] + weights[1:], n)
            yield False, _symmetric_sparse(rng, n)


SYMMETRIC_CASES = list(_symmetric_cases())


def _inverse_cases():
    """Every positive-definite matrix of the symmetric cases, and the dense
    rational forms."""
    yield from (rows for definite, rows in SYMMETRIC_CASES if definite)
    yield from (_dense_form(n) for n in range(1, 9))


INVERSE_CASES = list(_inverse_cases())


@pytest.mark.parametrize("index", range(len(SYMMETRIC_CASES)))
def test_positive_definiteness_and_determinant_match_sympy(index):
    definite, rows = SYMMETRIC_CASES[index]
    ref = _to_sympy(rows)
    assert ref.is_symmetric()
    assert bool(ref.is_positive_definite) is definite
    assert is_positive_definite(rows) is definite


@pytest.mark.parametrize("index", range(len(INVERSE_CASES)))
def test_int_form_inverse_matches_sympy(index):
    rows = INVERSE_CASES[index]
    space = QuadraticSpace.from_matrix(rows)
    inv = sympy.Matrix(space.int_form_inverse)
    product = sympy.Matrix(space.int_form) * inv
    d = product[0, 0]
    assert d > 0
    assert product == d * sympy.eye(space.dim)
    assert inv == d * sympy.Matrix(space.int_form).inv()
