"""The exact linear algebra checked against sympy as an independent oracle.

Seeded rational matrices up to 8 x 8, dense and sparse, full rank and
rank-deficient, some with entries near 10^12: rank (by RREF and by forward
elimination alone), RREF, kernel span, determinant, inverse, the product
of rows with a form and the complement in the whole space must agree with
sympy exactly.  Seeded symmetric matrices up to 8 x 8 (definite,
semidefinite, indefinite, and sparse with zero leading entries) check
positive definiteness and the determinant.
"""

import random
from fractions import Fraction

import pytest

from orthokernel.errors import PreconditionError
from orthokernel.linalg import (
    QuadraticSpace,
    _forward_steps,
    _int_kernel,
    _int_row,
    _times_form,
    determinant,
    full_subspace,
    is_positive_definite,
    mat_inverse,
    rref_basis,
    xi_complement,
)

from rational_reference import rational_basis

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
    assert len(_forward_steps([_int_row(row) for row in rows])) == ours.rank

    kernel = _int_kernel([_int_row(row) for row in rows], cols)
    ref_kernel = ref.nullspace()
    assert len(kernel) == len(ref_kernel) == cols - ours.rank
    if kernel:
        ours_k = sympy.Matrix(kernel)
        assert (ref * ours_k.T).is_zero_matrix
        # same span: stacking both bases adds no rank
        stacked = sympy.Matrix.vstack(ours_k, *[v.T for v in ref_kernel])
        assert stacked.rank() == ours_k.rank() == len(kernel)


@pytest.mark.parametrize("index", [i for i, c in enumerate(CASES) if len(c) == len(c[0])])
def test_determinant_and_inverse_match_sympy(index):
    rows = CASES[index]
    ref = _to_sympy(rows)
    ref_det = ref.det()
    assert determinant(rows) == Fraction(int(ref_det.p), int(ref_det.q))
    if ref_det == 0:
        with pytest.raises(PreconditionError):
            mat_inverse(tuple(tuple(r) for r in rows))
    else:
        assert list(mat_inverse(tuple(tuple(r) for r in rows))) == _from_sympy(ref.inv())


def _dense_form(n):
    """A dense rational form, diagonally dominant hence positive definite."""
    return [
        [Fraction(n + 1) if i == j else Fraction(1, 1 + i + j) for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_complement_in_full_space_matches_sympy(index):
    # the kernel of d F, read off one reversed-column elimination
    rows = CASES[index]
    cols = len(rows[0])
    form = _dense_form(cols)
    space = QuadraticSpace.from_matrix(form)
    d = rref_basis(rows, cols)
    int_rows = [_int_row(row) for row in rows]
    for product_rows in (int_rows, d.int_rows):
        ours = _times_form(product_rows, space)
        ref_product = _int_matrix(product_rows, cols) * sympy.Matrix(space.int_form)
        assert _int_matrix(ours, cols) == ref_product
    ref = (_to_sympy(rows) * _to_sympy(form)).nullspace()
    want = rref_basis([_from_sympy(v.T)[0] for v in ref], cols)
    assert xi_complement(space, d, full_subspace(cols)) == want


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


@pytest.mark.parametrize("index", range(len(SYMMETRIC_CASES)))
def test_positive_definiteness_and_determinant_match_sympy(index):
    definite, rows = SYMMETRIC_CASES[index]
    ref = _to_sympy(rows)
    assert ref.is_symmetric()
    assert bool(ref.is_positive_definite) is definite
    assert is_positive_definite(rows) is definite
    ref_det = ref.det()
    assert determinant(rows) == Fraction(int(ref_det.p), int(ref_det.q))
