"""Exact linear algebra: canonical bases, solving, forms, complements."""

import random
from dataclasses import fields
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokernel.errors import InputError, PreconditionError
from orthokernel.flats import AffineSubspace
from orthokernel.generators import NAMED_FORMS, resolve_space
from orthokernel.linalg import (
    QuadraticSpace,
    _forward_steps,
    _mat_mul_int,
    _rref_int,
    _subspace_from_int_rows,
    _times_form,
    full_subspace,
    int_vector,
    is_positive_definite,
    is_symmetric,
    mat_inverse,
    rref_basis,
    scalar,
    subspace_sum,
    xi_complement,
    zero_subspace,
)
from orthokernel.ortho import perp_g

from conftest import qv
from rational_reference import (
    bilinear_eval,
    canonical_subspace,
    rational_basis,
    rational_kernel,
    subspace_intersect,
)
from test_flats import _custom_form

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def vec_strategy(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


def vecs_strategy(n, max_count=4):
    return st.lists(vec_strategy(n), min_size=0, max_size=max_count)


# ---------------------------------------------------------------------------
# scalars


def test_scalar_parses_wire_strings():
    assert scalar("-3/7") == QQ(-3, 7)
    assert scalar("4") == QQ(4)
    assert scalar(QQ(1, 2)) == QQ(1, 2)


def test_scalar_rejects_garbage():
    for garbage in ("one half", True, False, None, 1.5, ["1"]):
        with pytest.raises(InputError):
            scalar(garbage)


# ---------------------------------------------------------------------------
# rref_basis


def test_rref_scales_to_pivots():
    sub = rref_basis([qv(2, 0), qv(0, 3)], 2)
    assert rational_basis(sub) == (qv(1, 0), qv(0, 1))


def test_rref_collapses_dependent_rows():
    sub = rref_basis([qv(1, 1), qv(2, 2)], 2)
    assert rational_basis(sub) == (qv(1, 1),)


def test_rref_empty_input_is_zero_space():
    sub = rref_basis([], 3)
    assert sub.rank == 0 and rational_basis(sub) == ()


def test_rref_rejects_length_mismatch():
    with pytest.raises(InputError):
        rref_basis([qv(1, 0, 0)], 2)


def test_a_string_is_not_a_vector():
    # a string was read as its characters: "12" made the point (1, 2)
    with pytest.raises(InputError):
        AffineSubspace.make(QuadraticSpace.euclidean(2), "12", rref_basis([], 2))
    with pytest.raises(InputError):
        rref_basis(["10"], 2)
    with pytest.raises(InputError):
        rref_basis([[1, "x"]], 2)
    with pytest.raises(InputError):
        int_vector(b"12")


def _deficient_int_matrix(rng, nrows, ncols):
    """An integer product of random factors of inner size below both sides,
    with zero rows and a zero column spliced in: elimination meets zero
    rows, an empty column and columns that fall into the span of earlier
    ones, so pivot columns are skipped."""
    inner = rng.randint(0, min(nrows, ncols) - 1)
    big = 10**12 if rng.random() < 0.3 else 1
    left = [[rng.randint(-4, 4) * big + rng.randint(-3, 3) for _ in range(inner)]
            for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(inner)]
    rows = _mat_mul_int(left, right) if inner else [[0] * ncols for _ in range(nrows)]
    zero_col = rng.randrange(ncols + 1)
    rows = [row[:zero_col] + [0] + row[zero_col:] for row in rows]
    rows.insert(rng.randrange(nrows + 1), [0] * (ncols + 1))
    return rows


HANDPICKED_RANK_CASES = [
    [],
    [[0, 0, 0]],
    [[0, 1, 2], [0, 2, 4], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 2]],
    [[1, 2, 3], [2, 4, 7]],  # column 1 is skipped after the first pivot
    # the pivot row of the first column lies below the first row
    [[0, 2, 1], [0, 4, 2], [3, 0, 0]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[2, 4, 1, 0], [1, 2, 0, 1], [3, 6, 1, 1]],
    [[-(10**12), 3], [10**12 + 1, -3], [1, 0]],
]


@pytest.mark.parametrize("rows", HANDPICKED_RANK_CASES)
def test_rank_matches_rref_on_handpicked_cases(rows):
    assert len(_forward_steps(rows)) == len(_rref_int(rows)[0])


def test_rank_matches_rref_on_rank_deficient_matrices():
    rng = random.Random(20261018)
    deficient = 0
    for _ in range(400):
        rows = _deficient_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        before = [list(r) for r in rows]
        rank = len(_forward_steps(rows))
        assert rows == before  # the input is left alone
        assert rank == len(_rref_int(rows)[0])
        deficient += rank < min(len(rows), len(rows[0]))
    assert deficient == 400


@given(vecs_strategy(3))
def test_rref_idempotent(vectors):
    sub = rref_basis(vectors, 3)
    assert rref_basis(rational_basis(sub), 3) == sub


@given(vecs_strategy(3))
def test_rref_preserves_span(vectors):
    sub = rref_basis(vectors, 3)
    assert all(subspace_sum(sub, rref_basis([v], 3)) == sub for v in vectors)
    original = rref_basis(list(vectors) + list(rational_basis(sub)), 3)
    assert original == sub


@given(vecs_strategy(4, 3), vecs_strategy(4, 3))
def test_grassmann_dimension_formula(us, vs):
    a = rref_basis(us, 4)
    b = rref_basis(vs, 4)
    total = subspace_sum(a, b)
    common = subspace_intersect(a, b)
    assert total.rank + common.rank == a.rank + b.rank


# ---------------------------------------------------------------------------
# inverses


def test_inverse_round_trip():
    m = ((2, 1), (1, 2))
    a, d = mat_inverse(m)
    assert d == 3 and a == [[2, -1], [-1, 2]]
    assert _mat_mul_int(m, a) == [[d, 0], [0, d]]


def test_inverse_rejects_singular():
    with pytest.raises(PreconditionError):
        mat_inverse(((1, 2), (2, 4)))
    with pytest.raises(InputError):
        mat_inverse(((1, 2),))


def test_inverse_of_the_empty_matrix_is_empty():
    assert mat_inverse(()) == ([], 1)


# ---------------------------------------------------------------------------
# bilinear forms


def test_bilinear_identity_off_diagonal(q3):
    assert bilinear_eval(q3, qv(1, 0, 0), qv(0, 1, 0)) == 0


def test_bilinear_identity_dot_product(q2):
    assert bilinear_eval(q2, qv(1, 2), qv(3, 4)) == 11


def test_bilinear_weighted_diagonal():
    space = QuadraticSpace.diagonal([QQ(1), QQ(2)])
    assert bilinear_eval(space, qv(0, 1), qv(0, 1)) == 2


@given(vec_strategy(3), vec_strategy(3))
def test_bilinear_symmetric(u, v):
    space = QuadraticSpace(3, ((2, 1, 0), (1, 2, 1), (0, 1, 2)))
    assert bilinear_eval(space, u, v) == bilinear_eval(space, v, u)


def test_bilinear_rejects_length_mismatch(q3):
    with pytest.raises(InputError):
        bilinear_eval(q3, qv(1, 0), qv(0, 1, 0))


# ---------------------------------------------------------------------------
# positive definiteness and space construction


def test_identity_is_positive_definite():
    assert is_positive_definite(tuple(tuple(QQ(int(i == j)) for j in range(3)) for i in range(3)))


def test_indefinite_diagonal_rejected():
    assert not is_positive_definite(((QQ(1), QQ(0)), (QQ(0), QQ(-1))))


def test_sylvester_minors_example():
    assert is_positive_definite(((QQ(2), QQ(1)), (QQ(1), QQ(2))))


@pytest.mark.parametrize(
    "rows",
    [
        # the leading entry is zero: the pass takes the second row first
        [[0, 1], [1, 0]],
        # semidefinite: the second leading minor is zero
        [[1, 1], [1, 1]],
        # negative definite: the first pivot is negative
        [[-1, 0], [0, -1]],
        # a zero row and column
        [[2, 0, 1], [0, 0, 0], [1, 0, 2]],
        [[0, 0], [0, 1]],
        # definite leading block, then a negative minor
        [[2, 1, 0], [1, 2, 3], [0, 3, 1]],
    ],
)
def test_forms_that_are_not_positive_definite(rows):
    assert not is_positive_definite([[QQ(x) for x in row] for row in rows])


def _symmetric_rational_matrix(rng, n):
    """Sparse-ish symmetric rationals, with a diagonal shift toward
    definiteness on some draws so that both verdicts occur."""
    rows = [[QQ(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.6:
                rows[i][j] = rows[j][i] = QQ(rng.randint(-5, 5), rng.randint(1, 4))
    shift = rng.choice((0, 0, n, 3 * n))
    for i in range(n):
        rows[i][i] += shift
    return rows


def _cofactor_det(m):
    n = len(m)
    if n == 0:
        return QQ(1)
    if n == 1:
        return m[0][0]
    total = QQ(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_is_positive_definite_is_every_leading_minor_positive():
    # Sylvester's criterion spelled out with one cofactor expansion per minor
    rng = random.Random(20261019)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = _symmetric_rational_matrix(rng, n)
        want = all(
            _cofactor_det([row[:k] for row in rows[:k]]) > 0 for k in range(1, n + 1)
        )
        assert is_positive_definite(rows) is want
        seen.add(want)
    assert seen == {False, True}


def test_is_positive_definite_rejects_asymmetric():
    with pytest.raises(InputError):
        is_positive_definite(((QQ(1), QQ(2)), (QQ(0), QQ(1))))


def test_space_rejects_indefinite_form():
    with pytest.raises(InputError):
        QuadraticSpace(2, ((1, 0), (0, -1)))


def test_space_rejects_asymmetric_form():
    with pytest.raises(InputError):
        QuadraticSpace(2, ((1, 2), (0, 1)))


def test_space_holds_only_its_integer_form():
    with pytest.raises(InputError):
        QuadraticSpace(2, ((QQ(1), 0), (0, 1)))
    with pytest.raises(InputError):
        QuadraticSpace(2, ((True, 0), (0, 1)))
    want = ((1, 0), (0, 2))
    assert QuadraticSpace.from_matrix([["1/2", "0"], ["0", "1"]]).int_form == want
    assert QuadraticSpace.from_matrix([["2/4", 0], [0, QQ(1)]]).int_form == want
    assert QuadraticSpace.diagonal(["1/2", 1]).int_form == want
    assert [f.name for f in fields(QuadraticSpace)] == ["dim", "int_form"]


def test_spaces_compare_by_their_integer_form():
    half = QuadraticSpace.from_matrix([["1/2", "0"], ["0", "1/2"]])
    assert half == QuadraticSpace.euclidean(2)
    assert half != QuadraticSpace.diagonal([1, 2])
    # the form is divided by the gcd of its entries on every route
    assert QuadraticSpace.diagonal([3, 3]) == QuadraticSpace.euclidean(2)


def test_every_route_holds_the_least_integral_form():
    want = ((2, 1), (1, 3))
    for space in (
        QuadraticSpace(2, ((6, 3), (3, 9))),
        QuadraticSpace.from_matrix([["2/3", "1/3"], ["1/3", "1"]]),
        QuadraticSpace.from_matrix([[4, 2], [2, 6]]),
    ):
        assert space.int_form == want
    assert QuadraticSpace.diagonal(["3/2", 3, 6]).int_form == (
        (1, 0, 0), (0, 2, 0), (0, 0, 4)
    )
    # flats of spaces whose forms differ by a positive factor are related
    three = QuadraticSpace.diagonal([3, 3])
    a = AffineSubspace.make(three, qv(0, 0), rref_basis([qv(1, 1)], 2))
    b = AffineSubspace.make(
        QuadraticSpace.euclidean(2), qv(1, 1), rref_basis([qv(1, -1)], 2)
    )
    assert perp_g(a, b) and perp_g(b, a)
    assert not perp_g(a, AffineSubspace.make(three, qv(0, 0), rref_basis([qv(1, 0)], 2)))


@pytest.mark.parametrize(
    "rows",
    [
        [["1", "0"], ["0"]],
        [["1", "0", "0"], ["0", "1", "0"]],
        [["1", "0"], ["0", "1"], ["0", "0"]],
        [],
        "12",
    ],
)
def test_form_parsers_refuse_ragged_and_non_square_rows(rows):
    with pytest.raises(InputError):
        QuadraticSpace.from_matrix(rows)


def test_raw_space_refuses_ragged_and_non_square_rows():
    for dim, form in ((2, ((1, 0), (0,))), (2, ((1, 0, 0), (0, 1, 0))), (1, ((1, 0),))):
        with pytest.raises(InputError):
            QuadraticSpace(dim, form)
    with pytest.raises(InputError):
        QuadraticSpace.diagonal([])


def test_is_symmetric_detects_ragged():
    assert not is_symmetric(((QQ(1), QQ(0)),))


# ---------------------------------------------------------------------------
# xi_complement


def test_complement_of_axis_in_full_space(q3):
    d = rref_basis([qv(1, 0, 0)], 3)
    comp = xi_complement(q3, d, full_subspace(3))
    assert rational_basis(comp) == (qv(0, 1, 0), qv(0, 0, 1))


def test_complement_of_whole_space_is_zero(q3):
    w = rref_basis([qv(1, 1, 0), qv(0, 0, 1)], 3)
    assert xi_complement(q3, w, w).rank == 0


def test_complement_of_zero_is_everything(q3):
    w = rref_basis([qv(1, 1, 0), qv(0, 0, 1)], 3)
    assert xi_complement(q3, zero_subspace(3), w) == w


def test_complement_requires_containment(q3):
    d = rref_basis([qv(1, 0, 0)], 3)
    w = rref_basis([qv(0, 1, 0)], 3)
    with pytest.raises(PreconditionError):
        xi_complement(q3, d, w)


@settings(max_examples=60)
@given(vecs_strategy(4, 3), vecs_strategy(4, 2))
def test_complement_dimension_and_involution(ws, extra):
    space = QuadraticSpace(4, tuple(
        tuple(2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(4))
        for i in range(4)
    ))
    w = rref_basis(ws, 4)
    d = rref_basis(list(extra) + list(rational_basis(w)[: max(0, w.rank - 1)]), 4)
    d = subspace_intersect(d, w)
    comp = xi_complement(space, d, w)
    assert comp.rank + d.rank == w.rank
    assert subspace_intersect(comp, d).rank == 0
    assert xi_complement(space, comp, w) == d


@pytest.mark.parametrize("n", range(1, 9))
def test_complement_in_full_space_is_the_reduced_kernel(n):
    # one elimination with reversed columns against the rational reference
    rng = random.Random(f"full-complement:{n}")
    full = full_subspace(n)
    for i in range(40):
        space = resolve_space(n, NAMED_FORMS[i % 3])
        bound = 10**9 if i % 4 == 3 else 4
        rows = [
            [rng.randint(-bound, bound) if rng.random() < 0.6 else 0 for _ in range(n)]
            for _ in range(rng.randint(1, n + 1))
        ]
        if i % 5 == 0:
            rows.append([a + b for a, b in zip(rows[0], rows[-1])])
        d = _subspace_from_int_rows(rows, n)
        want = canonical_subspace(
            rational_kernel(_mat_mul_int(d.int_rows, space.int_form), n), n
        )
        assert xi_complement(space, d, full) == want


# ---------------------------------------------------------------------------
# products with the form


def _scattered_form(n):
    """A form with zeros scattered off its diagonal, positive definite by
    diagonal dominance."""
    return QuadraticSpace.from_matrix(
        [
            [
                QQ(n + 1) if i == j
                else QQ(-1, 1 + i + j) if (i * j + i + j) % 3 == 0
                else QQ(0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def _form_spaces():
    for n in range(1, 9):
        for form in NAMED_FORMS:
            yield f"{form}-{n}", resolve_space(n, form)
        yield f"custom-{n}", _custom_form(n)
        yield f"scattered-{n}", _scattered_form(n)


FORM_SPACES = dict(_form_spaces())


@pytest.mark.parametrize("label", FORM_SPACES)
def test_times_form_equals_the_dense_product(label):
    space = FORM_SPACES[label]
    n = space.dim
    rng = random.Random(f"times-form:{label}")
    cases = [[], [[0] * n], [[0] * n, [0] * n]]
    for _ in range(6):
        big = 10**12 if rng.random() < 0.5 else 1
        rows = [
            [
                (rng.randint(-9, 9) * big + rng.randint(-3, 3)) if rng.random() < 0.7 else 0
                for _ in range(n)
            ]
            for _ in range(rng.randint(1, n + 1))
        ]
        rows.insert(rng.randrange(len(rows) + 1), [0] * n)
        cases.append(rows)
        cases.append(list(_subspace_from_int_rows(rows, n).int_rows))
    cases.append(list(full_subspace(n).int_rows))
    if n > 1:
        # entries near 10^12 at both ends, where the mixed terms meet them
        cases.append([[10**12 - 1] + [0] * (n - 2) + [-(10**12)]])
    for rows in cases:
        assert _times_form(rows, space) == _mat_mul_int(rows, space.int_form), rows
