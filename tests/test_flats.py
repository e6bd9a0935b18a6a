"""Affine flats: canonical form, membership, the meet/join lattice and the
wire format."""

import gc
import json
import math
import random
import sys
import weakref
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthokernel.flats as flats_module
import orthokernel.linalg as linalg_module
from orthokernel.errors import InputError
from orthokernel.flats import (
    AffineSubspace,
    int_vector_to_wire,
    is_subflat,
    join,
    meet,
    parallel,
    translate_through,
)
from orthokernel.generators import (
    NAMED_FORMS,
    GenConfig,
    gen_line_pair,
    gen_pair_with_meet_dim,
    gen_point,
    gen_subspace,
    rand_params,
    random_point_of,
    resolve_space,
    space_of,
    sub_flat,
)
from orthokernel.linalg import (
    QuadraticSpace,
    _subspace_from_int_rows,
    _times_form,
    _times_inverse,
    full_subspace,
    int_vector,
    rref_basis,
    scalar,
    xi_complement,
)
from orthokernel.ortho import (
    TypedPerpParams,
    make_perp_pair,
    perp_g,
    perp_go,
    perp_m,
    perp_subspaces,
    perp_x,
)

from conftest import qv
from rational_reference import (
    rational_basis,
    rational_point,
    subspace_intersect,
    vec_add,
    vec_scale,
    vec_sub,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def flat_strategy(space):
    n = space.dim

    def build(draw):
        point = tuple(draw(st.tuples(*[rationals] * n)))
        count = draw(st.integers(min_value=0, max_value=n))
        rows = [draw(st.tuples(*[rationals] * n)) for _ in range(count)]
        return AffineSubspace.make(space, point, rref_basis(rows, n))

    return st.composite(lambda draw: build(draw))()


SPACE3 = QuadraticSpace.euclidean(3)


def line(space, point, direction):
    return AffineSubspace.make(space, qv(*point), rref_basis([qv(*direction)], space.dim))


def plane(space, point, d1, d2):
    return AffineSubspace.make(
        space, qv(*point), rref_basis([qv(*d1), qv(*d2)], space.dim)
    )


# ---------------------------------------------------------------------------
# canonical form and membership


def test_same_flat_from_different_presentations(q3):
    a = line(q3, (1, 2, 0), (2, 0, 0))
    b = line(q3, (5, 2, 0), (-1, 0, 0))
    assert a == b


def test_contains_on_axis(q2):
    x_axis = line(q2, (0, 0), (1, 0))
    assert is_subflat(AffineSubspace.from_point(q2, qv(5, 0)), x_axis)
    assert not is_subflat(AffineSubspace.from_point(q2, qv(0, 1)), x_axis)


def test_point_flat_contains_itself(q2):
    p = AffineSubspace.from_point(q2, qv("1/2", -3))
    assert is_subflat(AffineSubspace.from_point(q2, qv("1/2", -3)), p)
    assert p.is_point and p.dim == 0


def test_affine_hull_of_points(q3):
    hull = AffineSubspace.from_points(q3, [qv(0, 0, 1), qv(1, 0, 1), qv(0, 1, 1)])
    assert hull.dim == 2
    assert is_subflat(AffineSubspace.from_point(q3, qv(7, -2, 1)), hull)
    assert not is_subflat(AffineSubspace.from_point(q3, qv(0, 0, 0)), hull)


@st.composite
def point_sets(draw):
    """A dimension and a nonempty list of rational points, some repeated."""
    n = draw(st.integers(min_value=1, max_value=4))
    points = draw(st.lists(st.tuples(*[rationals] * n), min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(points), max_size=2))
    order = draw(st.permutations(points + repeats))
    return n, order


@settings(max_examples=80)
@given(point_sets())
def test_affine_hull_is_make_of_the_rational_differences(case):
    n, points = case
    space = QuadraticSpace.euclidean(n)
    diffs = [vec_sub(p, points[0]) for p in points[1:]]
    want = AffineSubspace.make(space, points[0], rref_basis(diffs, n))
    assert AffineSubspace.from_points(space, points) == want


def test_affine_hull_rejects_wrong_point_length(q3):
    for points in (
        [qv(0, 0, 0), qv(1, 0)],
        [qv(1, 0), qv(0, 0, 0)],
        [qv(0, 0, 0), qv(1, 0, 0, 0)],
    ):
        with pytest.raises(InputError):
            AffineSubspace.from_points(q3, points)
    with pytest.raises(InputError):
        AffineSubspace.from_points(q3, [])


def test_make_rejects_wrong_point_length(q3):
    with pytest.raises(InputError):
        AffineSubspace.make(q3, qv(0, 0), rref_basis([], 3))


def test_wire_round_trip(q3):
    flat = plane(SPACE3, ("1/2", 0, -1), (1, 2, 0), (0, 0, 3))
    assert AffineSubspace.from_wire(SPACE3, flat.to_wire()) == flat


def test_wire_rejects_malformed(q2, q3):
    with pytest.raises(InputError):
        AffineSubspace.from_wire(q3, {"point": ["0", "0", "0"]})
    with pytest.raises(InputError):
        AffineSubspace.from_wire(q3, {"point": ["0", "0"], "basis": []})
    for data in (
        # strings would be read character by character
        {"point": "12", "basis": ["10"]},
        {"point": ["1", "2"], "basis": ["10"]},
        {"point": ["1", "2"], "basis": "10"},
        {"point": ("1", "2"), "basis": []},
        # a bool is not a rational
        {"point": [True, "1"], "basis": []},
        {"point": ["1", "1"], "basis": [["1", False]]},
        [["1", "2"], []],
        None,
    ):
        with pytest.raises(InputError):
            AffineSubspace.from_wire(q2, data)


def _read(entries):
    """The values ``int_vector`` reads from the entries."""
    nums, den = int_vector(entries)
    return tuple(QQ(x, den) for x in nums)


def test_vector_wire_round_trip():
    v = qv("1/2", -3, 0, "8/2")
    assert int_vector_to_wire([1, -6, 0, 8], 2) == ["1/2", "-3", "0", "4"]
    assert _read(int_vector_to_wire([1, -6, 0, 8], 2)) == v
    assert int_vector_to_wire([-3, 14], 7) == ["-3/7", "2"]
    assert _read(["-3/7", "2"]) == qv("-3/7", 2)


def test_zero_wire_entries_keep_their_strings_and_values():
    # zeros, negatives and a denominator shared by several entries
    nums = [0, -3, 6, 0, 4, -12]
    assert int_vector_to_wire(nums, 6) == ["0", "-1/2", "1", "0", "2/3", "-2"]
    assert int_vector_to_wire([0, 0], 5) == ["0", "0"]
    assert int_vector_to_wire([0, -7, 0], 1) == ["0", "-7", "0"]
    # every spelling of zero reads as 0; "0/5" keeps its denominator
    entries = ["0", "-0", "00", "0/5", "3"]
    ints, den = int_vector(entries)
    assert [QQ(x, den) for x in ints] == [0, 0, 0, 0, 3]
    assert (ints, den) == ([0, 0, 0, 0, 15], 5)
    assert int_vector(["0", "2", "-3", "0"]) == ([0, 2, -3, 0], 1)
    assert int_vector(["0", "1/2", "-3/4"]) == ([0, 2, -3], 4)
    space = QuadraticSpace.euclidean(len(entries))
    flat = AffineSubspace.from_wire(space, {"point": entries, "basis": []})
    assert rational_point(flat) == (0, 0, 0, 0, 3)
    for bad in (["0/0"], ["0", "0/0"], ["0/0", "0"]):
        with pytest.raises(InputError):
            int_vector(bad)
        with pytest.raises(InputError):
            AffineSubspace.from_wire(
                QuadraticSpace.euclidean(len(bad)), {"point": bad, "basis": []}
            )


# one of each kind of entry the reader takes: ints, Fractions, canonical
# strings, strings only scalar reads, and a JSON number
READER_ENTRIES = (
    0, 7, -12, 10**40, QQ(-3, 7), QQ(5), "4", "-3/7", "0",
    "2/4", " 1/2 ", "1.5", "+3", "-0", json.loads("-17"),
)


@pytest.mark.parametrize("entry", READER_ENTRIES, ids=repr)
def test_every_entry_reads_to_the_value_scalar_gives(entry):
    assert _read([entry]) == (scalar(entry),)
    assert _read(["1/3", entry, 2]) == (QQ(1, 3), scalar(entry), 2)


def test_one_vector_of_every_kind_reads_over_one_denominator():
    nums, den = int_vector(READER_ENTRIES)
    assert den == 28 and _read(READER_ENTRIES) == tuple(map(scalar, READER_ENTRIES))


@pytest.mark.parametrize(
    "entry", [True, False, 1.5, "1/0", "1" * (sys.get_int_max_str_digits() + 1), None, b"1"],
    ids=lambda x: repr(x)[:12],
)
def test_the_reader_refuses_what_scalar_refuses(entry):
    with pytest.raises(InputError):
        scalar(entry)
    with pytest.raises(InputError):
        int_vector([1, entry])


@pytest.mark.parametrize("whole", ["12", "", b"12"])
def test_the_reader_refuses_a_string_as_the_whole_vector(whole):
    with pytest.raises(InputError, match="not a vector"):
        int_vector(whole)


def test_ints_and_canonical_strings_build_no_fraction(monkeypatch):
    original = vars(QQ)["__new__"]
    built = []

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    monkeypatch.setattr(QQ, "__new__", counting_new)
    read = int_vector([0, 5, -3, 10**40, "0", "-0", "7", "-2/3", "10/4", "0/5"])
    space = QuadraticSpace.from_matrix([["1/2", 0], [0, "3"]])
    hull = AffineSubspace.from_points(space, [["1/2", 0], [3, "-2/3"], ["1/2", 0]])
    monkeypatch.undo()
    assert built == []
    assert read == ([0, 300, -180, 60 * 10**40, 0, 0, 420, -40, 150, 0], 60)
    assert space.int_form == ((1, 0), (0, 6))
    assert hull == AffineSubspace.make(
        space, qv("1/2", 0), rref_basis([qv("5/2", "-2/3")], 2)
    )


def _custom_form(n):
    """A dense rational form, positive definite by diagonal dominance."""
    return QuadraticSpace.from_matrix(
        [
            [QQ(n + 1, 2) if i == j else QQ((-1) ** (i + j), 3) for j in range(n)]
            for i in range(n)
        ]
    )


def _wire_spaces():
    for n in range(1, 9):
        for form in NAMED_FORMS:
            yield n, resolve_space(n, form)
        yield n, _custom_form(n)


def _wire_coordinate(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return QQ(0)
    if kind == 1:
        return QQ(rng.randint(-(10**30), 10**30), rng.randint(1, 10**12))
    if kind == 2:
        return QQ(-rng.randint(1, 50), rng.randint(1, 7))
    return QQ(rng.randint(-9, 9))


def test_wire_strings_are_those_of_fraction():
    rng = random.Random(7)
    for n, space in _wire_spaces():
        for _ in range(12):
            point = [_wire_coordinate(rng) for _ in range(n)]
            rows = [
                [_wire_coordinate(rng) for _ in range(n)]
                for _ in range(rng.randint(0, n))
            ]
            flat = AffineSubspace.make(space, point, rref_basis(rows, n))
            want = {
                "point": [str(x) for x in rational_point(flat)],
                "basis": [
                    [str(x) for x in row] for row in rational_basis(flat.direction)
                ],
            }
            assert flat.to_wire() == want
            assert AffineSubspace.from_wire(space, want) == flat


# entries that Fraction accepts, with a value, and entries it refuses
WIRE_CORPUS = (
    "0", "-0", "+3", "007", "-12/8", "6/4", "0/5", "1/03", " 3/4 ", "\t5\n",
    "1.5", "-.5", "1e3", "2.5e-2", "1E2", "3_0", "\u0663", "\uff11\uff12/\uff13",
    "123456789012345678901234567890/7", "-98765432109876543210",
    "1/0", "0/0", "3/-4", "1/+2", "", " ", "-", "/3", "1/", "1//2", "1/2/3",
    "1 /2", "--1", "abc", "0x10", "inf", "nan", "1.5/2", "1" * 5000,
)


def test_wire_entries_parse_as_fraction_parses_them():
    q1, q2 = QuadraticSpace.euclidean(1), QuadraticSpace.euclidean(2)
    for text in WIRE_CORPUS:
        try:
            value = QQ(text)
        except (ValueError, ZeroDivisionError):
            value = None
        point = {"point": [text], "basis": []}
        row = {"point": ["0", "0"], "basis": [["1", text]]}
        if value is None:
            with pytest.raises(InputError):
                AffineSubspace.from_wire(q1, point)
            with pytest.raises(InputError):
                AffineSubspace.from_wire(q2, row)
        else:
            assert rational_point(AffineSubspace.from_wire(q1, point)) == (value,), text
            want = rref_basis([(QQ(1), value)], 2)
            assert AffineSubspace.from_wire(q2, row).direction == want, text
    # ints and Fractions are entries too
    mixed = {"point": [3, QQ(-1, 2)], "basis": [[QQ(2), 4]]}
    flat = AffineSubspace.from_wire(q2, mixed)
    assert flat == AffineSubspace.make(q2, (3, QQ(-1, 2)), rref_basis([(2, 4)], 2))


def test_canonical_basis_rows_read_back_to_their_direction():
    rng = random.Random(11)
    for n, space in _wire_spaces():
        for _ in range(6):
            rows = [
                [_wire_coordinate(rng) for _ in range(n)]
                for _ in range(rng.randint(0, n))
            ]
            flat = AffineSubspace.make(space, [0] * n, rref_basis(rows, n))
            payload = flat.to_wire()
            int_rows = [int_vector(r)[0] for r in payload["basis"]]
            direction = AffineSubspace.from_wire(space, payload).direction
            want = _subspace_from_int_rows(int_rows, n)
            assert direction.int_rows == want.int_rows == flat.direction.int_rows
            assert direction.pivots == want.pivots


# rows close to canonical form that are not it, each for its own reason
NEAR_CANONICAL_BASES = {
    "negative leading entry": [["-1", "0", "2"]],
    "non-primitive row": [["2", "4", "0"]],
    "rows out of order": [["0", "1", "0"], ["1", "0", "3"]],
    "entry in another row's leading column": [["1", "1", "0"], ["0", "1", "5"]],
    "entry above a later pivot": [["1", "0", "2"], ["0", "1", "0"], ["0", "0", "1"]],
    "zero row": [["1", "0", "0"], ["0", "0", "0"]],
    "repeated row": [["1", "0", "2"], ["1", "0", "2"]],
    "more rows than dimensions": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]],
}


@pytest.mark.parametrize("case", NEAR_CANONICAL_BASES)
def test_near_canonical_basis_rows_are_reduced(case):
    space = QuadraticSpace.euclidean(3)
    basis = NEAR_CANONICAL_BASES[case]
    point = ["1/2", "-3", "7"]
    int_rows = [int_vector(r)[0] for r in basis]
    flat = AffineSubspace.from_wire(space, {"point": point, "basis": basis})
    want = _subspace_from_int_rows(int_rows, 3)
    assert flat.direction.int_rows == want.int_rows
    assert flat.direction.pivots == want.pivots
    assert flat == AffineSubspace.make(
        space, [QQ(x) for x in point], rref_basis([[QQ(x) for x in r] for r in basis], 3)
    )


# ---------------------------------------------------------------------------
# meet and join examples


def test_planes_meet_in_axis(q3):
    xy = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    xz = plane(q3, (0, 0, 0), (1, 0, 0), (0, 0, 1))
    x_axis = line(q3, (0, 0, 0), (1, 0, 0))
    assert meet(xy, xz) == x_axis


def test_parallel_lines_do_not_meet(q2):
    a = line(q2, (0, 0), (1, 0))
    b = line(q2, (0, 1), (1, 0))
    assert meet(a, b) is None


def test_meet_is_idempotent(q3):
    f = plane(q3, (1, 1, 1), (1, 0, 0), (0, 1, 1))
    assert meet(f, f) == f


def test_join_of_two_points_is_a_line(q2):
    a = AffineSubspace.from_point(q2, qv(0, 0))
    b = AffineSubspace.from_point(q2, qv(1, 0))
    assert join(a, b) == line(q2, (0, 0), (1, 0))


def test_join_of_axes_is_plane(q3):
    x_axis = line(q3, (0, 0, 0), (1, 0, 0))
    y_axis = line(q3, (0, 0, 0), (0, 1, 0))
    assert join(x_axis, y_axis) == plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))


def test_join_is_idempotent(q3):
    f = line(q3, (1, 2, 3), (0, 1, "1/2"))
    assert join(f, f) == f


def test_same_space_required(q2, q3):
    with pytest.raises(InputError):
        meet(line(q2, (0, 0), (1, 0)), line(q3, (0, 0, 0), (1, 0, 0)))


# ---------------------------------------------------------------------------
# parallelism and translation


def test_translate_is_parallel(q2):
    x_axis = line(q2, (0, 0), (1, 0))
    shifted = translate_through(x_axis, AffineSubspace.from_point(q2, qv(0, 1)))
    assert parallel(x_axis, shifted)
    assert is_subflat(AffineSubspace.from_point(q2, qv(3, 1)), shifted)


def test_axes_are_not_parallel(q2):
    assert not parallel(line(q2, (0, 0), (1, 0)), line(q2, (0, 0), (0, 1)))


def test_parallel_is_reflexive(q2):
    a = line(q2, (1, 1), (1, 2))
    assert parallel(a, a)


def test_translate_through_member_point_is_identity(q2):
    a = line(q2, (0, 0), (1, 0))
    assert translate_through(a, AffineSubspace.from_point(q2, qv(7, 0))) == a


def test_translate_point_flat(q2):
    p = AffineSubspace.from_point(q2, qv(1, 1))
    q = AffineSubspace.from_point(q2, qv(2, 5))
    assert translate_through(p, q) == AffineSubspace.from_point(q2, qv(2, 5))


def test_translate_through_needs_a_point_of_the_same_space(q2, q3):
    a = line(q2, (0, 0), (1, 0))
    with pytest.raises(InputError):
        translate_through(a, line(q2, (0, 1), (1, 1)))
    with pytest.raises(InputError):
        translate_through(a, AffineSubspace.from_point(q3, qv(0, 1, 0)))


# ---------------------------------------------------------------------------
# lattice laws on random flats


@settings(max_examples=80)
@given(flat_strategy(SPACE3), flat_strategy(SPACE3))
def test_meet_join_laws(x, y):
    j = join(x, y)
    assert j == join(y, x)
    assert is_subflat(x, j) and is_subflat(y, j)
    assert j.dim <= x.dim + y.dim + 1
    m = meet(x, y)
    assert (m is None) == (meet(y, x) is None)
    if m is not None:
        assert m == meet(y, x)
        assert is_subflat(m, x) and is_subflat(m, y)
        assert m.direction == subspace_intersect(x.direction, y.direction)


@settings(max_examples=80)
@given(flat_strategy(SPACE3), flat_strategy(SPACE3))
def test_dimension_law_when_meeting(x, y):
    m = meet(x, y)
    if m is not None:
        assert join(x, y).dim == x.dim + y.dim - m.dim


@settings(max_examples=60)
@given(flat_strategy(SPACE3))
def test_join_with_point_outside(x):
    p = AffineSubspace.from_point(SPACE3, qv(9, 9, 9))
    j = join(x, p)
    assert is_subflat(x, j) and is_subflat(p, j)


# ---------------------------------------------------------------------------
# integer storage of the base point, and the per-pair meet memo

SPACE4 = QuadraticSpace.from_matrix(
    [["2", "1/2", "0", "0"], ["1/2", "3", "1/3", "0"],
     ["0", "1/3", "1", "0"], ["0", "0", "0", "5/4"]]
)


def test_one_flat_from_every_route_compares_and_hashes_equal():
    p0 = qv("1/2", "-2/3", 0, "5/6")
    d = qv(1, 2, -1, "1/2")
    e1, e2 = qv(0, 0, 1, 0), qv(0, 1, 0, "1/3")
    direction = rref_basis([d], 4)

    def on_line(t):
        return vec_add(p0, vec_scale(QQ(t), d))

    x = AffineSubspace.make(SPACE4, on_line("7/5"), direction)
    routes = [
        AffineSubspace.from_wire(SPACE4, x.to_wire()),
        meet(
            AffineSubspace.make(SPACE4, p0, rref_basis([d, e1], 4)),
            AffineSubspace.make(SPACE4, on_line(3), rref_basis([d, e2], 4)),
        ),
        join(
            AffineSubspace.from_point(SPACE4, on_line("1/3")),
            AffineSubspace.from_point(SPACE4, on_line(-2)),
        ),
        translate_through(
            AffineSubspace.make(SPACE4, vec_add(p0, e1), direction),
            AffineSubspace.from_point(SPACE4, on_line(3)),
        ),
    ]
    for y in routes:
        assert y == x and hash(y) == hash(x)
        assert y.int_point == x.int_point and rational_point(y) == rational_point(x)


@settings(max_examples=80)
@given(flat_strategy(SPACE3))
def test_point_is_the_integer_point_over_its_least_denominator(x):
    nums, den = x.int_point
    assert isinstance(nums, tuple) and all(isinstance(v, int) for v in nums)
    assert den > 0 and den == math.lcm(*(c.denominator for c in rational_point(x)))
    # the canonical point: zero at every pivot column of the direction
    assert all(nums[c] == 0 for c in x.direction.pivots)


def _meeting_planes():
    """Two planes of Q^4 through one point, meeting in a line."""
    p = ("1/2", 0, 1, 0)
    return (
        plane(SPACE4, p, (1, 0, 0, 0), (0, 1, 0, 1)),
        plane(SPACE4, p, (1, 0, 0, 0), (0, 0, 1, "2/3")),
    )


@pytest.mark.parametrize("relation", [perp_g, perp_go, meet])
def test_meet_is_solved_once_per_ordered_pair(monkeypatch, relation):
    solves = []
    real = flats_module._rref_int

    def counting(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    # the meet solver's elimination
    monkeypatch.setattr(flats_module, "_rref_int", counting)
    x1, x2 = _meeting_planes()
    first = relation(x1, x2)
    assert len(solves) == 1
    for again in (perp_g, perp_go, meet):
        again(x1, x2)
    assert relation(x1, x2) == first and len(solves) == 1
    relation(x2, x1)
    assert len(solves) == 2
    relation(x2, x1)
    assert len(solves) == 2
    # one slot per flat, matched by identity: an equal twin of x2 takes it,
    # so meeting x2 again after the twin costs one more solve
    _, twin = _meeting_planes()
    relation(x1, twin)
    assert len(solves) == 3
    assert relation(x1, x2) == first and len(solves) == 4


def test_a_flat_keeps_at_most_one_partner_alive():
    x1, _ = _meeting_planes()
    refs = []
    for i in range(1000):
        partner = line(SPACE4, (i, 0, 0, 0), (0, 1, 0, 0))
        perp_g(x1, partner)
        refs.append(weakref.ref(partner))
    del partner
    gc.collect()
    assert sum(r() is not None for r in refs) <= 1


def test_a_pair_related_both_ways_is_freed_without_the_collector():
    """Each flat's meet slot holds its partner weakly, so perp_g both ways
    makes no reference cycle: the pair goes when its names do, with the
    cyclic collector off."""
    x1, x2 = _meeting_planes()
    perp_g(x1, x2)
    perp_g(x2, x1)
    assert "_meet" in vars(x1) and "_meet" in vars(x2)
    refs = [weakref.ref(x1), weakref.ref(x2)]
    gc.collect()
    gc.disable()
    try:
        del x1, x2
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_meet_memo_stays_out_of_equality_hash_repr_and_wire():
    x1, x2 = _meeting_planes()
    twin, _ = _meeting_planes()
    perp_g(x1, x2)
    meet(x1, x2)
    assert vars(x1).keys() - vars(twin).keys()  # x1 holds a memo, twin none
    assert x1 == twin and hash(x1) == hash(twin)
    assert repr(x1) == repr(twin)
    assert x1.to_wire() == twin.to_wire()


@pytest.mark.parametrize("form", NAMED_FORMS)
def test_meet_after_the_relations_equals_a_fresh_meet(form):
    """The relations leave only the reduced meet system in the memo; a later
    meet builds the same flat from it as from copies with no memo, of the
    dimension the relations read."""
    rng = random.Random(f"meet-after-relations:{form}")
    seen = set()
    for n in (3, 4, 5):
        cfg = GenConfig(dim=n, seed=0, form=form)
        for _ in range(6):
            a = gen_subspace(cfg, rng.randint(1, n - 1), rng)
            k1, k2 = rng.randint(1, n - 1), rng.randint(1, n - 1)
            m = rng.randint(max(0, k1 + k2 - n), min(k1, k2) - 1)
            pairs = [
                gen_pair_with_meet_dim(cfg, k1, k2, m, rng),
                # nested both ways, disjoint parallels, an independent draw
                (sub_flat(a, rng.randint(0, a.dim), rng), a),
                (a, translate_through(a, gen_point(cfg, rng))),
                (a, gen_subspace(cfg, rng.randint(0, n), rng)),
            ]
            for x, y in pairs:
                for a1, a2 in ((x, y), (y, x)):
                    perp_go(a1, a2)
                    perp_g(a1, a2)
                    perp_x(a1, a2)
                    if 0 < a1.dim and 0 < a2.dim:
                        m = min(a1.dim, a2.dim) - 1
                        perp_m(a1, a2, TypedPerpParams(m, a1.dim, a2.dim))
                    assert vars(a1)["_meet"][0]() is a2
                    got = meet(a1, a2)
                    fresh = meet(
                        AffineSubspace.from_wire(a1.space, a1.to_wire()),
                        AffineSubspace.from_wire(a1.space, a2.to_wire()),
                    )
                    assert got == fresh
                    parts = flats_module._meet_parts(a1, a2)
                    read = None if parts is None else a1.dim - len(parts[1])
                    assert read == (None if got is None else got.dim)
                    seen.add((got is None, got == a1 or got == a2))
    # disjoint, nested and properly crossing pairs all occurred
    assert seen == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("form", NAMED_FORMS)
def test_is_subflat_is_a_meet_equal_to_the_inner_flat(form):
    rng = random.Random(f"subflat-meet:{form}")
    outcomes = set()
    for n in (2, 3, 4, 5):
        cfg = GenConfig(dim=n, seed=0, form=form)
        for _ in range(8):
            k = rng.randint(0, n)
            a = gen_subspace(cfg, k, rng)
            # neither side contains the other when m < min(k1, k2)
            k1, k2 = rng.randint(1, n - 1), rng.randint(1, n - 1)
            m = rng.randint(max(0, k1 + k2 - n), min(k1, k2) - 1)
            pairs = [
                # nested, equal, parallel (disjoint unless a is everything)
                (sub_flat(a, rng.randint(0, k), rng), a),
                (a, translate_through(a, random_point_of(a, rng))),
                (a, translate_through(a, gen_point(cfg, rng))),
                # crossing, and two independent draws
                gen_pair_with_meet_dim(cfg, k1, k2, m, rng),
                (a, gen_subspace(cfg, rng.randint(0, n), rng)),
            ]
            for x, y in pairs:
                for inner, outer in ((x, y), (y, x)):
                    together = meet(inner, outer)
                    got = is_subflat(inner, outer)
                    assert got == (together == inner)
                    outcomes.add((got, together is None))
    assert outcomes == {(True, False), (False, False), (False, True)}


# ---------------------------------------------------------------------------
# what is kept with the direction, and meets through one base point


def test_form_rows_are_kept_per_direction_and_space(monkeypatch):
    """One direction read under two spaces in turn gets each space's rows
    and verdicts: the slot on the direction answers only for its space,
    and its complement reads the rows a relation has formed."""
    n = 4
    identity, tridiag = resolve_space(n, "identity"), resolve_space(n, "tridiag")
    full = full_subspace(n)
    products = []
    for name in ("_times_form", "_times_inverse"):
        real = getattr(linalg_module, name)

        def counting(rows, space, name=name, real=real):
            products.append(name)
            return real(rows, space)

        monkeypatch.setattr(linalg_module, name, counting)

    def span(*rows):
        return _subspace_from_int_rows(rows, n)

    e1, e2, e3, e4 = full_subspace(n).int_rows
    # each x2 direction, with an x1 direction it meets in dimension m
    cases = [
        (span(e1), span(e2), 0),
        (span(e1, e2), span(e2, e3), 1),
        # (2, 3, 3) at n = 4 is decided from x2's complement rows
        (span(e1, e2, e3), span(e2, e3, e4), 2),
    ]
    origin = (0,) * n
    for _ in range(3):
        for space in (identity, tridiag):
            for d1, d2, m in cases:
                x1 = AffineSubspace.make(space, origin, d1)
                x2 = AffineSubspace.make(space, (1, 0, 0, 0), d2)
                assert x2.direction is d2
                products.clear()
                # under the identity x1's part outside the meet is e1, which
                # is orthogonal to x2; under the tridiagonal form it is not
                want = space is identity
                if m == 0:
                    assert perp_subspaces(x1, x2) is want
                params = TypedPerpParams(m, d1.rank, d2.rank)
                assert perp_m(x1, x2, params) is want
                # the slot held the other space's rows, so the relations
                # formed d2's once; its complement in the whole space reads
                # them and makes none
                assert len(products) == 1
                xi_complement(space, d2, full)
                assert len(products) == 1
                assert d2.form_rows(space) == _times_form(d2.int_rows, space)
                assert d2.complement_rows(space) == _times_inverse(d2.equations, space)


def _through(space, point, direction):
    nums, den = point
    return AffineSubspace._canonical(space, list(nums), den, direction)


@pytest.mark.parametrize("form", NAMED_FORMS)
def test_meet_through_one_base_point_takes_the_zero_offset(form):
    """Flats with one canonical base point meet in the flat through it along
    the directions' intersection; their verdicts are those of the same
    directions placed through another common point, where the base points
    differ."""
    rng = random.Random(f"zero-offset:{form}")
    zero_offsets = moved_offsets = 0
    for n in (3, 4, 5, 6):
        cfg = GenConfig(dim=n, seed=0, form=form)
        space = space_of(cfg)
        origin = ((0,) * n, 1)
        pairs = []
        for i in range(6):
            # the wrap's k2 = 1 pairs: lines moved to the origin
            l1, l2 = gen_line_pair(cfg, rng, orthogonal=i % 2 == 0)
            if not parallel(l1, l2):
                pairs.append(
                    (l1.direction, l2.direction, TypedPerpParams(0, 1, 1), origin)
                )
            params = rand_params(rng, n)
            x1, x2 = make_perp_pair(space, params, rng)
            # a point with zeros at both directions' pivots is canonical
            # for both
            free = set(range(n)) - {*x1.direction.pivots, *x2.direction.pivots}
            nums = [rng.randint(-3, 3) if c in free else 0 for c in range(n)]
            point = (nums, rng.randint(1, 3))
            pairs.append((x1.direction, x2.direction, params, point))
        for d1, d2, params, point in pairs:
            x1, x2 = _through(space, point, d1), _through(space, point, d2)
            assert x1.int_point == x2.int_point
            zero_offsets += 1
            got = meet(x1, x2)
            assert got == _through(space, point, subspace_intersect(d1, d2))
            q = gen_point(cfg, rng)
            y1, y2 = translate_through(x1, q), translate_through(x2, q)
            moved_offsets += y1.int_point != y2.int_point
            assert meet(y1, y2) == translate_through(got, q)
            for a1, a2, b1, b2 in ((x1, x2, y1, y2), (x2, x1, y2, y1)):
                assert perp_go(a1, a2) == perp_go(b1, b2)
                assert perp_g(a1, a2) == perp_g(b1, b2)
            assert perp_m(x1, x2, params) == perp_m(y1, y2, params)
            assert perp_m(x1, x2, params) or params.k2 == 1
    assert zero_offsets > 30 and moved_offsets > zero_offsets // 2
