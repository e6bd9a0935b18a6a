"""Orthogonality relations, orthocomplements, reflections, witnesses."""

import random
from collections import Counter
from fractions import Fraction as QQ

import pytest

from orthokernel import linalg, ortho
from orthokernel.errors import (
    GenerationError,
    InputError,
    PreconditionError,
    UnsatisfiableParams,
)
from orthokernel.flats import (
    AffineSubspace,
    is_subflat,
    join,
    meet,
    translate_through,
)
from orthokernel.generators import (
    GenConfig,
    gen_line_pair,
    gen_pair_with_meet_dim,
    gen_perp_to,
    gen_point,
    gen_subspace,
    rand_params,
    random_point_of,
    resolve_space,
    space_of,
    sub_flat,
    super_flat,
    trial_rng,
)
from orthokernel.linalg import (
    QuadraticSpace,
    full_subspace,
    rref_basis,
    subspace_sum,
    xi_complement,
    zero_subspace,
)
from orthokernel.ortho import (
    COEFF_BOUND,
    DENOMINATOR_BOUND,
    NUMERATOR_BOUND,
    RETRIES,
    TypedPerpParams,
    _draw,
    _draws,
    _rand_extension,
    _reduced_draw,
    make_perp_pair,
    orthocomplement_in,
    perp_g,
    perp_go,
    perp_m,
    perp_subspaces,
    perp_x,
    rand_subspace_of,
    reflections_commute,
    unique_complement,
)

from conftest import ZeroDraws, package_modules, qv
from rational_reference import (
    AffineIsometry,
    apply_isometry,
    bilinear_eval,
    identity_isometry,
    isometry_compose,
    isometry_equal,
    mat_mul,
    projection_reflection,
    rational_basis,
    rational_point,
    rational_reflection,
)


def line(space, point, direction):
    return AffineSubspace.make(
        space, qv(*point), rref_basis([qv(*direction)], space.dim)
    )


def plane(space, point, d1, d2):
    return AffineSubspace.make(
        space, qv(*point), rref_basis([qv(*d1), qv(*d2)], space.dim)
    )


# ---------------------------------------------------------------------------
# subspace orthogonality


def test_perp_subspaces_axes(q3):
    assert perp_subspaces(line(q3, (0, 0, 0), (1, 0, 0)), line(q3, (0, 0, 0), (0, 1, 0)))


def test_perp_subspaces_shared_direction(q3):
    xy = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    yz = plane(q3, (0, 0, 0), (0, 1, 0), (0, 0, 1))
    assert not perp_subspaces(xy, yz)


def test_perp_subspaces_point_vacuous(q3):
    p = AffineSubspace.from_point(q3, qv(1, 2, 3))
    xy = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert perp_subspaces(p, xy)


def test_perp_x_requires_common_point(q3):
    x_axis = line(q3, (0, 0, 0), (1, 0, 0))
    assert perp_x(x_axis, line(q3, (0, 0, 0), (0, 1, 0)))
    assert not perp_x(x_axis, line(q3, (0, 0, 1), (0, 1, 0)))
    assert perp_x(x_axis, plane(q3, (0, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_perp_x_meet_is_a_point(q3, rng):
    # anisotropy forces orthogonal flats to share at most one point
    for _ in range(50):
        x1, x2 = make_perp_pair(q3, TypedPerpParams(0, 1, rng.choice((1, 2))), rng)
        if perp_x(x1, x2):
            assert meet(x1, x2).dim == 0


# ---------------------------------------------------------------------------
# orthocomplement


def test_orthocomplement_of_axis_in_space(q3):
    x_axis = line(q3, (0, 0, 0), (1, 0, 0))
    origin = AffineSubspace.from_point(q3, qv(0, 0, 0))
    comp = orthocomplement_in(x_axis, AffineSubspace.full(q3), origin)
    assert comp == plane(q3, (0, 0, 0), (0, 1, 0), (0, 0, 1))


def test_orthocomplement_of_point_is_everything(q3):
    v = plane(q3, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    q = qv(2, 3, 1)
    p = AffineSubspace.from_point(q3, q)
    assert orthocomplement_in(p, v, p) == v


def test_orthocomplement_of_whole_flat_is_base_point(q3):
    v = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    q = qv(1, 1, 0)
    assert (
        orthocomplement_in(v, v, AffineSubspace.from_point(q3, q))
        == AffineSubspace.from_point(q3, q)
    )


def test_orthocomplement_preconditions(q3):
    x_axis = line(q3, (0, 0, 0), (1, 0, 0))
    y_axis = line(q3, (0, 0, 0), (0, 1, 0))
    with pytest.raises(PreconditionError):
        orthocomplement_in(x_axis, y_axis, AffineSubspace.from_point(q3, qv(0, 0, 0)))
    with pytest.raises(PreconditionError):
        orthocomplement_in(
            x_axis, AffineSubspace.full(q3), AffineSubspace.from_point(q3, qv(0, 1, 0))
        )
    with pytest.raises(InputError):
        orthocomplement_in(x_axis, AffineSubspace.full(q3), x_axis)


def test_orthocomplement_clauses_randomized(q4, rng):
    full = AffineSubspace.full(q4)
    for _ in range(40):
        vdim = rng.randint(1, 4)
        v = AffineSubspace.make(
            q4,
            rational_point(gen_point(GenConfig(dim=4), rng)),
            rand_subspace_of(full_subspace(4), vdim, rng),
        )
        x = AffineSubspace.make(
            q4,
            rational_point(v),
            rand_subspace_of(v.direction, rng.randint(0, vdim), rng),
        )
        q = AffineSubspace.from_point(q4, rational_point(x))
        comp = orthocomplement_in(x, v, q)
        assert is_subflat(q, comp)
        assert is_subflat(comp, v)
        assert perp_x(comp, x)
        assert join(comp, x) == v


# ---------------------------------------------------------------------------
# graded orthogonality


def test_perp_go_planes_through_common_axis(q3):
    xy = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    xz = plane(q3, (0, 0, 0), (1, 0, 0), (0, 0, 1))
    assert perp_go(xy, xz)


def test_perp_go_holds_under_inclusion(q3):
    x_axis = line(q3, (0, 0, 0), (1, 0, 0))
    xy = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert perp_go(x_axis, xy)


def test_perp_go_oblique_lines(q3):
    x_axis = line(q3, (0, 0, 0), (1, 0, 0))
    diag = line(q3, (0, 0, 0), (1, 1, 0))
    assert not perp_go(x_axis, diag)


def test_perp_g_planes(q3):
    xy = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    xz = plane(q3, (0, 0, 0), (1, 0, 0), (0, 0, 1))
    assert perp_g(xy, xz)


def test_perp_g_excludes_inclusion(q3):
    x_axis = line(q3, (0, 0, 0), (1, 0, 0))
    xy = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert not perp_g(x_axis, xy)


def test_perp_g_axes(q3):
    assert perp_g(line(q3, (0, 0, 0), (1, 0, 0)), line(q3, (0, 0, 0), (0, 1, 0)))


def test_perp_m_planes(q3):
    xy = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    xz = plane(q3, (0, 0, 0), (1, 0, 0), (0, 0, 1))
    assert perp_m(xy, xz, TypedPerpParams(1, 2, 2))
    assert not perp_m(xy, xz, TypedPerpParams(0, 2, 2))


def test_perp_m_axes(q3):
    x_axis = line(q3, (0, 0, 0), (1, 0, 0))
    y_axis = line(q3, (0, 0, 0), (0, 1, 0))
    assert perp_m(x_axis, y_axis, TypedPerpParams(0, 1, 1))


# pairs of the type's dimensions whose Gram matrix D1 F D2^T has rank m
# but whose directions meet in fewer than m dimensions: only the meet
# dimension tells them from a perp_m pair
SHORT_MEET_PAIRS = {
    "(1,2,2) in Q^4": (
        TypedPerpParams(1, 2, 2),
        [(1, 0, 0, 0), (0, 1, 0, 0)],
        [(1, 0, 1, 0), (0, 0, 0, 1)],
        0,
    ),
    "(2,3,3) in Q^5": (
        TypedPerpParams(2, 3, 3),
        [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)],
        [(1, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 0, 0, 0, 1)],
        1,
    ),
}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("case", SHORT_MEET_PAIRS)
def test_perp_m_refuses_a_meet_smaller_than_its_type(case, weighted):
    params, rows1, rows2, meet_dim = SHORT_MEET_PAIRS[case]
    n = len(rows1[0])
    space = (
        QuadraticSpace.diagonal(range(1, n + 1)) if weighted else QuadraticSpace.euclidean(n)
    )
    x1 = AffineSubspace.make(space, [0] * n, rref_basis(rows1, n))
    x2 = AffineSubspace.make(space, [0] * n, rref_basis(rows2, n))
    assert meet(x1, x2).dim == meet_dim < params.m
    gram = [[bilinear_eval(space, u, v) for v in rows2] for u in rows1]
    assert rref_basis(gram, len(rows2)).rank == params.m
    assert not perp_m(x1, x2, params)
    assert not perp_m(x2, x1, params)


def test_typed_params_validation():
    with pytest.raises(InputError):
        TypedPerpParams(-1, 1, 1)
    with pytest.raises(InputError):
        TypedPerpParams(1, 1, 2)


@pytest.mark.parametrize(
    "args, name",
    [((0.5, 1, 2), "m"), ((True, 2, 2), "m"), ((0, 1.0, 2), "k1"),
     ((0, 1, False), "k2"), ((0, 1, "2"), "k2")],
)
def test_typed_params_take_only_ints(args, name):
    # a float would fail later inside make_perp_pair, and a bool would run
    # as 0 or 1 and serialise as true or false
    with pytest.raises(InputError, match=f"^{name} must be an int$"):
        TypedPerpParams(*args)


# ---------------------------------------------------------------------------
# reflections


def test_reflection_across_x_axis(q2):
    r = rational_reflection(line(q2, (0, 0), (1, 0)))
    assert r.matrix == ((QQ(1), QQ(0)), (QQ(0), QQ(-1)))
    assert r.translation == qv(0, 0)
    assert apply_isometry(r, qv(3, 5)) == qv(3, -5)


def test_reflection_in_a_point(q2):
    p = AffineSubspace.from_point(q2, qv(1, 2))
    r = rational_reflection(p)
    assert apply_isometry(r, qv(1, 2)) == qv(1, 2)
    assert apply_isometry(r, qv(3, 3)) == qv(-1, 1)


def test_reflection_in_full_space_is_identity(q3):
    r = rational_reflection(AffineSubspace.full(q3))
    assert isometry_equal(r, identity_isometry(q3))


def test_reflection_involution(q2):
    r = rational_reflection(line(q2, (0, 1), (1, 1)))
    assert isometry_equal(isometry_compose(r, r), identity_isometry(q2))


def test_commuting_axis_reflections(q2):
    rx = rational_reflection(line(q2, (0, 0), (1, 0)))
    ry = rational_reflection(line(q2, (0, 0), (0, 1)))
    assert isometry_equal(isometry_compose(rx, ry), isometry_compose(ry, rx))


def test_noncommuting_reflections_match_direct_products(q2):
    # independent check: reflections across span{e1} and span{e1+e2} are
    # diag(1,-1) and the coordinate swap; their products differ
    rx = rational_reflection(line(q2, (0, 0), (1, 0)))
    rd = rational_reflection(line(q2, (0, 0), (1, 1)))
    assert rx.matrix == ((QQ(1), QQ(0)), (QQ(0), QQ(-1)))
    assert rd.matrix == ((QQ(0), QQ(1)), (QQ(1), QQ(0)))
    assert mat_mul(rx.matrix, rd.matrix) != mat_mul(rd.matrix, rx.matrix)
    assert not reflections_commute(
        line(q2, (0, 0), (1, 0)), line(q2, (0, 0), (1, 1))
    )


def test_composites_that_differ_only_below_row_0_do_not_commute(q3):
    # both reflections fix e0's row, so the composites agree on row 0; the
    # row-by-row comparison must still reach the rows where they differ
    a, b = line(q3, (0, 0, 0), (0, 1, 0)), line(q3, (0, 0, 0), (0, 1, 1))
    ra, rb = rational_reflection(a), rational_reflection(b)
    ab, ba = mat_mul(ra.matrix, rb.matrix), mat_mul(rb.matrix, ra.matrix)
    assert ab[0] == ba[0] and ab != ba
    assert not reflections_commute(a, b)
    assert not reflections_commute(b, a)


def test_reflections_commute_calls_the_traced_kernels(q3, monkeypatch):
    # the benchmark traces ortho.reflection and linalg.mat_inverse by name,
    # in every package module that binds them; the decision runs both
    counts = Counter()
    for real in (ortho.reflection, linalg.mat_inverse):

        def counted(*args, _real=real):
            counts[_real.__name__] += 1
            return _real(*args)

        for module in package_modules():
            if getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, counted)
    a = line(q3, (0, 0, 1), (1, 0, 0))
    b = plane(q3, (1, 2, 0), (0, 1, 0), (0, 0, 1))
    assert reflections_commute(a, b)
    assert counts["reflection"] == 2
    assert counts["mat_inverse"] >= 1


def _refl_pair(cfg, rng):
    """A meeting pair: orthogonal, generic non-nested, or nested."""
    n = cfg.dim
    r = rng.random()
    if r < 0.35:
        return make_perp_pair(space_of(cfg), rand_params(rng, n), rng)
    if r < 0.7:
        k1, k2 = rng.randint(1, n - 1), rng.randint(1, n - 1)
        m = rng.randint(max(0, k1 + k2 - n), min(k1, k2) - 1)
        return gen_pair_with_meet_dim(cfg, k1, k2, m, rng)
    outer = gen_subspace(cfg, rng.randint(0, n), rng)
    return sub_flat(outer, rng.randint(0, outer.dim), rng), outer


@pytest.mark.parametrize("form", ["identity", "diag", "tridiag"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reflections_commute_matches_rational_composites(n, form):
    # the integer decision against the composites of the projection
    # formula's isometries, on meeting and translated (disjoint) pairs
    cfg = GenConfig(dim=n, form=form)
    seen = Counter()
    for i in range(60):
        rng = trial_rng(20261018, f"refl-xcheck:{n}:{form}", i)
        a, b = _refl_pair(cfg, rng)
        if i % 3 == 0:
            b = translate_through(b, gen_point(cfg, rng))
        ra, rb = projection_reflection(a), projection_reflection(b)
        want = isometry_equal(isometry_compose(ra, rb), isometry_compose(rb, ra))
        assert reflections_commute(a, b) == want, (a.to_wire(), b.to_wire())
        assert reflections_commute(b, a) == want
        seen[(meet(a, b) is not None, want)] += 1
    assert seen[(True, True)] and seen[(True, False)]
    assert seen[(False, True)] + seen[(False, False)]


@pytest.mark.parametrize("form", ["identity", "diag", "tridiag"])
@pytest.mark.parametrize("n", range(1, 8))
def test_reflection_is_the_projection_formula(n, form):
    # reflection() is the integer construction; the projection formula
    # builds the same isometry in rationals, on flats of every dimension
    # from a point to the whole space
    cfg = GenConfig(dim=n, form=form)
    for k in range(n + 1):
        for i in range(2):
            rng = trial_rng(20261019, f"refl-view:{n}:{form}:{k}", i)
            x = gen_subspace(cfg, k, rng)
            got, want = rational_reflection(x), projection_reflection(x)
            assert got.matrix == want.matrix, x.to_wire()
            assert got.translation == want.translation, x.to_wire()


def test_isometry_rejects_form_breaking_matrix(q2):
    with pytest.raises(InputError):
        AffineIsometry(q2, ((QQ(2), QQ(0)), (QQ(0), QQ(1))), qv(0, 0))


def test_reflection_fixes_flat_and_preserves_form(q3_weighted, rng):
    space = q3_weighted
    full = full_subspace(3)
    for _ in range(30):
        flat = AffineSubspace.make(
            space,
            rational_point(gen_point(GenConfig(dim=3), rng)),
            rand_subspace_of(full, rng.randint(0, 3), rng),
        )
        r = rational_reflection(flat)
        at = tuple(zip(*r.matrix))
        assert mat_mul(mat_mul(at, space.int_form), r.matrix) == space.int_form
        basis = rational_basis(flat.direction)
        for _ in range(3):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            p = rational_point(flat)
            for c, d in zip(coeffs, basis):
                p = tuple(x + c * y for x, y in zip(p, d))
            assert apply_isometry(r, p) == p
        assert isometry_equal(
            isometry_compose(r, r), identity_isometry(space)
        )


# ---------------------------------------------------------------------------
# constructive witnesses


def test_make_perp_pair_lines_in_plane(q2, rng):
    x1, x2 = make_perp_pair(q2, TypedPerpParams(0, 1, 1), rng)
    assert perp_m(x1, x2, TypedPerpParams(0, 1, 1))


def test_make_perp_pair_planes_in_q3(q3, rng):
    params = TypedPerpParams(1, 2, 2)
    x1, x2 = make_perp_pair(q3, params, rng)
    assert perp_m(x1, x2, params)
    assert join(x1, x2).dim == 3


def test_make_perp_pair_refuses_unsatisfiable(q3, rng):
    with pytest.raises(UnsatisfiableParams):
        make_perp_pair(q3, TypedPerpParams(0, 2, 2), rng)


def test_make_perp_pair_weighted_form(q3_weighted, rng):
    params = TypedPerpParams(1, 2, 2)
    x1, x2 = make_perp_pair(q3_weighted, params, rng)
    assert perp_m(x1, x2, params)


def test_rand_subspace_of_range_check(rng):
    with pytest.raises(InputError):
        rand_subspace_of(full_subspace(3), 4, rng)


def _policy_ranges():
    """Every (lo, hi) the package passes to _draws for ambient dimension
    n <= 8: the fixed bounds of the draw policy and every range inside
    [0, 8], which holds the dimension draws of the generators and the
    property trials and ranges of one value."""
    fixed = [(-COEFF_BOUND, COEFF_BOUND), (-NUMERATOR_BOUND, NUMERATOR_BOUND),
             (1, DENOMINATOR_BOUND), (-3, -3)]
    return fixed + [(lo, hi) for hi in range(9) for lo in range(hi + 1)]


def test_draws_are_randint_draws():
    """_draws gives the values of as many Random.randint calls and leaves
    the generator in the same state, for every range the package draws
    from, over 200 seeds and counts from 0 to 12; _draw is one of them."""
    for seed in range(200):
        for lo, hi in _policy_ranges():
            count = (seed + lo + 3 * hi) % 13
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = _draws(got_rng, lo, hi, count)
            assert got == [want_rng.randint(lo, hi) for _ in range(count)]
            assert _draw(got_rng, lo, hi) == want_rng.randint(lo, hi)
            assert got_rng.getstate() == want_rng.getstate()


def test_draws_refuse_an_empty_range():
    with pytest.raises(ValueError):
        _draws(random.Random(0), 1, 0, 1)


def _between_reference(base, w, k, rng):
    """A subspace between base ⊆ w as two nested loops drew it: a k-draw
    from w, redrawn while its sum with base collapses."""
    for _ in range(RETRIES):
        direction = subspace_sum(base, rand_subspace_of(w, k, rng))
        if direction.rank == base.rank + k:
            return direction
    raise GenerationError("the reference draw gave up")


def _extension_matches(monkeypatch, base, w, k, seed):
    """_rand_extension equals its reference draw, from equal rngs left in
    equal states; True when a draw was retried, seen as more coefficients
    drawn through ortho._draws than one draw of k rows takes.  For base
    meeting w only in zero the reference is the sum of base and
    rand_subspace_of's draw, for base inside w it is _between_reference."""
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    if subspace_sum(base, w) == w:
        want = _between_reference(base, w, k, want_rng)
    else:
        want = subspace_sum(base, rand_subspace_of(w, k, want_rng))
    drawn = []

    def counting(*args):
        values = _draws(*args)
        drawn.extend(values)
        return values

    with monkeypatch.context() as patch:
        patch.setattr(ortho, "_draws", counting)
        assert _rand_extension(base, w, k, got_rng) == want
    assert got_rng.getstate() == want_rng.getstate()
    return 0 < k < w.rank and len(drawn) > k * w.rank


@pytest.mark.parametrize("form", ["identity", "diag", "tridiag"])
def test_fused_extension_is_the_sum_of_the_same_draw(form, monkeypatch):
    for n in range(1, 7):
        space = resolve_space(n, form)
        full = full_subspace(n)
        rng = random.Random(f"extension:{n}:{form}")
        for i in range(60):
            base = rand_subspace_of(full, rng.randint(0, n - 1), rng)
            if i % 2:
                # a complement, as the typed-pair generators use
                w = xi_complement(space, base, full)
                w = rand_subspace_of(w, rng.randint(0, w.rank), rng)
            else:
                # any subspace that meets base only in zero
                w = rand_subspace_of(full, rng.randint(0, n - base.rank), rng)
                if subspace_sum(base, w).rank != base.rank + w.rank:
                    continue
            k = rng.randint(0, w.rank)
            _extension_matches(monkeypatch, base, w, k, rng.getrandbits(32))
            # base inside w, as flat_between uses it
            w = subspace_sum(base, w)
            k = rng.randint(0, w.rank - base.rank)
            _extension_matches(monkeypatch, base, w, k, rng.getrandbits(32))
    # one line from a plane: about one draw in 49 collapses and is redrawn
    space = resolve_space(3, form)
    base = rref_basis([(1, 1, 1)], 3)
    w = xi_complement(space, base, full_subspace(3))
    assert sum(_extension_matches(monkeypatch, base, w, 1, s) for s in range(300)) > 0
    # a plane through that line: one draw in 7 collapses onto it or to zero
    w = rref_basis([(1, 1, 1), (1, 0, 0)], 3)
    assert sum(_extension_matches(monkeypatch, base, w, 1, s) for s in range(100)) > 5


def _reference_coefficient_draw(k, r, rng):
    """The draw policy spelled out: k rows of coefficients in Q^r, each
    entry a bounded draw, redrawn while their span has rank below k."""
    for _ in range(RETRIES):
        rows = [_draws(rng, -COEFF_BOUND, COEFF_BOUND, r) for _ in range(k)]
        span = rref_basis(rows, r)
        if span.rank == k:
            return span.int_rows, span.pivots
    raise GenerationError(f"no independent {k}-subspace after {RETRIES} draws")


def test_coefficient_draws_are_rand_subspace_of_draws(monkeypatch):
    """The shared loop's coefficient draw, _reduced_draw((), None, k, r,
    rng) as the sampled decision takes it, is the canonical rows and pivots
    of the draw policy written out above, and the rows of rand_subspace_of's
    k-draw from Q^r, for 1 <= k < r <= 6, from equal rngs left in equal
    states, redrawn draws included; on an rng whose every draw collapses
    all three give up with the same GenerationError after the same draws.
    4 of the 1500 draws here are redrawn."""
    drawn = []

    def counting(*args):
        values = _draws(*args)
        drawn.extend(values)
        return values

    retried = 0
    for r in range(2, 7):
        full = full_subspace(r)
        for k in range(1, r):
            for seed in range(100):
                rngs = [random.Random(seed) for _ in range(3)]
                want_rows, want_pivots = _reference_coefficient_draw(k, r, rngs[0])
                drawn.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(ortho, "_draws", counting)
                    got = _reduced_draw((), None, k, r, rngs[1])
                assert got == (want_rows, want_pivots)
                assert rand_subspace_of(full, k, rngs[2]).int_rows == want_rows
                assert len({rng.getstate() for rng in rngs}) == 1
                retried += len(drawn) > k * r
            raised = []
            for draw in (
                lambda rng: _reference_coefficient_draw(k, r, rng),
                lambda rng: _reduced_draw((), None, k, r, rng),
                lambda rng: rand_subspace_of(full, k, rng),
            ):
                rng = ZeroDraws()
                with pytest.raises(GenerationError) as info:
                    draw(rng)
                raised.append((str(info.value), rng.calls))
            assert raised[0] == raised[1] == raised[2]
            assert raised[0][0] == f"no independent {k}-subspace after {RETRIES} draws"
    assert retried > 0


@pytest.mark.parametrize("form", ["identity", "diag", "tridiag"])
def test_extension_without_rng_takes_the_first_canonical_rows(form):
    """With rng None the extension is the span of base and w's first k
    canonical rows, for every k from 0 to rank w, with no base, with a
    complement of w as base and with a base inside w, and it draws from no
    generator: the module-level one is left in its state."""
    for n in range(1, 6):
        space = resolve_space(n, form)
        full = full_subspace(n)
        rng = random.Random(f"first-rows:{n}:{form}")
        for _ in range(8):
            w = rand_subspace_of(full, rng.randint(1, n), rng)
            bases = (
                zero_subspace(n),
                xi_complement(space, w, full),
                rand_subspace_of(w, rng.randint(1, w.rank), rng),
            )
            w_rows = rational_basis(w)
            for base in bases:
                for k in range(w.rank + 1):
                    want = rref_basis([*rational_basis(base), *w_rows[:k]], n)
                    state = random.getstate()
                    assert _rand_extension(base, w, k, None) == want
                    assert random.getstate() == state


# ---------------------------------------------------------------------------
# unique complement


def test_unique_complement_point_line_plane(q2):
    a = AffineSubspace.from_point(q2, qv(0, 0))
    b = line(q2, (0, 0), (1, 0))
    c = AffineSubspace.full(q2)
    assert unique_complement(a, b, c) == line(q2, (0, 0), (0, 1))


def test_unique_complement_line_plane_space(q3):
    a = line(q3, (0, 0, 0), (1, 0, 0))
    b = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    c = AffineSubspace.full(q3)
    bp = unique_complement(a, b, c)
    assert bp == plane(q3, (0, 0, 0), (1, 0, 0), (0, 0, 1))
    assert meet(b, bp) == a and perp_g(b, bp) and join(b, bp) == c


def test_unique_complement_point_line_space(q3):
    a = AffineSubspace.from_point(q3, qv(0, 0, 0))
    b = line(q3, (0, 0, 0), (1, 0, 0))
    c = AffineSubspace.full(q3)
    assert unique_complement(a, b, c) == plane(q3, (0, 0, 0), (0, 1, 0), (0, 0, 1))


def test_unique_complement_requires_strict_chain(q3):
    a = line(q3, (0, 0, 0), (1, 0, 0))
    b = plane(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(PreconditionError):
        unique_complement(a, a, b)
    with pytest.raises(PreconditionError):
        unique_complement(a, b, b)
    with pytest.raises(PreconditionError):
        unique_complement(b, a, AffineSubspace.full(q3))


# ---------------------------------------------------------------------------
# the Gram-rank criterion against the witness construction


def _dense_form(n):
    """A dense rational form, diagonally dominant hence positive definite."""
    return tuple(
        tuple(QQ(n + 1) if i == j else QQ(1, 1 + i + j) for j in range(n))
        for i in range(n)
    )


def _reference_dirs_perp(space, rows1, rows2):
    return all(bilinear_eval(space, u, v) == 0 for u in rows1 for v in rows2)


def _reference_verdicts(x1, x2):
    """The graded verdicts through the explicit witness: Z1, the
    xi-complement of the meet's direction inside x1's direction, paired
    with every direction of x2 in rationals."""
    space = x1.space
    b2 = rational_basis(x2.direction)
    dirs_perp = _reference_dirs_perp(space, rational_basis(x1.direction), b2)
    m = meet(x1, x2)
    if m is None:
        return {"perp_subspaces": dirs_perp, "perp_x": False,
                "perp_go": False, "perp_g": False}
    z1 = xi_complement(space, m.direction, x1.direction)
    go = _reference_dirs_perp(space, rational_basis(z1), b2)
    return {
        "perp_subspaces": dirs_perp,
        "perp_x": dirs_perp,
        "perp_go": go,
        "perp_g": go and m.dim not in (x1.dim, x2.dim),
    }


def _criterion_pairs(cfg, rng):
    """Orthogonal, tilted, random, nested, equal, disjoint, point and
    full-space pairs."""
    n = cfg.dim
    space = space_of(cfg)
    for _ in range(4):
        x1, x2 = make_perp_pair(space, rand_params(rng, n), rng)
        yield x1, x2
        # one more direction on x2 keeps or breaks the relation
        yield x1, super_flat(x2, min(n, x2.dim + 1), rng)
        k1, k2 = rng.randint(0, n), rng.randint(0, n)
        yield gen_pair_with_meet_dim(
            cfg, k1, k2, rng.randint(max(0, k1 + k2 - n), min(k1, k2)), rng
        )
        a = gen_subspace(cfg, rng.randint(1, n), rng)
        yield a, gen_perp_to(a, random_point_of(a, rng), rng) if a.dim < n else a
        yield a, a
        yield a, sub_flat(a, rng.randint(0, a.dim), rng)
        p = gen_point(cfg, rng)
        yield a, translate_through(a, p)
        yield a, p
        yield p, random_point_of(a, rng)
        yield AffineSubspace.full(space), a
        l1, l2 = gen_line_pair(cfg, rng, orthogonal=True)
        yield l1, l2


CRITERION_FORMS = ["identity", "diag", "tridiag", "dense"]


@pytest.mark.parametrize("form", CRITERION_FORMS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_gram_rank_matches_the_witness_construction(n, form):
    cfg = GenConfig(dim=n, form=_dense_form(n) if form == "dense" else form)
    rng = trial_rng(20261018, f"gram:{n}:{form}", 0)
    relations = {"perp_subspaces": perp_subspaces, "perp_x": perp_x,
                 "perp_go": perp_go, "perp_g": perp_g}
    seen = Counter()
    for a, b in _criterion_pairs(cfg, rng):
        for x1, x2 in ((a, b), (b, a)):
            want = _reference_verdicts(x1, x2)
            for name, relation in relations.items():
                assert relation(x1, x2) == want[name], (name, x1.to_wire(), x2.to_wire())
                seen[name, want[name]] += 1
            m = meet(x1, x2)
            if m is not None and m.dim < min(x1.dim, x2.dim):
                params = TypedPerpParams(m.dim, x1.dim, x2.dim)
                assert perp_m(x1, x2, params) == want["perp_g"]
    # every verdict takes both values
    assert all(seen[name, v] for name in relations for v in (True, False)), seen
