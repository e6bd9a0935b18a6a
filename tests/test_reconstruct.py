"""Line-orthogonality recovery pipeline: feet, witnesses, both decision modes."""

import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

import orthokernel.linalg as linalg_module
import orthokernel.ortho as ortho_module
import orthokernel.reconstruct as reconstruct_module
from orthokernel.errors import (
    GenerationError,
    InputError,
    PreconditionError,
)
from orthokernel.flats import (
    AffineSubspace,
    is_subflat,
    join,
    meet,
    translate_through,
)
from orthokernel.generators import (
    NAMED_FORMS,
    GenConfig,
    flat_between,
    gen_line_pair,
    gen_pair_with_meet_dim,
    random_point_of,
    space_of,
)
from orthokernel.linalg import (
    LinearSubspace,
    full_subspace,
    rref_basis,
    subspace_sum,
    xi_complement,
)
from orthokernel.ortho import (
    TypedPerpParams,
    _rand_extension,
    make_perp_pair,
    orthocomplement_in,
    perp_m,
    perp_x,
    rand_subspace_of,
)
from orthokernel.reconstruct import (
    LinePairVerdicts,
    PerpOracle,
    ReconstructionMode,
    common_perpendicular_feet,
    decide_perp0,
    ground_truth_oracle,
    judge_line_pair,
    lemma1_witness,
    lemma2_witness,
    line_perp_ground_truth,
    reconstruct_line_perp,
)

from conftest import ZeroDraws, package_modules, qv, tilted
from test_foreign_oracle import (
    DECIDE_DIMS,
    DECIDE_FORM_PAIRS,
    decide_pairs,
    foreign_oracle,
    grid,
)
from rational_reference import (
    bilinear_eval,
    rational_basis,
    rational_kernel,
    rational_point,
    rational_rref,
    vec_add,
    vec_scale,
    vec_sub,
)


def line(space, point, direction):
    return AffineSubspace.make(
        space, qv(*point), rref_basis([qv(*direction)], space.dim)
    )


def flat(space, point, *directions):
    return AffineSubspace.make(
        space, qv(*point), rref_basis([qv(*d) for d in directions], space.dim)
    )


def counting_oracle(params):
    calls = []
    base = ground_truth_oracle(params)

    def query(a, b):
        calls.append(1)
        return base.query(a, b)

    return PerpOracle(params, query), calls


# ---------------------------------------------------------------------------
# modes and oracles


def test_mode_constructors():
    w = ReconstructionMode.witness()
    assert w.kind == "witness"
    s = ReconstructionMode.sampled(7, seed=3)
    assert (s.kind, s.samples, s.seed) == ("sampled", 7, 3)


def test_mode_rejects_unknown_kind():
    with pytest.raises(InputError):
        ReconstructionMode("exhaustive")


def test_mode_rejects_nonpositive_samples():
    with pytest.raises(InputError):
        ReconstructionMode.sampled(0)


def test_ground_truth_oracle_matches_relation(q3, rng):
    params = TypedPerpParams(m=0, k1=1, k2=1)
    oracle = ground_truth_oracle(params)
    a = line(q3, (0, 0, 0), (1, 0, 0))
    b = line(q3, (0, 0, 0), (0, 1, 0))
    assert oracle.query(a, b) == perp_m(a, b, params)


# ---------------------------------------------------------------------------
# common perpendicular feet


def test_feet_skew_axis_aligned(q3):
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    l2 = line(q3, (0, 0, 1), (0, 1, 0))
    assert common_perpendicular_feet(l1, l2) == (
        AffineSubspace.from_point(q3, qv(0, 0, 0)),
        AffineSubspace.from_point(q3, qv(0, 0, 1)),
    )


def test_feet_nontrivial_offsets(q3):
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    l2 = line(q3, (1, 1, 1), (0, 1, -1))
    q, p = common_perpendicular_feet(l1, l2)
    assert (q, p) == (
        AffineSubspace.from_point(q3, qv(1, 0, 0)),
        AffineSubspace.from_point(q3, qv(1, 1, 1)),
    )


def test_feet_intersecting_lines_coincide(q3):
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    l2 = line(q3, (0, 0, 0), (0, 0, 1))
    q, p = common_perpendicular_feet(l1, l2)
    assert q == p == AffineSubspace.from_point(q3, qv(0, 0, 0))


def test_feet_rejects_non_orthogonal_lines(q3):
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    l2 = line(q3, (0, 1, 0), (1, 1, 0))
    with pytest.raises(PreconditionError):
        common_perpendicular_feet(l1, l2)
    with pytest.raises(PreconditionError):
        common_perpendicular_feet(l1, l1)


def test_feet_rejects_non_lines(q3):
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    w = flat(q3, (0, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(PreconditionError):
        common_perpendicular_feet(l1, w)


def test_feet_under_weighted_form(q3_weighted, rng):
    # feet lie on their lines and the connecting segment is form-orthogonal
    # to both directions even when the form is not the dot product
    cfg = GenConfig(dim=3, seed=0, form="diag")
    for _ in range(25):
        l1, l2 = gen_line_pair(cfg, rng, orthogonal=True)
        q, p = common_perpendicular_feet(l1, l2)
        assert is_subflat(q, l1) and is_subflat(p, l2)
        w = vec_sub(rational_point(p), rational_point(q))
        for ln in (l1, l2):
            assert bilinear_eval(q3_weighted, w, rational_basis(ln.direction)[0]) == 0


def test_feet_have_positive_denominators_when_a_direction_has_negative_norm(
    monkeypatch,
):
    # the feet need only anisotropic lines: under diag(1, 1, -3), admitted
    # here, l1's direction e3 has norm -3, and its foot is stored as the
    # same point is stored everywhere else, over a positive denominator
    monkeypatch.setattr(linalg_module, "is_positive_definite", lambda form: True)
    space = linalg_module.QuadraticSpace.diagonal([1, 1, -3])
    l1 = line(space, (1, 2, 0), (0, 0, 1))
    l2 = line(space, (0, 0, 5), (1, 0, 0))
    q, p = common_perpendicular_feet(l1, l2)
    assert q.int_point == ((1, 2, 5), 1)
    assert (q, p) == (
        AffineSubspace.from_point(space, qv(1, 2, 5)),
        AffineSubspace.from_point(space, qv(1, 0, 5)),
    )


# ---------------------------------------------------------------------------
# extension witness


def test_lemma1_witness_zero_extension_is_identity(q3):
    y1 = line(q3, (0, 0, 0), (1, 0, 0))
    x2 = flat(q3, (0, 0, 0), (0, 1, 0), (0, 0, 1))
    assert lemma1_witness(y1, x2, 0) == y1


def test_lemma1_witness_orthogonal_instance(q4):
    y1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    x1 = lemma1_witness(y1, x2, 1)
    assert x1.dim == 2
    assert is_subflat(y1, x1)
    cut = meet(x1, x2)
    assert cut is not None and cut.dim == 1
    assert perp_m(x1, x2, TypedPerpParams(m=1, k1=2, k2=2))


def test_lemma1_witness_without_orthogonality(q4):
    # the extension exists and has the right meet even for tilted y1;
    # only the typed-relation verdict changes
    y1 = line(q4, (0, 0, 0, 0), (1, 1, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    x1 = lemma1_witness(y1, x2, 1)
    assert x1.dim == 2 and is_subflat(y1, x1)
    cut = meet(x1, x2)
    assert cut is not None and cut.dim == 1
    assert not perp_m(x1, x2, TypedPerpParams(m=1, k1=2, k2=2))


def test_lemma1_witness_randomized_choice(q4, rng):
    y1 = line(q4, (1, 0, 0, 0), (1, 0, 0, 0))
    x2 = flat(q4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    for _ in range(10):
        x1 = lemma1_witness(y1, x2, 1, rng)
        assert x1.dim == 2 and is_subflat(y1, x1)
        cut = meet(x1, x2)
        assert cut is not None and cut.dim == 1


def test_lemma1_witness_preconditions(q3):
    y1 = line(q3, (0, 0, 0), (1, 0, 0))
    x2 = flat(q3, (0, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(PreconditionError):
        lemma1_witness(y1, x2, -1)
    with pytest.raises(PreconditionError):
        lemma1_witness(y1, x2, 3)
    with pytest.raises(PreconditionError):
        lemma1_witness(y1, x2, 2)
    point = AffineSubspace.from_points(q3, [qv(0, 0, 0)])
    with pytest.raises(PreconditionError):
        lemma1_witness(point, x2, 1)
    off = line(q3, (0, 1, 0), (1, 0, 0))
    with pytest.raises(PreconditionError):
        lemma1_witness(off, flat(q3, (0, 0, 0), (1, 0, 0), (0, 0, 1)), 1)


@pytest.mark.parametrize("m", [0, 1])
def test_lemma1_witness_rejects_a_line_meet(q4, m):
    # y1 inside x2: they meet in y1 itself, a line, not a point
    y1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(PreconditionError, match="single point"):
        lemma1_witness(y1, x2, m)


# ---------------------------------------------------------------------------
# point-meet decision through the typed oracle


def test_decide_perp0_orthogonal_both_modes(q4, rng):
    params = TypedPerpParams(m=1, k1=2, k2=2)
    y1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    oracle = ground_truth_oracle(params)
    assert decide_perp0(y1, x2, oracle, ReconstructionMode.witness())
    assert decide_perp0(y1, x2, oracle, ReconstructionMode.sampled(5), rng)


def test_decide_perp0_tilted_is_false(q4):
    params = TypedPerpParams(m=1, k1=2, k2=2)
    y1 = line(q4, (0, 0, 0, 0), (1, 1, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    oracle = ground_truth_oracle(params)
    assert decide_perp0(y1, x2, oracle, ReconstructionMode.witness()) is False
    # the first rejected candidate ends the sampled conjunction
    oracle, calls = counting_oracle(params)
    s = decide_perp0(
        y1, x2, oracle, ReconstructionMode.sampled(5), random.Random(7)
    )
    assert s is False
    assert len(calls) == 1


def test_decide_perp0_witness_asks_the_cover(q4):
    # k2 - m = 1: the first T is x2's second row, the second T its first
    params = TypedPerpParams(m=1, k1=2, k2=2)
    y1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    asked = []
    oracle = PerpOracle(params, lambda a, b: asked.append(a) or perp_m(a, b, params))
    assert decide_perp0(y1, x2, oracle, ReconstructionMode.witness())
    assert [meet(a, x2) for a in asked] == [
        line(q4, (0, 0, 0, 0), (0, 0, 1, 0)),
        line(q4, (0, 0, 0, 0), (0, 1, 0, 0)),
    ]


def _distinct_draws(x2, m, samples, seed):
    """How many distinct m-subspaces of x2's direction `samples` draws of
    rand_subspace_of pick from random.Random(seed)."""
    rng = random.Random(seed)
    return len({rand_subspace_of(x2.direction, m, rng) for _ in range(samples)})


def test_decide_perp0_sampled_stops_at_the_cover(q4):
    # every distinct candidate once, since y1 ⊔ T determines
    # T = (y1 ⊔ T) ⊓ x2, until the T's asked meet only in zero: two
    # distinct lines of the plane x2 do, and every later candidate would
    # pass, so it is drawn but not asked
    params = TypedPerpParams(m=1, k1=2, k2=2)
    y1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    oracle, calls = counting_oracle(params)
    assert _distinct_draws(x2, 1, 20, 12345) == 10
    rng, bare = random.Random(12345), random.Random(12345)
    assert decide_perp0(y1, x2, oracle, ReconstructionMode.sampled(20), rng)
    assert len(calls) == 2
    for _ in range(20):
        rand_subspace_of(x2.direction, 1, bare)
    assert rng.getstate() == bare.getstate()


def test_decide_perp0_zero_meet_queries_directly(q3):
    params = TypedPerpParams(m=0, k1=1, k2=1)
    oracle, calls = counting_oracle(params)
    a = line(q3, (0, 0, 0), (1, 0, 0))
    b = line(q3, (0, 0, 0), (0, 1, 0))
    c = line(q3, (0, 0, 0), (1, 1, 0))
    assert decide_perp0(a, b, oracle, ReconstructionMode.sampled(9))
    assert len(calls) == 1
    assert not decide_perp0(a, c, oracle, ReconstructionMode.witness())


def test_decide_perp0_checks_dimension_type(q4):
    params = TypedPerpParams(m=1, k1=3, k2=2)
    y1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(PreconditionError):
        decide_perp0(y1, x2, ground_truth_oracle(params), ReconstructionMode.witness())


POINT_MEET_MODES = pytest.mark.parametrize(
    "params, mode",
    [
        (TypedPerpParams(m=1, k1=2, k2=2), ReconstructionMode.witness()),
        (TypedPerpParams(m=1, k1=2, k2=2), ReconstructionMode.sampled(3)),
        (TypedPerpParams(m=0, k1=1, k2=2), ReconstructionMode.sampled(3)),
    ],
    ids=["witness", "sampled", "sampled-m0"],
)


@POINT_MEET_MODES
def test_decide_perp0_requires_point_meet(q4, params, mode):
    # the line misses the plane: no common point in either mode, even for
    # m = 0 where the oracle could be asked about (y1, x2) directly
    y1 = line(q4, (0, 0, 0, 1), (1, 0, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(PreconditionError):
        decide_perp0(y1, x2, ground_truth_oracle(params), mode)


@POINT_MEET_MODES
def test_decide_perp0_rejects_a_line_meet(q4, params, mode):
    # the line lies inside the plane: they meet in the whole line
    y1 = line(q4, (0, 0, 0, 0), (0, 1, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    oracle, calls = counting_oracle(params)
    with pytest.raises(PreconditionError, match="single point"):
        decide_perp0(y1, x2, oracle, mode)
    assert calls == []


def _form_reads_outside(monkeypatch, reads):
    """Record in reads every read of a direction's form or complement rows,
    the one place the package makes a product with the form, except inside
    a query to an oracle that the returned function has wrapped."""
    asking = []
    for name in ("form_rows", "complement_rows"):
        real = getattr(LinearSubspace, name)

        def reading(self, space, name=name, real=real):
            if not asking:
                reads.append(name)
            return real(self, space)

        monkeypatch.setattr(LinearSubspace, name, reading)

    def allowed(oracle):
        def query(x1, x2):
            asking.append(1)
            try:
                return oracle.query(x1, x2)
            finally:
                asking.pop()

        return PerpOracle(oracle.params, query)

    return allowed


@pytest.mark.parametrize("form", NAMED_FORMS)
def test_the_decide_stage_reads_no_form(monkeypatch, form):
    # point-meet pairs of every satisfiable type in dims 3-6, orthogonal
    # and tilted, judged before the count starts; the ground-truth oracle
    # reads the form in its queries
    rng = random.Random(form)
    pairs = []
    for n in range(3, 7):
        space = space_of(GenConfig(dim=n, form=form))
        for m in range(n):
            for k1, k2 in itertools.product(range(m + 1, n + 1), repeat=2):
                params = TypedPerpParams(m, k1, k2)
                if not params.satisfiable_in(n):
                    continue
                y1, x2 = make_perp_pair(space, TypedPerpParams(0, k1 - m, k2), rng)
                pairs += [(params, y1, x2), (params, tilted(y1, x2), x2)]
    assert len(pairs) == 2 * (4 + 10 + 20 + 35)
    want = [perp_x(y1, x2) for _, y1, x2 in pairs]
    assert want == [True, False] * (len(pairs) // 2)
    reads = []
    allowed = _form_reads_outside(monkeypatch, reads)
    modes = (ReconstructionMode.witness(), ReconstructionMode.sampled(5))
    for ((params, y1, x2), truth), mode in itertools.product(zip(pairs, want), modes):
        oracle = allowed(ground_truth_oracle(params))
        assert decide_perp0(y1, x2, oracle, mode, rng) == truth
    assert reads == []
    # an always-true oracle is asked each flat of the cover, an always-false
    # one only the first
    for params, y1, x2 in pairs:
        cover = -(-params.k2 // (params.k2 - params.m))
        for answer, asked in ((True, cover), (False, 1)):
            calls = []
            oracle = PerpOracle(params, lambda a, b: calls.append(1) or answer)
            assert decide_perp0(y1, x2, oracle, modes[0]) is answer
            assert len(calls) == asked
    assert reads == []
    # the count is live: lemma 1 builds its T from the form
    params, y1, x2 = pairs[-1]
    lemma1_witness(y1, x2, params.m)
    assert "form_rows" in reads


# ---------------------------------------------------------------------------
# wrapping witness for line pairs


def test_lemma2_witness_skew_lines_q3(q3):
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    l2 = line(q3, (0, 0, 1), (0, 1, 0))
    x1, x2 = lemma2_witness(l1, l2, 1, 2)
    assert x1 == l1
    assert x2 == flat(q3, (0, 0, 1), (0, 1, 0), (0, 0, 1))
    assert perp_x(x1, x2)


def test_lemma2_witness_intersecting_lines(q4):
    l1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    l2 = line(q4, (0, 0, 0, 0), (0, 1, 0, 0))
    x1, x2 = lemma2_witness(l1, l2, 1, 2)
    assert x1.dim == 1 and x2.dim == 2
    assert is_subflat(l1, x1) and is_subflat(l2, x2)
    assert perp_x(x1, x2)


def test_lemma2_witness_randomized(rng):
    cfg = GenConfig(dim=5, seed=0, form="tridiag")
    for _ in range(15):
        l1, l2 = gen_line_pair(cfg, rng, orthogonal=True)
        x1, x2 = lemma2_witness(l1, l2, 2, 3, rng)
        assert x1.dim == 2 and x2.dim == 3
        assert is_subflat(l1, x1) and is_subflat(l2, x2)
        assert perp_x(x1, x2)


def test_lemma2_witness_rejects_line_against_line(q3):
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    l2 = line(q3, (0, 0, 1), (0, 1, 0))
    with pytest.raises(PreconditionError):
        lemma2_witness(l1, l2, 1, 1)
    with pytest.raises(PreconditionError):
        lemma2_witness(l1, l2, 0, 2)


def test_lemma2_witness_needs_room(q3):
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    l2 = line(q3, (0, 0, 1), (0, 1, 0))
    with pytest.raises(PreconditionError):
        lemma2_witness(l1, l2, 2, 2)


def test_lemma2_witness_rejects_oblique_lines(q4):
    l1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    l2 = line(q4, (0, 0, 0, 1), (1, 1, 0, 0))
    with pytest.raises(PreconditionError):
        lemma2_witness(l1, l2, 1, 2)


# ---------------------------------------------------------------------------
# end-to-end line decision


def test_reconstruct_axes_true_lowest_type(q2):
    params = TypedPerpParams(m=0, k1=1, k2=1)
    oracle = ground_truth_oracle(params)
    l1 = line(q2, (0, 0), (1, 0))
    l2 = line(q2, (0, 1), (0, 1))
    for mode in (ReconstructionMode.witness(), ReconstructionMode.sampled(4)):
        assert reconstruct_line_perp(l1, l2, params, oracle, mode)


def test_reconstruct_oblique_false(q4):
    params = TypedPerpParams(m=1, k1=2, k2=2)
    oracle = ground_truth_oracle(params)
    l1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    l2 = line(q4, (0, 0, 1, 0), (1, 1, 0, 0))
    assert not reconstruct_line_perp(
        l1, l2, params, oracle, ReconstructionMode.witness()
    )


def test_reconstruct_parallel_lines_false(q3):
    params = TypedPerpParams(m=0, k1=1, k2=1)
    oracle = ground_truth_oracle(params)
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    l2 = line(q3, (0, 1, 0), (1, 0, 0))
    assert not reconstruct_line_perp(
        l1, l2, params, oracle, ReconstructionMode.witness()
    )


def test_reconstruct_swaps_oversized_first_slot(rng):
    cfg = GenConfig(dim=5, seed=0)
    l1, l2 = gen_line_pair(cfg, rng, orthogonal=True)
    straight = TypedPerpParams(m=1, k1=2, k2=3)
    flipped = TypedPerpParams(m=1, k1=3, k2=2)
    mode = ReconstructionMode.witness()
    a = reconstruct_line_perp(l1, l2, straight, ground_truth_oracle(straight), mode)
    b = reconstruct_line_perp(l1, l2, flipped, ground_truth_oracle(flipped), mode)
    assert a is True and b is True


def test_reconstruct_agrees_with_direct_check(rng):
    cfg = GenConfig(dim=4, seed=0)
    params = TypedPerpParams(m=1, k1=2, k2=2)
    oracle = ground_truth_oracle(params)
    for i in range(30):
        l1, l2 = gen_line_pair(cfg, rng, orthogonal=(i % 2 == 0))
        truth = line_perp_ground_truth(l1, l2)
        w = reconstruct_line_perp(
            l1, l2, params, oracle, ReconstructionMode.witness()
        )
        s = reconstruct_line_perp(
            l1, l2, params, oracle, ReconstructionMode.sampled(8), rng
        )
        assert w == truth
        # sampled answers: false is sound, so a true instance never samples false
        assert not (truth and not s)


# a line against a line, a wrapped type, and one whose first flat is the
# larger
JUDGED_TYPES = (
    TypedPerpParams(m=0, k1=1, k2=1),
    TypedPerpParams(m=1, k1=2, k2=2),
    TypedPerpParams(m=1, k1=3, k2=2),
)


@pytest.mark.parametrize("mode", ["witness", "sampled", "both"])
def test_judge_line_pair_runs_the_modes_asked_for(mode):
    cfg = GenConfig(dim=4, seed=0)
    for params in JUDGED_TYPES:
        oracle = ground_truth_oracle(params)
        for i in range(12):
            l1, l2 = gen_line_pair(cfg, random.Random(i), orthogonal=(i % 2 == 0))
            got = judge_line_pair(l1, l2, params, mode, 5, random.Random(100 + i))
            rng = random.Random(100 + i)
            want_w = want_s = None
            if mode != "sampled":
                want_w = reconstruct_line_perp(
                    l1, l2, params, oracle, ReconstructionMode.witness()
                )
            if mode != "witness":
                want_s = reconstruct_line_perp(
                    l1, l2, params, oracle, ReconstructionMode.sampled(5), rng
                )
            truth = line_perp_ground_truth(l1, l2)
            assert got == LinePairVerdicts(truth, want_w, want_s)


@pytest.mark.parametrize("mode", ["witnes", "Both", "", "none"])
def test_judge_line_pair_rejects_an_unknown_mode(mode):
    l1, l2 = gen_line_pair(GenConfig(dim=4, seed=0), random.Random(0), orthogonal=True)
    with pytest.raises(InputError, match="unknown mode"):
        judge_line_pair(l1, l2, JUDGED_TYPES[1], mode, 5, random.Random(0))


@pytest.mark.parametrize(
    "params", JUDGED_TYPES[1:], ids=lambda p: f"{p.m}-{p.k1}-{p.k2}"
)
def test_judge_line_pair_wraps_each_pair_once(monkeypatch, params):
    calls = []
    real = reconstruct_module._wrapping_pair

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(reconstruct_module, "_wrapping_pair", counting)
    cfg = GenConfig(dim=4, seed=0)
    for i in range(12):
        l1, l2 = gen_line_pair(cfg, random.Random(i), orthogonal=(i % 2 == 0))
        judge_line_pair(l1, l2, params, "both", 5, random.Random(100 + i))
    # the wrap refuses the skew pairs itself: only the 6 orthogonal pairs
    # are padded, once each
    assert len(calls) == 6


@pytest.mark.parametrize("form", NAMED_FORMS)
@pytest.mark.parametrize(
    "params, orthogonal, products",
    [
        # l2's direction (the wrap's test and the truth) and the wrapped
        # x2's (the self-check and the oracle); the padding reads l1's, made
        # when the generator drew l2 from l1's complement
        (TypedPerpParams(1, 2, 3), True, 2),
        # l2's direction: the wrap's test refuses, the truth reuses them
        (TypedPerpParams(1, 2, 3), False, 1),
        # l2's direction, shared by the origin line that both modes ask
        # about, and read again by the truth
        (TypedPerpParams(0, 1, 1), True, 1),
        (TypedPerpParams(0, 1, 1), False, 1),
    ],
    ids=["123-orthogonal", "123-skew", "011-orthogonal", "011-skew"],
)
def test_a_judged_pair_forms_each_directions_rows_once(
    monkeypatch, form, params, orthogonal, products
):
    calls = []
    real = linalg_module._times_form

    def counting(rows, space):
        calls.append(rows)
        return real(rows, space)

    monkeypatch.setattr(linalg_module, "_times_form", counting)
    cfg = GenConfig(dim=6, seed=0, form=form)
    for i in range(10):
        l1, l2 = gen_line_pair(cfg, random.Random(i), orthogonal=orthogonal)
        calls.clear()
        judge_line_pair(l1, l2, params, "both", 20, random.Random(100 + i))
        assert len(calls) == products
        assert len(set(calls)) == len(calls)


@pytest.mark.parametrize(
    "params", JUDGED_TYPES[1:], ids=lambda p: f"{p.m}-{p.k1}-{p.k2}"
)
def test_a_failing_lemma2_on_orthogonal_lines_is_not_a_verdict(monkeypatch, params):
    # the wrap refuses skew pairs by its own test, so a precondition failure
    # inside lemma 2's padding is a fault and must escape, not read as False
    def failing(*args, **kwargs):
        raise PreconditionError("planted")

    monkeypatch.setattr(reconstruct_module, "_wrapping_pair", failing)
    l1, l2 = gen_line_pair(GenConfig(dim=4, seed=0), random.Random(0), orthogonal=True)
    with pytest.raises(PreconditionError, match="planted"):
        judge_line_pair(l1, l2, params, "both", 5, random.Random(0))


@pytest.mark.parametrize(
    "verdicts, agrees, contradicts",
    [
        (LinePairVerdicts(True, True, True), True, False),
        (LinePairVerdicts(True, True, False), True, True),
        # witness mode, when it ran, is the reference for sampled mode
        (LinePairVerdicts(False, True, False), False, True),
        (LinePairVerdicts(True, False, False), False, False),
        # sampled mode alone is judged against the truth
        (LinePairVerdicts(True, None, False), False, True),
        (LinePairVerdicts(False, None, False), False, False),
        # a mode that did not run contradicts nothing
        (LinePairVerdicts(True, True, None), True, False),
    ],
)
def test_line_pair_verdict_comparisons(verdicts, agrees, contradicts):
    assert verdicts.witness_agrees is agrees
    assert verdicts.sampled_contradicts is contradicts


def test_reconstruct_input_validation(q3):
    params = TypedPerpParams(m=2, k1=3, k2=3)
    oracle = ground_truth_oracle(params)
    l1 = line(q3, (0, 0, 0), (1, 0, 0))
    l2 = line(q3, (0, 0, 1), (0, 1, 0))
    with pytest.raises(InputError):
        reconstruct_line_perp(l1, l2, params, oracle, ReconstructionMode.witness())
    good = TypedPerpParams(m=0, k1=1, k2=1)
    with pytest.raises(InputError):
        reconstruct_line_perp(
            l1, l2, good, ground_truth_oracle(TypedPerpParams(m=0, k1=1, k2=2)),
            ReconstructionMode.witness(),
        )
    w = flat(q3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(InputError):
        reconstruct_line_perp(
            w, l2, good, ground_truth_oracle(good), ReconstructionMode.witness()
        )


def test_line_perp_ground_truth_examples(q3):
    a = line(q3, (0, 0, 0), (1, 0, 0))
    b = line(q3, (5, 5, 5), (0, 1, 0))
    c = line(q3, (0, 0, 0), (1, 1, 0))
    assert line_perp_ground_truth(a, b)
    assert not line_perp_ground_truth(a, c)


# ---------------------------------------------------------------------------
# the integer feet and ground truth against the rational formula


def _custom_form(n):
    """A dense rational form, diagonally dominant hence positive definite."""
    def entry(i, j):
        return {0: "5/2", 1: "1/3", 2: "-1/7"}.get(abs(i - j), "0")

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def _reference_feet(l1, l2):
    """The feet by the rational formula: q = p1 + s d1, p = p2 + t d2."""
    space = l1.space
    d1 = rational_basis(l1.direction)[0]
    d2 = rational_basis(l2.direction)[0]
    delta = vec_sub(rational_point(l2), rational_point(l1))
    s = bilinear_eval(space, delta, d1) / bilinear_eval(space, d1, d1)
    t = -bilinear_eval(space, delta, d2) / bilinear_eval(space, d2, d2)
    return (
        vec_add(rational_point(l1), vec_scale(s, d1)),
        vec_add(rational_point(l2), vec_scale(t, d2)),
    )


def _reference_truth(l1, l2):
    (d1,), (d2,) = rational_basis(l1.direction), rational_basis(l2.direction)
    return bilinear_eval(l1.space, d1, d2) == 0


FEET_FORMS = ["identity", "diag", "tridiag", "custom"]


@pytest.mark.parametrize("form", FEET_FORMS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_integer_feet_match_the_rational_formula(n, form):
    cfg = GenConfig(dim=n, seed=0, form=_custom_form(n) if form == "custom" else form)
    rng = random.Random(f"feet:{n}:{form}")
    skew = 0
    for i in range(24):
        l1, l2 = gen_line_pair(cfg, rng, orthogonal=True)
        if i % 3 == 0:
            # cross: move l2 through a point of l1
            l2 = translate_through(l2, random_point_of(l1, rng))
        q, p = common_perpendicular_feet(l1, l2)
        assert (rational_point(q), rational_point(p)) == _reference_feet(l1, l2)
        assert is_subflat(q, l1) and is_subflat(p, l2)
        if i % 3 == 0:
            assert q == p
        skew += q != p
    # dimension 2 has no skew lines; above it most drawn pairs are skew
    assert skew == 0 if n == 2 else skew >= 8


@pytest.mark.parametrize("form", FEET_FORMS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_integer_feet_refuse_non_orthogonal_lines(n, form):
    cfg = GenConfig(dim=n, seed=0, form=_custom_form(n) if form == "custom" else form)
    rng = random.Random(f"oblique:{n}:{form}")
    refused = 0
    for _ in range(12):
        l1, l2 = gen_line_pair(cfg, rng, orthogonal=False)
        if _reference_truth(l1, l2):
            continue
        with pytest.raises(PreconditionError):
            common_perpendicular_feet(l1, l2)
        refused += 1
    assert refused >= 6


def test_line_ground_truth_matches_the_rational_form():
    rng = random.Random("ground-truth")
    seen = {True: 0, False: 0}
    for i in range(200):
        n = 2 + i % 5
        form = FEET_FORMS[i // 5 % 4]
        cfg = GenConfig(dim=n, seed=0, form=_custom_form(n) if form == "custom" else form)
        l1, l2 = gen_line_pair(cfg, rng, orthogonal=i % 2 == 0)
        want = _reference_truth(l1, l2)
        assert line_perp_ground_truth(l1, l2) == want
        assert line_perp_ground_truth(l2, l1) == want
        seen[want] += 1
    assert min(seen.values()) >= 90


# ---------------------------------------------------------------------------
# the sampled candidates are pinned


A_RECON_GRID = ((0, 1, 1), (1, 2, 2), (1, 2, 3), (2, 3, 3))

# sha256 over every queried candidate's wire form and the queries per pair,
# and sha256 over the rng state after each pair, over the grid below.  A
# sampled decision asks about each distinct candidate once until those
# asked cover x2, but draws as one candidate per draw does
# (_reference_sampled below), so the states are those of asking every draw.
PINNED_SAMPLED_CANDIDATES = (
    "d8709d516b3c498f012a2e434721d6556a97b5a4c3996214d61435deae5828e1"
)
PINNED_SAMPLED_RNG_STATES = (
    "a3aa22d776ab02d8e3b690181d5e3193d32bbc07b9d6572f38d4d8af7e125615"
)


def test_sampled_candidates_are_pinned():
    queries, states = hashlib.sha256(), hashlib.sha256()
    for m, k1, k2 in A_RECON_GRID:
        params = TypedPerpParams(m, k1, k2)
        for n in range(k1 + k2 - m, 7):
            for form in NAMED_FORMS:
                cfg = GenConfig(dim=n, seed=0, form=form, perp_params=params)
                for seed in range(10):
                    rng = random.Random(seed)
                    l1, l2 = gen_line_pair(cfg, rng, orthogonal=seed % 2 == 0)
                    queried = []

                    def query(a, b):
                        queried.append([a.to_wire(), b.to_wire()])
                        return perp_m(a, b, params)

                    reconstruct_line_perp(
                        l1, l2, params, PerpOracle(params, query),
                        ReconstructionMode.sampled(20), rng,
                    )
                    queries.update(json.dumps(queried, sort_keys=True).encode())
                    queries.update(f"{len(queried)}".encode())
                    states.update(repr(rng.getstate()).encode())
    assert queries.hexdigest() == PINNED_SAMPLED_CANDIDATES
    assert states.hexdigest() == PINNED_SAMPLED_RNG_STATES


# ---------------------------------------------------------------------------
# the wrap stage tests the lines as given and moves only what it hands on


# the A-RECON grid and three types whose first flat is the larger one
WRAP_TYPES = (*A_RECON_GRID, (0, 3, 2), (1, 3, 2), (0, 2, 1))


def _a_recon_configs(types=A_RECON_GRID):
    """Each type of the A-RECON grid, or of types, with each dimension up
    to 6 that admits it and each named form."""
    for m, k1, k2 in types:
        params = TypedPerpParams(m, k1, k2)
        for n in range(k1 + k2 - m, 7):
            for form in NAMED_FORMS:
                yield params, GenConfig(dim=n, seed=0, form=form, perp_params=params)


def _moved(l, rng):
    """l moved by a random integer vector."""
    u, e = l.int_point
    nums = [a + e * rng.randint(-9, 9) for a in u]
    return AffineSubspace._canonical(l.space, nums, e, l.direction)


def _wrap_inputs(cfg, seed):
    """Line pairs from one seed: a generated pair, orthogonal on even seeds,
    and the first line against a parallel translate of itself."""
    rng = random.Random(seed)
    l1, l2 = gen_line_pair(cfg, rng, orthogonal=seed % 2 == 0)
    return rng, [(l1, l2), (l1, _moved(l1, rng))]


def test_the_wrap_moves_only_the_pairs_it_hands_on(monkeypatch):
    """Over the A-RECON grid, neither a k2 = 1 pair nor a refused k2 > 1
    pair canonicalizes a flat or takes a point difference in the wrap."""
    counts = Counter()
    canonical = AffineSubspace._canonical.__func__
    difference = reconstruct_module._point_difference

    def counting_canonical(cls, *args):
        counts["_canonical"] += 1
        return canonical(cls, *args)

    def counting_difference(*args):
        counts["_point_difference"] += 1
        return difference(*args)

    monkeypatch.setattr(AffineSubspace, "_canonical", classmethod(counting_canonical))
    monkeypatch.setattr(reconstruct_module, "_point_difference", counting_difference)
    seen = Counter()
    for params, cfg in _a_recon_configs():
        for seed in range(10):
            _, pairs = _wrap_inputs(cfg, seed)
            for l1, l2 in pairs:
                counts.clear()
                core = reconstruct_module._wrap_line_pair(l1, l2, params)
                kind = (params.k2 == 1, core is None)
                seen[kind] += 1
                if kind != (False, False):
                    assert not counts, (params, cfg.dim, cfg.form, seed)
    # both kinds of k2 = 1 pair, and refused and wrapped k2 > 1 pairs
    assert len(seen) == 4


def test_the_wrap_is_translation_invariant():
    """Moving each line by its own vector leaves the refused pairs refused
    and hands on the same pair for the others, for every type, the ones
    whose first flat is the larger included."""
    seen = Counter()
    for params, cfg in _a_recon_configs(WRAP_TYPES):
        for seed in range(10):
            rng, pairs = _wrap_inputs(cfg, seed)
            for l1, l2 in pairs:
                core = reconstruct_module._wrap_line_pair(l1, l2, params)
                moved = reconstruct_module._wrap_line_pair(
                    _moved(l1, rng), _moved(l2, rng), params
                )
                assert moved == core, (params, cfg.dim, cfg.form, seed)
                seen[params.k2 == 1, core is None] += 1
    assert len(seen) == 4
    assert seen[False, False] + seen[True, False] == 439


def test_a_judged_pair_solves_no_feet_and_tests_orthogonality_twice(monkeypatch):
    """Over the A-RECON grid, judging a pair tests its directions for
    orthogonality in the wrap, for a type other than (0, 1, 1), and for
    the truth, and nowhere else: the wrap's lines cross, so it solves for
    no feet."""
    counts = Counter()
    for name in ("perp_subspaces", "common_perpendicular_feet"):
        real = getattr(reconstruct_module, name)

        def counting(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(reconstruct_module, name, counting)
    seen = Counter()
    for params, cfg in _a_recon_configs():
        for seed in range(10):
            rng, pairs = _wrap_inputs(cfg, seed)
            for l1, l2 in pairs:
                counts.clear()
                verdicts = judge_line_pair(l1, l2, params, "both", 5, rng)
                tests = 1 + (params.k2 > 1)
                assert counts == {"perp_subspaces": tests}, (params, cfg, seed)
                seen[params.k2 > 1, verdicts.witness] += 1
    # both verdicts for each kind of type
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# the sampled decision against one candidate per draw


def _reference_sampled(y1, x2, oracle, samples, rng):
    """The sampled loop with one _rand_extension candidate per draw and
    every candidate asked, repeats included."""
    for _ in range(samples):
        direction = _rand_extension(y1.direction, x2.direction, oracle.params.m, rng)
        candidate = AffineSubspace._canonical(y1.space, *y1.int_point, direction)
        if not oracle.query(candidate, x2):
            return False
    return True


def _cover_count(m, k2, samples, rng):
    """How many distinct T's of `samples` draws from rng a sampled decision
    that no reply refuses asks: those up to and including the first at
    which the annihilators of their coefficient rows reach rank k2, so the
    T's meet only in zero, else all.  Ranks are taken in plain rationals;
    every draw is made, so rng is left as the decision leaves it."""
    draws = [ortho_module._reduced_draw((), None, m, k2, rng) for _ in range(samples)]
    annihilators = []
    for count, (coeffs, _) in enumerate(dict.fromkeys(draws), 1):
        annihilators += rational_kernel(coeffs, k2)
        if len(rational_rref(annihilators, k2)[1]) == k2:
            return count
    return len(set(draws))


def _recording_oracles(params):
    """The ground-truth, always-true and always-false oracles of params,
    each logging the wire form of every query into the returned list."""
    answers = (ground_truth_oracle(params).query, lambda a, b: True, lambda a, b: False)
    log = []

    def recording(answer):
        def query(a, b):
            log.append(json.dumps([a.to_wire(), b.to_wire()], sort_keys=True))
            return answer(a, b)

        return PerpOracle(params, query)

    return [recording(answer) for answer in answers], log


def test_sampled_decision_is_one_candidate_per_draw_without_repeats():
    types = [
        (n, TypedPerpParams(m, k1, k2))
        for n in range(3, 8)
        for m in range(1, n)
        for k1 in range(m + 1, n)
        for k2 in range(m + 1, n)
        if k1 + k2 - m <= n
    ]
    assert len(types) == 70
    asked = repeated = unasked = 0
    for n, params in types:
        for form in NAMED_FORMS:
            cfg = GenConfig(dim=n, seed=0, form=form)
            rng = random.Random(f"sampled-reference:{n}:{form}:{params}")
            # an orthogonal pair, and one in general position
            lifted = TypedPerpParams(0, params.k1 - params.m, params.k2)
            pairs = [
                make_perp_pair(space_of(cfg), lifted, rng),
                gen_pair_with_meet_dim(cfg, lifted.k1, lifted.k2, 0, rng),
            ]
            oracles, log = _recording_oracles(params)
            for (y1, x2), seed in itertools.product(pairs, range(2)):
                cover = _cover_count(params.m, params.k2, 20, random.Random(seed))
                for oracle in oracles:
                    got_rng, want_rng = random.Random(seed), random.Random(seed)
                    log.clear()
                    want = _reference_sampled(y1, x2, oracle, 20, want_rng)
                    want_log = list(dict.fromkeys(log))
                    repeated += len(log) - len(want_log)
                    log.clear()
                    mode = ReconstructionMode.sampled(20)
                    assert decide_perp0(y1, x2, oracle, mode, got_rng) == want
                    assert got_rng.getstate() == want_rng.getstate()
                    # the distinct candidates up to the cover, or the refusal
                    assert log == want_log[:cover]
                    asked += len(log)
                    unasked += len(want_log) - len(log)
    # the repeats the decision skips are a sizable share of the queries,
    # and so are the distinct candidates past the cover
    assert repeated > asked // 10
    assert unasked > asked


COVER_TYPES = ((1, 2, 2), (1, 2, 3), (2, 3, 3))


def test_a_sampled_decision_asks_up_to_the_cover():
    """On the wrapped orthogonal pairs of the k2 > 1 A-RECON types, a
    sampled decision asks the distinct draws up to the cover, the
    always-true oracle as many, the always-false one once, and leaves the
    rng as K bare draws do."""
    asked = Counter()
    for params, cfg in _a_recon_configs(COVER_TYPES):
        oracles, log = _recording_oracles(params)
        for seed in range(10):
            rng = random.Random(seed)
            core = reconstruct_module._wrap_line_pair(
                *gen_line_pair(cfg, rng, orthogonal=True), params
            )
            state = rng.getstate()
            bare = random.Random()
            bare.setstate(state)
            cover = _cover_count(params.m, params.k2, 20, bare)
            for oracle, verdict in zip(oracles, (True, True, False)):
                want_rng, got_rng = random.Random(), random.Random()
                want_rng.setstate(state)
                got_rng.setstate(state)
                log.clear()
                _reference_sampled(*core, oracle, 20, want_rng)
                want_log = list(dict.fromkeys(log))
                log.clear()
                mode = ReconstructionMode.sampled(20)
                assert decide_perp0(*core, oracle, mode, got_rng) is verdict
                assert log == want_log[: cover if verdict else 1]
                if verdict:
                    assert got_rng.getstate() == bare.getstate()
            asked[params.m, params.k2, cover] += 1
    # every decision covers x2: two distinct lines meet only in zero, and
    # so do three planes of a 3-space unless they share a line
    assert asked == {(1, 2, 2): 120, (1, 3, 2): 90, (2, 3, 3): 84, (2, 3, 4): 6}


def test_the_cover_keeps_the_verdicts_and_states_under_a_foreign_form():
    """On the decide-stage pairs of the foreign-form oracles, the tilted
    ones included, sampled decisions answer and leave the rng as asking
    every draw does."""
    decisions = 0
    for n, space_form, oracle_form, params, rng in grid(DECIDE_DIMS, DECIDE_FORM_PAIRS):
        oracle = foreign_oracle(params, oracle_form)
        for y1, x2, want in decide_pairs(n, space_form, oracle_form, params, rng):
            want_rng = random.Random()
            want_rng.setstate(rng.getstate())
            reference = _reference_sampled(y1, x2, oracle, 5, want_rng)
            got = decide_perp0(y1, x2, oracle, ReconstructionMode.sampled(5), rng)
            assert got == reference == want
            assert rng.getstate() == want_rng.getstate()
            decisions += 1
    assert decisions == 17496 // 2


def test_a_decision_that_never_covers_asks_every_distinct_draw():
    """One draw never covers x2 (m < k2), nor do two planes of a 3-space:
    the always-true oracle is then asked each distinct draw."""
    seen = Counter()
    for params, cfg in _a_recon_configs(COVER_TYPES):
        (_, oracle, _), log = _recording_oracles(params)
        for samples in (1, 2) if params.m == 2 else (1,):
            rng = random.Random(samples)
            core = reconstruct_module._wrap_line_pair(
                *gen_line_pair(cfg, rng, orthogonal=True), params
            )
            want_rng = random.Random()
            want_rng.setstate(rng.getstate())
            log.clear()
            _reference_sampled(*core, oracle, samples, want_rng)
            want_log = list(dict.fromkeys(log))
            log.clear()
            assert decide_perp0(*core, oracle, ReconstructionMode.sampled(samples), rng)
            assert log == want_log
            assert rng.getstate() == want_rng.getstate()
            seen[samples, len(log)] += 1
    assert seen == {(1, 1): 30, (2, 2): 9}


def test_a_collapsed_draw_fails_as_one_candidate_per_draw_did(q4):
    params = TypedPerpParams(m=1, k1=2, k2=2)
    y1 = line(q4, (0, 0, 0, 0), (1, 0, 0, 0))
    x2 = flat(q4, (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    oracle = ground_truth_oracle(params)
    raised = []
    for decide, samples in (
        (decide_perp0, ReconstructionMode.sampled(5)), (_reference_sampled, 5)
    ):
        rng = ZeroDraws()
        with pytest.raises(GenerationError) as info:
            decide(y1, x2, oracle, samples, rng)
        raised.append((str(info.value), rng.calls))
    assert raised[0] == raised[1] == ("no independent 1-subspace after 64 draws", 64 * 2)


# ---------------------------------------------------------------------------
# the witnesses against their constructions spelled out with public calls


def _reference_pick(w, k, rng):
    """k directions of w: its first canonical rows, or a random draw."""
    if rng is None:
        return rref_basis(rational_basis(w)[:k], w.ambient_dim)
    return rand_subspace_of(w, k, rng)


def _reference_lemma1(y1, x2, m, rng=None):
    """Join, the orthocomplement of y1 inside it, its meet with x2, then T
    joined to y1."""
    q = meet(y1, x2)
    if m == 0:
        return y1
    wx2 = meet(orthocomplement_in(y1, join(y1, x2), q), x2)
    t = AffineSubspace.make(
        y1.space, rational_point(q), _reference_pick(wx2.direction, m, rng)
    )
    return join(t, y1)


def _reference_lemma2(l1, l2, k1, k2, rng=None):
    """x2 from span(d2, w) padded inside the complement of span(d1, d2, w);
    x1 from l1 padded inside the complement of l1 within that of x2."""
    space = l1.space
    n = space.dim
    full = full_subspace(n)
    q, p = common_perpendicular_feet(l1, l2)
    w = vec_sub(rational_point(p), rational_point(q))
    d1, d2 = rational_basis(l1.direction)[0], rational_basis(l2.direction)[0]
    core2 = rref_basis([d2, w], n)
    comp2 = xi_complement(space, rref_basis([d1, d2, w], n), full)
    dir2 = subspace_sum(core2, _reference_pick(comp2, k2 - core2.rank, rng))
    rest1 = xi_complement(space, l1.direction, xi_complement(space, dir2, full))
    dir1 = subspace_sum(l1.direction, _reference_pick(rest1, k1 - 1, rng))
    return (
        AffineSubspace.make(space, rational_point(q), dir1),
        AffineSubspace.make(space, rational_point(p), dir2),
    )


def _same_with_and_without_rng(fn, reference, args, seed):
    """fn and reference give equal results, with no rng and with equal rngs,
    and leave the rngs in equal states."""
    assert fn(*args) == reference(*args)
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    assert fn(*args, got_rng) == reference(*args, want_rng)
    assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("form", NAMED_FORMS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_witnesses_match_their_reference_routes(n, form):
    types = [
        TypedPerpParams(m, k1, k2)
        for k2 in range(1, n)
        for k1 in range(1, k2 + 1)
        for m in range(k1)
        if k1 + k2 - m <= n
    ]
    checked = 0
    for params in types:
        cfg = GenConfig(dim=n, seed=0, form=form)
        rng = random.Random(f"witness-reference:{n}:{form}:{params}")
        k1p = params.k1 - params.m
        for i in range(3):
            # lemma 1 on a pair in general position meeting in a point
            y1, x2 = gen_pair_with_meet_dim(cfg, k1p, params.k2, 0, rng)
            _same_with_and_without_rng(
                lemma1_witness, _reference_lemma1, (y1, x2, params.m), i
            )
            if params.k2 == 1:
                continue
            l1, l2 = gen_line_pair(cfg, rng, orthogonal=True)
            if i == 0:
                l2 = translate_through(l2, random_point_of(l1, rng))
            args = (l1, l2, k1p, params.k2)
            _same_with_and_without_rng(lemma2_witness, _reference_lemma2, args, i)
            # lemma 1 on the wrapping pair, as reconstruction asks it
            x1, x2 = lemma2_witness(*args, random.Random(i))
            _same_with_and_without_rng(
                lemma1_witness, _reference_lemma1, (x1, x2, params.m), i
            )
            checked += 1
    assert checked == 3 * sum(params.k2 > 1 for params in types)


# ---------------------------------------------------------------------------
# eliminations per construction


def _count_eliminations(monkeypatch):
    """Every _rref_int and _forward_steps call the package makes from now
    on, by name: each is patched wherever an orthokernel module binds it."""
    calls = []
    modules = package_modules()
    for name in ("_rref_int", "_forward_steps"):
        real = getattr(linalg_module, name)

        def counting(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("m", [0, 1, 2])
def test_a_pair_draw_is_counted_through_the_generators(monkeypatch, m):
    # per accepted draw one forward pass for the rank test and one
    # reduction per direction, and one more for the m-dimensional base;
    # the generators bind _forward_steps themselves
    cfg = GenConfig(dim=6, seed=0, form="tridiag")
    calls = _count_eliminations(monkeypatch)
    gen_pair_with_meet_dim(cfg, 3, 3, m, random.Random(9))
    assert calls.count("_forward_steps") == 1
    assert calls.count("_rref_int") == 2 + (m > 0)
    assert len(calls) == 3 + (m > 0)


def _lines_to_wrap():
    cfg = GenConfig(dim=6, seed=0, form="tridiag")
    return gen_line_pair(cfg, random.Random(3), orthogonal=True)


def test_sampled_candidates_take_one_elimination_each(monkeypatch):
    params = TypedPerpParams(m=1, k1=2, k2=3)
    x1, x2 = lemma2_witness(*_lines_to_wrap(), 1, 3)
    asked = _cover_count(1, 3, 20, random.Random(5))
    assert asked == 2 < _distinct_draws(x2, 1, 20, 5)
    # an oracle that does no linear algebra of its own
    oracle = PerpOracle(params, lambda a, b: True)
    calls = _count_eliminations(monkeypatch)
    used = []
    for samples in (1, 20):
        calls.clear()
        assert decide_perp0(
            x1, x2, oracle, ReconstructionMode.sampled(samples), random.Random(5)
        )
        used.append(len(calls))
    # one reduction of the drawn coefficients, one of the ambient rows and
    # one of the annihilators per candidate asked; a draw after the cover
    # is a nonzero row (m = 1), which takes none; both runs reduce the
    # meet system
    assert used[1] - used[0] == 3 * (asked - 1)


def _witness_eliminations(monkeypatch, k2):
    """Eliminations taken by lemma2_witness(l1, l2, 1, k2) and by lemma1 on
    its output, once without and once with an rng."""
    l1, l2 = _lines_to_wrap()
    assert l1.dim == l2.dim == 1 and meet(l1, l2) is None
    calls = _count_eliminations(monkeypatch)
    counts = []
    for rng in (None, random.Random(1)):
        calls.clear()
        x1, x2 = lemma2_witness(l1, l2, 1, k2, rng)
        lemma2_calls = len(calls)
        calls.clear()
        lemma1_witness(x1, x2, 1, rng)
        counts.append((lemma2_calls, len(calls)))
    return counts


def test_witnesses_take_fewer_eliminations(monkeypatch):
    # joins, meets and complements of the constructions' own flats took
    # 11 eliminations for lemma 2 (10 with an rng) and 10 for lemma 1; one
    # per subspace took 5 each.  Lemma 2 now builds only the complements it
    # draws from: with k1 = 1 none for x1.  Lemma 1 reads the meet's
    # dimension where it built the meet, one reduction fewer, and its
    # complement inside x2's direction is read from the one reduction of
    # the equations over x2's rows, where a kernel was reduced again (4)
    assert _witness_eliminations(monkeypatch, 3) == [(4, 3), (4, 3)]


def test_lemma2_skips_a_complement_it_does_not_draw_from(monkeypatch):
    # with k2 = 2 there is no complement for x2 either: its d2 and w
    # already span it (the lines do not meet), reduced once, and neither
    # direction is reduced again; lemma 1 as above
    assert _witness_eliminations(monkeypatch, 2) == [(2, 3), (2, 3)]


@pytest.mark.parametrize("k2", [2, 3])
def test_lemma2_on_crossing_lines_pads_x2_from_one_complement(monkeypatch, k2):
    # lines that cross, here both moved through the origin, have w = 0, so
    # x2 is d2 padded from a complement whatever k2 is, and l1's direction
    # is handed on as it is: the complement, the padding and the meet
    origin = ((0,) * 6, 1)
    o1, o2 = (AffineSubspace(l.space, origin, l.direction) for l in _lines_to_wrap())
    calls = _count_eliminations(monkeypatch)
    lemma2_witness(o1, o2, 1, k2)
    assert len(calls) == 3


def test_a_wrapped_pair_hands_on_l1s_direction(monkeypatch):
    """Over the A-RECON grid, an orthogonal pair of each k2 > 1 type wraps
    in 3 eliminations: x2's complement and padding, and the self-check's
    meet system.  l1's direction gains no rows (k1 - m = 1) and is handed
    on as x1's, where it was reduced again (4)."""
    calls = _count_eliminations(monkeypatch)
    wrapped = Counter()
    for params, cfg in _a_recon_configs():
        if params.k2 == 1:
            continue
        for seed in range(0, 10, 2):
            l1, l2 = gen_line_pair(cfg, random.Random(seed), orthogonal=True)
            calls.clear()
            x1, _ = reconstruct_module._wrap_line_pair(l1, l2, params)
            assert len(calls) == 3, (params, cfg.dim, cfg.form, seed)
            assert x1.direction is l1.direction
            wrapped[params] += 1
    assert len(wrapped) == 3


@pytest.mark.parametrize("form", NAMED_FORMS)
def test_a_flat_between_that_adds_no_rows_keeps_its_direction(monkeypatch, form):
    # inner's direction, with the products kept on it, is handed on as it
    # is: nothing is drawn and nothing reduced, where it was reduced again
    cfg = GenConfig(dim=5, seed=0, form=form)
    rng = random.Random(6)
    flat, outer = gen_pair_with_meet_dim(cfg, 2, 4, 2, rng)
    assert is_subflat(flat, outer)
    point = random_point_of(flat, rng)
    calls = _count_eliminations(monkeypatch)
    state = rng.getstate()
    for inner in (point, flat):
        for big in (outer, AffineSubspace.full(flat.space)):
            got = flat_between(inner, big, inner.dim, rng)
            assert got == inner and got.direction is inner.direction
    assert not calls and rng.getstate() == state


def _meeting_pair():
    cfg = GenConfig(dim=6, seed=0, form="tridiag")
    x1, x2 = gen_pair_with_meet_dim(cfg, 3, 4, 2, random.Random(8))
    assert x1.dim == 3 and x2.dim == 4
    return x1, x2


def test_meet_reads_its_direction_from_the_meet_system(monkeypatch):
    # the meet system alone; the kernel's combinations were reduced again
    x1, x2 = _meeting_pair()
    calls = _count_eliminations(monkeypatch)
    assert meet(x1, x2).dim == 2
    assert len(calls) == 1


def test_meet_after_a_relation_takes_no_elimination(monkeypatch):
    # perp_g reduced the meet system for the meet's dimension; meet reads
    # the cached system, where it reduced the kernel's combinations again
    x1, x2 = _meeting_pair()
    ortho_module.perp_g(x1, x2)
    calls = _count_eliminations(monkeypatch)
    assert meet(x1, x2).dim == 2
    assert not calls


def test_complement_inside_a_smaller_flat_takes_one_elimination(monkeypatch):
    # the equations over v's rows reduced once; a Gram kernel and its
    # combinations of v's rows took two
    cfg = GenConfig(dim=6, seed=0, form="tridiag")
    x, v = gen_pair_with_meet_dim(cfg, 2, 4, 2, random.Random(2))
    assert is_subflat(x, v) and v.dim == 4
    q = AffineSubspace.from_point(x.space, rational_point(x))
    calls = _count_eliminations(monkeypatch)
    assert orthocomplement_in(x, v, q).dim == 2
    assert len(calls) == 1


def test_sampled_zero_meet_decision_takes_one_elimination(monkeypatch):
    # the meet system alone; building the meet point took a second one
    params = TypedPerpParams(m=0, k1=1, k2=3)
    cfg = GenConfig(dim=6, seed=0, form="tridiag")
    y1, x2 = gen_pair_with_meet_dim(cfg, 1, 3, 0, random.Random(4))
    oracle = PerpOracle(params, lambda a, b: True)
    calls = _count_eliminations(monkeypatch)
    assert decide_perp0(y1, x2, oracle, ReconstructionMode.sampled(5))
    assert len(calls) == 1
