"""Seeded generators: determinism, exact dimensions, bound and form handling."""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from orthokernel.errors import InputError, PreconditionError
from orthokernel.flats import AffineSubspace, is_subflat, meet
from orthokernel.generators import (
    GenConfig,
    NAMED_FORMS,
    flat_between,
    form_label,
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
    tridiagonal_form,
)
from orthokernel.linalg import QQ, QuadraticSpace
from orthokernel.ortho import TypedPerpParams, make_perp_pair, perp_g

from rational_reference import bilinear_eval, rational_basis, rational_point


# ---------------------------------------------------------------------------
# config and forms


def test_config_defaults_round_trip():
    cfg = GenConfig(dim=4)
    assert cfg.form == "identity"
    assert replace(cfg, form="tridiag") == GenConfig(dim=4, form="tridiag")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 0},
        {"dim": 3, "sample_count": 0},
        {"dim": 3, "seed": -1},
        {"dim": 3, "seed": 2**64},
        {"dim": 3, "form": "hyperbolic"},
        {"dim": 3, "form": [["1", "0"], ["0", "1"]]},
        {"dim": 3, "perp_params": TypedPerpParams(0, 1, 3)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InputError):
        GenConfig(**kwargs)


def test_form_label():
    assert form_label("diag") == "diag"
    assert form_label((("1", "0"), ("0", "1"))) == "custom"


def test_tridiagonal_form_shape():
    m = tridiagonal_form(4)
    assert m[0] == (2, 1, 0, 0)
    assert m[2] == (0, 1, 2, 1)
    assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))


def test_resolve_named_forms():
    assert resolve_space(3, "identity") == QuadraticSpace.euclidean(3)
    assert resolve_space(3, "diag") == QuadraticSpace.diagonal(
        [QQ(1), QQ(2), QQ(3)]
    )
    assert resolve_space(3, "tridiag").int_form == tridiagonal_form(3)
    assert set(NAMED_FORMS) == {"identity", "diag", "tridiag"}


def test_resolve_custom_matrix_form():
    space = resolve_space(2, (("2", "1"), ("1", "2")))
    assert space.int_form == ((2, 1), (1, 2))


def test_resolve_rejects_indefinite_custom_form():
    with pytest.raises(InputError):
        resolve_space(2, (("1", "0"), ("0", "-1")))


def test_resolve_rejects_custom_form_of_other_dim():
    with pytest.raises(InputError, match="expected 5 x 5"):
        resolve_space(5, (("2", "1", "0"), ("1", "2", "0"), ("0", "0", "1")))
    with pytest.raises(InputError):
        resolve_space(4, (("1", "0"), ("0", "1")))


def test_space_of_uses_config_form():
    assert space_of(GenConfig(dim=5, form="diag")) == resolve_space(5, "diag")


# ---------------------------------------------------------------------------
# per-trial seeding


def test_trial_rng_reproducible():
    a = trial_rng(7, "P-SYM", 12)
    b = trial_rng(7, "P-SYM", 12)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_trial_rng_separates_coordinates():
    base = trial_rng(7, "P-SYM", 12).random()
    assert trial_rng(8, "P-SYM", 12).random() != base
    assert trial_rng(7, "P-TRANS", 12).random() != base
    assert trial_rng(7, "P-SYM", 13).random() != base


# ---------------------------------------------------------------------------
# points and flats


def test_gen_point_respects_bounds(rng):
    cfg = GenConfig(dim=3)
    for _ in range(200):
        p = rational_point(gen_point(cfg, rng))
        assert len(p) == 3
        for c in p:
            assert abs(c.numerator) <= 9
            assert 1 <= c.denominator <= 3


def test_gen_subspace_exact_dimensions(rng):
    cfg = GenConfig(dim=4)
    for k in range(5):
        flat = gen_subspace(cfg, k, rng)
        assert flat.dim == k
        assert flat.ambient_dim == 4


def test_gen_subspace_rejects_out_of_range(rng):
    cfg = GenConfig(dim=3)
    with pytest.raises(InputError):
        gen_subspace(cfg, 4, rng)
    with pytest.raises(InputError):
        gen_subspace(cfg, -1, rng)


def test_gen_subspace_deterministic_per_seed():
    cfg = GenConfig(dim=4)
    a = gen_subspace(cfg, 2, random.Random(99))
    b = gen_subspace(cfg, 2, random.Random(99))
    assert a == b


def test_gen_pair_meet_dims(rng):
    cfg = GenConfig(dim=4)
    for k1, k2, m in [(2, 2, 1), (1, 1, 0), (2, 3, 1), (3, 3, 2), (0, 2, 0)]:
        a, b = gen_pair_with_meet_dim(cfg, k1, k2, m, rng)
        assert a.dim == k1 and b.dim == k2
        cut = meet(a, b)
        if m == 0:
            assert cut is not None and cut.dim == 0
        else:
            assert cut is not None and cut.dim == m


def test_gen_pair_full_overlap_is_equality(rng):
    cfg = GenConfig(dim=3)
    a, b = gen_pair_with_meet_dim(cfg, 1, 1, 1, rng)
    assert a == b


def test_gen_pair_infeasible_meet_dim(rng):
    cfg = GenConfig(dim=3)
    with pytest.raises(InputError):
        gen_pair_with_meet_dim(cfg, 2, 2, 0, rng)
    with pytest.raises(InputError):
        gen_pair_with_meet_dim(cfg, 2, 2, 3, rng)
    with pytest.raises(InputError):
        gen_pair_with_meet_dim(cfg, 4, 1, 0, rng)


def test_random_point_of_stays_inside(rng):
    cfg = GenConfig(dim=4)
    flat = gen_subspace(cfg, 2, rng)
    for _ in range(50):
        assert is_subflat(random_point_of(flat, rng), flat)


def test_sub_flat_inclusion_and_anchor(rng):
    cfg = GenConfig(dim=4)
    outer = gen_subspace(cfg, 3, rng)
    for k in range(4):
        inner = sub_flat(outer, k, rng)
        assert inner.dim == k
        assert is_subflat(inner, outer)
    with pytest.raises(InputError):
        sub_flat(outer, 4, rng)


def test_super_flat_inclusion(rng):
    cfg = GenConfig(dim=5)
    inner = gen_subspace(cfg, 1, rng)
    outer = super_flat(inner, 3, rng)
    assert outer.dim == 3
    assert is_subflat(inner, outer)
    assert super_flat(inner, 1, rng) == inner
    with pytest.raises(InputError):
        super_flat(inner, 0, rng)
    with pytest.raises(InputError):
        super_flat(inner, 6, rng)


def test_flat_between_chain(rng):
    cfg = GenConfig(dim=5)
    inner = gen_subspace(cfg, 1, rng)
    outer = super_flat(inner, 4, rng)
    mid = flat_between(inner, outer, 2, rng)
    assert mid.dim == 2
    assert is_subflat(inner, mid) and is_subflat(mid, outer)
    with pytest.raises(InputError):
        flat_between(inner, outer, 5, rng)


def test_flat_between_refuses_an_inner_flat_outside_outer(rng):
    space = QuadraticSpace.euclidean(3)
    plane = AffineSubspace.from_points(space, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    # crosses the plane at the origin, and a parallel lying above it
    crossing = AffineSubspace.from_points(space, [(0, 0, 0), (0, 0, 1)])
    above = AffineSubspace.from_points(space, [(0, 0, 1), (1, 0, 1)])
    for line in (crossing, above):
        assert not is_subflat(line, plane)
        for k in (1, 2):
            with pytest.raises(PreconditionError):
                flat_between(line, plane, k, rng)
    inside = AffineSubspace.from_points(space, [(1, 1, 0), (2, 3, 0)])
    assert flat_between(inside, plane, 2, rng) == plane


def test_gen_perp_to_realizes_requested_type(rng):
    for n in (2, 3, 5):
        cfg = GenConfig(dim=n)
        for _ in range(20):
            a = gen_subspace(cfg, rng.randint(1, n - 1), rng)
            q = random_point_of(a, rng)
            c = gen_perp_to(a, q, rng)
            cut = meet(a, c)
            assert cut is not None and is_subflat(q, c)
            assert cut.dim < min(a.dim, c.dim)
            assert c.dim - cut.dim <= n - a.dim
            assert perp_g(a, c)


def test_gen_perp_to_validates_room(rng):
    cfg = GenConfig(dim=3)
    a = gen_subspace(cfg, 3, rng)
    with pytest.raises(InputError):
        gen_perp_to(a, AffineSubspace.from_point(a.space, rational_point(a)), rng)
    b = gen_subspace(cfg, 2, rng)
    with pytest.raises(InputError):
        gen_perp_to(b, b, rng)


def test_gen_perp_to_refuses_a_point_flat_a(rng):
    cfg = GenConfig(dim=3)
    p = gen_point(cfg, rng)
    state = rng.getstate()
    with pytest.raises(InputError, match="dimension at least 1"):
        gen_perp_to(p, p, rng)
    assert rng.getstate() == state


def test_gen_perp_to_refuses_q_off_a(rng):
    cfg = GenConfig(dim=4)
    a = gen_subspace(cfg, 2, rng)
    q = gen_point(cfg, rng)
    assert not is_subflat(q, a)
    state = rng.getstate()
    with pytest.raises(PreconditionError, match="q must lie on A"):
        gen_perp_to(a, q, rng)
    assert rng.getstate() == state


def test_rand_params_always_satisfiable(rng):
    for n in (2, 3, 4, 5, 6):
        for _ in range(50):
            params = rand_params(rng, n)
            assert params.satisfiable_in(n)
            assert 0 <= params.m < params.k1 <= params.k2
    with pytest.raises(InputError):
        rand_params(rng, 1)


def test_gen_line_pair_orthogonality_flag(rng):
    cfg = GenConfig(dim=4, form="tridiag")
    space = space_of(cfg)
    for _ in range(20):
        l1, l2 = gen_line_pair(cfg, rng, orthogonal=True)
        assert l1.dim == l2.dim == 1
        (d1,), (d2,) = rational_basis(l1.direction), rational_basis(l2.direction)
        assert bilinear_eval(space, d1, d2) == 0
    free = [gen_line_pair(cfg, rng, orthogonal=False) for _ in range(20)]
    assert all(a.dim == b.dim == 1 for a, b in free)


def test_pair_generator_deterministic_per_seed():
    cfg = GenConfig(dim=4)
    a = gen_pair_with_meet_dim(cfg, 2, 2, 1, random.Random(5))
    b = gen_pair_with_meet_dim(cfg, 2, 2, 1, random.Random(5))
    assert a == b


def test_point_flat_pair_shares_base(rng):
    cfg = GenConfig(dim=3)
    a, b = gen_pair_with_meet_dim(cfg, 0, 0, 0, rng)
    assert a == b and a.dim == 0


# ---------------------------------------------------------------------------
# pinned draws: a sha256 over the wire form of every drawn flat and the rng
# state after each draw, for dims 3..8 x the named forms x seeds 0..24


def _draw_perp_pair(cfg, rng, seed):
    space = resolve_space(cfg.dim, cfg.form)
    return make_perp_pair(space, rand_params(rng, cfg.dim), rng)


def _draw_subspace(cfg, rng, seed):
    return (gen_subspace(cfg, rng.randint(0, cfg.dim), rng),)


def _draw_meet_pair(cfg, rng, seed):
    params = rand_params(rng, cfg.dim)
    return gen_pair_with_meet_dim(cfg, params.k1, params.k2, params.m, rng)


def _draw_line_pair(cfg, rng, seed):
    return gen_line_pair(cfg, rng, orthogonal=seed % 2 == 0)


def _draw_points(cfg, rng, seed):
    a = gen_subspace(cfg, rng.randint(1, cfg.dim - 1), rng)
    p = gen_point(cfg, rng)
    q = random_point_of(a, rng)
    return p, a, q, sub_flat(a, rng.randint(0, a.dim), rng), gen_perp_to(a, q, rng)


def _draw_chains(cfg, rng, seed):
    n = cfg.dim
    a = gen_subspace(cfg, rng.randint(1, n - 1), rng)
    b = super_flat(a, rng.randint(a.dim, n), rng)
    c = flat_between(a, b, rng.randint(a.dim, b.dim), rng)
    return a, b, c, sub_flat(b, rng.randint(0, b.dim), rng)


PINNED_DRAWS = {
    "make_perp_pair": (
        _draw_perp_pair,
        "890d467873037451430f02b651a8bf5fbed566ab672de673a2841b3ed83a0c89",
    ),
    "gen_subspace": (
        _draw_subspace,
        "05536bd34c176ed7de1df787e4d7b530c0cdbe4412efe8f491c6bff6dd417fc3",
    ),
    "gen_pair_with_meet_dim": (
        _draw_meet_pair,
        "e09a876358bd84b5183ebfd4a23a007f21d5ac7beb407ae67d21c042e7b58e47",
    ),
    "gen_line_pair": (
        _draw_line_pair,
        "72e7afba8315b903055f98ee4d684dbac972c4973e923f5aba2983da9aca85d5",
    ),
    # super_flat, flat_between and sub_flat, each a flat between two flats
    "chains": (
        _draw_chains,
        "a7ccaa1240e5d13f9eee89184d47dad5b2523a669f3e6f4c57cdcb8598a12f26",
    ),
    # gen_point, random_point_of (both point flats), sub_flat, gen_perp_to
    "points": (
        _draw_points,
        "b9a17658770538a7b513402537ee4f4038845cf629a7c6fe36975180feca0b44",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAWS))
def test_draws_are_pinned(name):
    draw, want = PINNED_DRAWS[name]
    h = hashlib.sha256()
    for n in range(3, 9):
        for form in NAMED_FORMS:
            cfg = GenConfig(dim=n, form=form)
            for seed in range(25):
                rng = random.Random(seed)
                wires = [flat.to_wire() for flat in draw(cfg, rng, seed)]
                h.update(json.dumps(wires, sort_keys=True).encode())
                h.update(repr(rng.getstate()).encode())
    assert h.hexdigest() == want
