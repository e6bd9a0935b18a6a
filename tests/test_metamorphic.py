"""Metamorphic check of the whole stack: moving every flat by an invertible
rational map A and the form F to A^-T F A^-1 changes no verdict.

The bilinear value of two moved directions is (A u)^T A^-T F A^-1 (A v) =
u^T F v, and A is an affine bijection, so orthogonality, meets, joins,
inclusion and the commutation of reflections all carry over unchanged.
"""

import random
from fractions import Fraction

import pytest

from orthokernel.flats import AffineSubspace, is_subflat, join, meet, translate_through
from orthokernel.generators import (
    GenConfig,
    gen_pair_with_meet_dim,
    gen_point,
    gen_subspace,
    rand_params,
    space_of,
    sub_flat,
)
from orthokernel.linalg import (
    QuadraticSpace,
    determinant,
    mat_inverse,
    mat_mul,
    rref_basis,
)
from orthokernel.ortho import (
    TypedPerpParams,
    make_perp_pair,
    perp_g,
    perp_go,
    perp_m,
    perp_x,
    reflections_commute,
)

from rational_reference import mat_vec, rational_basis, rational_point

PAIRS_PER_CASE = 24
TYPED_PAIRS_PER_CASE = 8


def _invertible(n: int, rng: random.Random):
    while True:
        a = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            for _ in range(n)
        )
        if determinant(a) != 0:
            return a


def _moved_space(space: QuadraticSpace, a) -> QuadraticSpace:
    inv = mat_inverse(a)
    inv_t = tuple(zip(*inv))
    return QuadraticSpace(space.dim, mat_mul(mat_mul(inv_t, space.form), inv))


def _move(flat: AffineSubspace, a, space: QuadraticSpace) -> AffineSubspace:
    rows = [mat_vec(a, row) for row in rational_basis(flat.direction)]
    return AffineSubspace.make(
        space, mat_vec(a, rational_point(flat)), rref_basis(rows, space.dim)
    )


def _pair(cfg: GenConfig, rng: random.Random):
    """Orthogonal, fixed-meet, nested, free or translated pairs."""
    n = cfg.dim
    kind = rng.randrange(5)
    if kind == 0:
        return make_perp_pair(space_of(cfg), rand_params(rng, n), rng)
    if kind == 1:
        k1, k2 = rng.randint(0, n), rng.randint(0, n)
        m = rng.randint(max(0, k1 + k2 - n), min(k1, k2))
        return gen_pair_with_meet_dim(cfg, k1, k2, m, rng)
    if kind == 2:
        outer = gen_subspace(cfg, rng.randint(0, n), rng)
        return sub_flat(outer, rng.randint(0, outer.dim), rng), outer
    a = gen_subspace(cfg, rng.randint(0, n), rng)
    b = gen_subspace(cfg, rng.randint(0, n), rng)
    if kind == 4:
        b = translate_through(b, gen_point(cfg, rng))
    return a, b


def _verdicts(a: AffineSubspace, b: AffineSubspace) -> tuple:
    mm, jj = meet(a, b), join(a, b)
    out = [
        perp_g(a, b), perp_g(b, a), perp_go(a, b), perp_go(b, a), perp_x(a, b),
        reflections_commute(a, b), is_subflat(a, b), is_subflat(b, a),
        None if mm is None else mm.dim, jj.dim,
    ]
    if mm is not None and mm.dim < min(a.dim, b.dim):
        out.append(perp_m(a, b, TypedPerpParams(mm.dim, a.dim, b.dim)))
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("form", ["identity", "diag", "tridiag"])
def test_verdicts_survive_a_change_of_coordinates(n, form):
    cfg = GenConfig(dim=n, form=form)
    rng = random.Random(f"metamorphic:{n}:{form}")
    a_map = _invertible(n, rng)
    moved = _moved_space(space_of(cfg), a_map)
    pairs = [_pair(cfg, rng) for _ in range(PAIRS_PER_CASE)]
    # typed pairs on top: at n = 7 rand_params mostly draws types whose
    # graded test runs on the equations side
    pairs += [
        make_perp_pair(space_of(cfg), rand_params(rng, n), rng)
        for _ in range(TYPED_PAIRS_PER_CASE)
    ]
    held = 0
    for a, b in pairs:
        want = _verdicts(a, b)
        assert _verdicts(_move(a, a_map, moved), _move(b, a_map, moved)) == want
        held += want[0]
    # the perp_g side is exercised, not only its negation
    assert held > 0
