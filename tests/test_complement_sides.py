"""Both sides of a subspace give the same answers.

A k-dimensional direction D of Q^n is held by its k rows and has n - k
equations E.  Its xi-complement in the whole space is the kernel of D F or
the row space of E F^-1, and the graded Gram test of two directions is
rank(D1 F D2^T) = m or, on their complements C1, C2,
rank(E1 F^-1 E2^T) = n - k1 - k2 + m.  The kernel picks a side by size;
here both sides run on every case and must agree: n = 2..8, the three
named forms and a non-diagonal rational one, every satisfiable type from
``make_perp_pair``, and every (k1, k2, m) from ``gen_pair_with_meet_dim``,
which includes point flats, full-space flats, nested pairs and pairs with
k1 + k2 - m = n.  On the same grid the complement of D inside any W, with
D inside W or not, is W's intersection with D's complement in the whole
space, the intersection taken by the rational reference.
"""

import random
from fractions import Fraction
from operator import mul

import pytest

from orthokernel.generators import (
    GenConfig,
    gen_pair_with_meet_dim,
    space_of,
)
from orthokernel.linalg import (
    _forward_steps,
    _subspace_from_int_rows,
    _xi_complement_rows,
    full_subspace,
    xi_complement,
)
from orthokernel.ortho import (
    TypedPerpParams,
    _complement_perp,
    _equations_perp,
    _gram,
    _meet_dim,
    make_perp_pair,
    perp_go,
    perp_m,
    rand_subspace_of,
)

from rational_reference import subspace_intersect

DIMS = range(2, 9)


def _rational_form(n):
    """Non-diagonal, with fractional entries, diagonally dominant hence
    positive definite."""
    return tuple(
        tuple(str(Fraction(n + 1) if i == j else Fraction(1, 1 + i + j)) for j in range(n))
        for i in range(n)
    )


FORMS = ("identity", "diag", "tridiag", "rational")


def _cfg(n, form):
    return GenConfig(dim=n, form=_rational_form(n) if form == "rational" else form)


def _types(n):
    """Every satisfiable (m, k1, k2) of the graded relation in Q^n."""
    return [
        TypedPerpParams(m, k1, k2)
        for k1 in range(1, n)
        for k2 in range(1, n)
        for m in range(max(0, k1 + k2 - n), min(k1, k2))
    ]


def _pairs(n, form, rng):
    cfg = _cfg(n, form)
    space = space_of(cfg)
    for params in _types(n):
        yield make_perp_pair(space, params, rng)
    for k1 in range(n + 1):
        for k2 in range(n + 1):
            for m in range(max(0, k1 + k2 - n), min(k1, k2) + 1):
                yield gen_pair_with_meet_dim(cfg, k1, k2, m, rng)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", DIMS)
def test_primal_and_equations_gram_tests_agree(n, form):
    rng = random.Random(f"sides:{n}:{form}")
    picked = set()
    for x1, x2 in _pairs(n, form, rng):
        m = _meet_dim(x1, x2)
        k1, k2 = x1.dim, x2.dim
        primal = len(_forward_steps(_gram(x1, x2))) == m
        assert _equations_perp(x1, x2, m) is primal
        assert _complement_perp(x1, x2, m) is primal
        assert perp_go(x1, x2) is primal
        if m < min(k1, k2):
            assert perp_m(x1, x2, TypedPerpParams(m, k1, k2)) is primal
        if m and 4 * (n - k1) * (n - k2) < k1 * k2:
            picked.add(primal)
    # from n = 4 on, both verdicts occur where the kernel takes the
    # equations side
    if n >= 4:
        assert picked == {True, False}


def test_the_equations_side_needs_the_exact_meet_dimension():
    # at n = 8 with k1 = 6, k2 = 7 the equations side has 2 x 1 entries,
    # the primal one 6 x 7
    space = space_of(GenConfig(dim=8, form="tridiag"))
    x1, x2 = make_perp_pair(space, TypedPerpParams(5, 6, 7), random.Random(3))
    assert len(x1.direction.equations) * len(x2.direction.complement_rows(space)) == 2
    assert _equations_perp(x1, x2, 5)
    assert not _equations_perp(x1, x2, 4) and not _equations_perp(x1, x2, 6)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", DIMS)
def test_complement_is_the_same_subspace_from_either_side(n, form):
    space = space_of(_cfg(n, form))
    full = full_subspace(n)
    rng = random.Random(f"complement:{n}:{form}")
    for k in range(n + 1):
        for _ in range(3):
            d = rand_subspace_of(full, k, rng)
            fd = d.form_rows(space)
            primal = _xi_complement_rows(space, fd, full)
            assert _subspace_from_int_rows(d.complement_rows(space), n) == primal
            assert xi_complement(space, d, full) == primal
            assert primal.rank == n - k
            # every complement row is xi-orthogonal to every row of d
            assert not any(sum(map(mul, f, r)) for f in fd for r in primal.int_rows)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", DIMS)
def test_complement_inside_w_is_w_meet_the_full_complement(n, form):
    # each direction of a pair against the other (D mostly outside W, inside
    # it for nested pairs), and a subspace of half W's dimension drawn
    # inside W
    space = space_of(_cfg(n, form))
    full = full_subspace(n)
    rng = random.Random(f"inside:{n}:{form}")
    inner_rng = random.Random(f"inside-draws:{n}:{form}")
    shapes = set()
    for x1, x2 in _pairs(n, form, rng):
        d1, d2 = x1.direction, x2.direction
        for w, other in ((d1, d2), (d2, d1)):
            for d in (other, rand_subspace_of(w, w.rank // 2, inner_rng)):
                want = subspace_intersect(w, xi_complement(space, d, full))
                assert _xi_complement_rows(space, d.form_rows(space), w) == want
                shapes.add((w.rank, want.rank))
    # point flats, full-space flats and every complement dimension occur
    assert {(0, 0), (n, n)} <= shapes
    assert {r for _, r in shapes} == set(range(n + 1))
