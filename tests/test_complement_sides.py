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

W keeps the last complement taken inside it, keyed by the space and a
weak reference to D: the same space and D get the kept subspace with no
reduction, anything else a fresh one, and the laws that ask for one
complement again reduce it once.
"""

import gc
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

import orthokernel.linalg as linalg_module
import orthokernel.properties as props
from orthokernel.errors import PreconditionError
from orthokernel.generators import (
    GenConfig,
    gen_pair_with_meet_dim,
    gen_perp_to,
    gen_subspace,
    random_point_of,
    resolve_space,
    space_of,
    trial_rng,
)
from orthokernel.linalg import (
    LinearSubspace,
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
    perp_g,
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


@pytest.fixture
def reduced(monkeypatch):
    """The complements ``xi_complement`` reduces: one entry per call it
    makes to ``_xi_complement_rows`` or ``_subspace_from_int_rows``."""
    made = []
    code = linalg_module.xi_complement.__code__
    for name in ("_xi_complement_rows", "_subspace_from_int_rows"):
        real = getattr(linalg_module, name)

        def counting(*args, real=real):
            if sys._getframe(1).f_code is code:
                made.append(real.__name__)
            return real(*args)

        monkeypatch.setattr(linalg_module, name, counting)
    return made


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
def test_complement_is_the_same_subspace_from_either_side(n, form, reduced):
    space = space_of(_cfg(n, form))
    full = full_subspace(n)
    rng = random.Random(f"complement:{n}:{form}")
    for k in range(n + 1):
        for _ in range(3):
            d = rand_subspace_of(full, k, rng)
            fd = d.form_rows(space)
            primal = _xi_complement_rows(space, fd, full)
            assert _subspace_from_int_rows(d.complement_rows(space), n) == primal
            kept = xi_complement(space, d, full)
            assert kept == primal
            # asked again, the whole space hands back the subspace it kept
            made = len(reduced)
            assert xi_complement(space, d, full) is kept
            assert len(reduced) == made
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


# ---------------------------------------------------------------------------
# the complement kept inside W


def test_the_kept_complement_answers_only_its_space_and_its_d(reduced):
    """Another space, an equal twin of D, or a D that has died (even one
    whose id a new subspace reuses) gets a fresh reduction, equal to
    ``_xi_complement_rows``; the slot holds one D, so D asked again after
    its twin costs one more."""
    n = 5
    full = full_subspace(n)
    identity, tridiag = resolve_space(n, "identity"), resolve_space(n, "tridiag")
    rng = random.Random("kept-complement")

    def fresh(space, d):
        return _xi_complement_rows(space, d.form_rows(space), full)

    d = rand_subspace_of(full, 2, rng)
    first = xi_complement(identity, d, full)
    assert first == fresh(identity, d) and len(reduced) == 1
    assert xi_complement(identity, d, full) is first and len(reduced) == 1
    assert xi_complement(tridiag, d, full) == fresh(tridiag, d)
    assert len(reduced) == 2
    assert xi_complement(identity, d, full) == first and len(reduced) == 3
    twin = _subspace_from_int_rows(d.int_rows, n)
    assert twin == d and twin is not d
    assert xi_complement(identity, twin, full) == first and len(reduced) == 4
    assert xi_complement(identity, d, full) == first and len(reduced) == 5
    # d dies, and a new subspace is made at its address
    other = rand_subspace_of(full, 2, rng)
    dead = id(d)
    del d, twin
    made = []
    while not made or id(made[-1]) != dead and len(made) < 100_000:
        made.append(LinearSubspace(n, other.int_rows, other.pivots))
    reuse = made[-1]
    assert id(reuse) == dead
    before = len(reduced)
    assert xi_complement(identity, reuse, full) == fresh(identity, reuse)
    assert len(reduced) == before + 1


@pytest.mark.parametrize("form", ("identity", "tridiag"))
def test_the_kept_complement_inside_w_equals_a_fresh_one(form, reduced):
    """Inside a smaller W, as from the whole space, on either side of D:
    each D's complement is reduced when it is asked after another D, and
    handed back as it is when asked twice running."""
    n = 6
    space = resolve_space(n, form)
    full = full_subspace(n)
    rng = random.Random(f"kept-inside:{form}")
    for k in range(n + 1):
        w = rand_subspace_of(full, k, rng)
        ds = [rand_subspace_of(w, j, rng) for j in range(1, k + 1)]
        for again in (False, True):
            for d in ds:
                before = len(reduced)
                got = xi_complement(space, d, w)
                assert got == _xi_complement_rows(space, d.form_rows(space), w)
                # the slot held another D, unless d is the only one drawn
                made = len(reduced)
                assert made == before + (not again or len(ds) > 1)
                assert xi_complement(space, d, w) is got
                assert len(reduced) == made


def test_the_whole_space_keeps_no_d_alive():
    space = resolve_space(4, "tridiag")
    full = full_subspace(4)
    rng = random.Random("kept-alive")
    refs = []
    for _ in range(1000):
        d = rand_subspace_of(full, rng.randint(1, 3), rng)
        xi_complement(space, d, full)
        refs.append(weakref.ref(d))
    del d
    gc.collect()
    assert all(r() is None for r in refs)


def test_a_refused_complement_leaves_the_slot_as_it_was(reduced):
    n = 5
    space = resolve_space(n, "diag")
    full = full_subspace(n)
    rng = random.Random("kept-refused")
    w = rand_subspace_of(full, 3, rng)
    inside = rand_subspace_of(w, 1, rng)
    kept = xi_complement(space, inside, w)
    slot = vars(w)["_complement"]
    outside = _subspace_from_int_rows([w.equations[0]], n)
    made = len(reduced)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            xi_complement(space, outside, w)
        assert vars(w)["_complement"] is slot
    assert len(reduced) == made
    assert xi_complement(space, inside, w) is kept and len(reduced) == made


def test_the_kept_complement_stays_out_of_equality_hash_and_repr():
    space = resolve_space(4, "diag")
    rng = random.Random("kept-identity")
    w = rand_subspace_of(full_subspace(4), 3, rng)
    twin = _subspace_from_int_rows(w.int_rows, 4)
    xi_complement(space, rand_subspace_of(w, 1, rng), w)
    assert "_complement" in vars(w) and "_complement" not in vars(twin)
    assert w == twin and hash(w) == hash(twin)
    assert repr(w) == repr(twin)


def test_p_go_q_indep_reduces_each_of_its_two_complements_once(monkeypatch, reduced):
    """A trial takes the meet's complement inside each flat of its pair from
    three base points: six asks over two complements, two reductions."""
    asked = []
    real = props.orthocomplement_in

    def counted(x, v, q):
        before = len(reduced)
        out = real(x, v, q)
        asked.append(len(reduced) - before)
        return out

    monkeypatch.setattr(props, "orthocomplement_in", counted)
    cfg = GenConfig(dim=6, seed=1)
    space = space_of(cfg)
    kinds = Counter()
    for t in range(24):
        asked.clear()
        rng = trial_rng(cfg.seed, "P-GO-Q-INDEP", t)
        ctx = props.TrialContext(space, cfg, rng, Counter())
        assert props.REGISTRY["P-GO-Q-INDEP"](ctx) is None
        # the two later base points reduce nothing; a point meet is answered
        # by W itself, and two flats with one direction share its slot
        assert len(asked) == 6 and asked[2:] == [0] * 4
        kinds[tuple(asked[:2])] += 1
    assert kinds[(1, 1)] >= 6


@pytest.mark.parametrize("k", [2, 4])
def test_two_flats_drawn_orthogonal_to_one_a_reduce_its_complement_once(k, reduced):
    # at n = 6 a 2-dimensional A is reduced from its rows, a 4-dimensional
    # one from its equations
    cfg = GenConfig(dim=6, seed=0, form="tridiag")
    rng = random.Random(f"perp-to:{k}")
    a = gen_subspace(cfg, k, rng)
    reduced.clear()
    c1 = gen_perp_to(a, random_point_of(a, rng), rng)
    c2 = gen_perp_to(a, random_point_of(a, rng), rng)
    assert len(reduced) == 1
    assert perp_g(a, c1) and perp_g(a, c2)
