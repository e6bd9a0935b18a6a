"""Foreign-form oracles: what the typed oracle's answers decide.

The oracle here is ``perp_m`` under another positive-definite form than
the space's, asked about the flats re-homed into that form's space.  The
decide stage reads no form, so it follows the oracle's form: witness mode
exactly, sampled mode up to its sampling error on "true", which no pair
here meets.  So do the crossing lines the wrap hands on for the type
(0, 1, 1).  For every other type the wrap builds its pair from the
space's form and refuses lines that are not orthogonal under it, so
those verdicts follow the space's form, not the oracle's: line
reconstruction assumes the two forms agree.
"""

import itertools
import random

from orthokernel.flats import AffineSubspace
from orthokernel.generators import (
    NAMED_FORMS,
    GenConfig,
    gen_line_pair,
    gen_pair_with_meet_dim,
    resolve_space,
)
from orthokernel.ortho import TypedPerpParams, make_perp_pair, perp_m, perp_subspaces
from conftest import tilted
from orthokernel.reconstruct import (
    PerpOracle,
    ReconstructionMode,
    decide_perp0,
    line_perp_ground_truth,
    reconstruct_line_perp,
)

DIMS = (4, 5)
# every ordered pair of distinct named forms: (the space's, the oracle's)
FORM_PAIRS = list(itertools.permutations(NAMED_FORMS, 2))
# the decide stage's grid: dims 3-6 and every ordered pair of named forms,
# the same form twice included
DECIDE_DIMS = (3, 4, 5, 6)
DECIDE_FORM_PAIRS = list(itertools.product(NAMED_FORMS, repeat=2))
MODES = (ReconstructionMode.witness(), ReconstructionMode.sampled(5))
TILTED = 12


def rehome(x: AffineSubspace, form: str) -> AffineSubspace:
    """x in the space of the same dimension under ``form``; the canonical
    point and direction do not depend on the form."""
    other = resolve_space(x.ambient_dim, form)
    return AffineSubspace(other, x.int_point, x.direction)


def foreign_oracle(params: TypedPerpParams, form: str) -> PerpOracle:
    """``perp_m`` of type params under ``form``, whatever the flats' space."""
    return PerpOracle(
        params, lambda x1, x2: perp_m(rehome(x1, form), rehome(x2, form), params)
    )


def satisfiable_types(n: int) -> list[TypedPerpParams]:
    return [
        TypedPerpParams(m, k1, k2)
        for m in range(n)
        for k1 in range(m + 1, n + 1)
        for k2 in range(m + 1, n + 1)
        if k1 + k2 - m <= n
    ]


def grid(dims=DIMS, form_pairs=FORM_PAIRS):
    for n in dims:
        for (space_form, oracle_form), params in itertools.product(
            form_pairs, satisfiable_types(n)
        ):
            seed = f"{n}:{space_form}:{oracle_form}:{params}"
            yield n, space_form, oracle_form, params, random.Random(seed)


def counted(oracle: PerpOracle, queries: list) -> PerpOracle:
    def query(x1, x2):
        queries.append(1)
        return oracle.query(x1, x2)

    return PerpOracle(oracle.params, query)


def line_pairs(n, space_form, oracle_form, count, rng):
    """count line pairs of the space, the odd ones orthogonal under the
    oracle's form and the even ones drawn under the space's form."""
    for i in range(count):
        form = oracle_form if i % 2 else space_form
        pair = gen_line_pair(GenConfig(dim=n, form=form), rng, orthogonal=bool(i % 2))
        yield tuple(rehome(x, space_form) for x in pair)


def test_the_grid_covers_every_satisfiable_type():
    assert [len(satisfiable_types(n)) for n in DIMS] == [10, 20]
    assert len(FORM_PAIRS) == 6
    assert [len(satisfiable_types(n)) for n in DECIDE_DIMS] == [4, 10, 20, 35]
    assert len(DECIDE_FORM_PAIRS) == 9


def decide_pairs(n, space_form, oracle_form, params, rng):
    """The point-meet pairs (y1, x2) of the space for the decide stage of
    type params, each with its orthogonality under the oracle's form: 8
    pairs, half orthogonal under the oracle's form, then for m >= 1 TILTED
    pairs orthogonal under it but for one row of x2, each row in turn.
    Drawn from rng one at a time, after the caller's draws for the last."""
    point_type = TypedPerpParams(0, params.k1 - params.m, params.k2)
    for i in range(8 + TILTED * (params.m > 0)):
        if i % 2 or i >= 8:
            # orthogonal under the oracle's form, with a common point
            pair = make_perp_pair(resolve_space(n, oracle_form), point_type, rng)
            if i >= 8:
                pair = tilted(*pair, row=i % params.k2), pair[1]
        else:
            cfg = GenConfig(dim=n, form=space_form)
            pair = gen_pair_with_meet_dim(cfg, point_type.k1, point_type.k2, 0, rng)
        y1, x2 = (rehome(x, space_form) for x in pair)
        want = perp_subspaces(rehome(y1, oracle_form), rehome(x2, oracle_form))
        assert not (want and i >= 8)
        yield y1, x2, want


def test_decide_stage_follows_the_oracles_form():
    decisions = agreed = orthogonal = 0
    for n, space_form, oracle_form, params, rng in grid(DECIDE_DIMS, DECIDE_FORM_PAIRS):
        oracle = foreign_oracle(params, oracle_form)
        for y1, x2, want in decide_pairs(n, space_form, oracle_form, params, rng):
            orthogonal += want
            for mode in MODES:
                decisions += 1
                agreed += decide_perp0(y1, x2, oracle, mode, rng) == want
    # 69 types over dims 3-6 x 9 form pairs x 8 pairs x 2 modes, and TILTED
    # pairs x 2 modes for the 35 of them with m >= 1 x 9 form pairs; 6
    # drawn pairs of the other half are orthogonal too
    assert (decisions, orthogonal) == (17496, 2484 + 6)
    assert agreed == decisions


def test_lines_for_k2_one_follow_the_oracles_form():
    verdicts = agreed = orthogonal = 0
    for n, space_form, oracle_form, params, rng in grid():
        if max(params.k1, params.k2) > 1:
            continue
        oracle = foreign_oracle(params, oracle_form)
        for l1, l2 in line_pairs(n, space_form, oracle_form, 24, rng):
            want = line_perp_ground_truth(rehome(l1, oracle_form), rehome(l2, oracle_form))
            orthogonal += want
            for mode in MODES:
                verdicts += 1
                agreed += reconstruct_line_perp(l1, l2, params, oracle, mode, rng) == want
    # the type (0, 1, 1) x 2 dims x 6 form pairs x 24 pairs x 2 modes
    assert (verdicts, orthogonal) == (576, 150)
    assert agreed == verdicts


def test_lines_for_k2_above_one_follow_the_spaces_form():
    # lines orthogonal under the oracle's form: the wrap refuses each one
    # that is not orthogonal under the space's form, before any query
    orthogonal = refused = 0
    wrapped = []
    for n, space_form, oracle_form, params, rng in grid():
        if max(params.k1, params.k2) == 1:
            continue
        for l1, l2 in line_pairs(n, space_form, oracle_form, 4, rng):
            if not line_perp_ground_truth(rehome(l1, oracle_form), rehome(l2, oracle_form)):
                continue
            orthogonal += 1
            queries = []
            oracle = counted(foreign_oracle(params, oracle_form), queries)
            verdicts = [
                reconstruct_line_perp(l1, l2, params, oracle, mode, rng) for mode in MODES
            ]
            if queries:
                wrapped.append(tuple(verdicts))
            else:
                assert verdicts == [False, False]
                assert not line_perp_ground_truth(l1, l2)
                refused += 1
    assert (orthogonal, refused) == (349, 336)
    # the 13 pairs orthogonal under both forms reach the oracle, which
    # accepts the space's wrapping pair for 1 of them
    assert len(wrapped) == 13
    assert wrapped.count((True, True)) == 1
    assert wrapped.count((False, False)) == 12
