"""Seeded random instance generation for the property harness.

Every draw is a pure function of a `random.Random` token, and per-trial
tokens are derived by hashing (master seed, property id, trial index), so
suites are order- and parallelism-independent.  Generators with restrictive
targets build instances constructively (shared meet flat plus independent
extensions, complements inside precomputed orthogonal spaces) rather than
rejection-sampling the whole configuration space.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .errors import GenerationError, InputError, PreconditionError
from .flats import AffineSubspace, is_subflat
from .linalg import (
    QuadraticSpace,
    _forward_steps,
    _subspace_from_int_rows,
    full_subspace,
    xi_complement,
    zero_subspace,
)
from .ortho import (
    COEFF_BOUND,
    RETRIES,
    TypedPerpParams,
    _draw,
    _draws,
    _rand_extension,
    _rand_int_point,
    rand_subspace_of,
)

NAMED_FORMS = ("identity", "diag", "tridiag")

FormSpec = Union[str, tuple]


@dataclass(frozen=True)
class GenConfig:
    """What a property run varies: the space, the master seed, optional
    pinned (m, k1, k2) and the sampled-mode candidate count.

    How coordinates are drawn and how often a collapsed draw is retried is
    fixed in :mod:`orthokernel.ortho` (``NUMERATOR_BOUND``,
    ``DENOMINATOR_BOUND``, ``COEFF_BOUND``, ``RETRIES``), not configured
    here.
    """

    dim: int
    form: FormSpec = "identity"
    seed: int = 0
    perp_params: Optional[TypedPerpParams] = None
    sample_count: int = 20

    def __post_init__(self) -> None:
        # a bool is an int, and trial_rng hashes its str: True is not 1
        for name in ("dim", "seed", "sample_count"):
            if type(getattr(self, name)) is not int:
                raise InputError(f"{name} must be an int")
        if self.dim < 1:
            raise InputError("dim must be positive")
        if self.sample_count < 1:
            raise InputError("sample_count must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must fit in 64 unsigned bits")
        if isinstance(self.form, str):
            if self.form not in NAMED_FORMS:
                raise InputError(
                    f"unknown form name {self.form!r}; use one of {NAMED_FORMS}"
                )
        elif not isinstance(self.form, tuple):
            raise InputError("form must be a name or a matrix of rational strings")
        params = self.perp_params
        if params is not None and not params.satisfiable_in(self.dim):
            raise InputError(
                f"(m,k1,k2)=({params.m},{params.k1},{params.k2}) is unsatisfiable"
                f" in dimension {self.dim}"
            )


def form_label(form: FormSpec) -> str:
    return form if isinstance(form, str) else "custom"


def tridiagonal_form(n: int) -> tuple[tuple[int, ...], ...]:
    """2 on the diagonal, 1 off: positive definite in every dimension."""
    return tuple(
        tuple(2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def resolve_space(dim: int, form: FormSpec) -> QuadraticSpace:
    if form == "identity":
        return QuadraticSpace.euclidean(dim)
    if form == "diag":
        return QuadraticSpace.diagonal(range(1, dim + 1))
    if form == "tridiag":
        return QuadraticSpace(dim, tridiagonal_form(dim))
    space = QuadraticSpace.from_matrix(form)
    if space.dim != dim:
        raise InputError(
            f"form matrix is {space.dim} x {space.dim}, expected {dim} x {dim}"
        )
    return space


def space_of(cfg: GenConfig) -> QuadraticSpace:
    return resolve_space(cfg.dim, cfg.form)


def trial_rng(master_seed: int, property_id: str, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{master_seed}:{property_id}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# flat generators


def gen_point(cfg: GenConfig, rng: random.Random) -> AffineSubspace:
    """A random point flat, drawn as :func:`ortho._rand_int_point` draws."""
    return AffineSubspace._canonical(
        space_of(cfg), *_rand_int_point(cfg.dim, rng), zero_subspace(cfg.dim)
    )


def gen_subspace(cfg: GenConfig, k: int, rng: random.Random) -> AffineSubspace:
    """A random flat of exact dimension k."""
    space = space_of(cfg)
    n = space.dim
    if not 0 <= k <= n:
        raise InputError(f"dimension {k} out of range for ambient {n}")
    direction = rand_subspace_of(full_subspace(n), k, rng)
    return AffineSubspace._canonical(space, *_rand_int_point(n, rng), direction)


def gen_pair_with_meet_dim(
    cfg: GenConfig, k1: int, k2: int, m: int, rng: random.Random
) -> tuple[AffineSubspace, AffineSubspace]:
    """A flat pair with prescribed dimensions meeting in dimension m.

    Built as a shared m-flat plus independent direction extensions; draws
    whose ranks collapse are rejected and retried.
    """
    space = space_of(cfg)
    n = space.dim
    if not (0 <= k1 <= n and 0 <= k2 <= n):
        raise InputError("flat dimensions out of range")
    if not max(0, k1 + k2 - n) <= m <= min(k1, k2):
        raise InputError(f"meet dimension {m} infeasible for ({k1}, {k2}) in Q^{n}")
    full = full_subspace(n)
    for _ in range(RETRIES):
        base = rand_subspace_of(full, m, rng).int_rows
        ext1 = tuple(_draws(rng, -COEFF_BOUND, COEFF_BOUND, n) for _ in range(k1 - m))
        ext2 = tuple(_draws(rng, -COEFF_BOUND, COEFF_BOUND, n) for _ in range(k2 - m))
        # base has rank m: all k1 + k2 - m rows are independent exactly when
        # both directions have full rank and their sum has rank k1 + k2 - m
        if len(_forward_steps(base + ext1 + ext2)) != k1 + k2 - m:
            continue
        p = _rand_int_point(n, rng)
        d1 = _subspace_from_int_rows(base + ext1, n)
        d2 = _subspace_from_int_rows(base + ext2, n)
        return (
            AffineSubspace._canonical(space, *p, d1),
            AffineSubspace._canonical(space, *p, d2),
        )
    raise GenerationError(f"no pair with meet dimension {m} after {RETRIES} draws")


def random_point_of(flat: AffineSubspace, rng: random.Random) -> AffineSubspace:
    """A random member point flat: base plus a small combination of
    directions."""
    nums, den = flat.int_point
    rows = flat.direction.int_rows
    for row, c in zip(rows, _draws(rng, -COEFF_BOUND, COEFF_BOUND, len(rows))):
        if c:
            nums = [x + c * den * y for x, y in zip(nums, row)]
    return AffineSubspace._canonical(
        flat.space, nums, den, zero_subspace(flat.ambient_dim)
    )


def sub_flat(flat: AffineSubspace, k: int, rng: random.Random) -> AffineSubspace:
    """A random k-dimensional subflat through a random point of flat: the
    flat between that point and flat."""
    return flat_between(random_point_of(flat, rng), flat, k, rng)


def super_flat(flat: AffineSubspace, k: int, rng: random.Random) -> AffineSubspace:
    """A random k-dimensional flat containing the given one: the flat
    between it and the whole space."""
    return flat_between(flat, AffineSubspace.full(flat.space), k, rng)


def flat_between(
    inner: AffineSubspace, outer: AffineSubspace, k: int, rng: random.Random
) -> AffineSubspace:
    """A random k-flat C with inner ⊆ C ⊆ outer (inner must sit in outer),
    through inner's base point.

    C's direction is inner's extended by k - dim(inner) small integer
    combinations of outer's direction rows, drawn together and redrawn up
    to RETRIES times while they collapse.  No draw is made when C is
    inner, or outer with inner a point.  Raises PreconditionError when inner
    is not inside outer; the whole space contains every flat, so super_flat
    pays for no check.
    """
    if not inner.dim <= k <= outer.dim:
        raise InputError(
            f"no {k}-flat between flats of dimensions {inner.dim} and {outer.dim}"
        )
    if outer.dim < outer.ambient_dim and not is_subflat(inner, outer):
        raise PreconditionError("inner must be a subflat of outer")
    direction = _rand_extension(inner.direction, outer.direction, k - inner.dim, rng)
    return AffineSubspace._canonical(inner.space, *inner.int_point, direction)


def gen_perp_to(
    a: AffineSubspace, q: AffineSubspace, rng: random.Random
) -> AffineSubspace:
    """A random flat C through the point flat q with C perp-g A.

    C's direction is an m-dimensional piece of A's direction, m < dim(A),
    extended inside the xi-complement of A's whole direction, which makes
    the complement of the meet inside C orthogonal to all of A.  Requires
    q ∈ A, dim(A) ≥ 1 and head room dim(A) < n, checked before any draw.
    """
    space = a.space
    n = space.dim
    if not q.is_point:
        raise InputError("q must be a point flat")
    if a.is_point:
        raise InputError("A must have dimension at least 1")
    if not is_subflat(q, a):
        raise PreconditionError("q must lie on A")
    room = n - a.dim
    if room < 1:
        raise InputError("ambient space leaves no orthogonal head room")
    m = _draw(rng, 0, a.dim - 1)
    k = _draw(rng, m + 1, m + room)
    dir_m = rand_subspace_of(a.direction, m, rng)
    comp = xi_complement(space, a.direction, full_subspace(n))
    # dir_m lies in A's direction, which meets its complement only in zero
    direction = _rand_extension(dir_m, comp, k - m, rng)
    return AffineSubspace._canonical(space, *q.int_point, direction)


def rand_params(rng: random.Random, n: int) -> TypedPerpParams:
    """A uniform-ish satisfiable dimension type for ambient dimension n."""
    if n < 2:
        raise InputError("typed pairs need ambient dimension at least 2")
    k1 = _draw(rng, 1, n - 1)
    k2 = _draw(rng, k1, n - 1)
    m = _draw(rng, max(0, k1 + k2 - n), k1 - 1)
    return TypedPerpParams(m, k1, k2)


def gen_line_pair(
    cfg: GenConfig, rng: random.Random, orthogonal: bool
) -> tuple[AffineSubspace, AffineSubspace]:
    """Two random lines, orthogonal on demand (possibly skew either way)."""
    space = space_of(cfg)
    n = space.dim
    full = full_subspace(n)
    d1 = rand_subspace_of(full, 1, rng)
    if orthogonal:
        d2 = rand_subspace_of(xi_complement(space, d1, full), 1, rng)
    else:
        d2 = rand_subspace_of(full, 1, rng)
    l1 = AffineSubspace._canonical(space, *_rand_int_point(n, rng), d1)
    l2 = AffineSubspace._canonical(space, *_rand_int_point(n, rng), d2)
    return l1, l2
