"""Nonempty affine flats of Q^n with lattice operations, and their wire
format.

A flat is held canonically: its direction is a canonical RREF subspace and
its base point is the unique member whose coordinates vanish at every pivot
column of the direction.  The base point is stored only as integers over
their least positive common denominator, with no rational view of it.  A
point is the flat with a zero direction, so membership is
``is_subflat(point, x)``; rationals enter only through ``make``,
``from_point``, ``from_points`` and ``from_wire``, and each reads them with
``linalg.int_vector``, the package's one reader of rational input.  The
wire format is written and read in integers too: ``to_wire`` reduces each
coordinate by one gcd, and ``from_wire`` reads the canonical "p" and "p/q"
strings straight to integers, leaving ``scalar`` as the fallback for any
other entry, and reduces the basis rows to canonical form.
Equality and hashing of flats are plain structural comparisons of
integers.  The empty set is not a flat; ``meet`` returns None for disjoint
arguments.  ``meet`` and the relations read one reduced system, kept in a
one-partner slot on the first flat; ``meet`` does no elimination of its
own.

What depends only on a direction and the space is kept with the
direction, in ``linalg``, so every translate reads it: the equations
(``LinearSubspace.equations``), and the form rows and complement rows
(``LinearSubspace.form_rows`` and ``complement_rows``), each in one slot
keyed by the space, and the last xi-complement taken inside it
(``linalg.xi_complement``).  A flat keeps only what depends on its base point
too, the meet slot; this module makes no product with the form.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .errors import InputError
from .linalg import (
    LinearSubspace,
    QuadraticSpace,
    Scalarish,
    _kernel_in,
    _lies_in,
    _mat_mul_int,
    _rref_int,
    _subspace_from_int_rows,
    full_subspace,
    int_vector,
    zero_subspace,
)


@dataclass(frozen=True)
class AffineSubspace:
    """A nonempty affine flat: base point plus direction subspace.

    ``int_point`` is the canonical base point as (numerators, denominator),
    the denominator the least positive one that makes every coordinate an
    integer.  Construct via :meth:`make` (or the module helpers), which
    canonicalize; the raw constructor expects already-canonical parts.
    Products with the form are read from the direction,
    ``direction.form_rows(space)`` and ``direction.complement_rows(space)``,
    shared by every flat with that direction in the same space; the flat
    itself keeps only its meet slot (see ``_meet_parts``).
    """

    space: QuadraticSpace
    int_point: tuple[tuple[int, ...], int]
    direction: LinearSubspace

    def __post_init__(self) -> None:
        if len(self.int_point[0]) != self.space.dim:
            raise InputError("point length differs from ambient dimension")
        if self.direction.ambient_dim != self.space.dim:
            raise InputError("direction ambient dimension mismatch")

    @classmethod
    def make(
        cls,
        space: QuadraticSpace,
        point: Sequence[Scalarish],
        direction: LinearSubspace,
    ) -> "AffineSubspace":
        nums, den = int_vector(point)
        if len(nums) != space.dim:
            raise InputError("point length differs from ambient dimension")
        return cls._canonical(space, nums, den, direction)

    @classmethod
    def _canonical(
        cls, space: QuadraticSpace, nums: list[int], den: int, direction: LinearSubspace
    ) -> "AffineSubspace":
        """The flat through ``nums / den``, its point moved to the unique one
        with zeros at the direction's pivots; the elimination stays in
        integers, and the point is stored over its least denominator
        (``den`` must be positive)."""
        for row, c in zip(direction.int_rows, direction.pivots):
            f = nums[c]
            if f:
                pv = row[c]
                g = math.gcd(pv, f)
                a, b = pv // g, f // g
                nums = [x * a - y * b for x, y in zip(nums, row)]
                den *= a
        g = math.gcd(den, *nums)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        return cls(space, (tuple(nums), den), direction)

    @classmethod
    def from_point(cls, space: QuadraticSpace, point: Sequence[Scalarish]) -> "AffineSubspace":
        return cls.make(space, point, zero_subspace(space.dim))

    @classmethod
    def from_points(
        cls, space: QuadraticSpace, points: Sequence[Sequence[Scalarish]]
    ) -> "AffineSubspace":
        """Affine hull of a nonempty point set: through the first point u / e,
        spanned by each difference p / f - u / e taken times e f."""
        if not points:
            raise InputError("affine hull needs at least one point")
        read = [int_vector(p) for p in points]
        if any(len(nums) != space.dim for nums, _ in read):
            raise InputError("point length differs from ambient dimension")
        (u, e), *rest = read
        diffs = [[a * e - b * f for a, b in zip(nums, u)] for nums, f in rest]
        return cls._canonical(space, u, e, _subspace_from_int_rows(diffs, space.dim))

    @classmethod
    def full(cls, space: QuadraticSpace) -> "AffineSubspace":
        return cls._canonical(space, [0] * space.dim, 1, full_subspace(space.dim))

    @property
    def dim(self) -> int:
        return self.direction.rank

    @property
    def ambient_dim(self) -> int:
        return self.space.dim

    @property
    def is_point(self) -> bool:
        return self.direction.is_zero

    def to_wire(self) -> dict:
        """The point and the pivot-1 basis rows as "p/q" strings."""
        d = self.direction
        return {
            "point": int_vector_to_wire(*self.int_point),
            "basis": [
                int_vector_to_wire(row, row[c]) for row, c in zip(d.int_rows, d.pivots)
            ],
        }

    @classmethod
    def from_wire(cls, space: QuadraticSpace, data: dict) -> "AffineSubspace":
        """The flat of a ``to_wire`` payload, or of any payload whose point
        and basis rows name a flat of the space."""
        if not isinstance(data, dict):
            raise InputError("malformed flat payload: not an object")
        try:
            point, rows = data["point"], data["basis"]
        except KeyError as exc:
            raise InputError(f"malformed flat payload: missing {exc}") from exc
        if not (
            isinstance(point, list)
            and isinstance(rows, list)
            and all(isinstance(r, list) for r in rows)
        ):
            raise InputError("malformed flat payload: point and basis rows must be lists")
        nums, den = int_vector(point)
        int_rows = [int_vector(r)[0] for r in rows]
        if len(nums) != space.dim or any(len(r) != space.dim for r in int_rows):
            raise InputError("flat payload does not match ambient dimension")
        direction = _subspace_from_int_rows(int_rows, space.dim)
        return cls._canonical(space, nums, den, direction)


# ---------------------------------------------------------------------------
# wire format


def int_vector_to_wire(nums: Sequence[int], den: int) -> list[str]:
    """The wire strings of ``nums / den`` (``den > 0``): "p/q" in lowest
    terms, with "/q" omitted when the denominator is 1, as ``str`` writes a
    ``Fraction``."""
    gcd = math.gcd
    out = []
    for x in nums:
        if not x:
            out.append("0")
            continue
        g = gcd(x, den)
        out.append(str(x // den) if g == den else f"{x // g}/{den // g}")
    return out


def _check_same_space(x1: AffineSubspace, x2: AffineSubspace) -> None:
    # spaces come from resolve_space's cache; == compares the integer forms
    if x1.space is not x2.space and x1.space != x2.space:
        raise InputError("flats live in different ambient spaces")


def is_subflat(inner: AffineSubspace, outer: AffineSubspace) -> bool:
    """inner ⊆ outer as point sets."""
    _check_same_space(inner, outer)
    diff, _ = _point_difference(outer, inner)
    return _lies_in((*inner.direction.int_rows, diff), outer.direction)


def _point_difference(x1: AffineSubspace, x2: AffineSubspace) -> tuple[list[int], int]:
    """p2 - p1 as integer numerators over the lcm of the points' denominators."""
    u1, e1 = x1.int_point
    u2, e2 = x2.int_point
    e = math.lcm(e1, e2)
    s1, s2 = e // e1, e // e2
    return [b * s2 - a * s1 for a, b in zip(u1, u2)], e


def _meet_parts(
    x1: AffineSubspace, x2: AffineSubspace
) -> Optional[tuple[list[list[int]], list[int], int]]:
    """The intersection as a reduced system in the coefficients of x1's
    direction rows D1, or None when the flats are disjoint.

    A point p1 + D1^T a lies on x2 iff E (D1^T a) = E (p2 - p1) for the
    equations E of x2's direction; with p2 - p1 = delta / e over a common
    denominator, the system E D1^T a = E delta / e is reduced in integers
    once, column c the coefficient of D1's row k1 - 1 - c and column k1
    the right side, times e.  The flats are disjoint exactly when the last
    pivot falls on the right side.  Otherwise returns the reduced rows,
    their pivot columns and e.  The meet's direction has dimension
    dim(x1) - len(pivots), which is all the relations read; ``meet`` alone
    reads the common point and the direction from the rows.

    The result is kept in one slot of x1's instance dict, next to a weak
    reference to x2, and read back only for that same x2: a flat holds no
    partner alive, so a pair related both ways is no reference cycle, and
    the relations revisit only the pair they just met.  Callers must not
    mutate it.

    Flats with one base point, as every pair the line wrap hands on is, have
    p2 - p1 = 0: the right side is a column of zeros, formed without its
    products, over the point's own denominator, and such flats always meet.
    """
    slot = x1.__dict__.get("_meet")
    if slot is not None and slot[0]() is x2:
        return slot[1]
    r1 = x1.direction.int_rows
    eqs = x2.direction.equations
    if x1.int_point == x2.int_point:
        e, rhs = x1.int_point[1], [0] * len(eqs)
    else:
        delta, e = _point_difference(x1, x2)
        rhs = [sum(map(mul, eq, delta)) for eq in eqs]
    aug = [
        [sum(map(mul, eq, row)) for row in reversed(r1)] + [b]
        for eq, b in zip(eqs, rhs)
    ]
    rows, pivots = _rref_int(aug)
    parts = None if pivots and pivots[-1] == len(r1) else (rows, pivots, e)
    x1.__dict__["_meet"] = (weakref.ref(x2), parts)
    return parts


def meet(x1: AffineSubspace, x2: AffineSubspace) -> Optional[AffineSubspace]:
    """Intersection flat, or None when the flats are disjoint."""
    _check_same_space(x1, x2)
    parts = _meet_parts(x1, x2)
    if parts is None:
        return None
    r1 = x1.direction.int_rows
    if not r1:
        # a point flat that meets x2 is the meet
        return x1
    rows, pivots, e = parts
    k1 = len(r1)
    # the particular solution a sets every free coefficient to zero
    lcm_p = math.lcm(*[row[c] for row, c in zip(rows, pivots)])
    coeffs_a = [0] * k1
    for row, c in zip(rows, pivots):
        coeffs_a[k1 - 1 - c] = row[k1] * (lcm_p // row[c])
    # p1 + D1^T a as one integer combination over lcm_p e, a multiple of p1's
    # denominator
    den = lcm_p * e
    u1, e1 = x1.int_point
    comb = _mat_mul_int([coeffs_a], r1)[0]
    nums = [u * (den // e1) + c for u, c in zip(u1, comb)]
    # the kernel's combinations of D1 span the meet's direction
    direction = _kernel_in(rows, pivots, x1.direction)
    return AffineSubspace._canonical(x1.space, nums, den, direction)


def join(x1: AffineSubspace, x2: AffineSubspace) -> AffineSubspace:
    """Least flat containing both arguments."""
    _check_same_space(x1, x2)
    connector, _ = _point_difference(x1, x2)
    direction = _subspace_from_int_rows(
        x1.direction.int_rows + x2.direction.int_rows + (connector,),
        x1.ambient_dim,
    )
    return AffineSubspace._canonical(x1.space, *x1.int_point, direction)


def parallel(x1: AffineSubspace, x2: AffineSubspace) -> bool:
    """Equality of direction spaces (equal-dimension translates)."""
    _check_same_space(x1, x2)
    return x1.direction == x2.direction


def translate_through(x: AffineSubspace, q: AffineSubspace) -> AffineSubspace:
    """The flat parallel to x that passes through the point flat q."""
    _check_same_space(x, q)
    if not q.is_point:
        raise InputError("q must be a point flat")
    return AffineSubspace._canonical(x.space, *q.int_point, x.direction)
