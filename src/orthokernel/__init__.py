"""Exact rational geometry kernel for graded orthogonality of affine flats.

Everything is exact over Q, so every predicate here is a decision, not an
approximation: subspace calculus in row echelon form, affine flats with
meet/join, a family of orthogonality relations graded by the dimension of
the intersection, exact reflections held as integers, and an oracle-based
pipeline that recovers line orthogonality from a typed orthogonality
predicate plus incidence data.  A seeded property harness and a CLI sit
on top.

Rationals exist only at the boundary, read by one function,
``linalg.int_vector`` (with ``scalar`` as its fallback); inside, flats and
the ``QuadraticSpace`` form hold integers.  A point is a 0-dimensional
flat: the generators, ``translate_through``, ``orthocomplement_in`` and
``common_perpendicular_feet`` take or return point flats, and membership
of a point in a flat is ``is_subflat(point, flat)``.

The package root exports the names of the README's Quick start and the
error classes, so importing it loads only ``errors``, ``linalg``,
``flats`` and ``ortho``.  Every other name is imported from its module:
``orthokernel.linalg``, ``flats``, ``ortho``, ``reconstruct``,
``generators``, ``properties``, ``counterexamples`` and ``cli``.
"""

from .errors import (
    GenerationError,
    InputError,
    InternalError,
    KernelError,
    PreconditionError,
    UnsatisfiableParams,
)
from .linalg import QuadraticSpace, rref_basis
from .flats import AffineSubspace
from .ortho import TypedPerpParams, make_perp_pair, perp_g, perp_m

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace",
    "GenerationError",
    "InputError",
    "InternalError",
    "KernelError",
    "PreconditionError",
    "QuadraticSpace",
    "TypedPerpParams",
    "UnsatisfiableParams",
    "make_perp_pair",
    "perp_g",
    "perp_m",
    "rref_basis",
]
