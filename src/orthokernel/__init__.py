"""Exact rational geometry kernel for graded orthogonality of affine flats.

Everything is exact over Q, so every predicate here is a decision, not an
approximation: subspace calculus in row echelon form, affine flats with
meet/join, a family of orthogonality relations graded by the dimension of
the intersection, exact reflection isometries, and an oracle-based pipeline
that recovers line orthogonality from a typed orthogonality predicate plus
incidence data.  A seeded property harness and a CLI sit on top.

Rationals exist only at the boundary (``AffineSubspace.make``,
``from_point``, ``from_points``, ``from_wire`` and form parsing); inside,
flats hold integers.  A point is a 0-dimensional flat: the generators,
``translate_through``, ``orthocomplement_in`` and
``common_perpendicular_feet`` take or return point flats, and membership
of a point in a flat is ``is_subflat(point, flat)``.
"""

from .errors import (
    GenerationError,
    InputError,
    InternalError,
    KernelError,
    PreconditionError,
    UnsatisfiableParams,
)
from .linalg import (
    QQ,
    LinearSubspace,
    QuadraticSpace,
    bilinear_eval,
    determinant,
    full_subspace,
    is_positive_definite,
    is_symmetric,
    mat_inverse,
    rref_basis,
    subspace_intersect,
    subspace_sum,
    xi_complement,
    zero_subspace,
)
from .flats import (
    AffineSubspace,
    is_subflat,
    join,
    meet,
    parallel,
    translate_through,
)
from .ortho import (
    AffineIsometry,
    TypedPerpParams,
    isometry_compose,
    isometry_equal,
    make_perp_pair,
    orthocomplement_in,
    perp_g,
    perp_go,
    perp_m,
    perp_subspaces,
    perp_x,
    reflection,
    reflections_commute,
    unique_complement,
)
from .reconstruct import (
    PerpOracle,
    ReconstructionMode,
    common_perpendicular_feet,
    decide_perp0,
    ground_truth_oracle,
    lemma1_witness,
    lemma2_witness,
    line_perp_ground_truth,
    reconstruct_line_perp,
)
from .generators import GenConfig, gen_pair_with_meet_dim, gen_subspace
from .properties import (
    ALL_PROPERTY_IDS,
    CORE_PROPERTY_IDS,
    PropertyReport,
    run_property,
    run_suite,
)
from .counterexamples import emit_counterexamples

__version__ = "0.1.0"

__all__ = [
    "AffineIsometry",
    "AffineSubspace",
    "ALL_PROPERTY_IDS",
    "CORE_PROPERTY_IDS",
    "GenConfig",
    "GenerationError",
    "InputError",
    "InternalError",
    "KernelError",
    "LinearSubspace",
    "PerpOracle",
    "PreconditionError",
    "PropertyReport",
    "QQ",
    "QuadraticSpace",
    "ReconstructionMode",
    "TypedPerpParams",
    "UnsatisfiableParams",
    "bilinear_eval",
    "common_perpendicular_feet",
    "decide_perp0",
    "determinant",
    "emit_counterexamples",
    "full_subspace",
    "gen_pair_with_meet_dim",
    "gen_subspace",
    "ground_truth_oracle",
    "is_positive_definite",
    "is_subflat",
    "is_symmetric",
    "isometry_compose",
    "isometry_equal",
    "join",
    "lemma1_witness",
    "lemma2_witness",
    "line_perp_ground_truth",
    "make_perp_pair",
    "mat_inverse",
    "meet",
    "orthocomplement_in",
    "parallel",
    "perp_g",
    "perp_go",
    "perp_m",
    "perp_subspaces",
    "perp_x",
    "reconstruct_line_perp",
    "reflection",
    "reflections_commute",
    "rref_basis",
    "run_property",
    "run_suite",
    "subspace_intersect",
    "subspace_sum",
    "translate_through",
    "unique_complement",
    "xi_complement",
    "zero_subspace",
]
