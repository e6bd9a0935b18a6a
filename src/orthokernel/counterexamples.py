"""Fixed Q^3 configurations showing perp_g is not monotone under inclusion.

Enlarging or shrinking one side of an orthogonal pair can break the
relation, so no unconditional transitivity-along-inclusion law holds; the
two instances below pin down both directions.  Every advertised predicate
value is re-evaluated on emission and a mismatch raises InternalError,
since these values are load-bearing for everything built on perp_g.
"""

from __future__ import annotations

from .errors import InternalError
from .flats import AffineSubspace, is_subflat, meet
from .generators import resolve_space
from .linalg import _subspace_from_int_rows
from .ortho import perp_g

# (label, direction rows of A, B, C through the origin, named checks with
# the value each must take); checks look perp_g up when they run
_INSTANCES = (
    # growing the partner: A perp_g B but not A perp_g C, though B sits
    # inside C with one extra dimension
    (
        "grow-partner-breaks-perp",
        {"A": [[0, 1, 0]], "B": [[1, 0, 0]], "C": [[1, 0, 0], [0, 1, 1]]},
        (
            ("perp_g(A,B)", lambda f: perp_g(f["A"], f["B"]), True),
            ("B strictly inside C",
             lambda f: is_subflat(f["B"], f["C"]) and f["C"].dim == f["B"].dim + 1,
             True),
            ("perp_g(A,C)", lambda f: perp_g(f["A"], f["C"]), False),
        ),
    ),
    # shrinking the partner: A perp_g B but not A perp_g C, though C sits
    # inside B one dimension down and still meets A
    (
        "shrink-partner-breaks-perp",
        {"A": [[1, 0, 0], [0, 1, 0]], "B": [[1, 0, 0], [0, 0, 1]], "C": [[1, 0, 1]]},
        (
            ("perp_g(A,B)", lambda f: perp_g(f["A"], f["B"]), True),
            ("C strictly inside B",
             lambda f: is_subflat(f["C"], f["B"]) and f["C"].dim == f["B"].dim - 1,
             True),
            ("A meets C", lambda f: meet(f["A"], f["C"]) is not None, True),
            ("perp_g(A,C)", lambda f: perp_g(f["A"], f["C"]), False),
        ),
    ),
)


def emit_counterexamples() -> list[dict]:
    """Build, verify, and serialize both instances."""
    space = resolve_space(3, "identity")
    instances = []
    for label, rows, checks in _INSTANCES:
        # the origin has zeros at every pivot, so each flat is canonical
        flats = {
            name: AffineSubspace(space, ((0,) * 3, 1), _subspace_from_int_rows(dirs, 3))
            for name, dirs in rows.items()
        }
        for name, check, want in checks:
            got = check(flats)
            if got != want:
                raise InternalError(f"{label}: check {name} evaluated to {got}")
        wires = {name: flat.to_wire() for name, flat in flats.items()}
        for name, wire in wires.items():
            if AffineSubspace.from_wire(space, wire).to_wire() != wire:
                raise InternalError(f"{label}: {name} does not round-trip")
        instances.append({
            "label": label,
            "dim": 3,
            "form": "identity",
            "flats": wires,
            "checks": {name: want for name, _, want in checks},
        })
    return instances
