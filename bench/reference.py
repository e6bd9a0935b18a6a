"""A fixed piece of Fraction arithmetic that measures how fast the host runs.

On a shared 2-core cloud machine, other tenants make every Python
instruction take up to twice as long, CPU time included, in phases that
last from milliseconds to minutes, and the load average does not show it.  No
statistic of the program's own times removes a phase that covers a whole
run.  So the benchmark runs ``block`` (its own code, never the program's)
right after every op, and divides each op's times by ``factors``: the mean
time of the blocks run around that op, over ``NOMINAL_S``.  The result is
the op's time on a host where the block takes ``NOMINAL_S``, about what an
uncontended core of that machine needs.  A change to the program moves
the op's time and not the block's, so it shows in full.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from itertools import accumulate

NOMINAL_S = 0.12e-3
# blocks on each side of an op that set its factor
HALF_WINDOW = 16

_rng = random.Random(1203)
MATRIX = tuple(
    tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(4))
    for _ in range(3)
)


def block() -> list:
    """Gauss-Jordan elimination of ``MATRIX`` in exact fractions.

    The collector stays off inside, so the block's time does not depend on
    how many objects the program left behind; the block makes no cycles.
    """
    gc.disable()
    try:
        return _eliminate()
    finally:
        gc.enable()


def _eliminate() -> list:
    m = [list(row) for row in MATRIX]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def factors(refs: list[float], half: int = HALF_WINDOW) -> list[float]:
    """How much slower than nominal the host ran around each entry.

    ``refs`` are block times in the order they ran; entry ``i`` gets the
    mean of entries ``i - half`` to ``i + half`` that exist, over
    ``NOMINAL_S``.
    """
    prefix = list(accumulate(refs, initial=0.0))
    n = len(refs)
    out = []
    for i in range(n):
        a, b = max(0, i - half), min(n, i + half + 1)
        out.append((prefix[b] - prefix[a]) / ((b - a) * NOMINAL_S))
    return out


def factor(refs: list[float]) -> float:
    """The mean of ``refs`` over ``NOMINAL_S``: one factor for a whole span."""
    return sum(refs) / (len(refs) * NOMINAL_S)
