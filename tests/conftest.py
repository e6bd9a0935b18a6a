import importlib
import pkgutil
import random

import pytest

import orthokernel
from orthokernel.flats import AffineSubspace
from orthokernel.linalg import QQ, QuadraticSpace, _subspace_from_int_rows

# one PASS/FAIL line per acceptance criterion, printed after the run
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _no_seed_from_the_caller(monkeypatch):
    # a seedless command reads ORTHOKERNEL_SEED; the tests that need it set it
    monkeypatch.delenv("ORTHOKERNEL_SEED", raising=False)


@pytest.fixture
def q2():
    return QuadraticSpace.euclidean(2)


@pytest.fixture
def q3():
    return QuadraticSpace.euclidean(3)


@pytest.fixture
def q4():
    return QuadraticSpace.euclidean(4)


@pytest.fixture
def q3_weighted():
    return QuadraticSpace.diagonal([QQ(1), QQ(2), QQ(3)])


@pytest.fixture
def rng():
    return random.Random(12345)


def package_modules():
    """Every module of the package but ``__main__``, for patching a name
    wherever a module binds it."""
    return [
        importlib.import_module(f"orthokernel.{info.name}")
        for info in pkgutil.iter_modules(orthokernel.__path__)
        if info.name != "__main__"
    ]


def qv(*entries):
    """Shorthand rational vector from ints or 'p/q' strings."""
    return tuple(QQ(e) for e in entries)


class ZeroDraws(random.Random):
    """An rng whose every bounded draw is 0 in [-3, 3]: getrandbits(3)
    always gives 3, and its calls are counted."""

    def __init__(self):
        super().__init__(0)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return 3


def tilted(y1, x2, row=0):
    """y1 with x2's canonical row number ``row`` added to its first row,
    through the same point.  It still meets x2 in that point alone; if
    (y1, x2) is orthogonal under some form, the tilted y1's direction
    projects onto x2's along that row, so under that form the tilted pair
    is not orthogonal, yet every m-flat of x2 holding the row passes."""
    first, *rest = y1.direction.int_rows
    moved = [a + b for a, b in zip(first, x2.direction.int_rows[row])]
    direction = _subspace_from_int_rows([moved, *rest], y1.ambient_dim)
    return AffineSubspace._canonical(y1.space, *y1.int_point, direction)
