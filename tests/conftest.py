import random

import pytest

from orthokernel.linalg import QQ, QuadraticSpace

# one PASS/FAIL line per acceptance criterion, printed after the run
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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
