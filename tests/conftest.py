"""Shared fixtures: the worked examples every module is tested against.

Handles are session-scoped; they are expensive enough (minutes in
total) that rebuilding them per test would dominate the suite's
runtime.  A handle keeps the results it computes (the classification,
the overlap level, the Apery scan and the closure), so a test that
counts work, or compares two runs of one computation, builds its own.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from polysgp import build

# Five-vertex body mixing integer, fractional, and decimal-style
# coordinates; its semigroup has 6 minimal generators and is
# Cohen-Macaulay.
S3_VERTICES = [
    (3, 3, 2),
    (2, 3, 1),
    (1, 2, 3),
    (F(3, 2), 3, F(9, 2)),
    (F(33, 16), F(27, 8), F(63, 16)),
]

S3_GENERATORS = {
    (1, 2, 3),
    (2, 3, 1),
    (2, 3, 2),
    (2, 3, 3),
    (3, 3, 2),
    (4, 6, 7),
}

# Six-vertex body whose semigroup is Buchsbaum but not Cohen-Macaulay;
# its closure is the semigroup of the four-vertex tetrahedron below.
S5_VERTICES = [
    (F(24, 5), F(12, 5), F(12, 5)),
    (F(8, 3), F(16, 3), F(8, 3)),
    (F(8, 3), F(8, 3), F(16, 3)),
    (F(152, 33), F(152, 33), F(16, 3)),
    (F(152, 33), F(16, 3), F(152, 33)),
    (F(856, 165), F(68, 15), F(68, 15)),
]

S5_CLOSURE_TETRA = [
    (F(24, 5), F(12, 5), F(12, 5)),
    (F(8, 3), F(16, 3), F(8, 3)),
    (F(8, 3), F(8, 3), F(16, 3)),
    (F(16, 3), F(16, 3), F(16, 3)),
]

# Scaled simplex corners with a dent: the body spans the full octant
# cone but misses (1,1,1) forever, a non-normal semigroup.
NN_VERTICES = [
    (6, 0, 0),
    (0, 6, 0),
    (0, 0, 6),
    (F(11, 5), F(11, 5), F(11, 5)),
]

# Every ray chord is a segment (no point chords at all); the gap set is
# the three unit vectors, so the semigroup is not Cohen-Macaulay but
# becomes the full cone after closure.
WE_VERTICES = [
    (2, 0, 0),
    (3, 0, 0),
    (0, 2, 0),
    (0, 3, 0),
    (0, 0, 2),
    (0, 0, 3),
]

# Tetrahedron whose Apery intersection has two maximal elements:
# Cohen-Macaulay but not Gorenstein.
GORENSTEIN_NO_VERTICES = [
    (4, 0, 0),
    (8, 0, 0),
    (7, 2, 0),
    (6, 0, 1),
]

# Square-based pyramid: four extremal rays, outside the decided cases.
NONSIMPLICIAL_VERTICES = [
    (1, 0, 1),
    (0, 1, 1),
    (0, 0, 1),
    (1, 1, 1),
    (0, 0, 2),
]


# Tetrahedron with its rays within 1/A of the axes, A = 2*10^18 + 1: its
# cone normals are near (-1, -1, A + 1), so n.p passes int64 once a
# coordinate of p reaches 5, and every cone test on it needs exact
# integers.
_A = 2 * 10**18 + 1
WIDE_NORMALS_VERTICES = [
    (5, F(5, _A), F(5, _A)),
    (F(5, _A), 5, F(5, _A)),
    (F(5, _A), F(5, _A), 5),
    (5, 5, 5),
]

@pytest.fixture(scope="session")
def s3():
    return build(S3_VERTICES)


@pytest.fixture(scope="session")
def s5():
    return build(S5_VERTICES)


@pytest.fixture(scope="session")
def nn():
    return build(NN_VERTICES)


@pytest.fixture(scope="session")
def we():
    return build(WE_VERTICES)


@pytest.fixture(scope="session")
def gorenstein_no():
    return build(GORENSTEIN_NO_VERTICES)


@pytest.fixture(scope="session")
def pyramid():
    return build(NONSIMPLICIAL_VERTICES)


# One line per acceptance criterion, echoed after the run so the
# verdicts stay visible under output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
