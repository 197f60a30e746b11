"""The bodies each workload runs on, and the queries one pass makes.

A pass is a list of `Query` objects.  Every query names the body it
runs on, so a result can be looked up in the goldens by
``"<body>|<op>"``.  The default seed reproduces the frozen corpus
exactly; any other seed adds one fresh instancegen poly draw to it, at
a place in the pass the seed picks.  The frozen bodies always run, so
runs with different seeds stay comparable: the fresh body is a small
share of a pass (a fresh poly's two decider queries take 0.01-0.7 s
under the deciders cap).  Fresh tetrahedra vary too much in cost
(0.02-3 s and more for one Gorenstein query under the same caps) to
draw any.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

import instancegen  # tests/instancegen.py, put on sys.path by the caller

from polysgp import build, dilate, overlap_level
from polysgp.geometry import integer_point_count
from polysgp.errors import PolysgpError
from polysgp.rings import gorenstein_family

DEFAULT_SEED = 0

# The published fixtures (the paper's worked examples).
FIXTURES = {
    "cm": [
        (3, 3, 2), (2, 3, 1), (1, 2, 3),
        (F(3, 2), 3, F(9, 2)), (F(33, 16), F(27, 8), F(63, 16)),
    ],
    "gorenstein": [(4, 0, 0), (7, 3, 0), (10, 0, 0), (7, 0, 1)],
    "nn": [(6, 0, 0), (0, 6, 0), (0, 0, 6), (F(11, 5), F(11, 5), F(11, 5))],
    "we": [(2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2), (0, 0, 3)],
    "gorenstein_no": [(4, 0, 0), (8, 0, 0), (7, 2, 0), (6, 0, 1)],
    "buchsbaum": [
        (F(24, 5), F(12, 5), F(12, 5)),
        (F(8, 3), F(16, 3), F(8, 3)),
        (F(8, 3), F(8, 3), F(16, 3)),
        (F(152, 33), F(152, 33), F(16, 3)),
        (F(152, 33), F(16, 3), F(152, 33)),
        (F(856, 165), F(68, 15), F(68, 15)),
    ],
}

FAMILY_KS = range(2, 9)
# structure stops at k = 6: k = 7 and 8 take 1.9 and 3.6 s for one
# chain.  Passes are kept short (3-5 s) so that a run repeats every
# query often enough for a steady median (see worker.py); k = 6 puts
# the structure tail among the close k = 4 and seed 96 queries.
STRUCTURE_FAMILY_KS = range(2, 7)

# The frozen instancegen seeds of tests/test_acceptance.py.
TETRA_SEEDS = [
    0, 13, 24, 43, 53, 62, 85, 107, 135, 142,
    143, 152, 155, 183, 196, 201, 274, 284, 324, 334,
]
POLY_SEEDS = [3, 27, 34, 48, 61, 68, 93, 96, 111, 197, 235, 278, 280]
# deciders leaves out its two slowest bodies, `nn` (1.1 s for the two
# queries) and tetra seed 183 (0.65 s), to keep its pass near 4 s.
DECIDERS_SKIP = {"nn", "tetra-183"}

# structure: the fixtures but the Buchsbaum body, whose one generator
# search takes 18 s (a run could not repeat it), and `nn`, whose chain
# takes 2.5 s (it runs in cli); and the POLY_SEEDS within the structure
# caps below; the others take 1-45 s each for the three generator
# searches.  Seed 96 has period 2.
STRUCTURE_FIXTURES = ["cm", "gorenstein", "we", "gorenstein_no"]
STRUCTURE_POLY = [3, 27, 34, 93, 96]

# Caps on a fresh draw's size: its layer bound and, for the generator
# searches, the lattice points of the span hull dilated to that bound.
# The frozen poly bodies of each workload stay below them, so a fresh
# body costs about as much as one of those; without them one draw can
# take minutes.
CAPS = {
    "structure": (12, 10_000),
    "deciders": (60, None),
    "cli": (12, 10_000),
}

STRUCTURE_OPS = (
    "build", "minimal_generators", "apery_intersection", "closure",
    "is_buchsbaum",
)
DECIDER_OPS = ("is_cohen_macaulay", "is_gorenstein")
DECOMPOSE = ("decompose",)
GAPS = ("gaps",)
GAPS_STRUCTURED = ("gaps", "--format", "structured")
IS_CM = ("is-cm",)
IS_GORENSTEIN = ("is-gorenstein",)
MSG_ORACLE = ("msg", "--oracle")
ORACLE_CHECK = ("oracle-check",)
ALL_COMMANDS = (DECOMPOSE, GAPS, GAPS_STRUCTURED, IS_CM, IS_GORENSTEIN,
                MSG_ORACLE, ORACLE_CHECK)
# The CLI bodies and the commands each runs.  Every command runs on
# three small bodies; all but `oracle-check` on five more, so that a pass holds enough queries for its p50 and tail
# to stay put when a seed adds a fresh body.  On the large bodies runs
# only what a pass of about 5 s leaves room for: `decompose` and the
# text gap listing of `nn` (629 KB; its structured listing alone takes
# 2.1 s, its oracle-check 2.2 s, its two deciders 0.9 s), and the two gap
# listings of tetra seed 62 (23 870 gaps).  The oracle-check runs of
# tetra seeds 62, 183 and 274 take 2.5-6 s each.
NO_ORACLE_CHECK = ALL_COMMANDS[:-1]
CLI_PLAN = {
    "cm": ALL_COMMANDS,
    "nn": (DECOMPOSE, GAPS),
    "we": ALL_COMMANDS,
    "gorenstein": NO_ORACLE_CHECK,
    "gorenstein_no": NO_ORACLE_CHECK,
    "family-3": NO_ORACLE_CHECK,
    "poly-27": NO_ORACLE_CHECK,
    "poly-34": NO_ORACLE_CHECK,
    "poly-96": ALL_COMMANDS,
    "tetra-62": (GAPS, GAPS_STRUCTURED),
}
# A fresh poly leaves out `msg --oracle` and `oracle-check`: on fresh
# draws under the cli cap they take 0.04-0.3 s and 0.3-2.2 s, which
# moved cli `queries_per_s` by up to 25% from seed to seed.
FRESH_CLI_PLAN = ALL_COMMANDS[:5]


@dataclass(frozen=True)
class Query:
    body: str
    op: str  # library entry point, or the CLI argument list joined by " "
    argv: tuple = ()  # CLI arguments, empty for library queries

    @property
    def key(self) -> str:
        return "%s|%s" % (self.body, self.op)


@dataclass
class Corpus:
    """Vertex lists by body name, plus what the draw rejected."""

    vertices: dict
    fresh: set  # names of bodies that have no golden
    rejected: list  # (generator, instancegen seed, reason)


def layer_bound(h) -> int:
    """Layers the generator search needs at least: the certification
    level (overlap level + 2 periods + 1) stretched by the spread of
    the vertices' coordinate sums."""
    sums = [v.x + v.y + v.z for v in h.body.vertices]
    stretch = max(sums) / min(sums)
    return math.ceil((overlap_level(h) + 2 * h.period() + 1) * stretch)


def _admit(verts, caps) -> Optional[str]:
    """None when a fresh draw is usable, else why it is skipped."""
    max_layers, max_points = caps
    try:
        h = build(verts)
    except PolysgpError as exc:
        return "build: %s: %s" % (type(exc).__name__, exc)
    if not h.simplicial:
        return "not simplicial (%d rays)" % len(h.rays)
    try:
        lb = layer_bound(h)
    except PolysgpError as exc:
        return "overlap level: %s: %s" % (type(exc).__name__, exc)
    if lb > max_layers:
        return "layer bound %d > %d" % (lb, max_layers)
    if max_points is not None:
        pts = integer_point_count(dilate(h.span_hull, lb))
        if pts > max_points:
            return "points to layer bound %d > %d" % (pts, max_points)
    return None


def make_corpus(workload: str, seed: int) -> tuple[Corpus, list[str]]:
    """The workload's bodies and their order for this seed."""
    if workload == "structure":
        names = list(STRUCTURE_FIXTURES)
        names += ["family-%d" % k for k in STRUCTURE_FAMILY_KS]
        names += ["poly-%d" % s for s in STRUCTURE_POLY]
    elif workload == "deciders":
        names = list(FIXTURES)
        names += ["family-%d" % k for k in FAMILY_KS]
        names += ["tetra-%d" % s for s in TETRA_SEEDS]
        names += ["poly-%d" % s for s in POLY_SEEDS]
        names = [n for n in names if n not in DECIDERS_SKIP]
    elif workload == "cli":
        names = list(CLI_PLAN)
    else:
        raise ValueError("unknown workload %r" % workload)

    corpus = Corpus(vertices={}, fresh=set(), rejected=[])
    rng = random.Random("%s:%d" % (workload, seed))
    if seed != DEFAULT_SEED:
        while True:
            s = rng.randrange(10**6, 10**9)
            verts = instancegen.poly_vertices(s)
            reason = _admit(verts, CAPS[workload])
            if reason is None:
                break
            corpus.rejected.append(("poly", s, reason))
        name = "fresh-poly-%d" % s
        names.insert(rng.randrange(len(names) + 1), name)
        corpus.vertices[name] = verts
        corpus.fresh.add(name)
    for n in names:
        if n not in corpus.vertices:
            corpus.vertices[n] = vertices_of(n)
    return corpus, names


def vertices_of(name: str):
    if name in FIXTURES:
        return FIXTURES[name]
    kind, _, arg = name.rpartition("-")
    if kind == "family":
        return [p.as_tuple() for p in gorenstein_family(int(arg))]
    if kind == "tetra":
        return instancegen.tetra_vertices(int(arg))
    if kind in ("poly", "fresh-poly"):
        return instancegen.poly_vertices(int(arg))
    raise ValueError("unknown body %r" % name)


def make_pass(workload: str, names: list[str]) -> list[Query]:
    """One pass: the queries in the order they run."""
    out: list[Query] = []
    for n in names:
        if workload == "structure":
            out += [Query(n, op) for op in STRUCTURE_OPS]
        elif workload == "deciders":
            out += [Query(n, op) for op in DECIDER_OPS]
        else:
            plan = FRESH_CLI_PLAN if n.startswith("fresh-") else CLI_PLAN[n]
            out += [Query(n, " ".join(cmd), cmd) for cmd in plan]
    return out
