"""Acceptance gate: every published figure of merit, recomputed exactly.

The nine checks below rebuild their inputs from scratch, compare in
exact rational arithmetic with zero tolerance, and each emits one
``ACCEPTANCE n: PASS/FAIL`` line (echoed in the terminal summary).
"""

import time
from fractions import Fraction as F
from itertools import product

import instancegen
from conftest import ACCEPTANCE_LINES

from polysgp import (
    apery_table,
    build,
    build_family,
    closure,
    closure_member_int,
    corner_slab,
    in_cone_int,
    is_buchsbaum,
    is_cohen_macaulay,
    is_gorenstein,
    member_int,
    minimal_generators,
    oracle,
    overlap_level,
    ray_chord_class,
    ray_period,
    ray_point,
    slab_integer_points,
    slabs,
)

# --- published fixture data (restated here so the gate is self-contained)

CM_YES_VERTICES = [
    (3, 3, 2),
    (2, 3, 1),
    (1, 2, 3),
    (F(3, 2), 3, F(9, 2)),
    (F(33, 16), F(27, 8), F(63, 16)),
]

CM_YES_GENERATORS = {
    (1, 2, 3),
    (2, 3, 1),
    (2, 3, 2),
    (2, 3, 3),
    (3, 3, 2),
    (4, 6, 7),
}

GORENSTEIN_VERTICES = [(4, 0, 0), (7, 3, 0), (10, 0, 0), (7, 0, 1)]

GORENSTEIN_GENERATORS = {
    (4, 0, 0),
    (5, 0, 0),
    (6, 0, 0),
    (7, 0, 0),
    (5, 1, 0),
    (6, 1, 0),
    (7, 1, 0),
    (8, 1, 0),
    (6, 2, 0),
    (7, 2, 0),
    (8, 2, 0),
    (7, 3, 0),
    (7, 0, 1),
}

BUCHSBAUM_VERTICES = [
    (F(24, 5), F(12, 5), F(12, 5)),
    (F(8, 3), F(16, 3), F(8, 3)),
    (F(8, 3), F(8, 3), F(16, 3)),
    (F(152, 33), F(152, 33), F(16, 3)),
    (F(152, 33), F(16, 3), F(152, 33)),
    (F(856, 165), F(68, 15), F(68, 15)),
]

BUCHSBAUM_GENERATORS = {
    (3, 3, 5), (3, 4, 4), (3, 5, 3), (4, 3, 3),
    (4, 3, 4), (4, 4, 3), (4, 4, 4), (4, 4, 5),
    (4, 5, 4), (5, 4, 4), (6, 6, 9), (6, 7, 8),
    (6, 8, 7), (6, 9, 6), (8, 5, 7), (8, 7, 5),
    (8, 8, 16), (8, 9, 15), (8, 10, 14), (8, 11, 13),
    (8, 12, 12), (8, 13, 11), (8, 14, 10),
    (8, 15, 9), (8, 16, 8), (9, 6, 6), (9, 6, 7), (9, 7, 6),
    (9, 9, 9), (9, 9, 10), (9, 9, 16),
    (9, 10, 9), (9, 10, 15), (9, 11, 14), (9, 12, 13), (9, 13, 12),
    (9, 14, 11), (9, 15, 10),
    (9, 16, 9), (10, 7, 7), (10, 8, 13), (10, 9, 9), (10, 10, 16),
    (10, 11, 15), (10, 12, 14),
    (10, 13, 8), (10, 13, 13), (10, 14, 12), (10, 15, 11),
    (10, 16, 10), (11, 11, 16), (11, 12, 15),
    (11, 13, 14), (11, 14, 13), (11, 15, 12), (11, 16, 11),
    (12, 12, 16), (12, 13, 15), (12, 14, 14),
    (12, 15, 13), (12, 16, 12), (13, 8, 9), (13, 9, 8), (14, 8, 8),
    (14, 9, 9), (18, 10, 11),
    (18, 11, 10), (19, 10, 10),
    (19, 11, 11), (24, 12, 12), (24, 13, 13),
}

CLOSURE_TETRA_VERTICES = [
    (F(24, 5), F(12, 5), F(12, 5)),
    (F(8, 3), F(16, 3), F(8, 3)),
    (F(8, 3), F(8, 3), F(16, 3)),
    (F(16, 3), F(16, 3), F(16, 3)),
]

NON_NORMAL_VERTICES = [
    (6, 0, 0),
    (0, 6, 0),
    (0, 0, 6),
    (F(11, 5), F(11, 5), F(11, 5)),
]

TETRA_SEEDS = [
    0, 13, 24, 43, 53, 62, 85, 107, 135, 142,
    143, 152, 155, 183, 196, 201, 274, 284, 324, 334,
]

POLY_SEEDS = [3, 27, 34, 48, 61, 68, 93, 96, 111, 197, 235, 278, 280]


class _criterion:
    """Context manager timing one criterion and recording its verdict."""

    def __init__(self, n, budget=None):
        self.n = n
        self.budget = budget
        self.detail = ""

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def _line(self, text):
        ACCEPTANCE_LINES.append(text)
        print(text)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is not None:
            self._line("ACCEPTANCE %d: FAIL — %s" % (self.n, exc))
            return False
        if self.budget is not None and elapsed > self.budget:
            self._line(
                "ACCEPTANCE %d: FAIL — took %.1f s, budget %.0f s"
                % (self.n, elapsed, self.budget)
            )
            raise AssertionError(
                "criterion %d exceeded its %.0f s budget (%.1f s)"
                % (self.n, self.budget, elapsed)
            )
        self._line(
            "ACCEPTANCE %d: PASS — %s (%.1f s)"
            % (self.n, self.detail, elapsed)
        )
        return False


def _replay(h, verdict):
    """A no-verdict witness must be checkable from membership alone."""
    w = verdict.witness
    p = w.point.int_tuple()
    assert not member_int(h, p)[0]
    assert len(set(w.indices)) >= 2
    for idx in w.indices:
        g = h.ray_generators[idx].int_tuple()
        assert member_int(h, (p[0] + g[0], p[1] + g[1], p[2] + g[2]))[0]


def test_acceptance_1_generator_set():
    with _criterion(1, budget=10.0) as c:
        gens = minimal_generators(build(CM_YES_VERTICES))
        assert gens.certified
        assert set(gens.int_tuples()) == CM_YES_GENERATORS
        c.detail = "6 minimal generators match the published set"


def test_acceptance_2_cohen_macaulay_yes():
    with _criterion(2, budget=30.0) as c:
        v = is_cohen_macaulay(build(CM_YES_VERTICES))
        assert v.verdict == "yes"
        c.detail = "Cohen-Macaulay verdict yes"


def test_acceptance_3_gorenstein_example():
    with _criterion(3, budget=30.0) as c:
        h = build(GORENSTEIN_VERTICES)
        gens = minimal_generators(h)
        assert gens.certified
        assert set(gens.int_tuples()) == GORENSTEIN_GENERATORS
        v = is_gorenstein(h)
        assert v.verdict == "yes"
        c.detail = "13 minimal generators match and Gorenstein verdict yes"


def _family_rows(k):
    rows = [((0, 0, 0), (5, 0, 0), (6, 0, 0), (7, 0, 0))]
    for j in range(1, k - 1):
        rows.append(((4 + j, j, 0), (5 + j, j, 0), (6 + j, j, 0), (7 + j, j, 0)))
    rows.append(
        ((3 + k, k - 1, 0), (4 + k, k - 1, 0), (5 + k, k - 1, 0), (10 + k, k - 1, 0))
    )
    return tuple(rows)


def test_acceptance_4_family_reproduction():
    with _criterion(4, budget=60.0) as c:
        for k in range(2, 7):
            v = is_gorenstein(build_family(k))
            assert v.verdict == "yes", k
            assert v.diagnostics["apery_maximal"] == ((10 + k, k - 1, 0),), k
            table = apery_table(k)
            assert table.rows == _family_rows(k), k
            assert table.empty_rows_checked == (k, k + 1), k
        c.detail = (
            "k=2..6: Gorenstein yes, all table rows, empty high rows, "
            "unique maximal element"
        )


def test_acceptance_5_buchsbaum_example():
    with _criterion(5, budget=300.0) as c:
        assert len(BUCHSBAUM_GENERATORS) == 71
        h = build(BUCHSBAUM_VERTICES)
        gens = minimal_generators(h)
        assert gens.certified
        assert set(gens.int_tuples()) == BUCHSBAUM_GENERATORS

        cm = is_cohen_macaulay(h)
        assert cm.verdict == "no"
        _replay(h, cm)

        bb = is_buchsbaum(h)
        assert bb.verdict == "yes"

        cl = closure(h)
        assert cl.gens_of_closure.certified
        box = oracle.box_for(CLOSURE_TETRA_VERTICES, 60)
        tetra_pts = oracle.scan_semigroup(CLOSURE_TETRA_VERTICES, box)
        closure_pts = {
            p
            for p in product(range(61), repeat=3)
            if closure_member_int(h, cl, p)
        }
        diff = closure_pts ^ tetra_pts
        assert not diff, sorted(diff)[:10]
        c.detail = (
            "71 generators, CM no with replayed witness, Buchsbaum yes, "
            "closure equals the tetrahedron semigroup on [0,60]^3 "
            "(%d points)" % len(tetra_pts)
        )


def test_acceptance_6_tetrahedron_battery():
    with _criterion(6) as c:
        failures = []
        for seed in TETRA_SEEDS:
            h = build(instancegen.tetra_vertices(seed))
            if is_cohen_macaulay(h).verdict != "yes":
                failures.append((seed, "not Cohen-Macaulay"))
            if is_buchsbaum(h).verdict != "yes":
                failures.append((seed, "not Buchsbaum"))
        assert not failures, failures
        c.detail = "20 random tetrahedra: Cohen-Macaulay and Buchsbaum yes"


def test_acceptance_7_slab_oracle_equivalence():
    with _criterion(7) as c:
        checks = 0
        for seed in POLY_SEEDS:
            h = build(instancegen.poly_vertices(seed))
            kappa = overlap_level(h)
            top = max(max(v.as_tuple()) for v in h.body.vertices)
            box = oracle.Box(int((kappa + 5) * top) + 1, 10 * (kappa + 6))
            for k in range(kappa, kappa + 4):
                ss = slabs(h, k)
                pts = set()
                for s in list(ss.corner) + list(ss.bridge):
                    pts |= slab_integer_points(s)
                members = oracle.scan_layer(h, k, box) | oracle.scan_layer(
                    h, k + 1, box
                )
                expected = oracle.scan_layer_gaps(h, k, box)
                assert pts - members == expected, (seed, k)
                checks += 1
        c.detail = "%d instances, %d level checks, 0 discrepancies" % (
            len(POLY_SEEDS),
            checks,
        )


def test_acceptance_8_translation_identities():
    with _criterion(8) as c:
        rays_checked = 0
        for verts in (
            CM_YES_VERTICES,
            GORENSTEIN_VERTICES,
            BUCHSBAUM_VERTICES,
            NON_NORMAL_VERTICES,
        ):
            h = build(verts)
            kappa = overlap_level(h)
            for i in range(len(h.rays)):
                if ray_chord_class(h, i) != "point":
                    continue
                p = ray_point(h, i)
                hp = ray_period(h, i)
                base = corner_slab(h, i, kappa)
                base_pts = slab_integer_points(base)
                for j in range(1, 6):
                    # vertex lists translate by the chord point per level
                    shifted = [v + p * j for v in base.vertex_list()]
                    assert shifted == list(
                        corner_slab(h, i, kappa + j).vertex_list()
                    )
                    # integer points translate by whole-period steps
                    vec = p * (hp * j)
                    moved = {
                        (
                            q[0] + int(vec.x),
                            q[1] + int(vec.y),
                            q[2] + int(vec.z),
                        )
                        for q in base_pts
                    }
                    assert moved == slab_integer_points(
                        corner_slab(h, i, kappa + hp * j)
                    )
                rays_checked += 1
        assert rays_checked >= 8
        c.detail = (
            "vertexwise and integer translations j=1..5 on %d point rays"
            % rays_checked
        )


def test_acceptance_9_non_normality():
    with _criterion(9) as c:
        h = build(NON_NORMAL_VERTICES)
        assert member_int(h, (2, 2, 2))[0] is True
        assert member_int(h, (1, 1, 1))[0] is False
        assert in_cone_int(h, (1, 1, 1))
        c.detail = "(2,2,2) is a member, (1,1,1) is a gap"
