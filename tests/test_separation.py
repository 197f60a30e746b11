"""The separation level's collision scan.

`decomposition._worst_collision` hulls each difference cloud once and
answers every (generator, source level, target level) by plane sums.
The reference here is the direct scan: every pair inside the two gauge
bounds of its docstring, each tested with
`geometry._int_hull_contains_origin` on its own moved difference cloud.
Hand-built cases check the scan and its hull count; a battery checks
`_separation` on tetra/poly seeds 100-599 (the decider parity golden
pins seeds 0-99).
"""

from __future__ import annotations

from math import lcm

import pytest

import instancegen
from polysgp import build, decomposition
from polysgp.decomposition import (
    _bridge_triangles,
    _dual_positive,
    _ordered_fan,
    _ray_step,
    _separation,
    _worst_collision,
)
from polysgp.errors import NotSimplicial, PolysgpError, UnsupportedCase
from polysgp.geometry import (
    _add,
    _affine_basis,
    _dot,
    _int_hull_contains_origin,
    _int_scale,
    _scale,
    _scaled_ints,
    _sub,
)


def _brute_hits(source, step, moves, target):
    """Every (generator index, alpha, beta) inside the gauge bounds whose
    translated source and target levels collide, and the number of pairs
    tested."""
    steps = [d for _v, d in target]
    t_verts = [v for verts, _d in target for v in verts]
    n = _dual_positive(step, *steps)
    t_max = max(_dot(n, v) for v in t_verts)
    t_low = min(sum(v) for v in t_verts)
    rise = min(sum(d) for d in steps)
    hits, tested = [], 0
    for gi, g in enumerate(moves):
        s0 = [_add(v, g) for v in source]
        alphas = (t_max - min(_dot(n, v) for v in s0)) // _dot(n, step)
        for alpha in range(alphas + 1):
            src = [_add(v, _scale(step, alpha)) for v in s0]
            betas = (max(sum(v) for v in src) - t_low) // rise
            for beta in range(betas + 1):
                tgt = [
                    _add(v, _scale(d, beta))
                    for verts, d in target
                    for v in verts
                ]
                tested += 1
                diffs = [_sub(t, s) for t in tgt for s in src]
                if _int_hull_contains_origin(diffs):
                    hits.append((gi, alpha, beta))
    return hits, tested


def _brute_worst(base, source, step, moves, target):
    hits, _tested = _brute_hits(source, step, moves, target)
    return max((base + min(a, b) for _g, a, b in hits), default=base - 1)


def _reference_separation(h):
    """The separation level by the direct scan, one generator at a time."""
    if not h.simplicial:
        raise NotSimplicial("separation level needs a three-ray cone")
    point_rays = [i for i in range(3) if h.ray_data[i].kind == "point"]
    if len(point_rays) < 2:
        raise UnsupportedCase(
            "separation level needs at least two point-chord rays"
        )
    base = max(1, h.overlap)
    gens = h.ray_generators
    corners = {i: _ordered_fan(h, i, base) for i in point_rays}
    scale = lcm(_int_scale(gens), *(c.den for c in corners.values()))
    verts = {
        i: [_scale(r, scale // c.den) for r in c.rows]
        for i, c in corners.items()
    }
    steps = {i: _ray_step(h, i, scale) for i in point_rays}
    moves = [_scaled_ints(g, scale) for g in gens]
    worst = base - 1
    for i in point_rays:
        others = [j for j in range(3) if j != i]
        targets = [[(verts[j], steps[j])] for j in others if j in corners]
        if len(point_rays) == 3:
            r = others[0] if (others[0] + 1) % 3 == others[1] else others[1]
            nxt = (r + 1) % 3
            tri_r, tri_nxt = _bridge_triangles(
                r, nxt, verts[r], verts[nxt], _sub(steps[nxt], steps[r])
            )
            targets.append([(tri_r, steps[r]), (tri_nxt, steps[nxt])])
        for j in others:
            for target in targets:
                worst = max(
                    worst,
                    _brute_worst(base, verts[i], steps[i], [moves[j]], target),
                )
    return max(base, worst + 1)


def _outcome(f, h):
    try:
        return f(h)
    except PolysgpError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("kind", ["tetra", "poly"])
@pytest.mark.parametrize("first", range(100, 600, 100))
def test_separation_matches_the_direct_scan(kind, first):
    make = getattr(instancegen, "%s_vertices" % kind)
    wrong = []
    for seed in range(first, first + 100):
        try:
            h = build(make(seed))
        except PolysgpError:  # degenerate or origin-containing draws
            continue
        got = _outcome(lambda h: _separation(h)[0], h)
        want = _outcome(_reference_separation, h)
        if got != want:
            wrong.append((seed, got, want))
    assert not wrong


@pytest.fixture
def hull_builds(monkeypatch):
    """The clouds `_worst_collision` hulls, in order."""
    clouds = []
    planes = decomposition._hull_planes

    def counted(points):
        clouds.append(list(points))
        return planes(points)

    monkeypatch.setattr(decomposition, "_hull_planes", counted)
    return clouds


SIMPLEX = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)]
MOVES = [(0, 0, 0), (0, 0, 1)]


def _check(base, source, step, moves, target):
    got = _worst_collision(base, source, step, moves, target)
    assert got == _brute_worst(base, source, step, moves, target)
    return got


def test_corner_target_hit_at_several_levels(hull_builds):
    # the corner moves as a whole: one hull serves both generators and
    # every (alpha, beta)
    target = [(SIMPLEX, (0, 2, 0))]
    hits, _tested = _brute_hits(SIMPLEX, (2, 0, 0), MOVES, target)
    assert {(a, b) for _g, a, b in hits} >= {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert {g for g, _a, _b in hits} == {0, 1}
    assert _check(5, SIMPLEX, (2, 0, 0), MOVES, target) == 6
    assert len(hull_builds) == 1


def test_corner_target_scans_past_the_first_hit(hull_builds):
    # at alpha = 2 the levels meet from beta = 0 to 2: the scan must go
    # on past its first hit there to find min(alpha, beta) = 2
    moved = [_add(v, (4, -3, 2)) for v in SIMPLEX]
    target = [(moved, (0, 2, 0))]
    hits, _tested = _brute_hits(SIMPLEX, (2, 0, 0), MOVES[:1], target)
    pairs = sorted((a, b) for _g, a, b in hits)
    assert pairs == [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]
    assert _check(1, SIMPLEX, (2, 0, 0), MOVES[:1], target) == 3
    assert len(hull_builds) == 1


def test_bridge_target_takes_one_hull_per_level(hull_builds):
    # the two triangles rise by different ray points, so they drift
    # apart by beta (d_b - d_a) and each tested beta has its own cloud
    tri_a = [(0, 0, 0), (3, 0, 0), (0, 3, 0)]
    tri_b = [(0, 0, 0), (3, 0, 0), (0, 0, 3)]
    target = [(tri_a, (0, 2, 0)), (tri_b, (0, 0, 2))]
    hits, _tested = _brute_hits(SIMPLEX, (2, 0, 0), MOVES, target)
    assert any(b > 0 for _g, _a, b in hits)
    got = _check(2, SIMPLEX, (2, 0, 0), MOVES, target)
    assert got == 2 + max(min(a, b) for _g, a, b in hits)
    assert len(hull_builds) >= 2
    assert len({tuple(c) for c in hull_builds}) == len(hull_builds)


def test_flat_difference_cloud(hull_builds):
    # source, target and both steps lie in z = 0: the difference cloud
    # is flat, and the generator off that plane never collides
    tri = [(0, 0, 0), (3, 0, 0), (0, 3, 0)]
    target = [(tri, (0, 2, 0))]
    hits, _tested = _brute_hits(tri, (2, 0, 0), MOVES, target)
    assert hits and {g for g, _a, _b in hits} == {0}
    assert _check(3, tri, (2, 0, 0), MOVES, target) == 4
    assert len(hull_builds) == 1
    assert len(_affine_basis(list(dict.fromkeys(hull_builds[0])))) == 3


def test_target_never_reached(hull_builds):
    # the target sits above the source's z-range: the bounds admit a
    # pair, which misses
    high = [_add(v, (0, 0, 4)) for v in SIMPLEX]
    target = [(high, (0, 2, 0))]
    hits, tested = _brute_hits(SIMPLEX, (2, 0, 0), MOVES[:1], target)
    assert tested and not hits
    assert _check(7, SIMPLEX, (2, 0, 0), MOVES[:1], target) == 6
