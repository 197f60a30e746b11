"""The integer chord and corner-fan cores against Fraction references.

The references below are written out here in plain Fraction arithmetic
over the polytope's HalfSpace view, sharing no helper with the package:
a chord clips the ray {t*d : t >= 0} facet by facet, and a fan point
is found by clipping the edge r*p -> r*q of the body, r = m/l, and
scaling its near end by m.
"""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysgp import build, convex_hull
from polysgp.decomposition import _corner_fan_points
from polysgp.errors import PolysgpError
from polysgp.geometry import ray_intersect


def _value(facet, x) -> F:
    n = facet.normal
    return n.x * x[0] + n.y * x[1] + n.z * x[2] - facet.offset


def reference_chord(poly, d):
    """(kind, lo, hi) of {t >= 0 : t*d in poly}."""
    lo, hi = F(0), None
    for f in poly.facets:
        n = f.normal
        nd = n.x * d[0] + n.y * d[1] + n.z * d[2]
        if nd == 0:
            if f.offset > 0:
                return ("empty", None, None)
        elif nd > 0:
            lo = max(lo, f.offset / nd)
        else:
            bound = f.offset / nd
            hi = bound if hi is None else min(hi, bound)
    if lo > hi:
        return ("empty", None, None)
    return ("point" if lo == hi else "segment", lo, hi)


def reference_fan(h, i, k) -> list[tuple[F, F, F]]:
    """The crossing points of corner slab (i, k), in the order first
    met; None when an edge misses its neighbouring dilation."""
    rd = h.rays[i]
    lo = h.ray_data[i].lo
    p = (rd.x * lo, rd.y * lo, rd.z * lo)
    verts = [v.as_tuple() for v in h.body.vertices]
    vi = verts.index(p)
    cls = h.classification
    out = []
    for wi in h.body.adjacent_vertices(vi):
        if wi in cls.entry_extremal + cls.entry_inner:
            m, l = k + 1, k
        elif wi in cls.exit_extremal + cls.exit_inner:
            m, l = k, k + 1
        else:
            continue
        r = F(m, l)
        a = tuple(c * r for c in p)
        b = tuple(c * r for c in verts[wi])
        t0, t1 = F(0), F(1)
        for f in h.body.facets:
            va = _value(f, a)
            dv = _value(f, b) - va
            if dv > 0:
                t0 = max(t0, -va / dv)
            elif dv < 0:
                t1 = min(t1, -va / dv)
            elif va < 0:
                return None
        if t0 > t1:
            return None
        e = tuple(m * (x + t0 * (y - x)) for x, y in zip(p, verts[wi]))
        if e not in out:
            out.append(e)
    return out


coord = st.builds(F, st.integers(0, 24), st.sampled_from([1, 2, 3, 4, 5]))
bodies = st.lists(
    st.tuples(coord, coord, coord), min_size=4, max_size=7, unique=True
)
directions = st.tuples(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
).filter(any)


@given(bodies, directions, st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=150, deadline=None)
def test_integer_chord_matches_fraction_clip(pts, d, den):
    try:
        poly = convex_hull(pts)
    except PolysgpError:
        assume(False)
    direction = tuple(F(c, den) for c in d)
    hit = ray_intersect(poly, direction)
    assert (hit.kind, hit.lo, hit.hi) == reference_chord(poly, direction)


@given(bodies)
@settings(max_examples=80, deadline=None)
def test_handle_vertex_chords_match_fraction_clip(pts):
    try:
        h = build(pts)
    except PolysgpError:
        assume(False)
    for v, chord in zip(h.body.vertices, h._chords):
        kind, lo, hi = reference_chord(h.body, v.as_tuple())
        assert kind != "empty" and lo <= 1 <= hi
        (ln, ld), (hn, hd) = chord
        assert (F(ln, ld), F(hn, hd)) == (lo, hi)


def _on_boundary(poly, x) -> bool:
    values = [_value(f, x) for f in poly.facets]
    return min(values) == 0


@given(bodies, st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_fan_points_lie_on_their_edge_and_level(pts, k):
    try:
        h = build(pts)
        h.classification
    except PolysgpError:
        assume(False)
    point_rays = [i for i, hit in enumerate(h.ray_data) if hit.kind == "point"]
    assume(point_rays)
    cls = h.classification
    verts = [v.as_tuple() for v in h.body.vertices]
    for i in point_rays:
        expected = reference_fan(h, i, k)
        try:
            rows, den = _corner_fan_points(h, i, k)
        except PolysgpError:
            assert expected is None
            continue
        fan = [tuple(F(c, den) for c in row) for row in rows]
        assert fan == expected
        rd, lo = h.rays[i], h.ray_data[i].lo
        p = (rd.x * lo, rd.y * lo, rd.z * lo)
        vi = verts.index(p)
        for e in fan:
            # e lies on the boundary of level l*B and on the edge
            # m*p -> m*q toward a neighbour q of the matching class
            on_edge = []
            for wi in h.body.adjacent_vertices(vi):
                if wi in cls.entry_extremal + cls.entry_inner:
                    m, l = k + 1, k
                elif wi in cls.exit_extremal + cls.exit_inner:
                    m, l = k, k + 1
                else:
                    continue
                q = verts[wi]
                u = tuple(c / m - a for c, a in zip(e, p))
                w = tuple(b - a for a, b in zip(p, q))
                cross = (
                    u[1] * w[2] - u[2] * w[1],
                    u[2] * w[0] - u[0] * w[2],
                    u[0] * w[1] - u[1] * w[0],
                )
                t = sum(a * b for a, b in zip(u, w)) / sum(b * b for b in w)
                if not any(cross) and 0 <= t <= 1:
                    on_edge.append(_on_boundary(h.body, [c / l for c in e]))
            assert any(on_edge)
