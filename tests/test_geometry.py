"""Exact hull, containment, dilation, and lattice enumeration."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations, product
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysgp import (
    ORIGIN,
    Point3,
    convex_hull,
    dilate,
    integer_points,
    integer_points_in_hull,
)
from polysgp.errors import BadParameter, DegenerateInput
from polysgp.geometry import (
    OriginPoint,
    _hull_contains_origin,
    _int_hull_contains_origin,
    _lattice_points,
    contains,
    cone_supporting_facets,
    integer_point_count,
    minkowski_difference_contains_origin,
    ray_intersect,
)

CUBE = [(p, q, r) for p in (1, 2) for q in (1, 2) for r in (1, 2)]


def brute_integer_points(poly):
    """Reference enumeration: filter the bounding box through contains."""
    lo, hi = poly.bounding_box()
    out = []
    for x in range(int(lo.x) - 1, int(hi.x) + 2):
        for y in range(int(lo.y) - 1, int(hi.y) + 2):
            for z in range(int(lo.z) - 1, int(hi.z) + 2):
                if contains(poly, Point3.of(x, y, z)):
                    out.append((x, y, z))
    return out


def test_cube_hull_shape():
    poly = convex_hull(CUBE)
    assert len(poly.vertices) == 8
    assert len(poly.facets) == 6
    assert len(poly.edges) == 12
    assert all(len(cyc) == 4 for cyc in poly.facet_vertices)


def test_hull_drops_interior_and_face_points():
    pts = CUBE + [(F(3, 2), F(3, 2), F(3, 2)), (1, F(3, 2), F(3, 2))]
    poly = convex_hull(pts)
    assert len(poly.vertices) == 8
    assert {v.as_tuple() for v in poly.vertices} == {
        tuple(map(F, p)) for p in CUBE
    }


def test_hull_merges_coplanar_triangulation():
    # A pyramid over a square base comes out with one quadrilateral
    # facet, not two triangles.
    poly = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 3)])
    assert len(poly.facets) == 5
    sizes = sorted(len(cyc) for cyc in poly.facet_vertices)
    assert sizes == [3, 3, 3, 3, 4]


def test_hull_rejects_degenerate_input():
    with pytest.raises(DegenerateInput):
        convex_hull([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    with pytest.raises(DegenerateInput):
        convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0)])


def test_contains_modes():
    poly = convex_hull(CUBE)
    inside = Point3.of(F(3, 2), F(3, 2), F(3, 2))
    corner = Point3.of(1, 1, 1)
    outside = Point3.of(3, 1, 1)
    assert contains(poly, inside)
    assert contains(poly, corner)
    assert not contains(poly, outside)
    assert contains(poly, inside, mode="relative_interior")
    assert not contains(poly, corner, mode="relative_interior")
    with pytest.raises(BadParameter):
        contains(poly, inside, mode="open")


def test_contains_exempt_facets():
    # Strict containment except on the facets through the origin: a
    # point on such a facet still counts.
    poly = convex_hull([(0, 0, 1), (2, 0, 1), (0, 2, 1), (0, 0, 3)])
    exempt = cone_supporting_facets(poly)
    on_wall = Point3.of(0, F(1, 2), F(3, 2))
    assert contains(poly, on_wall, mode="relative_interior", exempt_facets=exempt)
    assert not contains(poly, on_wall, mode="relative_interior")


def test_ray_intersect_cube():
    poly = convex_hull(CUBE)
    hit = ray_intersect(poly, Point3.of(1, 1, 1))
    assert hit.is_segment() and (hit.lo, hit.hi) == (1, 2)
    hit = ray_intersect(poly, Point3.of(1, 1, 2))
    assert hit.is_point() and hit.lo == hit.hi == 1
    hit = ray_intersect(poly, Point3.of(1, 0, 0))
    assert hit.kind == "empty"
    with pytest.raises(BadParameter):
        ray_intersect(poly, ORIGIN)


def test_dilate():
    poly = convex_hull(CUBE)
    double = dilate(poly, 2)
    assert {v.as_tuple() for v in double.vertices} == {
        (2 * F(a), 2 * F(b), 2 * F(c)) for a, b, c in CUBE
    }
    assert isinstance(dilate(poly, 0), OriginPoint)
    with pytest.raises(BadParameter):
        dilate(poly, -1)


def test_dilate_rational_factor_preserves_membership():
    poly = convex_hull(CUBE)
    scaled = dilate(poly, F(3, 2))
    assert contains(scaled, Point3.of(3, 3, 3))
    assert contains(scaled, Point3.of(F(3, 2), F(3, 2), F(3, 2)))
    assert not contains(scaled, Point3.of(1, 1, 1))


def test_integer_points_cube():
    poly = convex_hull(CUBE)
    assert sorted(integer_points(poly)) == sorted(
        product((1, 2), repeat=3)
    )
    assert integer_point_count(poly) == 8


def test_integer_points_matches_reference_filter():
    poly = convex_hull(
        [(1, 0, 0), (4, 1, 0), (2, 5, 1), (F(7, 2), F(1, 2), 3), (1, 4, 4)]
    )
    assert sorted(integer_points(poly)) == brute_integer_points(poly)


def test_integer_points_in_hull_flat_cases():
    # full-dimensional, planar, collinear, and single-point clouds
    assert integer_points_in_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    square = integer_points_in_hull([(0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 2, 1)])
    assert square == sorted((x, y, 1) for x in range(3) for y in range(3))
    segment = integer_points_in_hull([(0, 0, 0), (3, 6, 9)])
    assert segment == [(0, 0, 0), (1, 2, 3), (2, 4, 6), (3, 6, 9)]
    assert integer_points_in_hull([(F(1, 2), 0, 0), (F(5, 2), 0, 0)]) == [
        (1, 0, 0),
        (2, 0, 0),
    ]
    assert integer_points_in_hull([(1, 1, 1)]) == [(1, 1, 1)]
    assert integer_points_in_hull([(F(1, 2), 1, 1)]) == []
    assert integer_points_in_hull([]) == []


def test_minkowski_difference_origin():
    a = convex_hull(CUBE)
    near = convex_hull([(F(3, 2), F(3, 2), F(3, 2)), (4, 1, 1), (4, 3, 1), (4, 1, 3)])
    far = convex_hull([(5, 5, 5), (6, 5, 5), (5, 6, 5), (5, 5, 6)])
    assert minkowski_difference_contains_origin(a, a)
    assert minkowski_difference_contains_origin(a, near)
    assert not minkowski_difference_contains_origin(a, far)
    # vertex-list arguments behave like their hulls
    assert minkowski_difference_contains_origin(
        list(a.vertices), list(near.vertices)
    )


# Flat clouds: subtracting the single point O leaves the cloud itself,
# so each answer is whether O lies in the cloud's (point, segment or
# polygon) hull.  Expected values are read off by hand.
FLAT_CLOUDS = [
    ([(0, 0, 0)], True),
    ([(1, 2, 3)], False),
    # segments: O interior, O an end, O beyond an end, O off the line
    ([(-1, -1, -2), (1, 1, 2)], True),
    ([(-1, 0, 0), (1, 0, 0), (3, 0, 0)], True),
    ([(0, 0, 0), (2, 1, 1)], True),
    ([(1, 1, 1), (2, 2, 2)], False),
    ([(1, 0, 0), (0, 1, 0)], False),
    ([(1, -1, 0), (1, 1, 0)], False),
    # polygons in z = 0: O interior, on an edge, a vertex, outside
    ([(-1, -1, 0), (2, -1, 0), (-1, 2, 0)], True),
    ([(-1, 0, 0), (1, 0, 0), (0, 1, 0)], True),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], True),
    ([(1, 1, 0), (2, 1, 0), (1, 2, 0)], False),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], False),
    # a square with an extra point on its bottom edge
    ([(-1, -1, 0), (0, -1, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0)], True),
    # parallel to z = 0 but one unit above it
    ([(1, 0, 1), (0, 1, 1), (-1, -1, 1)], False),
    # the plane x + y + z = 0: O is the centroid, then just outside
    ([(1, -1, 0), (0, 1, -1), (-1, 0, 1)], True),
    ([(2, -1, -1), (1, 0, -1), (F(3, 2), -1, F(-1, 2))], False),
    # tilted with rational corners, O on the edge (-1/2,1/2,0)-(1/2,-1/2,0)
    ([(F(-1, 2), F(1, 2), 0), (F(1, 2), F(-1, 2), 0), (1, 1, 1)], True),
]


@pytest.mark.parametrize("cloud, expected", FLAT_CLOUDS)
def test_minkowski_difference_flat_clouds(cloud, expected):
    pts = [Point3.of(*p) for p in cloud]
    with pytest.raises(DegenerateInput):
        convex_hull(pts)
    assert minkowski_difference_contains_origin(pts, [ORIGIN]) is expected


def test_minkowski_difference_of_flat_bodies():
    # two segments in z = 0: crossing, meeting at an end, apart
    def seg(p, q):
        return [Point3.of(*p), Point3.of(*q)]

    a = seg((0, 0, 0), (2, 0, 0))
    assert minkowski_difference_contains_origin(a, seg((1, -1, 0), (1, 1, 0)))
    assert minkowski_difference_contains_origin(a, seg((2, 0, 0), (3, 1, 0)))
    assert not minkowski_difference_contains_origin(
        a, seg((3, -1, 0), (3, 1, 0))
    )


small = st.integers(-3, 3)


@given(
    st.lists(st.tuples(small, small, small), min_size=1, max_size=2),
    st.lists(st.tuples(small, small), min_size=1, max_size=6),
    st.one_of(st.just((0, 0, 0)), st.tuples(small, small, small)),
)
@settings(max_examples=300, deadline=None)
def test_integer_origin_test_on_flat_clouds(dirs, coeffs, shift):
    # points, segments and polygons: integer combinations of one or two
    # directions, on a span through the origin or moved by `shift`
    u, v = dirs[0], dirs[-1]
    cloud = [
        tuple(a * ui + b * vi + si for ui, vi, si in zip(u, v, shift))
        for a, b in coeffs
    ]
    expected = (0, 0, 0) in integer_points_in_hull(cloud)
    assert _int_hull_contains_origin(cloud) is expected


coordinate = st.integers(min_value=0, max_value=6)
cloud = st.lists(
    st.tuples(coordinate, coordinate, coordinate),
    min_size=4,
    max_size=9,
    unique=True,
)


@given(cloud)
@settings(max_examples=120, deadline=None)
def test_hull_contains_inputs_and_respects_facets(pts):
    try:
        poly = convex_hull(pts)
    except DegenerateInput:
        return
    vset = {v.as_tuple() for v in poly.vertices}
    for p in pts:
        q = Point3.of(*p)
        assert contains(poly, q)
    assert vset <= {tuple(map(F, p)) for p in pts}
    for f in poly.facets:
        assert any(f.value(Point3.of(*p)) == 0 for p in pts)


@given(cloud)
@settings(max_examples=60, deadline=None)
def test_integer_enumeration_matches_membership(pts):
    try:
        poly = convex_hull(pts)
    except DegenerateInput:
        return
    assert sorted(integer_points(poly)) == brute_integer_points(poly)
    assert sorted(integer_points(poly)) == integer_points_in_hull(pts)


rational = st.one_of(
    st.integers(-4, 4).map(F),
    st.builds(F, st.integers(-12, 12), st.sampled_from([2, 3, 4])),
)
rational_cloud = st.lists(
    st.tuples(rational, rational, rational),
    min_size=4,
    max_size=8,
    unique=True,
)


@given(
    rational_cloud,
    st.sampled_from(["vertex", "edge", "facet", "inside", "outside", "any"]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_integer_origin_test_matches_hull_containment(pts, where, data):
    # shift the cloud so that the origin lands on a chosen part of its
    # hull (or just past a facet), then compare the triangulated integer
    # test with containment in the full Polyhedron
    try:
        poly = convex_hull(pts)
    except DegenerateInput:
        return
    verts = poly.vertices
    pick = lambda seq: seq[data.draw(st.integers(0, len(seq) - 1))]
    if where == "vertex":
        c = pick(verts)
    elif where == "edge":
        a, b = pick(poly.edges)
        t = data.draw(st.sampled_from([F(1, 2), F(1, 3), F(3, 4)]))
        c = verts[a] * (1 - t) + verts[b] * t
    elif where in ("facet", "outside"):
        idx = data.draw(st.integers(0, len(poly.facets) - 1))
        a, b, d = (verts[i] for i in poly.facet_vertices[idx][:3])
        c = (a + b + d) * F(1, 3)
        if where == "outside":
            # the facet normal points inward
            c = c - poly.facets[idx].normal * F(1, 7)
    elif where == "inside":
        c = sum(verts[1:], verts[0]) * F(1, len(verts))
    else:
        c = Point3.from_seq(data.draw(st.tuples(rational, rational, rational)))
    cloud = [Point3.of(*p) - c for p in pts]
    expected = contains(convex_hull(cloud), ORIGIN)
    assert _hull_contains_origin(cloud) is expected
    if where != "any":
        assert expected is (where != "outside")


def _box_scan_polygon(pts):
    """Reference: every integer pair of the bounding box that lies on the
    inner side of each line through two points that has all points on
    one side (exact Fraction half-plane checks)."""
    import math

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    sides = [
        (a, b)
        for a in pts
        for b in pts
        if a != b and all(cross(a, b, c) >= 0 for c in pts)
    ]
    us = [u for u, _ in pts]
    vs = [v for _, v in pts]
    return [
        (u, v)
        for u in range(math.floor(min(us)), math.ceil(max(us)) + 1)
        for v in range(math.floor(min(vs)), math.ceil(max(vs)) + 1)
        if all(cross(a, b, (u, v)) >= 0 for a, b in sides)
    ]


scaled = st.integers(-12, 12)


@given(
    st.lists(st.tuples(scaled, scaled), min_size=3, max_size=7, unique=True),
    st.sampled_from([1, 2, 3, 4, 6]),
    st.one_of(st.none(), st.tuples(scaled, scaled)),
)
@settings(max_examples=200, deadline=None)
def test_polygon_integer_points_match_box_scan(ring, scale, vertical):
    # the ring holds scale times the polygon's corners; `vertical` adds
    # two points left of it at one abscissa, so the hull has a vertical
    # edge.  The polygon goes to the kernel in the plane z = 0 and in
    # the vertical plane x = y, whose equality pair has no z term
    if vertical is not None:
        u0 = min(u for u, _ in ring) - 1
        v0, dv = vertical
        ring = ring + [(u0, v0), (u0, v0 + abs(dv) + 1)]
    a = ring[0]
    if all(
        (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])
        for b in ring
        for c in ring
    ):
        return
    expected = _box_scan_polygon([(F(u, scale), F(v, scale)) for u, v in ring])
    flat = _lattice_points([(u, v, 0) for u, v in ring], scale)
    assert flat.tolist() == [[u, v, 0] for u, v in expected]
    upright = _lattice_points([(u, u, v) for u, v in ring], scale)
    assert upright.tolist() == [[u, u, v] for u, v in expected]


def _box_scan_hull(cloud):
    """Reference: the integer points of the bounding box that lie in
    every slab min m.p <= m.x <= max m.p (p over the cloud) for the
    normals m of planes through three cloud points, their in-plane edge
    normals, the cloud's directions, those directions crossed with the
    axes, and the axes.  These slabs cut out the hull whatever its
    affine dimension; the cloud is scaled to integers first."""

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def cross(a, b):
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )

    scale = lcm(*(F(c).denominator for p in cloud for c in p))
    pts = [tuple(int(c * scale) for c in p) for p in set(cloud)]
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    dirs = [sub(b, a) for a, b in combinations(pts, 2)]
    planes = [cross(sub(b, a), sub(c, a)) for a, b, c in combinations(pts, 3)]
    normals = {}
    for m in (
        planes
        + [cross(d, e) for d in dirs for e in axes]
        + axes
        + dirs
        + [cross(n, d) for n in planes for d in dirs]
    ):
        g = gcd(*m)
        if g:
            m = tuple(c // g for c in m)
            normals.setdefault(max(m, tuple(-c for c in m)), None)
    slabs = [
        (m, min(dot(m, p) for p in pts), max(dot(m, p) for p in pts))
        for m in normals
    ]
    box = [range(floor(min(c)), ceil(max(c)) + 1) for c in zip(*cloud)]
    return [
        x
        for x in product(*box)
        if all(lo <= scale * dot(m, x) <= hi for m, lo, hi in slabs)
    ]


unit = st.one_of(
    st.integers(-1, 2).map(F), st.sampled_from([F(1, 2), F(-1, 3)])
)
weight = st.sampled_from([F(0), F(1), F(2), F(3), F(1, 2), F(3, 2), F(4, 3)])


@st.composite
def flat_clouds(draw):
    """Clouds of affine dimension at most 0, 1, 2 or 3: a rational base
    point plus weighted sums of that many rational directions."""
    dim = draw(st.integers(0, 3))
    base = draw(st.tuples(rational, rational, rational))
    dirs = draw(
        st.lists(st.tuples(unit, unit, unit), min_size=dim, max_size=dim)
    )
    weights = draw(
        st.lists(
            st.tuples(*[weight] * dim),
            min_size=dim + 1,
            max_size=6,
            unique=True,
        )
    )
    return [
        tuple(
            b + sum(w * d[i] for w, d in zip(ws, dirs))
            for i, b in enumerate(base)
        )
        for ws in weights
    ]


@given(flat_clouds())
@settings(max_examples=300, deadline=None)
def test_integer_points_in_hull_match_box_scan(cloud):
    assert integer_points_in_hull(cloud) == _box_scan_hull(cloud)
