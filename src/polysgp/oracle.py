"""Brute-force ground truth for small instances.

Every answer here is recomputed straight from the definitions:
membership by reading the range of dilation layers whose facet
inequalities a point meets off its facet products,
generators by ruling out every two-term decomposition, Apery elements by
subtracting generators one at a time.  The facet inequalities, the
cone, and the ray directions are derived from the vertex coordinates
from scratch, on the integer rows of L.P for L the lcm of the vertex
denominators; nothing is imported from the fast implementations, so a
bug there cannot leak in here.  Expect cubic grids and quadratic
sieves, and keep the boxes small.

The box is [0, max_coord]^3 and every part of a sum of box points is
coordinatewise below it, so the generator and Apery tests look their
differences up in the set of present points instead of testing layers
again: a nonnegative difference p - q with q present lies in the box,
and the box scan is refused unless it decides every point of the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional

import numpy as np

from .errors import BoxTooSmall, DegenerateInput

IntVec = tuple[int, int, int]
_ORIGIN: IntVec = (0, 0, 0)


@dataclass(frozen=True)
class Box:
    """Scan window: the cube [0, max_coord]^3 with dilation layers
    capped at max_layer."""

    max_coord: int
    max_layer: int

    def __post_init__(self) -> None:
        if self.max_coord < 1 or self.max_layer < 1:
            raise BoxTooSmall("box needs max_coord >= 1 and max_layer >= 1")


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _primitive(ints) -> tuple[int, ...]:
    """Divide out the common factor of an integer tuple."""
    g = 0
    for i in ints:
        g = gcd(g, i)
    return tuple(i // g for i in ints) if g > 1 else tuple(ints)


def _cleared(verts) -> tuple[int, list[IntVec]]:
    """The lcm L of the vertex denominators and the integer rows of L.P."""
    scale = 1
    for v in verts:
        for c in v:
            scale = lcm(scale, c.denominator)
    return scale, [tuple(int(c * scale) for c in v) for v in verts]


def _vertex_list(source) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Vertex coordinates of a handle or a raw vertex iterable; only the
    coordinates are taken, never derived data."""
    body = getattr(source, "body", None)
    if body is not None:
        source = body.vertices
    out = set()
    for v in source:
        if hasattr(v, "as_tuple"):
            v = v.as_tuple()
        x, y, z = v
        out.add((Fraction(x), Fraction(y), Fraction(z)))
    return sorted(out)


def _body_facets(verts) -> list[tuple[int, int, int, int]]:
    """Inward inequalities n.x >= c of the hull, found by testing every
    vertex-triple plane against the whole vertex set.  The planes are
    found on the integer rows of L.P: a facet n.y >= c of L.P is the
    facet (L.n).x >= c of P, made primitive."""
    if len(verts) < 4:
        raise DegenerateInput("need at least four vertices")
    scale, rows = _cleared(verts)
    found = set()
    for a, b, c in combinations(rows, 3):
        n = _cross(_sub(b, a), _sub(c, a))
        if n == (0, 0, 0):
            continue
        off = _dot(n, a)
        sides = [_dot(n, v) - off for v in rows]
        if all(s == 0 for s in sides):
            raise DegenerateInput("vertex set is coplanar")
        if all(s >= 0 for s in sides):
            pass
        elif all(s <= 0 for s in sides):
            n = (-n[0], -n[1], -n[2])
            off = -off
        else:
            continue
        found.add(_primitive((scale * n[0], scale * n[1], scale * n[2], off)))
    return sorted(found)


def _cone_facets(verts) -> list[IntVec]:
    """Inward inequalities n.x >= 0 of the cone over the vertices,
    found on the integer rows of L.P, which span the same cone."""
    _scale, rows = _cleared(verts)
    found = set()
    for a, b in combinations(rows, 2):
        n = _cross(a, b)
        if n == (0, 0, 0):
            continue
        sides = [_dot(n, v) for v in rows]
        if all(s >= 0 for s in sides):
            pass
        elif all(s <= 0 for s in sides):
            n = (-n[0], -n[1], -n[2])
        else:
            continue
        found.add(_primitive(n))
    if len(found) < 3:
        raise DegenerateInput("cone over the vertices is not solid")
    return sorted(found)


@dataclass(frozen=True)
class _Prepared:
    facets: tuple[tuple[int, int, int, int], ...]
    cone: tuple[IntVec, ...]
    rays: tuple[IntVec, ...]
    sum_min: Fraction


def _prepare(source) -> _Prepared:
    verts = _vertex_list(source)
    facets = _body_facets(verts)
    cone = _cone_facets(verts)
    rays = set()
    for v in _cleared(verts)[1]:
        d = _primitive(v)
        if d == (0, 0, 0):
            continue
        if sum(1 for n in cone if _dot(n, d) == 0) >= 2:
            rays.add(d)
    sums = [v[0] + v[1] + v[2] for v in verts]
    sum_min = min(sums)
    if sum_min <= 0:
        raise DegenerateInput("body touches the origin")
    return _Prepared(
        facets=tuple(facets),
        cone=tuple(cone),
        rays=tuple(sorted(rays)),
        sum_min=sum_min,
    )


def _layer_bound(pre: _Prepared, coord_sum: int) -> int:
    """No dilation past this index can reach a point of the given
    coordinate sum: layer j only holds sums >= j * sum_min."""
    return int(Fraction(coord_sum) / pre.sum_min)


def _point_member(pre: _Prepared, q: IntVec) -> bool:
    if q[0] < 0 or q[1] < 0 or q[2] < 0:
        return False
    if q == _ORIGIN:
        return True
    for j in range(1, _layer_bound(pre, q[0] + q[1] + q[2]) + 1):
        if all(_dot(f, q) >= j * f[3] for f in pre.facets):
            return True
    return False


def cone_rays(source) -> list[IntVec]:
    """Primitive extremal ray directions, lexicographically sorted."""
    return list(_prepare(source).rays)


def point_member(source, q) -> bool:
    """Definition-chasing membership test for one integer point."""
    return _point_member(_prepare(source), tuple(int(c) for c in q))


def box_for(source, max_coord: int) -> Box:
    """A box with the given coordinate bound and enough layers to decide
    every point inside it."""
    pre = _prepare(source)
    return Box(
        max_coord=max_coord, max_layer=_layer_bound(pre, 3 * max_coord)
    )


def default_box(source) -> Box:
    """A box that comfortably covers the generators of the shipped
    fixtures: six times the largest vertex coordinate, with the layer
    cap the corner coordinate-sum bound demands."""
    verts = _vertex_list(source)
    top = max(c for v in verts for c in v)
    return box_for(source, int(6 * top) + 1)


def _grid(max_coord: int) -> np.ndarray:
    side = max_coord + 1
    return (
        np.stack(
            np.meshgrid(
                np.arange(side), np.arange(side), np.arange(side),
                indexing="ij",
            )
        )
        .reshape(3, -1)
        .astype(np.int64)
    )


def _masked_points(pts: np.ndarray, mask: np.ndarray) -> set[IntVec]:
    return set(map(tuple, pts.T[mask].tolist()))


def _facet_dtype(facets, box: Box, layers: int):
    """int64 unless the facet coefficients could overflow it."""
    top = max(abs(c) for f in facets for c in f)
    if 4 * top * box.max_coord * max(1, layers) < 2**62:
        return np.int64
    return object


def _dtype_for(pre: _Prepared, box: Box):
    return _facet_dtype(pre.facets, box, _layer_bound(pre, 3 * box.max_coord) + 1)


def scan_semigroup(source, box: Optional[Box] = None) -> set[IntVec]:
    """All integer points of the box lying in some dilation layer.

    The box must allow every layer that can reach its far corner;
    otherwise points would be silently misclassified as absent.
    """
    pre = _prepare(source)
    if box is None:
        box = default_box(source)
    need = _layer_bound(pre, 3 * box.max_coord)
    if need > box.max_layer:
        raise BoxTooSmall(
            "covering the box needs %d layers, cap is %d"
            % (need, box.max_layer)
        )
    dtype = _dtype_for(pre, box)
    pts = _grid(box.max_coord)
    grid = pts.astype(dtype, copy=False)
    # layer j holds q iff n.q >= j * c on every facet (n, c): a positive
    # c caps j at floor(n.q / c), a negative one raises it to
    # ceil(n.q / c), and c = 0 needs n.q >= 0
    least = np.ones(pts.shape[1], dtype=dtype)
    most = np.full(pts.shape[1], need, dtype=dtype)
    for *n, c in pre.facets:
        dot = np.array(n, dtype=dtype) @ grid
        if c > 0:
            most = np.minimum(most, dot // c)
        elif c < 0:
            least = np.maximum(least, -(dot // -c))
        else:
            most[dot < 0] = 0
    present = least <= most
    out = _masked_points(pts, present)
    out.add(_ORIGIN)
    return out


def scan_gaps(source, box: Optional[Box] = None) -> set[IntVec]:
    """Integer cone points of the box missed by every dilation layer."""
    pre = _prepare(source)
    if box is None:
        box = default_box(source)
    present = scan_semigroup(source, box)
    pts = _grid(box.max_coord)
    normals = np.array(pre.cone, dtype=np.int64)
    in_cone = (normals @ pts >= 0).all(axis=0)
    return _masked_points(pts, in_cone) - present


def scan_layer(source, j: int, box: Optional[Box] = None) -> set[IntVec]:
    """Integer points of one dilation layer inside the box."""
    pre = _prepare(source)
    if box is None:
        box = default_box(source)
    if j == 0:
        return {_ORIGIN}
    dtype = _facet_dtype(pre.facets, box, j)
    pts = _grid(box.max_coord)
    normals = np.array([f[:3] for f in pre.facets], dtype=dtype)
    offsets = np.array([f[3] for f in pre.facets], dtype=dtype)
    mask = (normals @ pts.astype(dtype) >= j * offsets[:, None]).all(axis=0)
    return _masked_points(pts, mask)


def scan_layer_gaps(source, k: int, box: Optional[Box] = None) -> set[IntVec]:
    """Integer points of the hull of two consecutive dilations missing
    from both: the between-layers gap region, straight from its
    definition."""
    verts = _vertex_list(source)
    if box is None:
        box = default_box(source)
    doubled = [tuple(k * c for c in v) for v in verts]
    doubled += [tuple((k + 1) * c for c in v) for v in verts]
    hull_facets = _body_facets(sorted(set(doubled)))
    dtype = _facet_dtype(hull_facets, box, 1)
    pts = _grid(box.max_coord)
    normals = np.array([f[:3] for f in hull_facets], dtype=dtype)
    offsets = np.array([f[3] for f in hull_facets], dtype=dtype)
    in_hull = (normals @ pts.astype(dtype) >= offsets[:, None]).all(axis=0)
    covered = scan_layer(source, k, box) | scan_layer(source, k + 1, box)
    return _masked_points(pts, in_hull) - covered


def naive_msg(source, box: Optional[Box] = None) -> set[IntVec]:
    """Present points with no two-term decomposition into nonzero
    present points.  Complete for generators inside the box, since both
    parts of a decomposition are coordinatewise below their sum.

    The points are walked in coordinate-sum order, and p is kept unless
    p - g is present for a g kept before it.  This is the two-term test:
    if p = a + b, some kept g has a - g present (a itself, or a kept
    part of a's own decomposition), so p - g = (a - g) + b is present,
    being a member below p; and p - g present for a kept g != p is a
    decomposition."""
    present = scan_semigroup(source, box)
    gens: list[IntVec] = []
    for p in sorted(present, key=sum):
        if p != _ORIGIN and not any(
            (p[0] - g[0], p[1] - g[1], p[2] - g[2]) in present for g in gens
        ):
            gens.append(p)
    return set(gens)


def _ray_generators(pre: _Prepared, box: Box) -> list[IntVec]:
    """Least present multiple of each primitive ray direction."""
    gens = []
    for d in pre.rays:
        top = max(d)
        found = None
        for k in range(1, box.max_coord // top + 1):
            q = (k * d[0], k * d[1], k * d[2])
            if _point_member(pre, q):
                found = q
                break
        if found is None:
            raise BoxTooSmall(
                "no semigroup element on ray %s inside the box" % (d,)
            )
        gens.append(found)
    return gens


def ray_generators(source, box: Optional[Box] = None) -> list[IntVec]:
    """Least semigroup element on each extremal ray, in cone_rays
    order."""
    pre = _prepare(source)
    if box is None:
        box = default_box(source)
    return _ray_generators(pre, box)


def naive_condition3(
    source, box: Optional[Box] = None
) -> list[tuple[IntVec, tuple[int, ...]]]:
    """Gaps with at least two ray-generator translates back inside the
    semigroup, each with the full index set of such translates.
    Indices refer to cone_rays order.
    """
    pre = _prepare(source)
    if box is None:
        box = default_box(source)
    gens = _ray_generators(pre, box)
    out = []
    for gp in sorted(scan_gaps(source, box)):
        idx = tuple(
            i
            for i, g in enumerate(gens)
            if _point_member(pre, (gp[0] + g[0], gp[1] + g[1], gp[2] + g[2]))
        )
        if len(idx) >= 2:
            out.append((gp, idx))
    return out


def naive_apery(source, box: Optional[Box] = None) -> set[IntVec]:
    """Present points whose translate by each ray generator leaves the
    semigroup (the intersection of the per-generator Apery sets),
    restricted to the box.

    p - g is looked up among the present points: p - g <= p, so a
    nonnegative p - g lies in the box, and `scan_semigroup` refuses a
    box whose layers do not decide every point of it."""
    pre = _prepare(source)
    if box is None:
        box = default_box(source)
    gens = _ray_generators(pre, box)
    present = scan_semigroup(source, box)
    return {
        p
        for p in present
        if all(
            (p[0] - g[0], p[1] - g[1], p[2] - g[2]) not in present
            for g in gens
        )
    }
