"""Brute-force ground truth for small instances.

Every answer here is recomputed straight from the definitions:
membership by reading the range of dilation layers whose facet
inequalities a point meets off its facet products,
generators by ruling out every two-term decomposition, Apery elements by
subtracting generators.  The facet inequalities, the
cone, and the ray directions are derived from the vertex coordinates
from scratch, on the integer rows of L.P for L the lcm of the vertex
denominators; nothing is imported from the fast implementations, so a
bug there cannot leak in here.  The work grows with the cube of the
box side, so keep the boxes small.

The box is [0, max_coord]^3, held as one boolean array present[x, y, z]
(`Cube`).  Every part of a sum of box points is coordinatewise below
it, so the generator and Apery tests read their differences off that
array, shifted by a whole generator at a time, instead of testing
layers again: a nonnegative difference p - q with q present lies in
the box, and the box scan is refused unless it decides every point of
the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional

import numpy as np

from .errors import BoxTooSmall, DegenerateInput, UnsupportedCase

IntVec = tuple[int, int, int]
_ORIGIN: IntVec = (0, 0, 0)

# The most cells a box may hold: a cube keeps several int64 arrays of
# the box's size alive, about 32 bytes a cell, so about 540 MB.
_MAX_CELLS = 2**24


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


def _facet_dtype(facets, box: Box, layers: int):
    """int64 unless the facet coefficients could overflow it."""
    top = max(abs(c) for f in facets for c in f)
    if 4 * top * box.max_coord * max(1, layers) < 2**62:
        return np.int64
    return object


def _dtype_for(pre: _Prepared, box: Box):
    return _facet_dtype(pre.facets, box, _layer_bound(pre, 3 * box.max_coord) + 1)


def _dots(normal, side: int, dtype) -> np.ndarray:
    """n.(x, y, z) over the cube [0, side)^3, indexed [x, y, z]."""
    r = np.arange(side).astype(dtype)
    a, b, c = normal
    return (a * r)[:, None, None] + (b * r)[None, :, None] + (c * r)[None, None, :]


def _layer(facets, j: int, box: Box) -> np.ndarray:
    """The points q of the box with n.q >= j * c on every facet (n, c).
    Layer 0 is the origin alone: no nonzero q has n.q >= 0 on every
    facet of a bounded body."""
    side = box.max_coord + 1
    dtype = _facet_dtype(facets, box, j)
    mask = np.ones((side,) * 3, dtype=bool)
    for *n, c in facets:
        mask &= _dots(n, side, dtype) >= j * c
    return mask


def _points(mask: np.ndarray) -> set[IntVec]:
    """The points (x, y, z) of the box where mask[x, y, z] holds."""
    return set(map(tuple, np.argwhere(mask).tolist()))


def _shifted(g: IntVec, side: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Index tuples (to, frm) that line each point p = q + g of a cube
    up with q, so that `m[to]` against `n[frm]` reads shift(n, g) at p,
    where shift(n, g)[p] = n[p - g] and is False when p - g leaves the
    box.  Needs 0 <= g < side."""
    return (
        tuple(slice(d, None) for d in g),
        tuple(slice(None, side - d) for d in g),
    )


class Cube:
    """One body's box [0, max_coord]^3 as boolean arrays indexed
    [x, y, z].  `present` holds the points of some dilation layer (the
    origin in layer 0); the gaps, the generators and the Apery set are
    read off it by whole-array operations, in integers and booleans.

    The box must allow every layer that can reach its far corner, or
    points would be misclassified as absent: BoxTooSmall otherwise.  A
    box of more than _MAX_CELLS cells is refused as UnsupportedCase
    before anything is allocated.
    """

    def __init__(self, source, box: Optional[Box] = None):
        pre = self._pre = _prepare(source)
        if box is None:
            box = default_box(source)
        self.box = box
        side = box.max_coord + 1
        if side**3 > _MAX_CELLS:
            raise UnsupportedCase(
                "oracle box of %d^3 = %d cells exceeds the cap of %d cells"
                % (side, side**3, _MAX_CELLS)
            )
        need = _layer_bound(pre, 3 * box.max_coord)
        if need > box.max_layer:
            raise BoxTooSmall(
                "covering the box needs %d layers, cap is %d"
                % (need, box.max_layer)
            )
        dtype = _dtype_for(pre, box)
        # layer j holds q iff n.q >= j * c on every facet (n, c): a
        # positive c caps j at floor(n.q / c), a negative one raises it to
        # ceil(n.q / c), and c = 0 needs n.q >= 0
        least = np.ones((side,) * 3, dtype=dtype)
        most = np.full((side,) * 3, need, dtype=dtype)
        for *n, c in pre.facets:
            dot = _dots(n, side, dtype)
            if c > 0:
                np.minimum(most, dot // c, out=most)
            elif c < 0:
                np.maximum(least, -(dot // -c), out=least)
            else:
                most[dot < 0] = 0
        self.present = least <= most
        self.present[0, 0, 0] = True

    def gaps(self) -> np.ndarray:
        """Integer cone points of the box missed by every layer.  The
        cone test runs on Python integers when |n|_1 * max_coord, the
        largest |n.q| over the box, could pass int64."""
        side = self.box.max_coord + 1
        top = max(sum(map(abs, n)) for n in self._pre.cone)
        dtype = np.int64 if top * self.box.max_coord < 2**62 else object
        out = ~self.present
        for n in self._pre.cone:
            out &= _dots(n, side, dtype) >= 0
        return out

    def generators(self) -> np.ndarray:
        """Present points with no two-term decomposition into nonzero
        present points.  Complete for generators inside the box, since
        both parts of a decomposition are coordinatewise below their sum.

        The coordinate-sum levels are walked upward.  A point of a level
        is kept unless it was reached: p = g + q for a g kept on a lower
        level and a nonzero present q.  This is the two-term test: if
        p = a + b, some kept g has a - g present (a itself, or a kept
        part of a's own decomposition), so p = g + ((a - g) + b) with
        (a - g) + b a nonzero member below p; and p = g + q is a
        decomposition.  A kept g reaches only levels above its own, so a
        level's reached points are all marked before it is read."""
        nonzero = self.present.copy()
        nonzero[0, 0, 0] = False
        side = len(nonzero)
        pts = np.argwhere(nonzero)
        sums = pts.sum(axis=1)
        order = np.argsort(sums, kind="stable")
        pts, sums = pts[order], sums[order]
        reached = np.zeros_like(nonzero)
        gens = np.zeros_like(nonzero)
        for level in np.split(pts, np.flatnonzero(np.diff(sums)) + 1):
            new = level[~reached[tuple(level.T)]]
            gens[tuple(new.T)] = True
            for g in new.tolist():
                to, frm = _shifted(g, side)
                reached[to] |= nonzero[frm]
        return gens

    def apery(self) -> np.ndarray:
        """Present points whose translate by each ray generator leaves
        the semigroup (the intersection of the per-generator Apery
        sets), restricted to the box: `present` with shift(present, g)
        removed for each ray generator g.  p - g <= p, so a nonnegative
        p - g lies in the box, whose layers decide every point of it."""
        side = self.box.max_coord + 1
        out = self.present.copy()
        for g in _ray_generators(self._pre, self.box):
            to, frm = _shifted(g, side)
            out[to] &= ~self.present[frm]
        return out


def scan_semigroup(source, box: Optional[Box] = None) -> set[IntVec]:
    """All integer points of the box lying in some dilation layer;
    BoxTooSmall when its layer cap cannot reach the far corner."""
    return _points(Cube(source, box).present)


def scan_gaps(source, box: Optional[Box] = None) -> set[IntVec]:
    """Integer cone points of the box missed by every dilation layer."""
    return _points(Cube(source, box).gaps())


def scan_layer(source, j: int, box: Optional[Box] = None) -> set[IntVec]:
    """Integer points of one dilation layer inside the box."""
    if box is None:
        box = default_box(source)
    return _points(_layer(_prepare(source).facets, j, box))


def scan_layer_gaps(source, k: int, box: Optional[Box] = None) -> set[IntVec]:
    """Integer points of the hull of two consecutive dilations missing
    from both: the between-layers gap region, straight from its
    definition."""
    verts = _vertex_list(source)
    if box is None:
        box = default_box(source)
    doubled = [tuple(k * c for c in v) for v in verts]
    doubled += [tuple((k + 1) * c for c in v) for v in verts]
    facets = _prepare(verts).facets
    return _points(
        _layer(_body_facets(sorted(set(doubled))), 1, box)
        & ~_layer(facets, k, box)
        & ~_layer(facets, k + 1, box)
    )


def naive_msg(source, box: Optional[Box] = None) -> set[IntVec]:
    """The minimal generators inside the box (`Cube.generators`)."""
    return _points(Cube(source, box).generators())


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
    """The intersection of the per-generator Apery sets inside the box
    (`Cube.apery`)."""
    return _points(Cube(source, box).apery())
