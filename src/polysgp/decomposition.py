"""Structure of the gap set between consecutive dilations.

The integer cone points missed by the semigroup sit between consecutive
dilations of the body.  Past a computable overlap level that in-between
region splits into corner slabs (fans of tetrahedra hanging off the rays
whose chord is a single point) and bridge slabs joining adjacent corner
slabs, and the whole family translates along the rays from level to
level.  This module classifies the vertices driving that structure,
computes the overlap and separation levels, builds the slabs, and
enumerates the gap points themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AssumptionViolated,
    BadParameter,
    DegenerateInput,
    NotSimplicial,
    UnsupportedCase,
)
from .geometry import (
    Point3,
    Polyhedron,
    RayHit,
    _add,
    _cross,
    _dot,
    _hull_planes,
    _int_scale,
    _primitive_direction,
    _scale,
    _scaled_ints,
    _sign,
    _stack,
    _sub,
    convex_hull,
    integer_points_in_hull,
)

IntVec = tuple[int, int, int]


@dataclass(frozen=True)
class VertexClassification:
    """Partition of the vertex set by how each vertex sits on its ray.

    A vertex is the whole chord (point classes), the near end of a
    segment chord (entry classes) or the far end (exit classes), with
    extremal-ray versions kept apart from the rest:

      point_extremal:  chord is the vertex itself, ray extremal
      entry_extremal:  near end of a segment chord on an extremal ray
      exit_extremal:   far end of a segment chord on an extremal ray
      entry_inner:     near end, ray not extremal
      exit_inner:      far end, ray not extremal
    """

    point_extremal: tuple[int, ...]
    entry_extremal: tuple[int, ...]
    exit_extremal: tuple[int, ...]
    entry_inner: tuple[int, ...]
    exit_inner: tuple[int, ...]

    def entry_classes(self) -> frozenset[int]:
        return frozenset(self.entry_extremal) | frozenset(self.entry_inner)

    def exit_classes(self) -> frozenset[int]:
        return frozenset(self.exit_extremal) | frozenset(self.exit_inner)


class _Slab:
    """A slab whose `vertex_list` spans its hull."""

    def hull(self) -> Optional[Polyhedron]:
        """Full-dimensional hull, or None when the slab is flat."""
        try:
            return convex_hull(self.vertex_list())
        except DegenerateInput:
            return None


@dataclass(frozen=True)
class CornerSlab(_Slab):
    """Gap slab at one corner: the region between level k and level k+1
    hanging off a point-chord ray: the hull of the two apexes and a fan
    of crossing points.  The hull can be flat, for instance when the fan
    is empty or its points line up behind one another as seen from the
    axis."""

    ray: int
    level: int
    apex_pair: tuple[Point3, Point3]
    fan: tuple[Point3, ...]

    def vertex_list(self) -> tuple[Point3, ...]:
        return (*self.apex_pair, *self.fan)


@dataclass(frozen=True)
class BridgeSlab(_Slab):
    """Gap slab joining two adjacent corner slabs: the hull of one
    triangle from each."""

    ray: int
    next_ray: int
    level: int
    triangles: tuple[tuple[Point3, Point3, Point3], ...]

    def vertex_list(self) -> tuple[Point3, ...]:
        return self.triangles[0] + self.triangles[1]


@dataclass(frozen=True)
class SlabSet:
    corner: tuple[CornerSlab, ...]
    bridge: tuple[BridgeSlab, ...]


def _point(row: IntVec, den: int) -> Point3:
    return Point3(*(Fraction(c, den) for c in row))


@dataclass(frozen=True)
class _Template:
    """Corner slab (ray, level) on integer rows over one denominator:
    the apex pair, then the fan in sweep order.  The deciders work on
    templates; `slab` gives the public CornerSlab."""

    ray: int
    level: int
    rows: tuple[IntVec, ...]
    den: int

    def slab(self) -> CornerSlab:
        pts = tuple(_point(r, self.den) for r in self.rows)
        return CornerSlab(
            ray=self.ray, level=self.level, apex_pair=pts[:2], fan=pts[2:]
        )


@dataclass(frozen=True)
class GapRegion:
    """Everything needed to enumerate and reason about the gap set: the
    overlap and separation levels (with the reason when the separation
    level is unavailable), the hull covering the low levels, and the
    slab templates at the base level with their per-ray translation
    periods."""

    overlap: int
    separation: Optional[int]
    separation_reason: Optional[str]
    base_level: int
    hull_part: Polyhedron
    corner_templates: tuple[CornerSlab, ...]
    bridge_templates: tuple[BridgeSlab, ...]
    periods: dict[int, int]


def classify(h) -> VertexClassification:
    """Classify every vertex by its position on the chord its ray cuts
    out of the body, read off the handle's integer vertex chords: the
    chord (lo_num/lo_den, hi_num/hi_den) is in units of the vertex, so
    the vertex sits at 1.  Computes from scratch; `h.classification`
    keeps the result.

    A point-chord vertex v lies on an extremal ray, so it is filed
    untested: were v's direction in the relative interior of C = cone(B)
    or of a 2-face F of C, projecting along v would send v into the
    relative interior of the image of B (of B n F), a convex combination
    of other vertices' images, which lifts to a point w != v of B on
    v's ray."""
    ray_dirs = {r.int_tuple() for r in h.rays}
    point_e, entry_e, exit_e, entry_i, exit_i = [], [], [], [], []
    for vi, (row, chord) in enumerate(zip(h.body.rows, h._chords)):
        if chord is None or chord[0][0] > chord[0][1] or chord[1][0] < chord[1][1]:
            raise AssumptionViolated(
                "vertex %s escapes its own chord" % (h.body.vertices[vi],)
            )
        (ln, ld), (hn, hd) = chord
        extremal = _primitive_direction(row) in ray_dirs
        if ln * hd == hn * ld:
            point_e.append(vi)
        elif ln == ld:
            (entry_e if extremal else entry_i).append(vi)
        elif hn == hd:
            (exit_e if extremal else exit_i).append(vi)
        else:
            raise AssumptionViolated(
                "vertex %s lies strictly inside its chord"
                % (h.body.vertices[vi],)
            )
    return VertexClassification(
        tuple(point_e),
        tuple(entry_e),
        tuple(exit_e),
        tuple(entry_i),
        tuple(exit_i),
    )


def overlap_level(h) -> int:
    """Least level from which each dilation reaches far enough into the
    next (and previous) one for the slab description of the gaps to
    hold; 0 when every vertex is its own chord.  Computed anew on every
    call from the handle's classification; `h.overlap` keeps the
    result.

    Vertex q of level k + 1 lies inside level k iff (k + 1)/k * q lies
    inside the body, so both bounds come off the integer chord
    [lo, hi] of q's ray kept on the handle, compared cross-multiplied,
    and every check asks the body's facet rows.  The facets through the
    origin, exempt in that check, do not cut the chord: n.q >= 0 on the
    body.  An entry vertex has ln == ld and hn > hd, and so has an exit
    vertex after t -> 1/t: each window (1, hn/hd) reaches above 1, and
    its lower end admits every k."""
    cls = h.classification
    entries = cls.entry_extremal + cls.entry_inner
    best = 0
    for vi in entries + cls.exit_extremal + cls.exit_inner:
        (ln, ld), (hn, hd) = h._chords[vi]
        if vi not in entries:
            # t -> 1/t maps an exit vertex's chord [lo, 1] to [1, 1/lo]
            # and its scales k/(k+1) to (k+1)/k
            (ln, ld), (hn, hd) = (hd, hn), (ld, ln)
        # scales (k+1)/k fall toward 1, entering the window from above
        k = hd // (hn - hd) + 1
        _check_interior(h, vi, *((k, k + 1) if vi in entries else (k + 1, k)))
        best = max(best, k)
    return best


def _check_interior(h, vi: int, outer: int, inner: int) -> None:
    """The scaled vertex inner*q must sit T-interior to outer*body, that
    is (inner/outer)*q T-interior to the body: strictly inside every
    facet row (a, c) but those through the origin (c = 0).  On the
    vertex row Q = s*q that is the sign of inner*a.Q - c*s*outer."""
    row, s = h.body.rows[vi], h.body.scale
    for a in h.body.int_facets:
        v = inner * _dot(a, row) - a[3] * s * outer
        if v < 0 or (v == 0 and a[3] != 0):
            raise AssumptionViolated(
                "closed-form overlap level fails its interiority check at %s"
                % (h.body.vertices[vi],)
            )


def _ray_hit(h, i: int) -> RayHit:
    """The chord of ray i, for an index i of an existing ray."""
    if i not in range(len(h.rays)):
        raise BadParameter("no ray %r" % (i,))
    return h.ray_data[i]


def ray_point(h, i: int) -> Point3:
    """The structural point of ray i: the chord itself for a point
    chord, otherwise the near end of the segment chord."""
    return _point(*_ray_row(h, i))


def ray_chord_class(h, i: int) -> str:
    """'point' when ray i meets the body in one point, else
    'entry_vertex': the near chord end is a vertex (`_ray_vertex_index`)."""
    return "point" if _ray_hit(h, i).kind == "point" else "entry_vertex"


def _ray_vertex_index(h, i: int) -> int:
    """Vertex index of the near chord end of ray i, the ray point on the
    body's scale looked up among its rows.  It is a vertex: a plane H
    through the origin has H n cone(B) = ray i, so the chord B n H is a
    face of B (a vertex or an edge), and its near end sits at lo = 1 on
    its own chord, a point_extremal or entry_extremal vertex."""
    row, d = _ray_row(h, i)
    s = h.body.scale
    return h._vindex[tuple(c * s // d for c in row)]


def _ray_row(h, i: int) -> tuple[IntVec, int]:
    """Ray point i as an integer row over its least denominator: the
    primitive direction times the chord's near end lo, whose numerator
    and denominator share no factor with the direction's."""
    lo = _ray_hit(h, i).lo
    return _scale(h.rays[i].int_tuple(), lo.numerator), lo.denominator


def _ray_step(h, i: int, den: int) -> IntVec:
    """Ray point i as a numerator triple over `den`, a multiple of its
    denominator."""
    row, d = _ray_row(h, i)
    return _scale(row, den // d)


def ray_period(h, i: int) -> int:
    """Least step between levels whose slabs at ray i are exact integer
    translates: the denominator of the chord point's scale."""
    hit = _ray_hit(h, i)
    if hit.kind != "point":
        return 1
    return hit.lo.denominator


def _on_one_scale(points) -> tuple[list[IntVec], int]:
    """Rational points given as (integer row, positive denominator),
    as numerator triples over their least common denominator."""
    den = lcm(*(d // gcd(d, *row) for row, d in points))
    return [tuple(c * den // d for c in row) for row, d in points], den


def _corner_fan_points(h, i: int, k: int) -> tuple[list[IntVec], int]:
    """Crossing points generating the fan of the corner slab, unordered
    and without repeats, in the order first met, as numerator triples
    over one denominator.

    The edge m*p -> m*q of level m crosses level l (one of k, k + 1) at
    the same parameter t as the edge r*p -> r*q crosses the body, where
    r = m/l.  On the body's integer rows p = P/s and q = Q/s, facet row
    (a, c) holds at t iff m*a.P + t*m*a.(Q - P) >= c*s*l, so the near
    end t of the clipped edge is a ratio n/d of integers read off one
    facet, and the crossing m*(d*P + n*(Q - P)) / (s*d) comes out as a
    numerator triple over s*d."""
    vi = _ray_vertex_index(h, i)
    p, s = h.body.rows[vi], h.body.scale
    facets = h.body.int_facets
    entries = h.classification.entry_classes()
    exits = h.classification.exit_classes()
    pts: list[tuple[IntVec, int]] = []
    for wi in h.body.adjacent_vertices(vi):
        if wi in entries:
            m, l = k + 1, k
        elif wi in exits:
            m, l = k, k + 1
        else:
            continue
        e = _sub(h.body.rows[wi], p)
        # t runs over [t0, t1], each a (numerator, positive denominator)
        t0, t1 = (0, 1), (1, 1)
        for a in facets:
            va, dv = m * _dot(a, p) - a[3] * s * l, m * _dot(a, e)
            # facet a holds where va + t*dv >= 0
            if dv > 0 and -va * t0[1] > t0[0] * dv:
                t0 = (-va, dv)
            elif dv < 0 and va * t1[1] < t1[0] * -dv:
                t1 = (va, -dv)
            elif dv == 0 and va < 0:
                t1 = (-1, 1)
        if t0[0] * t1[1] > t1[0] * t0[1]:
            raise AssumptionViolated(
                "edge toward %s never enters the neighboring dilation"
                % (h.body.vertices[wi],)
            )
        n, d = t0
        on_edge = _add(_scale(p, d), _scale(e, n))
        if any(m * _dot(a, on_edge) < a[3] * s * l * d for a in facets):
            raise AssumptionViolated("crossing point fell off the dilation")
        pts.append((_scale(on_edge, m), s * d))
    rows, den = _on_one_scale(pts)
    return list(dict.fromkeys(rows)), den


def _ordered_fan(h, i: int, k: int) -> _Template:
    """Corner slab (i, k) as a template: the apex pair k*p, (k + 1)*p of
    the ray point p and the fan points swept in cyclic order so the
    last one faces the cyclically next ray, on one denominator.  Fan
    points seen under the same angle are kept, ordered near to far.

    The sweep compares the components across the ray axis d,
    x*(d.d) - d*(d.x), of the fan's numerator triples by integer cross
    products.  The fan shares one positive denominator, so each sign
    test and each comparison of two lengths or two heights along d
    comes out the same as on the points themselves."""
    p, pd = _ray_row(h, i)
    raw, den = _corner_fan_points(h, i, k)
    fan = raw
    if raw:
        t = len(h.rays)
        d = h.rays[i].int_tuple()
        dd = _dot(d, d)

        def across(x: IntVec) -> IntVec:
            return _sub(_scale(x, dd), _scale(d, _dot(d, x)))

        def turn(a: IntVec, b: IntVec) -> int:
            return _sign(_dot(d, _cross(a, b)))

        u_ref = across(h.rays[(i - 1) % t].int_tuple())
        v_ref = across(h.rays[(i + 1) % t].int_tuple())
        orient = turn(u_ref, v_ref)
        if orient == 0:
            raise AssumptionViolated("neighbor rays collapse around ray %d" % i)
        ws = [across(e) for e in raw]
        if not all(map(any, ws)):
            raise AssumptionViolated("fan point sits on its own axis")

        def cmp(a: int, b: int) -> int:
            if a == b:
                return 0
            s = turn(ws[a], ws[b])
            if s:
                return -1 if s == orient else 1
            if _dot(ws[a], ws[b]) < 0:
                raise AssumptionViolated(
                    "fan of ray %d spans a straight angle" % i
                )
            m = _sign(_dot(ws[a], ws[a]) - _dot(ws[b], ws[b]))
            if m:
                return m
            return _sign(_dot(d, _sub(raw[a], raw[b])))

        order = sorted(range(len(raw)), key=functools.cmp_to_key(cmp))
        # the sweep must run from the previous ray's side to the next ray's
        if turn(u_ref, ws[order[0]]) not in (0, orient) or turn(
            ws[order[-1]], v_ref
        ) not in (0, orient):
            raise AssumptionViolated(
                "fan of ray %d leaves the wedge of its neighbor rays" % i
            )
        fan = [raw[j] for j in order]
    rows, den = _on_one_scale(
        [(_scale(p, k), pd), (_scale(p, k + 1), pd)] + [(f, den) for f in fan]
    )
    return _Template(ray=i, level=k, rows=tuple(rows), den=den)


def _translated(h, t: _Template, k: int) -> _Template:
    """Template (i, base) moved to level k >= base >= max(1, overlap
    level): every row moves by (k - base) times ray point i."""
    move = _scale(_ray_step(h, t.ray, t.den), k - t.level)
    return _Template(t.ray, k, tuple(_add(r, move) for r in t.rows), t.den)


def _bridge_triangles(
    i: int, j: int, a: Sequence[IntVec], b: Sequence[IntVec], chord: IntVec
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """The two triangles of the bridge between the corner slab a of ray
    i and the corner slab b of the next ray j at the same level: one cut
    from each fan, joined by an edge parallel to the chord between the
    two corner points.  The slabs come as rows on one scale (apex pair,
    then fan), the chord on the same scale.  The triangle corners are
    the facing fan ends; when those are not parallel to the chord (the
    fans were flat, so their ends are ordered by distance, not angle)
    the unique parallel pair of fan points takes over.  On a three-ray
    cone no fan is empty: only extremal rays hold point-chord vertices,
    one each (`classify`), so a vertex's three or more neighbours include
    an entry or exit vertex, whose edge gives a fan point."""
    fa, fb = a[2:], b[2:]
    if not fa or not fb:
        raise UnsupportedCase(
            "bridge between rays %d and %d lacks fan points" % (i, j)
        )

    def parallel(qa: IntVec, qb: IntVec) -> bool:
        return not any(_cross(_sub(qb, qa), chord))

    if parallel(fa[-1], fb[0]):
        qa, qb = fa[-1], fb[0]
    else:
        pairs = {(pa, pb) for pa in fa for pb in fb if parallel(pa, pb)}
        if len(pairs) != 1:
            raise AssumptionViolated(
                "bridge edge between rays %d and %d: %d candidate pairs "
                "parallel to the corner chord" % (i, j, len(pairs))
            )
        ((qa, qb),) = pairs
    return (*a[:2], qa), (*b[:2], qb)


def _slab_set(h, corner: tuple[_Template, ...]) -> SlabSet:
    """The corner slabs of one level with the bridges between
    consecutive ones, each bridge cut on the two templates' common
    denominator."""
    t = len(h.rays)
    by_ray = {c.ray: c for c in corner}
    bridges = []
    for c in corner:
        nxt = by_ray.get((c.ray + 1) % t)
        if nxt is None:
            continue
        den = lcm(c.den, nxt.den)
        try:
            tris = _bridge_triangles(
                c.ray,
                nxt.ray,
                [_scale(r, den // c.den) for r in c.rows],
                [_scale(r, den // nxt.den) for r in nxt.rows],
                _sub(_ray_step(h, nxt.ray, den), _ray_step(h, c.ray, den)),
            )
        except AssumptionViolated as exc:
            if h.simplicial:  # bridges are proved on three rays only
                raise
            raise UnsupportedCase(str(exc)) from None
        tris = tuple(tuple(_point(r, den) for r in tri) for tri in tris)
        bridges.append(BridgeSlab(c.ray, nxt.ray, c.level, tris))
    return SlabSet(corner=tuple(c.slab() for c in corner), bridge=tuple(bridges))


def _check_level(h, k: int) -> None:
    """Slabs start at the base level max(1, overlap level)."""
    base = max(1, h.overlap)
    if k < base:
        raise BadParameter("slabs start at the base level %d" % base)


def slabs(h, k: int) -> SlabSet:
    """All corner and bridge slabs at level k (only the nonempty kinds:
    corner slabs exist on point-chord rays, bridges between consecutive
    point-chord rays)."""
    _check_level(h, k)
    return _slab_set(
        h,
        tuple(
            _ordered_fan(h, i, k)
            for i in range(len(h.rays))
            if h.ray_data[i].kind == "point"
        ),
    )


def corner_slab(h, i: int, k: int) -> CornerSlab:
    """The corner slab of one point-chord ray at one level."""
    _check_level(h, k)
    if _ray_hit(h, i).kind != "point":
        raise BadParameter("ray %d has a segment chord, no corner slab" % i)
    return _ordered_fan(h, i, k).slab()


def slab_integer_points(slab) -> set[IntVec]:
    """Integer points of a slab (its hull, flat slabs included)."""
    return set(integer_points_in_hull(slab.vertex_list()))


def separation_level(
    h, generators: Optional[Sequence[Point3]] = None
) -> int:
    """Least level past which no corner-slab point, translated by the
    generator of another ray, can land in that ray's corner slab or in
    the bridge between the other two rays.

    Needs a three-ray cone with at least two point-chord rays.
    `generators` overrides the translation vectors (one per ray, in ray
    order); by default the ray generators of the semigroup are used.
    """
    return _separation(h, generators)[0]


def _separation(
    h, generators: Optional[Sequence[Point3]] = None
) -> tuple[int, dict[int, _Template]]:
    """The separation level together with the corner templates it was
    derived from: one corner slab per point-chord ray at the base level
    max(1, overlap level), keyed by ray.  `_translated` moves a template
    to any level from the base on.  No fan is empty (`_bridge_triangles`).

    Each (source ray, target) pair is scanned once, for the generators
    of both other rays together: moving the source by a generator moves
    the difference cloud as a whole, so `_worst_collision` hulls that
    cloud at most once per pair (once per tested level for a bridge)."""
    if not h.simplicial:
        raise NotSimplicial("separation level needs a three-ray cone")
    point_rays = [i for i in range(3) if h.ray_data[i].kind == "point"]
    if len(point_rays) < 2:
        raise UnsupportedCase(
            "separation level needs at least two point-chord rays"
        )

    base = max(1, h.overlap)
    gens = tuple(generators) if generators is not None else h.ray_generators
    if len(gens) != 3:
        raise BadParameter("one translation generator per ray is required")
    # from the base level on, slab (i, base + m) is template i moved by
    # m times ray point i, and a bridge moves each of its triangles by
    # its own ray point: a target is a list of (vertices, ray point).
    # Every collision test and gauge bound is invariant under one common
    # positive scale, so all of it runs on integer triples over the lcm
    # of the templates' and generators' denominators (each ray point's
    # divides its template's).
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
        shifts = [moves[j] for j in others]
        for target in targets:
            worst = max(
                worst,
                _worst_collision(base, verts[i], steps[i], shifts, target),
            )
    return max(base, worst + 1), corners


def _dual_positive(axis: IntVec, *kill: IntVec) -> IntVec:
    """An integer vector orthogonal to every kill direction with
    positive product against axis."""
    if len(kill) == 1:
        (k,) = kill
        kk, ka = _dot(k, k), _dot(k, axis)
        n = tuple(a * kk - c * ka for a, c in zip(axis, k))
    else:
        n = _cross(*kill)
        if _dot(n, axis) < 0:
            n = _scale(n, -1)
    if _dot(n, axis) <= 0:
        raise AssumptionViolated("rays are not linearly independent")
    return n


def _worst_collision(
    base: int,
    source: list[IntVec],
    step: IntVec,
    moves: Sequence[IntVec],
    target: list[tuple[Sequence[IntVec], IntVec]],
) -> int:
    """Largest min(source level, target level) over colliding pairs of
    (translated source corner slab, target slab), or base-1 if none.

    All points are integer triples on one common positive scale; the
    collision test and both bounds below are ratios or sign tests, so
    they come out the same as on the unscaled points.

    `source` is S0, the base-level source template; it is moved by each
    generator g in `moves` in turn and rises by `step`, its ray point
    p_i, per level.  The target template T0 is the union of the vertex
    groups in `target`, each rising by its own ray point per level (one
    group for a corner slab, one triangle per ray for a bridge).  Source
    level base + alpha can meet target level base + beta only within
    two bounds:

    * alpha <= floor((t_max - min n.(S0 + g)) / n.p_i), where n is
      _dual_positive(p_i, target steps) and t_max = max n.T0.  n
      vanishes on the target steps, so every target level tops out at
      t_max, while the source rises by n.p_i > 0 per level; past the
      bound the whole source lies above every target level.
    * for each alpha, beta <= floor((max 1.source - min 1.T0) /
      min 1.step) over the target steps, 1 being the all-ones vector.
      The body lies in the nonnegative orthant, so 1.step > 0 for every
      ray point and each target level sits at least min 1.step above
      the one before in this gauge; past the bound the whole target
      lies above the source in the all-ones gauge, so the two cannot
      meet.

    The pair collides iff the origin lies in the hull of the difference
    cloud (target level) - (source level).  Write the target level as
    T_beta + beta d_0, where d_0 is the first group's ray point and
    T_beta moves group k by beta (d_k - d_0): then the cloud is
    D_beta - x with D_beta = T_beta - S0 and x = g + alpha p_i - beta d_0,
    and the pair collides iff x lies in hull(D_beta).  Translating a
    cloud moves its hull and leaves its facet normals as they are, so
    one hull of D_beta, as integer planes n.x <= c (`_hull_planes`),
    answers every (g, alpha) by the plane sums
    alpha n.p_i - beta n.d_0 + n.g <= c: exactly, with no new hull.  A
    corner target moves as a whole (T_beta = T0), so one hull serves
    every pair; a bridge's two triangles drift apart by beta (d_1 - d_0),
    so it takes one hull per tested beta.  A hull is built on first use
    only.  A flat D_beta is lifted off its affine span once, and its
    span's equations join the planes as opposite pairs.  Pairs whose
    min(alpha, beta) cannot beat the worst one found are not tested.
    """
    steps = [d for _verts, d in target]
    t_verts = [v for verts, _d in target for v in verts]
    n = _dual_positive(step, *steps)
    t_max = max(_dot(n, v) for v in t_verts)
    t_low = min(sum(v) for v in t_verts)
    rise = min(sum(d) for d in steps)
    s_low = min(_dot(n, v) for v in source)
    s_top = max(sum(v) for v in source)
    d0 = steps[0]
    hulls: dict = {}

    def hull(beta: int) -> list:
        """The planes of D_beta as (n.p_i, n.d_0, n, c)."""
        drift = tuple(_scale(_sub(d, d0), beta) for d in steps)
        if drift not in hulls:
            planes = _hull_planes(
                [
                    _sub(_add(t, move), s)
                    for (verts, _d), move in zip(target, drift)
                    for t in verts
                    for s in source
                ]
            )
            hulls[drift] = [
                (_dot(m, step), _dot(m, d0), m, c) for m, c in planes
            ]
        return hulls[drift]

    worst = -1
    for g in moves:
        alphas = (t_max - s_low - _dot(n, g)) // _dot(n, step)
        for alpha in range(worst + 1, alphas + 1):
            betas = (s_top + sum(g) + alpha * sum(step) - t_low) // rise
            for beta in range(worst + 1, betas + 1):
                if all(
                    a * alpha - b * beta + _dot(m, g) <= c
                    for a, b, m, c in hull(beta)
                ):
                    worst = max(worst, min(alpha, beta))
                    if worst == alpha:
                        break
    return base + worst


def gap_region(h) -> GapRegion:
    """Assemble the finite description of the whole gap set.  When the
    separation level exists, the slabs at that level are its corner
    templates translated up, with the bridges cut from them."""
    kappa = h.overlap
    sep: Optional[int] = None
    reason: Optional[str] = None
    templates: dict[int, _Template] = {}
    try:
        sep, templates = _separation(h)
    except UnsupportedCase as exc:
        reason = str(exc)
    base = max(1, sep if sep is not None else kappa)

    t = len(h.rays)
    den = lcm(*(_ray_row(h, i)[1] for i in range(t)))
    steps = [_ray_step(h, i, den) for i in range(t)]
    hull_part = convex_hull(
        [(0, 0, 0)] + [_scale(p, m) for m in (base, base + 1) for p in steps],
        den,
    )
    if sep is None:
        slab_set = slabs(h, base)
    else:
        slab_set = _slab_set(
            h, tuple(_translated(h, c, base) for c in templates.values())
        )
    periods = {s.ray: ray_period(h, s.ray) for s in slab_set.corner}
    return GapRegion(
        overlap=kappa,
        separation=sep,
        separation_reason=reason,
        base_level=base,
        hull_part=hull_part,
        corner_templates=slab_set.corner,
        bridge_templates=slab_set.bridge,
        periods=periods,
    )


def gap_points(h, region: GapRegion, extra_periods: int = 2) -> list[Point3]:
    """All integer gap points up to the base level plus the requested
    number of slab periods: cone points no dilation of the body reaches.
    Sorted lexicographically."""
    return [Point3.of(*p) for p in gap_rows(h, region, extra_periods).tolist()]


def gap_rows(h, region: GapRegion, extra_periods: int = 2) -> np.ndarray:
    """The points of `gap_points` as an `(N, 3)` integer array in
    lexicographic order (int64 unless the kernel needs object): the
    gaps of every shell up to the bound, off one column-kernel pass
    (`semigroup._gap_rows`), stacked."""
    # imported here because `semigroup` imports this module
    from .semigroup import _gap_rows

    if extra_periods < 0:
        raise BadParameter("extra_periods must be nonnegative")
    maxh = max(region.periods.values(), default=1)
    return _stack(_gap_rows(h, region.base_level + extra_periods * maxh + 1))
