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
from math import floor
from typing import Optional, Sequence

from .errors import (
    AssumptionViolated,
    BadParameter,
    DegenerateInput,
    NotSimplicial,
    UnsupportedCase,
)
from .geometry import (
    ORIGIN,
    Point3,
    Polyhedron,
    RayHit,
    _add,
    _cross,
    _dot,
    _int_hull_contains_origin,
    _int_scale,
    _primitive_direction,
    _scale,
    _scaled_ints,
    _sign,
    clip_segment,
    cone_supporting_facets,
    contains,
    convex_hull,
    integer_points_in_hull,
    ray_intersect,
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
    out of the body.  Computes from scratch; `h.classification` keeps
    the result."""
    ray_dirs = {r.int_tuple() for r in h.rays}
    point_e, entry_e, exit_e, entry_i, exit_i = [], [], [], [], []
    for vi, v in enumerate(h.body.vertices):
        hit = ray_intersect(h.body, v)
        lo, hi = hit.lo, hit.hi
        if hit.kind == "empty" or not lo <= 1 <= hi:
            raise AssumptionViolated("vertex %s escapes its own chord" % (v,))
        extremal = _primitive_direction(v) in ray_dirs
        if lo == hi:
            if not extremal:
                raise UnsupportedCase(
                    "vertex %s is an isolated chord on a non-extremal ray"
                    % (v,)
                )
            point_e.append(vi)
        elif lo == 1:
            (entry_e if extremal else entry_i).append(vi)
        elif hi == 1:
            (exit_e if extremal else exit_i).append(vi)
        else:
            raise AssumptionViolated(
                "vertex %s lies strictly inside its chord" % (v,)
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
    inside the body, so both bounds come off the chord [lo, hi] of q's
    ray (`ray_intersect`) and every check asks the body itself.  The
    facets through the origin, exempt in that check, do not cut the
    chord: n.q >= 0 on the body."""
    cls = h.classification
    best = 0
    exempt = cone_supporting_facets(h.body)
    for vi in list(cls.entry_extremal) + list(cls.entry_inner):
        q = h.body.vertices[vi]
        hit = ray_intersect(h.body, q)
        mlo, mhi = hit.lo, hit.hi
        # scales (k+1)/k decrease toward 1, so they enter the window from
        # above; the window must reach above 1 for any k to work
        if mhi <= 1:
            raise UnsupportedCase(
                "chord of vertex %s touches the body boundary" % (q,)
            )
        k = floor(1 / (mhi - 1)) + 1
        if not Fraction(k + 1, k) > mlo:
            raise UnsupportedCase(
                "interior window of vertex %s excludes all levels" % (q,)
            )
        _check_interior(h, q, k, k + 1, exempt)
        best = max(best, k)
    for vi in list(cls.exit_extremal) + list(cls.exit_inner):
        q = h.body.vertices[vi]
        hit = ray_intersect(h.body, q)
        mlo, mhi = hit.lo, hit.hi
        # scales k/(k+1) increase toward 1 and enter from below
        if mlo >= 1:
            raise UnsupportedCase(
                "chord of vertex %s touches the body boundary" % (q,)
            )
        k = floor(mlo / (1 - mlo)) + 1
        if not Fraction(k, k + 1) < mhi:
            raise UnsupportedCase(
                "interior window of vertex %s excludes all levels" % (q,)
            )
        _check_interior(h, q, k + 1, k, exempt)
        best = max(best, k)
    return best


def _check_interior(h, q: Point3, outer: int, inner: int, exempt) -> None:
    """The scaled vertex inner*q must sit T-interior to outer*body, that
    is (inner/outer)*q T-interior to the body."""
    if not contains(
        h.body,
        q * Fraction(inner, outer),
        mode="relative_interior",
        exempt_facets=exempt,
    ):
        raise AssumptionViolated(
            "closed-form overlap level fails its interiority check at %s"
            % (q,)
        )


def _ray_hit(h, i: int) -> RayHit:
    """The chord of ray i, for an index i of an existing ray."""
    if i not in range(len(h.rays)):
        raise BadParameter("no ray %r" % (i,))
    return h.ray_data[i]


def ray_point(h, i: int) -> Point3:
    """The structural point of ray i: the chord itself for a point
    chord, otherwise the near end of the segment chord."""
    hit = _ray_hit(h, i)
    return h.rays[i] * hit.lo


def ray_chord_class(h, i: int) -> str:
    """'point' when ray i meets the body in one point, 'entry_vertex'
    when the near chord end is a vertex, else 'entry_hidden'."""
    if _ray_hit(h, i).kind == "point":
        return "point"
    if _ray_vertex_index(h, i) is not None:
        return "entry_vertex"
    return "entry_hidden"


def _ray_vertex_index(h, i: int) -> Optional[int]:
    """Vertex index of the near chord end of ray i, if it is a vertex."""
    p = ray_point(h, i)
    for vi, v in enumerate(h.body.vertices):
        if v == p:
            return vi
    return None


def ray_period(h, i: int) -> int:
    """Least step between levels whose slabs at ray i are exact integer
    translates: the denominator of the chord point's scale."""
    hit = _ray_hit(h, i)
    if hit.kind != "point":
        return 1
    return hit.lo.denominator


def _corner_fan_points(h, i: int, k: int) -> list[Point3]:
    """Crossing points generating the fan of the corner slab, unordered
    and without repeats, in the order first met.

    The edge m*p -> m*q of level m crosses level l (one of k, k + 1) at
    the same parameter as the edge r*p -> r*q crosses the body, where
    r = m/l, so each crossing is found on the body itself."""
    vi = _ray_vertex_index(h, i)
    p = h.body.vertices[vi]
    entries = h.classification.entry_classes()
    exits = h.classification.exit_classes()
    pts: list[Point3] = []
    for wi in h.body.adjacent_vertices(vi):
        q = h.body.vertices[wi]
        if wi in entries:
            m, l = k + 1, k
        elif wi in exits:
            m, l = k, k + 1
        else:
            continue
        r = Fraction(m, l)
        clipped = clip_segment(h.body, p * r, q * r)
        if clipped is None:
            raise AssumptionViolated(
                "edge toward %s never enters the neighboring dilation"
                % (q,)
            )
        on_edge = p + (q - p) * clipped[0]
        if not contains(h.body, on_edge * r):
            raise AssumptionViolated("crossing point fell off the dilation")
        hit = on_edge * m
        if hit not in pts:
            pts.append(hit)
    return pts


def _transverse(x: Point3, d: Point3) -> Point3:
    """Component of x across the axis d, scaled by |d|^2 to stay exact."""
    return x * d.dot(d) - d * d.dot(x)


def _ordered_fan(
    h, i: int, k: int
) -> tuple[tuple[Point3, Point3], list[Point3]]:
    """Apex pair and fan points of corner slab (i, k), the fan swept in
    cyclic order so its last point faces the cyclically next ray.  Fan
    points seen under the same angle are kept, ordered near to far."""
    vi = _ray_vertex_index(h, i)
    p = h.body.vertices[vi]
    apexes = (p * k, p * (k + 1))
    raw = _corner_fan_points(h, i, k)
    if not raw:
        return apexes, []
    t = len(h.rays)
    d = h.rays[i]
    u_ref = _transverse(h.rays[(i - 1) % t], d)
    v_ref = _transverse(h.rays[(i + 1) % t], d)
    orient = _sign(d.dot(u_ref.cross(v_ref)))
    if orient == 0:
        raise AssumptionViolated("neighbor rays collapse around ray %d" % i)
    ws = []
    for e in raw:
        w = _transverse(e, d)
        if w.is_zero():
            raise AssumptionViolated("fan point sits on its own axis")
        ws.append(w)

    def cmp(a: int, b: int) -> int:
        if a == b:
            return 0
        s = _sign(d.dot(ws[a].cross(ws[b])))
        if s:
            return -1 if s == orient else 1
        if ws[a].dot(ws[b]) < 0:
            raise AssumptionViolated(
                "fan of ray %d spans a straight angle" % i
            )
        m = _sign(ws[a].dot(ws[a]) - ws[b].dot(ws[b]))
        if m:
            return m
        return _sign(d.dot(raw[a] - raw[b]))

    order = sorted(range(len(raw)), key=functools.cmp_to_key(cmp))
    first_w = ws[order[0]]
    last_w = ws[order[-1]]
    # the sweep must run from the previous ray's side to the next ray's
    if _sign(d.dot(u_ref.cross(first_w))) not in (0, orient) or _sign(
        d.dot(last_w.cross(v_ref))
    ) not in (0, orient):
        raise AssumptionViolated(
            "fan of ray %d leaves the wedge of its neighbor rays" % i
        )
    return apexes, [raw[j] for j in order]


def _corner_slab(h, i: int, k: int) -> CornerSlab:
    apexes, fan = _ordered_fan(h, i, k)
    return CornerSlab(ray=i, level=k, apex_pair=apexes, fan=tuple(fan))


def _translated(h, slab: CornerSlab, k: int) -> CornerSlab:
    """Corner slab (i, k) from slab (i, base) with k >= base >= max(1,
    overlap level): every vertex moves by (k - base) times ray point i."""
    d = ray_point(h, slab.ray) * (k - slab.level)
    return CornerSlab(
        ray=slab.ray,
        level=k,
        apex_pair=(slab.apex_pair[0] + d, slab.apex_pair[1] + d),
        fan=tuple(v + d for v in slab.fan),
    )


def _bridge_triangles(
    h, a: CornerSlab, b: CornerSlab
) -> tuple[tuple[Point3, Point3, Point3], tuple[Point3, Point3, Point3]]:
    """The two triangles of the bridge between corner slab a and the
    corner slab b of the next ray at the same level: one cut from each
    fan, joined by an edge parallel to the chord between the two corner
    points.  The triangle corners are the facing fan ends; when those
    are not parallel to the chord (the fans were flat, so their ends are
    ordered by distance, not angle) the unique parallel pair of fan
    points takes over."""
    i, j = a.ray, b.ray
    if not a.fan or not b.fan:
        raise UnsupportedCase(
            "bridge between rays %d and %d lacks fan points" % (i, j)
        )
    chord = ray_point(h, j) - ray_point(h, i)

    def parallel(qa: Point3, qb: Point3) -> bool:
        return (qb - qa).cross(chord).is_zero()

    if parallel(a.fan[-1], b.fan[0]):
        qa, qb = a.fan[-1], b.fan[0]
    else:
        pairs = {
            (pa, pb)
            for pa in a.fan
            for pb in b.fan
            if parallel(pa, pb)
        }
        if len(pairs) != 1:
            raise AssumptionViolated(
                "bridge edge between rays %d and %d: %d candidate pairs "
                "parallel to the corner chord" % (i, j, len(pairs))
            )
        ((qa, qb),) = pairs
    return (*a.apex_pair, qa), (*b.apex_pair, qb)


def _slab_set(h, corner: tuple[CornerSlab, ...]) -> SlabSet:
    """The corner slabs of one level with the bridges between
    consecutive ones."""
    t = len(h.rays)
    by_ray = {c.ray: c for c in corner}
    bridges = []
    for c in corner:
        nxt = by_ray.get((c.ray + 1) % t)
        if nxt is None:
            continue
        bridges.append(
            BridgeSlab(
                ray=c.ray,
                next_ray=nxt.ray,
                level=c.level,
                triangles=_bridge_triangles(h, c, nxt),
            )
        )
    return SlabSet(corner=corner, bridge=tuple(bridges))


def slabs(h, k: int) -> SlabSet:
    """All corner and bridge slabs at level k (only the nonempty kinds:
    corner slabs exist on point-chord rays, bridges between consecutive
    point-chord rays)."""
    if k < 1:
        raise BadParameter("slabs start at level 1")
    # a body the classification rejects has no slabs, point chords or not
    h.classification
    t = len(h.rays)
    for i in range(t):
        if ray_chord_class(h, i) == "entry_hidden":
            raise UnsupportedCase(
                "ray %d has a segment chord whose near end is not a "
                "vertex" % i
            )
    return _slab_set(
        h,
        tuple(
            _corner_slab(h, i, k)
            for i in range(t)
            if h.ray_data[i].kind == "point"
        ),
    )


def corner_slab(h, i: int, k: int) -> CornerSlab:
    """The corner slab of one point-chord ray at one level."""
    if k < 1:
        raise BadParameter("slabs start at level 1")
    if _ray_hit(h, i).kind != "point":
        raise BadParameter("ray %d has a segment chord, no corner slab" % i)
    return _corner_slab(h, i, k)


def slab_integer_points(slab) -> set[IntVec]:
    """Integer points of a slab (its hull, flat slabs included)."""
    return set(integer_points_in_hull(slab.vertex_list()))


def separation_level(
    h, generators: Optional[Sequence[Point3]] = None
) -> int:
    """Least level past which no corner-slab point, translated by the
    generator of another ray, can land in that ray's corner slab or in
    the bridge between the other two rays.

    Needs a three-ray cone whose rays all have point chords, except
    possibly one whose near chord end is an extremal-ray vertex.
    `generators` overrides the translation vectors (one per ray, in ray
    order); by default the ray generators of the semigroup are used.
    """
    return _separation(h, generators)[0]


def _separation(
    h, generators: Optional[Sequence[Point3]] = None
) -> tuple[int, dict[int, CornerSlab]]:
    """The separation level together with the corner templates it was
    derived from: one corner slab per point-chord ray at the base level
    max(1, overlap level), keyed by ray.  `_translated` moves a template
    to any level from the base on."""
    cls = h.classification
    if not h.simplicial:
        raise NotSimplicial("separation level needs a three-ray cone")
    point_rays = [i for i in range(3) if h.ray_data[i].kind == "point"]
    if len(point_rays) == 2:
        other = next(i for i in range(3) if i not in point_rays)
        if ray_chord_class(h, other) != "entry_vertex" or (
            _ray_vertex_index(h, other) not in cls.entry_extremal
        ):
            raise UnsupportedCase(
                "segment-chord ray %d does not start at an extremal vertex"
                % other
            )
    elif len(point_rays) != 3:
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
    # positive scale, so all of it runs on integer triples scaled by the
    # lcm of the denominators involved.
    corners = {i: _corner_slab(h, i, base) for i in point_rays}
    points = {i: ray_point(h, i) for i in point_rays}
    scale = _int_scale(
        [v for c in corners.values() for v in c.vertex_list()]
        + list(points.values())
        + list(gens)
    )

    def ints(vs: Sequence[Point3]) -> list[IntVec]:
        return [_scaled_ints(v, scale) for v in vs]

    verts = {i: ints(c.vertex_list()) for i, c in corners.items()}
    steps = {i: _scaled_ints(p, scale) for i, p in points.items()}
    moves = ints(gens)
    worst = base - 1
    for i in point_rays:
        others = [j for j in range(3) if j != i]
        targets = [[(verts[j], steps[j])] for j in others if j in corners]
        if len(point_rays) == 3:
            r = others[0] if (others[0] + 1) % 3 == others[1] else others[1]
            nxt = (r + 1) % 3
            try:
                tri_r, tri_nxt = _bridge_triangles(h, corners[r], corners[nxt])
            except UnsupportedCase:
                pass
            else:
                targets.append(
                    [(ints(tri_r), steps[r]), (ints(tri_nxt), steps[nxt])]
                )
        for j in others:
            source = [_add(v, moves[j]) for v in verts[i]]
            for target in targets:
                worst = max(
                    worst, _worst_collision(base, source, steps[i], target)
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
    target: list[tuple[Sequence[IntVec], IntVec]],
) -> int:
    """Largest min(source level, target level) over colliding pairs of
    (translated source corner slab, target slab), or base-1 if none.

    All points are integer triples on one common positive scale; the
    collision test and both bounds below are ratios or sign tests, so
    they come out the same as on the unscaled points.

    `source` is S0 + g, the base-level source template moved by the
    generator g; it rises by `step`, its ray point p_i, per level.  The
    target template T0 is the union of the vertex groups in `target`,
    each rising by its own ray point per level (one group for a corner
    slab, one triangle per ray for a bridge).  Source level base + alpha
    can meet target level base + beta only within two bounds:

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
    """
    steps = [d for _verts, d in target]
    t_verts = [v for verts, _d in target for v in verts]
    n = _dual_positive(step, *steps)
    t_max = max(_dot(n, v) for v in t_verts)
    t_low = min(sum(v) for v in t_verts)
    rise = min(sum(d) for d in steps)
    worst = base - 1
    alphas = (t_max - min(_dot(n, v) for v in source)) // _dot(n, step)
    for alpha in range(alphas + 1):
        src = [_add(v, _scale(step, alpha)) for v in source]
        betas = (max(sum(v) for v in src) - t_low) // rise
        for beta in range(betas + 1):
            tgt = [
                _add(v, _scale(d, beta)) for verts, d in target for v in verts
            ]
            diffs = [
                (t[0] - s[0], t[1] - s[1], t[2] - s[2])
                for t in tgt
                for s in src
            ]
            if _int_hull_contains_origin(diffs):
                worst = max(worst, base + min(alpha, beta))
    return worst


def gap_region(h) -> GapRegion:
    """Assemble the finite description of the whole gap set.  When the
    separation level exists, the slabs at that level are its corner
    templates translated up, with the bridges cut from them."""
    kappa = h.overlap
    sep: Optional[int] = None
    reason: Optional[str] = None
    templates: dict[int, CornerSlab] = {}
    try:
        sep, templates = _separation(h)
    except UnsupportedCase as exc:
        reason = str(exc)
    base = max(1, sep if sep is not None else kappa)

    t = len(h.rays)
    hull_part = convex_hull(
        [ORIGIN]
        + [ray_point(h, i) * base for i in range(t)]
        + [ray_point(h, i) * (base + 1) for i in range(t)]
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
    return [Point3.of(*p) for p in gap_rows(h, region, extra_periods)]


def gap_rows(
    h, region: GapRegion, extra_periods: int = 2
) -> list[tuple[int, int, int]]:
    """The points of `gap_points` as integer triples: the non-members of
    every shell up to the bound, sorted once as integer rows."""
    import numpy as np

    from .semigroup import _shell_gaps

    if extra_periods < 0:
        raise BadParameter("extra_periods must be nonnegative")
    maxh = max(region.periods.values(), default=1)
    bound = region.base_level + extra_periods * maxh + 1
    gaps = np.concatenate(
        [rows for _s, rows in _shell_gaps(h, bound)]
        or [np.empty((0, 3), dtype=np.int64)]
    )
    order = np.lexsort((gaps[:, 2], gaps[:, 1], gaps[:, 0]))
    return list(map(tuple, gaps[order].tolist()))
