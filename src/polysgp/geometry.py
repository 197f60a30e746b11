"""Exact rational geometry for convex polytopes in three dimensions.

Everything here is computed over the rationals: points carry Fraction
coordinates, facet half-spaces are stored with primitive integer normals,
and every predicate reduces to integer sign tests.  Lattice points of
hulls run on integer rows: a cloud is put on one integer scale once and
solved in integers in every affine dimension.  No floating point is
used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import AssumptionViolated, BadParameter, DegenerateInput


def _frac(value) -> Fraction:
    """Exact conversion; strings like '33/16' and '2.2' parse exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise BadParameter(
            "refusing float %r: pass an int, Fraction, or string" % (value,)
        )
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class Point3:
    """A point (or vector) in Q^3."""

    x: Fraction
    y: Fraction
    z: Fraction

    @staticmethod
    def of(x, y, z) -> "Point3":
        return Point3(_frac(x), _frac(y), _frac(z))

    @staticmethod
    def from_seq(seq) -> "Point3":
        a, b, c = seq
        return Point3.of(a, b, c)

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, k) -> "Point3":
        k = _frac(k)
        return Point3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def dot(self, other: "Point3") -> Fraction:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Point3") -> "Point3":
        return Point3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def is_zero(self) -> bool:
        return not (self.x or self.y or self.z)

    def is_nonnegative(self) -> bool:
        return self.x >= 0 and self.y >= 0 and self.z >= 0

    def is_integral(self) -> bool:
        return (
            self.x.denominator == 1
            and self.y.denominator == 1
            and self.z.denominator == 1
        )

    def int_tuple(self) -> tuple[int, int, int]:
        if not self.is_integral():
            raise BadParameter("point %s is not integral" % (self,))
        return (int(self.x), int(self.y), int(self.z))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    def denominator_lcm(self) -> int:
        return lcm(self.x.denominator, self.y.denominator, self.z.denominator)

    def __repr__(self) -> str:
        return "(%s, %s, %s)" % (self.x, self.y, self.z)


ORIGIN = Point3(Fraction(0), Fraction(0), Fraction(0))


@dataclass(frozen=True, slots=True)
class HalfSpace:
    """Closed half-space {p : normal . p >= offset} with a primitive
    integer normal; the boundary plane carries the facet."""

    normal: Point3
    offset: Fraction

    def int_tuple(self) -> tuple[int, int, int, int]:
        n = self.normal
        return (int(n.x), int(n.y), int(n.z), int(self.offset))

    def value(self, p: Point3) -> Fraction:
        return self.normal.dot(p) - self.offset


def _primitive_halfspace(a: Sequence, c) -> HalfSpace:
    """Normalize (a, c) with rational entries to primitive integers,
    preserving the solution set of a.x >= c."""
    fa = [_frac(v) for v in a]
    fc = _frac(c)
    mult = lcm(
        fa[0].denominator, fa[1].denominator, fa[2].denominator, fc.denominator
    )
    ia = [int(v * mult) for v in fa]
    ic = int(fc * mult)
    g = gcd(gcd(abs(ia[0]), abs(ia[1])), gcd(abs(ia[2]), abs(ic)))
    if g == 0:
        raise BadParameter("zero normal in half-space")
    if g > 1:
        ia = [v // g for v in ia]
        ic //= g
    return HalfSpace(
        Point3(Fraction(ia[0]), Fraction(ia[1]), Fraction(ia[2])), Fraction(ic)
    )


@dataclass(frozen=True, slots=True)
class RayHit:
    """Intersection of the ray {t * direction : t >= 0} with a polytope:
    empty, a single point, or a segment, with the scale interval [lo, hi]."""

    kind: str  # "empty" | "point" | "segment"
    lo: Optional[Fraction]
    hi: Optional[Fraction]

    def is_point(self) -> bool:
        return self.kind == "point"

    def is_segment(self) -> bool:
        return self.kind == "segment"


@dataclass(frozen=True, slots=True)
class OriginPoint:
    """Degenerate zero-fold dilation: the single point at the origin."""

    point: Point3 = ORIGIN


class Polyhedron:
    """Bounded full-dimensional convex polytope with both vertex and facet
    descriptions plus their incidence.

    Construct through :func:`convex_hull`; the raw constructor trusts its
    arguments (used internally by measure-preserving transforms).
    """

    __slots__ = ("vertices", "facets", "facet_vertices", "edges", "_int_facets")

    def __init__(self, vertices, facets, facet_vertices, edges):
        self.vertices: tuple[Point3, ...] = tuple(vertices)
        self.facets: tuple[HalfSpace, ...] = tuple(facets)
        self.facet_vertices: tuple[tuple[int, ...], ...] = tuple(
            tuple(c) for c in facet_vertices
        )
        self.edges: tuple[tuple[int, int], ...] = tuple(
            tuple(e) for e in edges
        )
        self._int_facets: Optional[tuple[tuple[int, int, int, int], ...]] = None

    @property
    def int_facets(self) -> tuple[tuple[int, int, int, int], ...]:
        if self._int_facets is None:
            self._int_facets = tuple(f.int_tuple() for f in self.facets)
        return self._int_facets

    def adjacent_vertices(self, vi: int) -> list[int]:
        out = set()
        for a, b in self.edges:
            if a == vi:
                out.add(b)
            elif b == vi:
                out.add(a)
        return sorted(out)

    def bounding_box(self) -> tuple[Point3, Point3]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        zs = [v.z for v in self.vertices]
        return (
            Point3(min(xs), min(ys), min(zs)),
            Point3(max(xs), max(ys), max(zs)),
        )

    def __repr__(self) -> str:
        return "Polyhedron(%d vertices, %d facets)" % (
            len(self.vertices),
            len(self.facets),
        )


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _primitive_direction(v: Point3) -> tuple[int, int, int]:
    """The primitive integer vector pointing along a nonzero v."""
    mult = v.denominator_lcm()
    ix, iy, iz = int(v.x * mult), int(v.y * mult), int(v.z * mult)
    g = gcd(gcd(abs(ix), abs(iy)), abs(iz))
    return (ix // g, iy // g, iz // g)


def _int_scale(points: Iterable[Point3]) -> int:
    """Least positive integer that makes every point integral."""
    scale = 1
    for p in points:
        scale = lcm(scale, p.denominator_lcm())
    return scale


def _scaled_ints(p: Point3, scale: int) -> tuple[int, int, int]:
    """p * scale as an integer triple; scale must clear p's denominators."""
    return (int(p.x * scale), int(p.y * scale), int(p.z * scale))


def _add(a, b) -> tuple[int, int, int]:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub(a, b) -> tuple[int, int, int]:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _scale(a, m: int) -> tuple[int, int, int]:
    return (m * a[0], m * a[1], m * a[2])


def _dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple[int, int, int]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _orient(a, b, c, d) -> int:
    """Sign of det[b-a; c-a; d-a] for integer triples: positive when d is
    on the counterclockwise-normal side of triangle (a, b, c)."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    det = (
        ux * (vy * wz - vz * wy)
        - uy * (vx * wz - vz * wx)
        + uz * (vx * wy - vy * wx)
    )
    return _sign(det)


def _orient_ref4(a, b, c, ref4) -> int:
    """Same as _orient against the point ref4/4, kept integral by scaling
    the last row; used with the interior reference of the start simplex."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx = ref4[0] - 4 * a[0]
    wy = ref4[1] - 4 * a[1]
    wz = ref4[2] - 4 * a[2]
    det = (
        ux * (vy * wz - vz * wy)
        - uy * (vx * wz - vz * wx)
        + uz * (vx * wy - vy * wx)
    )
    return _sign(det)


def _affine_basis(pts) -> list[int]:
    """Indices of affinely independent integer points, one more than the
    cloud's affine dimension: the first point, the first one off it, the
    first one off their line and the first one off their plane, as far
    as they exist (none for an empty cloud)."""
    if not pts:
        return []
    a = pts[0]
    i1 = next((i for i, p in enumerate(pts) if p != a), None)
    if i1 is None:
        return [0]
    ab = _sub(pts[i1], a)
    i2 = next(
        (i for i, p in enumerate(pts) if any(_cross(ab, _sub(p, a)))), None
    )
    if i2 is None:
        return [0, i1]
    i3 = next(
        (i for i, p in enumerate(pts) if _orient(a, pts[i1], pts[i2], p)),
        None,
    )
    return [0, i1, i2] if i3 is None else [0, i1, i2, i3]


def _triangulated_hull(pts) -> list[tuple[int, int, int]]:
    """Outward-oriented triangles covering the hull boundary of integer
    points; coplanar regions come out as multiple triangles."""
    simplex = _affine_basis(pts)
    if len(simplex) < 4:
        raise DegenerateInput("points do not span a three-dimensional body")
    s0, s1, s2, s3 = simplex
    ref4 = tuple(
        pts[s0][i] + pts[s1][i] + pts[s2][i] + pts[s3][i] for i in range(3)
    )

    def outward(tri) -> tuple[int, int, int]:
        i, j, k = tri
        if _orient_ref4(pts[i], pts[j], pts[k], ref4) > 0:
            return (i, k, j)
        return tri

    faces: set[tuple[int, int, int]] = {
        outward(t)
        for t in ((s0, s1, s2), (s0, s1, s3), (s0, s2, s3), (s1, s2, s3))
    }
    placed = set(simplex)
    for idx in range(len(pts)):
        if idx in placed:
            continue
        q = pts[idx]
        visible = [
            f for f in faces if _orient(pts[f[0]], pts[f[1]], pts[f[2]], q) > 0
        ]
        if not visible:
            continue
        directed = set()
        for i, j, k in visible:
            directed.update(((i, j), (j, k), (k, i)))
        horizon = [(u, v) for (u, v) in directed if (v, u) not in directed]
        faces.difference_update(visible)
        for u, v in horizon:
            faces.add(outward((u, v, idx)))
    return sorted(faces)


def _plane_key(pts, tri) -> tuple[int, int, int, int]:
    """Canonical primitive (normal, offset) of a triangle's outward plane."""
    a = pts[tri[0]]
    nx, ny, nz = _cross(_sub(pts[tri[1]], a), _sub(pts[tri[2]], a))
    off = _dot((nx, ny, nz), a)
    g = gcd(gcd(abs(nx), abs(ny)), gcd(abs(nz), abs(off)))
    return (nx // g, ny // g, nz // g, off // g)


def _cross2(o, a, b):
    """Twice the signed area of the plane triangle (o, a, b)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull2d(points: Iterable[tuple]) -> list[tuple]:
    """Monotone chain over tuples whose first two entries are plane
    coordinates (further entries, such as ids, ride along); returns the
    strict hull corners in counterclockwise order, collinear points
    dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_hull(points: Iterable) -> Polyhedron:
    """Exact convex hull. Returns the polytope with interior and
    facet-interior points discarded, coplanar faces merged into facets,
    and vertex/facet/edge incidence filled in."""
    src = []
    seen = set()
    for p in points:
        if not isinstance(p, Point3):
            p = Point3.from_seq(p)
        if p not in seen:
            seen.add(p)
            src.append(p)
    if len(src) < 4:
        raise DegenerateInput("need at least four distinct points")

    scale = _int_scale(src)
    ipts = [_scaled_ints(p, scale) for p in src]

    tris = _triangulated_hull(ipts)
    groups: dict[tuple[int, int, int, int], set[int]] = {}
    for tri in tris:
        groups.setdefault(_plane_key(ipts, tri), set()).update(tri)

    facet_cycles: list[list[int]] = []
    planes: list[tuple[int, int, int, int]] = []
    for key in sorted(groups):
        nx, ny, nz, _off = key
        axis = max(range(3), key=lambda i: abs((nx, ny, nz)[i]))
        keep = [(axis + 1) % 3, (axis + 2) % 3]
        flat = [
            (ipts[i][keep[0]], ipts[i][keep[1]], i) for i in groups[key]
        ]
        cycle = [p[2] for p in _hull2d(flat)]
        if len(cycle) < 3:
            raise AssumptionViolated("facet degenerated to fewer than 3 corners")
        if (nx, ny, nz)[axis] < 0:
            cycle.reverse()
        facet_cycles.append(cycle)
        planes.append(key)

    used = sorted({i for cyc in facet_cycles for i in cyc})
    remap = {old: new for new, old in enumerate(used)}
    verts = [
        Point3(
            Fraction(ipts[i][0], scale),
            Fraction(ipts[i][1], scale),
            Fraction(ipts[i][2], scale),
        )
        for i in used
    ]

    order = sorted(
        range(len(verts)), key=lambda i: verts[i].as_tuple()
    )
    final_pos = {old: pos for pos, old in enumerate(order)}
    verts = [verts[i] for i in order]

    halves = []
    cycles = []
    for key, cyc in zip(planes, facet_cycles):
        nx, ny, nz, off = key
        # inward form: -n . x >= -off, in original (unscaled) coordinates
        halves.append(
            _primitive_halfspace((-nx, -ny, -nz), Fraction(-off, scale))
        )
        cycles.append([final_pos[remap[i]] for i in cyc])

    facet_order = sorted(
        range(len(halves)), key=lambda i: halves[i].int_tuple()
    )
    halves = [halves[i] for i in facet_order]
    cycles = [cycles[i] for i in facet_order]

    edge_set = set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edge_set.add((min(a, b), max(a, b)))
    edges = sorted(edge_set)

    return Polyhedron(verts, halves, cycles, edges)


def contains(
    poly: Polyhedron,
    p: Point3,
    mode: str = "closed",
    exempt_facets: Sequence[int] = (),
) -> bool:
    """Membership test.  mode='closed' uses every facet non-strictly;
    mode='relative_interior' is strict except on the exempt facets (those
    whose planes also support the ambient cone)."""
    if mode not in ("closed", "relative_interior"):
        raise BadParameter("unknown containment mode %r" % (mode,))
    exempt = frozenset(exempt_facets)
    for idx, facet in enumerate(poly.facets):
        v = facet.value(p)
        if mode == "closed" or idx in exempt:
            if v < 0:
                return False
        elif v <= 0:
            return False
    return True


def cone_supporting_facets(poly: Polyhedron) -> tuple[int, ...]:
    """Indices of facets whose plane passes through the origin; these are
    exactly the facets lying inside facets of the spanned cone."""
    return tuple(
        i for i, f in enumerate(poly.facets) if f.offset == 0
    )


def ray_intersect(poly: Polyhedron, direction: Point3) -> RayHit:
    """Scale interval {t >= 0 : t*direction in poly}."""
    if not isinstance(direction, Point3):
        direction = Point3.from_seq(direction)
    if direction.is_zero():
        raise BadParameter("zero direction")
    lo = Fraction(0)
    hi: Optional[Fraction] = None
    for facet in poly.facets:
        nd = facet.normal.dot(direction)
        c = facet.offset
        if nd == 0:
            if c > 0:
                return RayHit("empty", None, None)
        elif nd > 0:
            bound = c / nd
            if bound > lo:
                lo = bound
        else:
            bound = c / nd
            if hi is None or bound < hi:
                hi = bound
    if hi is None:
        raise AssumptionViolated("unbounded ray interval in a bounded polytope")
    if lo > hi:
        return RayHit("empty", None, None)
    if lo == hi:
        return RayHit("point", lo, hi)
    return RayHit("segment", lo, hi)


def dilate(poly: Polyhedron, k) -> Polyhedron | OriginPoint:
    """Scale about the origin by a nonnegative rational factor."""
    k = _frac(k)
    if k < 0:
        raise BadParameter("dilation factor must be nonnegative")
    if k == 0:
        return OriginPoint()
    verts = [v * k for v in poly.vertices]
    halves = [
        _primitive_halfspace(f.normal.as_tuple(), f.offset * k)
        for f in poly.facets
    ]
    return Polyhedron(verts, halves, poly.facet_vertices, poly.edges)


def clip_segment(
    poly: Polyhedron, a: Point3, b: Point3
) -> Optional[tuple[Fraction, Fraction]]:
    """Parameter interval [t0, t1] of {a + t(b-a) : 0 <= t <= 1} inside
    the polytope, or None when they miss each other."""
    t0, t1 = Fraction(0), Fraction(1)
    for facet in poly.facets:
        va = facet.value(a)
        dv = facet.value(b) - va
        if dv == 0:
            if va < 0:
                return None
            continue
        bound = -va / dv
        if dv > 0:
            # feasible for t >= -va/dv
            t0 = max(t0, bound)
        else:
            t1 = min(t1, bound)
        if t0 > t1:
            return None
    return (t0, t1)


# Every value the array kernels form stays below this in absolute value
# when they compute in int64, so adding or subtracting two of them cannot
# overflow a signed 64-bit word either.
_INT64_LIMIT = 2**62

# Rows per array pass, which bounds the kernels' temporaries.
_BLOCK = 1 << 12


def kernel_dtype(facets, coord: int, scale: int = 1):
    """Array dtype that evaluates the facet system exactly.

    np.int64 when |a.p| + |c| * k < _INT64_LIMIT for every facet (a, c),
    every point p with coordinates at most `coord` in absolute value and
    every 0 <= k <= `scale`; floor and ceiling quotients of such values
    are no larger.  Otherwise object, which computes with Python ints.
    """
    top = max(
        (
            (abs(ax) + abs(ay) + abs(az)) * coord + abs(c) * scale
            for ax, ay, az, c in facets
        ),
        default=0,
    )
    return np.int64 if top < _INT64_LIMIT else object


def int_rows(points: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """The integer triples as an (N, 3) array: int64 when every
    coordinate is below _INT64_LIMIT in absolute value, so the sum or
    difference of two rows is exact, and object otherwise."""
    top = max((abs(c) for p in points for c in p), default=0)
    dtype = np.int64 if top < _INT64_LIMIT else object
    return np.array(points, dtype=dtype).reshape(-1, 3)


def _z_ranges(a: np.ndarray, xs: np.ndarray, ys: np.ndarray, scales):
    """For each k in `scales`, the integer z-range (lo, hi) of every
    column (xs[i], ys[i]) inside {p : a.p >= k * c} for the facet rows
    (a, c) of `a`; lo > hi marks an empty column."""
    az = a[:, 2]
    up, down = az > 0, az < 0
    vertical = ~(up | down)
    if not up.any() or not down.any():
        raise AssumptionViolated("unbounded z-column in a polytope")
    dot = xs[:, None] * a[:, 0] + ys[:, None] * a[:, 1]
    out = []
    for k in scales:
        rem = k * a[:, 3] - dot
        lo = (-(-rem[:, up] // az[up])).max(axis=1)
        hi = (rem[:, down] // az[down]).min(axis=1)
        if vertical.any():
            hi = np.where((rem[:, vertical] > 0).any(axis=1), lo - 1, hi)
        out.append((lo, hi))
    return out


def _expand_columns(xs, ys, lo, hi) -> np.ndarray:
    """Rows (x, y, z) for lo <= z <= hi in each column, column by column."""
    n = np.maximum(hi - lo + 1, 0).astype(np.int64)
    first = np.cumsum(n) - n
    z = np.repeat(lo, n) + (np.arange(int(n.sum())) - np.repeat(first, n))
    return np.column_stack((np.repeat(xs, n), np.repeat(ys, n), z))


def _column_blocks(poly: Polyhedron, s: int, shell: bool) -> Iterator[np.ndarray]:
    """Integer points of s*poly, or with `shell` of s*poly minus
    (s-1)*poly (0*poly being the origin alone), as (N, 3) arrays over
    consecutive blocks of columns, in lexicographic order.

    The facets of s*poly are a.p >= s*c for the facets (a, c) of poly,
    so no dilation is built: the z-ranges of a block of (x, y) columns
    of the bounding box are computed at once and expanded to points.
    """
    lo, hi = poly.bounding_box()
    x0, x1 = ceil(lo.x * s), floor(hi.x * s)
    y0, y1 = ceil(lo.y * s), floor(hi.y * s)
    facets = poly.int_facets
    dtype = kernel_dtype(facets, max(abs(x0), abs(x1), abs(y0), abs(y1)), s)
    a = np.array(facets, dtype=dtype)
    scales = (s, s - 1) if shell and s > 1 else (s,)
    ny = y1 - y0 + 1
    step = max(1, _BLOCK // max(ny, 1))
    for xb in range(x0, x1 + 1, step):
        nx = min(step, x1 + 1 - xb)
        xs = np.repeat(np.arange(xb, xb + nx), ny).astype(dtype)
        ys = np.tile(np.arange(y0, y1 + 1), nx).astype(dtype)
        ranges = _z_ranges(a, xs, ys, scales)
        zlo, zhi = ranges[0]
        if len(ranges) == 1:
            pts = _expand_columns(xs, ys, zlo, zhi)
        else:
            # the dilations nest, so each column loses the one z-range
            # [ilo, ihi] of the inner dilation: keep what lies below and
            # above it
            ilo, ihi = ranges[1]
            hole = ilo <= ihi
            below_hi = np.where(hole, np.minimum(zhi, ilo - 1), zhi)
            above_lo = np.where(hole, np.maximum(zlo, ihi + 1), zhi + 1)
            pts = _expand_columns(
                np.repeat(xs, 2),
                np.repeat(ys, 2),
                np.column_stack((zlo, above_lo)).ravel(),
                np.column_stack((below_hi, zhi)).ravel(),
            )
        if shell and s == 1:
            pts = pts[pts.any(axis=1)]
        yield pts


def integer_points(poly: Polyhedron) -> Iterator[tuple[int, int, int]]:
    """All integer points of the polytope, column by column, in
    lexicographic order.  Exact integer arithmetic throughout."""
    for pts in _column_blocks(poly, 1, False):
        yield from map(tuple, pts.tolist())


def integer_point_count(poly: Polyhedron) -> int:
    return sum(len(pts) for pts in _column_blocks(poly, 1, False))


def shell_integer_points(hull: Polyhedron, s: int) -> np.ndarray:
    """Integer points of s*hull minus (s-1)*hull, where 0*hull is the
    origin alone, as an (N, 3) array in lexicographic order (int64 when
    `kernel_dtype` proves it exact, object otherwise)."""
    if s < 1:
        raise BadParameter("shell index must be at least 1")
    return np.concatenate(
        [np.empty((0, 3), dtype=np.int64), *_column_blocks(hull, s, True)]
    )


def integer_points_in_hull(points: Iterable) -> list[tuple[int, int, int]]:
    """Integer points of the convex hull of a point cloud of any affine
    dimension, sorted lexicographically: the cloud is put on one integer
    scale and handed to _lattice_points."""
    pts = [p if isinstance(p, Point3) else Point3.from_seq(p) for p in points]
    scale = _int_scale(pts)
    return _lattice_points([_scaled_ints(p, scale) for p in pts], scale)


def _lattice_points(rows, scale: int) -> list[tuple[int, int, int]]:
    """The integer points x with scale*x in the convex hull of the
    integer triples `rows`, sorted lexicographically.

    A solid cloud goes to integer_points.  A flat one is solved in
    integers.  On a plane n.X = n.a through the cloud, scale*x needs
    n.x = n.a/scale: x is read off the integer points of the polygon
    in the two coordinates left when the one with the largest |n| is
    dropped.  On a segment [a, b], whose ends are the lexicographic
    extremes of the cloud, x runs over the longest axis and
    scale*x = a + t(b - a) must come out integral.  A single point a
    holds a/scale when scale divides it."""
    pts = list(dict.fromkeys(rows))
    basis = _affine_basis(pts)
    if len(basis) == 4:
        hull = convex_hull(
            Point3(*(Fraction(c, scale) for c in p)) for p in pts
        )
        return sorted(integer_points(hull))
    out = []
    if len(basis) == 3:
        a, b, c = (pts[i] for i in basis)
        n = _cross(_sub(b, a), _sub(c, a))
        off, r = divmod(_dot(n, a), scale)
        if r:
            return []
        axis = max(range(3), key=lambda i: abs(n[i]))
        u, v = (axis + 1) % 3, (axis + 2) % 3
        ring = [(p[u], p[v]) for p in pts]
        for pu, pv in _polygon_integer_points(ring, scale):
            w, r = divmod(off - n[u] * pu - n[v] * pv, n[axis])
            if not r:
                x = [0, 0, 0]
                x[u], x[v], x[axis] = pu, pv, w
                out.append(tuple(x))
    elif len(basis) == 2:
        a, b = min(pts), max(pts)
        d = _sub(b, a)
        axis = max(range(3), key=lambda i: abs(d[i]))
        den = d[axis] * scale
        lo, hi = sorted((a[axis], b[axis]))
        for w in range(-(-lo // scale), hi // scale + 1):
            num = _add(_scale(a, d[axis]), _scale(d, scale * w - a[axis]))
            if not any(c % den for c in num):
                out.append((num[0] // den, num[1] // den, num[2] // den))
    elif basis and not any(c % scale for c in pts[0]):
        out.append(tuple(c // scale for c in pts[0]))
    return sorted(out)


def _polygon_integer_points(ring, scale: int) -> list[tuple[int, int]]:
    """Integer pairs p with scale*p in the convex hull of integer pairs
    in the plane, column by column.  The pairs must not be collinear.

    Column u is U = u*scale, and each edge crossing is a ratio of
    integers whose floor and ceiling come from //.  A vertical edge is
    skipped: the two edges next to it end at its corners, with no
    collinear corners in the hull."""
    ring = _hull2d(ring)
    out = []
    us = [pu for pu, _ in ring]
    for u in range(-(-min(us) // scale), max(us) // scale + 1):
        uu = u * scale
        # crossings v = num / den with den > 0, in unscaled units
        cuts: list[tuple[int, int]] = []
        for (pu, pv), (qu, qv) in zip(ring, ring[1:] + ring[:1]):
            if pu != qu and min(pu, qu) <= uu <= max(pu, qu):
                num = pv * (qu - pu) + (qv - pv) * (uu - pu)
                den = (qu - pu) * scale
                cuts.append((-num, -den) if den < 0 else (num, den))
        lo = min(-(-num // den) for num, den in cuts)
        hi = max(num // den for num, den in cuts)
        out.extend((u, v) for v in range(lo, hi + 1))
    return out


def minkowski_difference_contains_origin(a, b) -> bool:
    """Whether two convex bodies (polytopes or vertex lists) intersect,
    decided as O in {x - y}."""
    va = a.vertices if isinstance(a, Polyhedron) else list(a)
    vb = b.vertices if isinstance(b, Polyhedron) else list(b)
    diffs = [p - q for p in va for q in vb]
    return _hull_contains_origin(diffs)


def _hull_contains_origin(points: list[Point3]) -> bool:
    """Membership of the origin in the hull of a rational point cloud:
    the cloud is scaled to integers once, which moves no point across
    the origin, and handed to _int_hull_contains_origin."""
    scale = _int_scale(points)
    return _int_hull_contains_origin([_scaled_ints(p, scale) for p in points])


def _int_hull_contains_origin(points: Sequence[tuple[int, int, int]]) -> bool:
    """Membership of the origin in the hull of integer triples.  A
    full-dimensional cloud holds it iff the origin lies on the inner
    side of every outward triangle of its triangulated hull, so no
    Polyhedron is built.  A flat cloud holds it iff the origin lies on
    the cloud's affine span and in the hull of the cloud plus points
    lifted off that span, since the lifted hull meets the span in the
    cloud's own hull: p0 + n off a plane with normal n, and p0 + u and
    p0 + d x u off a line along d, with u = d x e for an axis e."""
    pts = list(dict.fromkeys(points))
    o = (0, 0, 0)
    try:
        tris = _triangulated_hull(pts)
    except DegenerateInput:
        if len(pts) < 2:
            return pts == [o]
        p0 = pts[0]
        d = _sub(pts[1], p0)
        n = next(
            (c for c in (_cross(d, _sub(p, p0)) for p in pts) if any(c)), None
        )
        if n is not None:
            if _dot(n, p0):
                return False
            lift = [_add(p0, n)]
        else:
            if any(_cross(d, p0)):
                return False
            axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            u = next(c for c in (_cross(d, e) for e in axes) if any(c))
            lift = [_add(p0, u), _add(p0, _cross(d, u))]
        return _int_hull_contains_origin(pts + lift)
    return all(_orient(pts[a], pts[b], pts[c], o) <= 0 for a, b, c in tris)
