"""Exact rational geometry for convex polytopes in three dimensions.

Everything here runs on integer rows: a polytope holds its vertices as
integer triples over one positive scale and its facets as primitive
integer rows (a, c) of a.x >= c, and every predicate, chord and lattice
point count reduces to integer arithmetic on them.  A rational point
cloud is put on one integer scale once.  `Point3` (Fraction coordinates)
stays at the boundary: parsed input, a polytope's `vertices` and
`facets` views, and the points handed back to callers.  No floating
point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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

    Both descriptions are integers: vertex i is rows[i] / scale, and
    facet j is {x : a.x >= c} for the primitive row (a, c) =
    int_facets[j].  `vertices` and `facets` are their Point3 and
    HalfSpace views, made on first use.

    Construct through :func:`convex_hull`; the raw constructor trusts its
    arguments (used internally by measure-preserving transforms).
    """

    __slots__ = (
        "rows", "scale", "int_facets", "facet_vertices", "edges",
        "_vertices", "_facets",
    )

    def __init__(self, rows, scale, int_facets, facet_vertices, edges):
        self.rows: tuple[tuple[int, int, int], ...] = tuple(rows)
        self.scale: int = scale
        self.int_facets: tuple[tuple[int, ...], ...] = tuple(int_facets)
        self.facet_vertices: tuple[tuple[int, ...], ...] = tuple(
            tuple(c) for c in facet_vertices
        )
        self.edges: tuple[tuple[int, int], ...] = tuple(
            tuple(e) for e in edges
        )
        self._vertices: Optional[tuple[Point3, ...]] = None
        self._facets: Optional[tuple[HalfSpace, ...]] = None

    @property
    def vertices(self) -> tuple[Point3, ...]:
        if self._vertices is None:
            self._vertices = tuple(
                Point3.of(*(Fraction(c, self.scale) for c in r)) for r in self.rows
            )
        return self._vertices

    @property
    def facets(self) -> tuple[HalfSpace, ...]:
        if self._facets is None:
            self._facets = tuple(
                HalfSpace(Point3.of(ax, ay, az), Fraction(c))
                for ax, ay, az, c in self.int_facets
            )
        return self._facets

    def adjacent_vertices(self, vi: int) -> list[int]:
        out = set()
        for a, b in self.edges:
            if a == vi:
                out.add(b)
            elif b == vi:
                out.add(a)
        return sorted(out)

    def bounding_box(self) -> tuple[Point3, Point3]:
        cols = list(zip(*self.rows))
        return (
            Point3.of(*(Fraction(min(c), self.scale) for c in cols)),
            Point3.of(*(Fraction(max(c), self.scale) for c in cols)),
        )

    def __repr__(self) -> str:
        return "Polyhedron(%d vertices, %d facets)" % (
            len(self.rows),
            len(self.int_facets),
        )


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _primitive_direction(row) -> tuple[int, int, int]:
    """The primitive integer vector pointing along a nonzero integer
    triple."""
    g = gcd(*row)
    return (row[0] // g, row[1] // g, row[2] // g)


def _int_scale(points: Iterable[Point3]) -> int:
    """Least positive integer that makes every point integral."""
    scale = 1
    for p in points:
        scale = lcm(scale, p.denominator_lcm())
    return scale


def _scaled_ints(p: Point3, scale: int) -> tuple[int, int, int]:
    """p * scale as an integer triple; scale must clear p's denominators."""
    return tuple(c.numerator * (scale // c.denominator) for c in (p.x, p.y, p.z))


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
    # on points scaled by 4 the simplex centroid is an integer reference
    p4 = [_scale(p, 4) for p in pts]
    ref = _add(_add(pts[s0], pts[s1]), _add(pts[s2], pts[s3]))

    def outward(tri) -> tuple[int, int, int]:
        i, j, k = tri
        if _orient(p4[i], p4[j], p4[k], ref) > 0:
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


def convex_hull(points: Iterable, scale: int = 1) -> Polyhedron:
    """Exact convex hull of the points divided by `scale`. Returns the
    polytope with interior and facet-interior points discarded, coplanar
    faces merged into facets, and vertex/facet/edge incidence filled in.
    Triples of Python ints are hulled as they are; other points are put
    on one integer scale first."""
    pts = list(points)
    if all(
        isinstance(p, tuple) and len(p) == 3 and all(type(c) is int for c in p)
        for p in pts
    ):
        ipts = list(dict.fromkeys(pts))
    else:
        src = list(
            dict.fromkeys(
                p if isinstance(p, Point3) else Point3.from_seq(p) for p in pts
            )
        )
        den = _int_scale(src)
        ipts = [_scaled_ints(p, den) for p in src]
        scale *= den
    if len(ipts) < 4:
        raise DegenerateInput("need at least four distinct points")

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

    # vertices in lexicographic order, on the least scale that keeps
    # them integral
    used = sorted({i for cyc in facet_cycles for i in cyc}, key=ipts.__getitem__)
    pos = {old: new for new, old in enumerate(used)}
    red = gcd(scale, *(c for i in used for c in ipts[i]))
    rows = [tuple(c // red for c in ipts[i]) for i in used]

    facets = []
    for (nx, ny, nz, off), cyc in zip(planes, facet_cycles):
        # inward form: -n . x >= -off / scale, made primitive
        row = (-nx * scale, -ny * scale, -nz * scale, -off)
        g = gcd(*row)
        facets.append((tuple(v // g for v in row), [pos[i] for i in cyc]))
    facets.sort()
    cycles = [cyc for _row, cyc in facets]

    edge_set = set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edge_set.add((min(a, b), max(a, b)))
    edges = sorted(edge_set)

    return Polyhedron(rows, scale // red, [f for f, _ in facets], cycles, edges)


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
    den = p.denominator_lcm()
    x, y, z = _scaled_ints(p, den)
    for idx, (ax, ay, az, c) in enumerate(poly.int_facets):
        v = ax * x + ay * y + az * z - c * den
        if mode == "closed" or idx in exempt:
            if v < 0:
                return False
        elif v <= 0:
            return False
    return True


def cone_supporting_facets(poly: Polyhedron) -> tuple[int, ...]:
    """Indices of facets whose plane passes through the origin; these are
    exactly the facets lying inside facets of the spanned cone."""
    return tuple(i for i, f in enumerate(poly.int_facets) if f[3] == 0)


def ray_intersect(poly: Polyhedron, direction: Point3) -> RayHit:
    """Scale interval {t >= 0 : t*direction in poly}."""
    if not isinstance(direction, Point3):
        direction = Point3.from_seq(direction)
    if direction.is_zero():
        raise BadParameter("zero direction")
    den = direction.denominator_lcm()
    chord = _chord(poly.int_facets, _scaled_ints(direction, den), den)
    if chord is None:
        return RayHit("empty", None, None)
    lo, hi = Fraction(*chord[0]), Fraction(*chord[1])
    return RayHit("point" if lo == hi else "segment", lo, hi)


def _chord(facets, row, scale: int = 1) -> Optional[tuple[tuple, tuple]]:
    """The chord {t >= 0 : t * row / scale in {x : a.x >= c}} over the
    integer facet rows (a, c) of a bounded polytope, for a nonzero
    integer triple `row`: ((lo_num, lo_den), (hi_num, hi_den)) with
    positive denominators, or None when the ray misses the polytope.

    Facet (a, c) asks t * a.row >= c * scale: a lower bound where
    a.row > 0, an upper bound where a.row < 0, and no point at all where
    a.row = 0 < c.  The bounds are compared cross-multiplied."""
    lo_n, lo_d = 0, 1
    hi: Optional[tuple[int, int]] = None
    for ax, ay, az, c in facets:
        nd = ax * row[0] + ay * row[1] + az * row[2]
        cs = c * scale
        if nd > 0:
            if cs * lo_d > lo_n * nd:
                lo_n, lo_d = cs, nd
        elif nd < 0:
            # the bound cs/nd is (-cs)/(-nd) with a positive denominator
            if hi is None or -cs * hi[1] < hi[0] * -nd:
                hi = (-cs, -nd)
        elif cs > 0:
            return None
    if hi is None:
        raise AssumptionViolated("unbounded ray interval in a bounded polytope")
    if lo_n * hi[1] > hi[0] * lo_d:
        return None
    return (lo_n, lo_d), hi


def dilate(poly: Polyhedron, k) -> Polyhedron | OriginPoint:
    """Scale about the origin by a nonnegative rational factor."""
    k = _frac(k)
    if k < 0:
        raise BadParameter("dilation factor must be nonnegative")
    if k == 0:
        return OriginPoint()
    num, den = k.numerator, k.denominator
    # a.x >= c*k is den*a.x >= num*c, made primitive
    facets = []
    for ax, ay, az, c in poly.int_facets:
        row = (den * ax, den * ay, den * az, num * c)
        g = gcd(*row)
        facets.append(tuple(v // g for v in row))
    return Polyhedron(
        [_scale(r, num) for r in poly.rows],
        poly.scale * den,
        facets,
        poly.facet_vertices,
        poly.edges,
    )


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
    xs, ys, _zs = zip(*poly.rows)
    x0, x1 = -(-min(xs) * s // poly.scale), max(xs) * s // poly.scale
    y0, y1 = -(-min(ys) * s // poly.scale), max(ys) * s // poly.scale
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
        return sorted(integer_points(convex_hull(pts, scale)))
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
