"""Exact rational geometry for convex polytopes in three dimensions.

Everything here runs on integer rows: a polytope holds its vertices as
integer triples over one positive scale and its facets as primitive
integer rows (a, c) of a.x >= c, and every predicate, chord and lattice
point count reduces to integer arithmetic on them.  A rational point
cloud is put on one integer scale once.  One column kernel lists the
lattice points of every hull: a polytope, a dilation shell, or the hull
of a cloud of any affine dimension, read as integer planes.  `Point3`
(Fraction coordinates) stays at the boundary: parsed input, a
polytope's `vertices` and `facets` views, and the points handed back to
callers.  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import AssumptionViolated, BadParameter, DegenerateInput, UnsupportedCase


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


def _triangulated_hull(pts, simplex) -> list[tuple[int, int, int]]:
    """Outward-oriented triangles covering the hull boundary of integer
    points, grown from the indices of four affinely independent ones;
    coplanar regions come out as multiple triangles."""
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
    simplex = _affine_basis(ipts)
    if len(simplex) < 4:
        raise DegenerateInput("points do not span a three-dimensional body")

    tris = _triangulated_hull(ipts, simplex)
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


def _column_blocks(
    rows, scale: int, facets, s: int = 1, shell: bool = False
) -> Iterator[np.ndarray]:
    """Integer points p with a.p >= s*c for every facet row (a, c), or
    with `shell` those minus the points with a.p >= (s-1)*c (the origin
    alone at s = 1), inside the bounding box of s*rows/scale: as (N, 3)
    arrays over consecutive blocks of columns, in lexicographic order.

    A polytope's facets a.x >= c give its s-fold dilation as
    a.p >= s*c, so no dilation is built.  A block of (x, y) columns
    takes one floor quotient per facet and column: a row with a_z > 0
    bounds z from below, one with a_z < 0 from above, and a vertical
    row (a_z = 0) empties the columns it cuts.  The z-ranges are then
    expanded to points.
    """
    xs, ys, _zs = zip(*rows)
    x0, x1 = -(-min(xs) * s // scale), max(xs) * s // scale
    y0, y1 = -(-min(ys) * s // scale), max(ys) * s // scale
    dtype = kernel_dtype(facets, max(abs(x0), abs(x1), abs(y0), abs(y1)), s)
    # rows bounding z from below, then from above (with |a_z|), then
    # vertical ones
    up = [f for f in facets if f[2] > 0]
    down = [(ax, ay, -az, c) for ax, ay, az, c in facets if az < 0]
    nu, nz = len(up), len(up) + len(down)
    if not nu or not down:
        raise AssumptionViolated("unbounded z-column in a polytope")
    a = np.array(up + down + [f for f in facets if not f[2]], dtype=dtype)
    ax, az = a[:, 0], a[:nz, 2]
    ycol = np.arange(y0, y1 + 1, dtype=dtype)
    # on column (x, y), a.p >= k*c asks a_z z >= -rem for
    # rem = a_x x + a_y y - k c; the y and k terms serve every block
    rests = [
        ycol[:, None] * a[:, 1] - k * a[:, 3]
        for k in ((s, s - 1) if shell and s > 1 else (s,))
    ]
    step = max(1, _BLOCK // max(len(ycol), 1))
    for xb in range(x0, x1 + 1, step):
        xcol = np.arange(xb, min(xb + step, x1 + 1), dtype=dtype)
        xdot = xcol[:, None, None] * ax
        ranges = []
        for rest in rests:
            rem = (xdot + rest).reshape(-1, len(a))
            # with t = floor(rem / |a_z|), z >= -t where a_z > 0 and
            # z <= t where a_z < 0: the column runs from lo = -min over
            # the first rows, and n = hi - lo + 1 counts its points
            tu, td = np.minimum.reduceat(rem[:, :nz] // az, [0, nu], axis=1).T
            n = td + tu + 1
            if nz < len(a):
                n[(rem[:, nz:] < 0).any(axis=1)] = 0
            ranges.append((-tu, n))
        lo, n = ranges[0]
        if len(ranges) == 1:
            pts = _expand_columns(xcol, ycol, lo[:, None], n[:, None])
        else:
            # the dilations nest, so each column loses the one z-range
            # [ilo, ihi] of the inner dilation: keep what lies below and
            # above it
            ilo, ni = ranges[1]
            hi, ihi = lo + n - 1, ilo + ni - 1
            hole = ni > 0
            below_hi = np.where(hole, np.minimum(hi, ilo - 1), hi)
            above_lo = np.where(hole, np.maximum(lo, ihi + 1), hi + 1)
            pts = _expand_columns(
                xcol,
                ycol,
                np.column_stack((lo, above_lo)),
                np.column_stack((below_hi - lo, hi - above_lo)) + 1,
            )
        if shell and s == 1:
            pts = pts[pts.any(axis=1)]
        yield pts


def _expand_columns(xcol, ycol, lo, n) -> np.ndarray:
    """Rows (x, y, z) with lo <= z < lo + n, over the columns (x, y) of
    the grid xcol by ycol in x-major order and, within a column, over
    its z-ranges: the columns of lo and n (n <= 0 for an empty one)."""
    n = np.maximum(n, 0).astype(np.int64, copy=False)
    cols = np.empty((len(xcol), len(ycol), lo.shape[1], 3), dtype=lo.dtype)
    cols[..., 0] = xcol[:, None, None]
    cols[..., 1] = ycol[:, None]
    # z = lo + (row index - index of the range's first row)
    cols[..., 2] = (lo + n - np.cumsum(n).reshape(n.shape)).reshape(
        cols.shape[:3]
    )
    pts = np.repeat(cols.reshape(-1, 3), n.ravel(), axis=0)
    pts[:, 2] += np.arange(len(pts))
    return pts


def integer_points(poly: Polyhedron) -> Iterator[tuple[int, int, int]]:
    """All integer points of the polytope, column by column, in
    lexicographic order.  Exact integer arithmetic throughout."""
    for pts in _column_blocks(poly.rows, poly.scale, poly.int_facets):
        yield from map(tuple, pts.tolist())


def integer_point_count(poly: Polyhedron) -> int:
    return sum(map(len, _column_blocks(poly.rows, poly.scale, poly.int_facets)))


def shell_integer_points(hull: Polyhedron, s: int) -> np.ndarray:
    """Integer points of s*hull minus (s-1)*hull, where 0*hull is the
    origin alone, as an (N, 3) array in lexicographic order (int64 when
    `kernel_dtype` proves it exact, object otherwise)."""
    if s < 1:
        raise BadParameter("shell index must be at least 1")
    return _stack(_column_blocks(hull.rows, hull.scale, hull.int_facets, s, True))


def _stack(blocks) -> np.ndarray:
    """The kernel's blocks as one (N, 3) array, int64 when empty."""
    blocks = [np.empty((0, 3), dtype=np.int64), *blocks]
    return blocks[1] if len(blocks) == 2 else np.concatenate(blocks)


def integer_points_in_hull(points: Iterable) -> list[tuple[int, int, int]]:
    """Integer points of the convex hull of a point cloud of any affine
    dimension, sorted lexicographically: the cloud is put on one integer
    scale and handed to _lattice_points."""
    pts = [p if isinstance(p, Point3) else Point3.from_seq(p) for p in points]
    scale = _int_scale(pts)
    rows = [_scaled_ints(p, scale) for p in pts]
    return list(map(tuple, _lattice_points(rows, scale).tolist()))


def _lattice_points(rows, scale: int) -> np.ndarray:
    """The integer points x with scale*x in the convex hull of the
    integer triples `rows`, as an (N, 3) array in lexicographic order
    (int64 when `kernel_dtype` proves it exact, object otherwise).

    The hull comes from `_hull_planes` in every affine dimension: a flat
    cloud's span arrives as pairs of opposite planes, so a polygon, a
    segment or a point goes through the column kernel as a solid does."""
    if not rows:
        return _stack([])
    return _stack(_points_under(rows, scale, _primitive(_hull_planes(rows))))


def _points_under(rows, scale: int, planes) -> Iterator[np.ndarray]:
    """The integer points x with n.(scale*x) <= c for every primitive
    integer plane (n, c), where the planes cut out a polytope inside the
    bounding box of the integer triples `rows` over `scale`: as the
    column kernel's blocks, in lexicographic order.  Each plane is the
    primitive facet -n.x >= -floor(c / scale), exactly, since n.x is an
    integer."""
    facets = [(-n[0], -n[1], -n[2], -(c // scale)) for n, c in planes]
    return _column_blocks(rows, scale, facets)


def _refuse_box(rows, scale: int, s: int, what: str) -> None:
    """Refuse, with UnsupportedCase naming the listing by `what`, an
    integer box of s*rows/scale (the box `_column_blocks` scans) of more
    than 2^32 cells."""
    cells = prod(max(c) * s // scale + -min(c) * s // scale + 1 for c in zip(*rows))
    if cells > 2**32:
        raise UnsupportedCase("%s a box of %d cells, more than 2^32" % (what, cells))


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
    """Membership of the origin in the hull of integer triples, read off
    `_hull_planes`, so no Polyhedron is built."""
    return bool(points) and all(c >= 0 for _n, c in _hull_planes(points))


_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _hull_planes(points: Sequence[tuple[int, int, int]]) -> list:
    """The hull of a nonempty cloud of integer triples as integer planes
    (n, c): x lies in the hull iff n.x <= c for every one, and c is a
    multiple of gcd(n).  A full-dimensional cloud gives one plane per
    outward triangle of its triangulated hull.  A flat cloud is lifted
    off its affine span: normals m span the span's orthogonal complement
    (the plane normal; u and d x u for a line along d, with u = d x e
    for an axis e; the three axes for one point), the hull of the cloud
    plus p0 + m for each m meets the span in the cloud's own hull, and
    each equation m.x = m.p0 of the span comes as the two planes
    (m, m.p0) and (-m, -m.p0)."""
    pts = list(dict.fromkeys(points))
    basis = _affine_basis(pts)
    p0 = pts[0]
    if len(basis) == 3:
        eqs = [_cross(_sub(pts[basis[1]], p0), _sub(pts[basis[2]], p0))]
    elif len(basis) == 2:
        d = _sub(pts[basis[1]], p0)
        u = next(c for c in (_cross(d, e) for e in _AXES) if any(c))
        eqs = [u, _cross(d, u)]
    elif len(basis) == 1:
        eqs = list(_AXES)
    else:
        eqs = []
    planes = [(n, _dot(n, p0)) for m in eqs for n in (m, _scale(m, -1))]
    simplex = basis + list(range(len(pts), len(pts) + len(eqs)))
    pts += [_add(p0, m) for m in eqs]
    for a, b, c in _triangulated_hull(pts, simplex):
        n = _cross(_sub(pts[b], pts[a]), _sub(pts[c], pts[a]))
        planes.append((n, _dot(n, pts[a])))
    return planes


def _primitive(planes) -> list:
    """The distinct planes (n/g, c/g), g = gcd(n), of integer planes
    (n, c) whose offsets are multiples of gcd(n), as `_hull_planes`
    gives them."""
    out: dict = {}
    for n, c in planes:
        g = gcd(*n)
        out[(n[0] // g, n[1] // g, n[2] // g), c // g] = None
    return list(out)
