"""Affine semigroups cut out by integer dilations of a rational polytope.

Given a bounded full-dimensional polytope B in the nonnegative orthant
with the origin outside, the semigroup studied here is

    S = union over j >= 0 of (j * B) intersected with N^3,

together with its spanned cone, extremal rays, minimal generating set,
Apery sets of the ray generators, and the closure semigroup (elements of
the cone whose translates by every minimal generator land in S).

A point p is in k*B iff 1/k lies on p's chord, the segment of t >= 0
with t*p in B (`geometry._chord`), so `member_int` reads one point's
least dilation off its chord, and the least semigroup point m*d on the
ray of a primitive direction d has m the numerator of the simplest
fraction on the ray's chord.  The cone is tested against its facet
normals, the cross products of consecutive extremal rays.  Every
membership question asked inside the package goes to the array kernel
`_dilation_rows`, `_BLOCK` rows at a time, through `_shell` (which
checks least dilations) or `_closure_rows` (which adds the origin and
the closure's points), or directly; `member_int` is the reference the
array kernel is tested against.  One order sieve,
`_order_sieve`, picks the minimal generators, the closure's generators
and the maximal Apery elements out of a finite set.

The Cohen-Macaulay verdict steers every query on a three-ray handle,
by one rule: it is asked for first.  `_ray_apery` asks for it
(`_ask_cm`) before it makes the Apery record that `minimal_generators`,
`apery_intersection` and `closure` read, and `rings.is_buchsbaum` and
`rings.is_gorenstein` ask for it too.  On a "yes" each coset of Z^3 /
ZE (E the ray generators) holds exactly one Apery element, its least
point in the semigroup, and `_coset_apery` finds all of them at once
by membership probes, with the shell where the scan would stop; the
closure is the semigroup itself, since a closure point is a gap with
members among its ray-generator translates.  Otherwise (a "no", more
than three rays, or a decider that raised AssumptionViolated or
UnsupportedCase) the Apery set is scanned shell by shell
(`_apery_scan`) and the closure's candidates are listed.

The handle keeps one Apery record (`AperyRecord`), which
`minimal_generators` and `apery_intersection` read at every budget
(`_ray_apery`), and the closure once per `budget_layers` value, which
`is_buchsbaum` reuses.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    AssumptionViolated,
    BadParameter,
    DegenerateInput,
    NotSimplicial,
    OriginInside,
    OutsideCone,
    UnsupportedCase,
)
from . import decomposition, geometry
from .geometry import (
    _BLOCK,
    Point3,
    Polyhedron,
    RayHit,
    _cross,
    _dot,
    _hull2d,
    _primitive_direction,
    _scale,
    convex_hull,
    int_rows,
    ray_intersect,
    shell_integer_points,
)

IntVec = tuple[int, int, int]


def _as_intvec(p) -> IntVec:
    if isinstance(p, Point3):
        return p.int_tuple()
    t = tuple(p)
    if len(t) != 3 or not all(isinstance(v, int) for v in t):
        raise BadParameter("expected an integer 3-vector, got %r" % (p,))
    return t  # type: ignore[return-value]


@dataclass(frozen=True)
class GeneratorSet:
    """Minimal generating set of the semigroup when `certified`;
    otherwise the layer budget ran out first and the set is partial.
    `layers_scanned` counts the shells a scan at the budget reads, the
    budget or the scan's stop shell if less, whatever made the handle's
    Apery record (`_ray_apery`)."""

    generators: tuple[Point3, ...]
    certified: bool
    layers_scanned: int

    def int_tuples(self) -> list[IntVec]:
        return [g.int_tuple() for g in self.generators]


@dataclass(frozen=True)
class AperyBasis:
    """Points of the semigroup whose translate by each ray generator
    leaves it, with the maximal ones under the semigroup order."""

    elements: tuple[Point3, ...]
    maximal_elements: tuple[Point3, ...]
    complete: bool


@dataclass(frozen=True)
class AperyRecord:
    """A handle's Apery set (`_ray_apery`): the ray generators, the
    elements over them in scan order with their shells, the shell where
    the scan stops (None if its budget ran out first), and the shells read."""

    gens: tuple[IntVec, ...]
    found: tuple[IntVec, ...]
    shells: tuple[int, ...]
    stop: Optional[int]
    read: int


class SemigroupHandle:
    """Computed view of one polytope semigroup.

    Holds the body, its extremal rays in fan (cyclic) order, the per-ray
    chords, the cone's facet normals (`_cone`), the body's integer facet
    matrix, each body vertex's chord as integer ratios
    (`geometry._chord`, in units of the vertex) with a row -> vertex
    index map, and, for three-ray cones, the smallest semigroup element
    on each ray, read off its chord.  Only `build` makes one, after its
    OriginInside check.  The span hull, the vertex classification, the
    overlap level and the Cohen-Macaulay verdict are computed on first
    use and kept for the handle's lifetime, and so are one Apery record
    (`_ray_apery`) and the closure, once per `budget_layers` value.
    Queries are thread-safe: racing threads store identical values, and
    a call answers from the Apery record it read or made, even when a
    racing call replaces it with a shorter scan.
    """

    __slots__ = (
        "body",
        "rays",
        "simplicial",
        "ray_data",
        "ray_generators",
        "_cone",
        "_facets",
        "_facet_bound",
        "_vindex",
        "_chords",
        "_span_hull",
        "_classification",
        "_overlap",
        "_cm",
        "_apery",
        "_closure",
    )

    def __init__(self, body, rays, simplicial, ray_data, ray_generators):
        self.body: Polyhedron = body
        self.rays: tuple[Point3, ...] = rays
        self.simplicial: bool = simplicial
        self.ray_data: tuple[RayHit, ...] = ray_data
        self.ray_generators: Optional[tuple[Point3, ...]] = ray_generators
        # the cone's facet normals: cross products of consecutive rays,
        # primitive and pointing toward the rays' sum
        ints = [r.int_tuple() for r in rays]
        inner = [sum(c) for c in zip(*ints)]
        cone = []
        for a, b in zip(ints, ints[1:] + ints[:1]):
            n = _cross(a, b)
            g = gcd(*n) if _dot(n, inner) > 0 else -gcd(*n)
            cone.append(tuple(v // g for v in n))
        self._cone = tuple(cone)
        # the facet rows (int64 when they fit) and the largest |a|_1 and
        # |c| over them, from which `_dilation_rows` picks its dtype
        a = abs(np.array(body.int_facets, dtype=object))
        self._facet_bound = (a[:, :3].sum(axis=1).max(), a[:, 3].max())
        fits = sum(self._facet_bound) < geometry._INT64_LIMIT
        self._facets = np.array(body.int_facets, np.int64 if fits else object)
        self._vindex = {row: vi for vi, row in enumerate(body.rows)}
        self._chords = tuple(
            geometry._chord(body.int_facets, row, body.scale) for row in body.rows
        )
        self._span_hull: Optional[Polyhedron] = None
        self._classification: Optional[decomposition.VertexClassification] = None
        self._overlap: Optional[int] = None
        self._cm = None
        self._apery: Optional[AperyRecord] = None
        self._closure: dict[int, ClosureResult] = {}

    @property
    def span_hull(self) -> Polyhedron:
        """Hull of the body together with the origin; its dilations nest
        and sweep out the cone."""
        if self._span_hull is None:
            self._span_hull = convex_hull(
                [(0, 0, 0), *self.body.rows], self.body.scale
            )
        return self._span_hull

    @property
    def classification(self) -> decomposition.VertexClassification:
        """How each body vertex sits on its ray chord
        (`decomposition.classify`)."""
        if self._classification is None:
            self._classification = decomposition.classify(self)
        return self._classification

    @property
    def overlap(self) -> int:
        """The overlap level (`decomposition.overlap_level`)."""
        if self._overlap is None:
            self._overlap = decomposition.overlap_level(self)
        return self._overlap

    def period(self) -> int:
        """lcm of the point-chord denominators (1 when every chord is a
        segment); the vertical period of the far gap structure.  A point
        chord P contributes the least h with h*P integral."""
        return lcm(
            *(hit.lo.denominator for hit in self.ray_data if hit.kind == "point")
        )


def dilation_interval(
    h: SemigroupHandle, p: IntVec
) -> Optional[tuple[int, int]]:
    """Integer bounds [lo, hi] on dilation factors k >= 1 with p in k*B,
    or None when the ray through p misses B.  p is in k*B iff 1/k lies
    on p's chord [l, u] (`geometry._chord`), so lo = max(1, ceil(1/u))
    and hi = floor(1/l); hi < lo means no integer dilation contains p."""
    chord = geometry._chord(h.body.int_facets, p)
    if chord is None:
        return None
    (ln, ld), (hn, hd) = chord
    return (max(1, -(-hd // hn)), ld // ln)


def member_int(h: SemigroupHandle, p: IntVec) -> tuple[bool, Optional[int]]:
    """Fast membership on raw integer triples; no cone diagnosis, points
    outside the cone simply report False."""
    x, y, z = p
    if x < 0 or y < 0 or z < 0:
        return (False, None)
    if x == 0 and y == 0 and z == 0:
        return (True, 0)
    iv = dilation_interval(h, p)
    if iv is not None and iv[0] <= iv[1]:
        return (True, iv[0])
    return (False, None)


def in_cone_int(h: SemigroupHandle, p: IntVec) -> bool:
    """Exact test against the spanned cone (union of all real
    dilations): no facet normal of the cone meets p negatively."""
    x, y, z = p
    for a, b, c in h._cone:
        if a * x + b * y + c * z < 0:
            return False
    return True


def _dilation_rows(
    h: SemigroupHandle, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whether some dilation k >= 1 holds each row of an (N, 3) integer
    array, and the least k that can (read only where it does): p is in
    k*B iff a.p >= k*c on every facet row (a, c), so the rows with c < 0
    bound k below, those with c > 0 above, and those with c = 0 must
    hold at k = 0.  The facet products are formed `_BLOCK` rows at a
    time."""
    # at or above `kernel_dtype`'s bound: |a.p| + |c| over every facet
    # is at most max |a|_1 * max |p_i| + max |c|
    norm, top_c = h._facet_bound
    top = norm * max(1, int(pts.max(initial=0)), -int(pts.min(initial=0))) + top_c
    dtype = np.int64 if top < geometry._INT64_LIMIT else object
    a = h._facets.astype(dtype, copy=False)
    c = a[:, 3]
    far, near = c < 0, c > 0
    ok, lo = np.empty(len(pts), dtype=bool), np.empty(len(pts), dtype=dtype)
    for i in range(0, len(pts), _BLOCK):
        at = slice(i, i + _BLOCK)
        p = pts[at].astype(dtype, copy=False)
        v = p @ a[:, :3].T
        least = (-(-v[:, far] // c[far])).max(axis=1, initial=1)
        hi = (v[:, near] // c[near]).min(axis=1)
        ok[at] = (p >= 0).all(axis=1) & (v[:, c == 0] >= 0).all(axis=1) & (least <= hi)
        lo[at] = least
    return ok, lo


def _shell(
    h: SemigroupHandle, s: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The integer points of shell s (see `semigroup_shells`) in
    lexicographic order, as blocks of rows with their membership; the
    callers' work on a block stays within its size.  A member whose
    least dilation is not s raises AssumptionViolated."""
    pts = shell_integer_points(h.span_hull, s)
    for i in range(0, len(pts), _BLOCK):
        block = pts[i : i + _BLOCK]
        ok, lo = _dilation_rows(h, block)
        wrong = np.flatnonzero(ok & (lo != s))
        if len(wrong):
            raise AssumptionViolated(
                "shell %d point %s reports dilation %s"
                % (s, tuple(block[wrong[0]].tolist()), int(lo[wrong[0]]))
            )
        yield block, ok


def _gap_rows(
    h: SemigroupHandle, last: int, added: frozenset[IntVec] = frozenset()
) -> Iterator[np.ndarray]:
    """The gaps of shells 1..last as blocks of rows, in lexicographic
    order within and across the blocks (object when the kernel needs
    it), from one column-kernel pass over last*H, H the span hull
    conv({0} u B); with `added`, the closure's gaps, those not in it.

    H holds 0, so its dilations nest and shells 1..last partition last*H
    minus the origin; H lies in the cone, so their gaps are exactly the
    non-members of last*H, the origin being a member.  A box of more
    than 2^32 cells is refused with UnsupportedCase before anything is
    listed (`geometry._refuse_box`)."""
    hull = h.span_hull
    what = "the gaps of shells 1..%d span" % last
    geometry._refuse_box(hull.rows, hull.scale, last, what)
    blocks = geometry._column_blocks(hull.rows, hull.scale, hull.int_facets, last)
    return (pts[~_closure_rows(h, pts, added)] for pts in blocks)


def _closure_rows(
    h: SemigroupHandle,
    pts: np.ndarray,
    added: frozenset[IntVec] = frozenset(),
) -> np.ndarray:
    """Membership of each row of an (N, 3) integer array: the origin,
    the rows `_dilation_rows` holds and, of the rest, those in `added`,
    the closure's added points (none for plain membership).  Every
    membership question outside `_shell` comes here."""
    ok = _dilation_rows(h, pts)[0] | ~pts.any(axis=1)
    if added:
        out = np.flatnonzero(~ok)
        ok[out] = [tuple(p) in added for p in pts[out].tolist()]
    return ok


def build(vertices: Sequence) -> SemigroupHandle:
    """Validate the input polytope and compute the semigroup view.

    The vertices must span a bounded full-dimensional polytope with
    nonnegative rational coordinates; the origin must stay outside (an
    origin inside would make the semigroup the whole cone, reported as
    OriginInside rather than silently degenerating the machinery).
    """
    pts = [p if isinstance(p, Point3) else Point3.from_seq(p) for p in vertices]
    if len(pts) < 4:
        raise DegenerateInput("need at least four vertices")
    for p in pts:
        if not p.is_nonnegative():
            raise BadParameter("vertex %s has a negative coordinate" % (p,))
    body = convex_hull(pts)
    # the origin is in the body iff it satisfies every facet a.x >= c
    if all(c <= 0 for *_a, c in body.int_facets):
        raise OriginInside("the origin lies in the polytope")

    # Extremal rays: vertex directions meet the plane x+y+z = 1 in a 2D
    # point cloud whose strict hull corners, in ccw order, are the rays;
    # the cloud is hulled on the common denominator of its points.
    keys = sorted({_primitive_direction(r) for r in body.rows})
    mult = lcm(*(sum(d) for d in keys))
    flat = [
        (d[0] * (mult // sum(d)), d[1] * (mult // sum(d)), i)
        for i, d in enumerate(keys)
    ]
    ring = [p[2] for p in _hull2d(flat)]
    if len(ring) < 3:
        raise DegenerateInput("vertex directions span fewer than 3 rays")
    start = min(range(len(ring)), key=lambda i: keys[ring[i]])
    ring = ring[start:] + ring[:start]
    rays = tuple(Point3.of(*keys[i]) for i in ring)

    ray_data = tuple(ray_intersect(body, r) for r in rays)
    for hit in ray_data:
        if hit.kind == "empty":
            raise AssumptionViolated("extremal ray misses the body")

    simplicial = len(rays) == 3
    handle = SemigroupHandle(body, rays, simplicial, ray_data, None)
    if simplicial:
        handle.ray_generators = tuple(
            _smallest_ray_point(handle, i) for i in range(len(rays))
        )
    return handle


def _smallest_ray_point(h: SemigroupHandle, i: int) -> Point3:
    """Least multiple m of the primitive ray direction with m*d in the
    semigroup.  m*d is in k*B iff m/k lies on the ray's chord, so m is
    the numerator of the chord's simplest fraction
    (`_simplest_fraction`); for a point chord a/b it is a."""
    hit = h.ray_data[i]
    m, _k = _simplest_fraction(
        hit.lo.numerator, hit.lo.denominator, hit.hi.numerator, hit.hi.denominator
    )
    return Point3.of(*_scale(h.rays[i].int_tuple(), m))


def _simplest_fraction(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """The fraction m/k of [a/b, c/d] (0 < a/b <= c/d) with the least
    numerator and denominator: every other fraction of the interval
    descends from it in the Stern-Brocot tree.  It is the least integer
    of the interval if there is one, and otherwise n + 1/y for
    n = floor(a/b) and y the simplest fraction of [1/(c/d - n),
    1/(a/b - n)]."""
    n = a // b
    if n * b == a:
        return (n, 1)
    if (n + 1) * d <= c:
        return (n + 1, 1)
    p, q = _simplest_fraction(d, c - n * d, b, a - n * b)
    return (n * p + q, p)


def member(h: SemigroupHandle, p) -> tuple[bool, Optional[int]]:
    """Membership of an integer point, with the least dilation factor as
    witness; the origin is a member at dilation 0.

    Raises OutsideCone for points outside the spanned cone, so callers
    can tell gaps (inside the cone, outside the semigroup) apart from
    points no dilation could ever reach.
    """
    pv = _as_intvec(p)
    ok, k = member_int(h, pv)
    if ok:
        return (True, k)
    if not in_cone_int(h, pv):
        raise OutsideCone("%s is outside the spanned cone" % (pv,))
    return (False, None)


def semigroup_shells(
    h: SemigroupHandle, first: int, last: int
) -> Iterator[tuple[int, IntVec, bool]]:
    """Integer cone points with real entry level in (first-1, last],
    reported shell by shell as (shell, point, is_member).

    A point's shell is the least real dilation of the body reaching it,
    rounded up; members of shell s are exactly the semigroup points
    first appearing in the s-fold dilation.
    """
    for s in range(first, last + 1):
        for pts, ok in _shell(h, s):
            for p, m in zip(pts.tolist(), ok.tolist()):
                yield (s, tuple(p), m)


def minimal_generators(
    h: SemigroupHandle, budget_layers: int = 400
) -> GeneratorSet:
    """Unique minimal generating set: the ray generators E together with
    the irreducible nonzero elements of the Apery set Ap(S, E).

    Every minimal generator outside E lies in Ap(S, E), and both parts
    of a decomposition of an Apery element are Apery elements, so the
    irreducible elements are the minimal ones of `_order_sieve`.  Cones
    with more than three rays take the least semigroup point on every
    ray as E.  `certified` means the Apery scan stopped by its own rule
    (see `_apery_scan`) before the budget; otherwise the result is E
    with the elements found so far that no other one reduces, a partial
    set.
    """
    ray_gens, found, complete, scanned = _ray_apery(h, budget_layers)
    gens = _order_sieve(h, found)
    return GeneratorSet(
        generators=tuple(Point3.of(*p) for p in sorted([*ray_gens, *gens])),
        certified=complete,
        layers_scanned=scanned,
    )


def apery_intersection(
    h: SemigroupHandle, budget_layers: int = 400
) -> AperyBasis:
    """Semigroup points that leave the semigroup when any ray generator
    is subtracted, with their maximal elements under the divisibility
    order x <= y iff y - x is again a member (`_order_sieve`).

    The scan runs over dilation shells until a full period passes with
    no new basis element beyond the structural bound; exhausting the
    budget first returns the partial basis flagged incomplete.
    """
    elements, maximal, complete = _apery_rows(h, budget_layers)
    return AperyBasis(
        elements=tuple(Point3.of(*p) for p in elements),
        maximal_elements=tuple(Point3.of(*p) for p in maximal),
        complete=complete,
    )


def _apery_rows(
    h: SemigroupHandle, budget_layers: int
) -> tuple[list[IntVec], list[IntVec], bool]:
    """The fields of `apery_intersection` as sorted integer triples."""
    if not h.simplicial:
        raise NotSimplicial("Apery intersection needs a three-ray cone")
    _, found, complete, _ = _ray_apery(h, budget_layers)
    elements = sorted([(0, 0, 0), *found])
    maximal = sorted(_order_sieve(h, elements, descending=True))
    return elements, maximal, complete


def _ray_apery(
    h: SemigroupHandle, budget_layers: int
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], bool, int]:
    """The ray generators E of `minimal_generators`, the Apery elements
    over them, and the `complete` flag and layer count of a scan at
    `budget_layers`, read off the handle's `AperyRecord`.  The record
    is made when there is none, or when it is a scan cut below the
    budget; the Cohen-Macaulay verdict is asked for first (`_ask_cm`),
    and a "yes" makes it by `_coset_apery`, anything else by
    `_apery_scan`.  This is the one place that picks the cosets.  The
    elements are shell-major and lexicographic within a shell, so the
    scan at budget b finds the prefix with shell at most min(b, read),
    complete if it stops by b."""
    rec = h._apery
    if rec is None or (rec.stop is None and rec.read < budget_layers):
        rays = h.ray_generators or [
            _smallest_ray_point(h, i) for i in range(len(h.rays))
        ]
        gens = tuple(g.int_tuple() for g in rays)
        if _ask_cm(h):
            rec = h._apery = _coset_apery(h, gens)
        else:
            rec = h._apery = _apery_scan(h, gens, budget_layers)
    last = max(0, min(budget_layers, rec.read))
    found = rec.found[: bisect_right(rec.shells, last)]
    return rec.gens, found, rec.stop is not None and rec.stop <= budget_layers, last


def _cm_yes(h: SemigroupHandle) -> bool:
    """Whether the handle keeps a "yes" Cohen-Macaulay verdict;
    `rings.is_cohen_macaulay` keeps its verdicts, on three-ray cones
    only."""
    return h._cm is not None and h._cm.verdict == "yes"


def _ask_cm(h: SemigroupHandle) -> bool:
    """`_cm_yes` once `rings.is_cohen_macaulay` has been asked of a
    three-ray cone; a decider that raises AssumptionViolated or
    UnsupportedCase keeps no verdict."""
    from .rings import is_cohen_macaulay  # rings imports this module

    if h.simplicial:
        try:
            is_cohen_macaulay(h)
        except (AssumptionViolated, UnsupportedCase):
            pass
    return _cm_yes(h)


def _scan_base(h: SemigroupHandle, gens: Sequence[IntVec]) -> tuple[int, int]:
    """The shell `_apery_scan` must pass before it may stop, kappa +
    period + the widest dilation window of a generator, and the
    period."""
    period = h.period()
    windows = [dilation_interval(h, g) for g in gens]
    width = max(max(1, hi - lo + 1) for lo, hi in windows)
    return h.overlap + period + width, period


def _apery_scan(
    h: SemigroupHandle, gens: Sequence[IntVec], budget_layers: int
) -> AperyRecord:
    """Nonzero semigroup points p with p - g outside the semigroup for
    every g in `gens`, scanned shell by shell.

    Stops once the scan is past `_scan_base` and a full period has
    passed with no new element, or after `budget_layers` shells, which
    the record's `stop` tells apart.
    """
    base, period = _scan_base(h, gens)
    found: list[IntVec] = []
    shells: list[int] = []
    scanned, stop = 0, None
    while stop is None and scanned < budget_layers:
        scanned += 1
        for pts, ok in _shell(h, scanned):
            rows = pts[ok]
            for g in gens:
                if not len(rows):
                    break
                d = rows - np.array(g, dtype=rows.dtype)
                rows = rows[~_closure_rows(h, d)]
            found.extend(map(tuple, rows.tolist()))
            shells.extend([scanned] * len(rows))
        if scanned >= max(base, period + (shells[-1] if shells else 0)):
            stop = scanned
    return AperyRecord(tuple(gens), tuple(found), tuple(shells), stop, scanned)


def _scan_stop(shells: Iterable[int], base: int, period: int) -> int:
    """The shell at which `_apery_scan` stops when its elements lie in
    the ascending `shells`: the first s >= base that is at least a
    period past the last shell up to s holding an element.  A shell
    holding one never qualifies, so between two such shells the first
    candidate is max(base, last + period)."""
    last = 0
    for s in shells:
        if max(base, last + period) < s:
            break
        last = s
    return max(base, last + period)


def _coset_apery(h: SemigroupHandle, gens: Sequence[IntVec]) -> AperyRecord:
    """`_apery_scan` over three ray generators E of a Cohen-Macaulay
    semigroup, read off the cosets of Z^3 / ZE instead of the shells.

    The lattice points of a coset in the cone are r + nE, n in N^3, for
    its point r in the half-open parallelepiped {lambda E : lambda in
    [0, 1)^3}.  The n with r + nE in S form an up-set, as S + E lies in
    S, and S is Cohen-Macaulay exactly when each up-set is n0 + N^3
    (Rosales and Garcia-Sanchez, Proc. Edinburgh Math. Soc. 41 (1998)),
    so that r + n0 E is the coset's one Apery element.  The semigroup
    spans Z^3, so each coset holds a member r + nE, and r + t(E1 + E2 +
    E3) is one for t >= max(n): t doubles from 0 until it is.  Each
    coordinate of n0 is then bisected in [0, t] with the other two held
    at t.  A least point that is no member means the up-set is not an
    orthant, so the kept verdict was wrong: AssumptionViolated.

    The representatives are the box below the diagonal (h1, h2, h3) of
    E's lower-triangular Hermite form, with h3 the gcd of E's last
    column and h2 h3 that of its 2x2 minors on the last two columns,
    moved into the parallelepiped with E's adjugate.  Each element's
    shell is its least dilation, and `_scan_stop` says where the scan
    would stop, so the record is `_apery_scan`'s at any budget past it.
    """
    e1, e2, e3 = gens
    adj = (_cross(e2, e3), _cross(e3, e1), _cross(e1, e2))
    det = _dot(e1, adj[0])
    h3 = gcd(e1[2], e2[2], e3[2])
    h23 = gcd(*(a[0] for a in adj))
    box = (abs(det) // h23, h23 // h3, h3)
    # int64 while every value stays below `room`: r . adj below
    # 3 |det| max|adj|, the quotient's translate below 12 max|adj| max|E|,
    # and t times a generator coordinate, checked as t grows
    room = geometry._INT64_LIMIT // 8
    a_top = max(abs(c) for a in adj for c in a)
    top = 3 * abs(det) * a_top + 12 * a_top * max(max(e) for e in gens)
    dtype = np.int64 if top < room else object
    r = np.indices(box).reshape(3, -1).T.astype(dtype)
    E = np.array(gens, dtype=dtype)
    r = r - (r @ np.array(adj, dtype=dtype).T // det) @ E

    step = E.sum(axis=0)
    t = np.zeros(len(r), dtype=dtype)
    todo = np.arange(len(r))
    while len(todo):
        if int(t.max()) * int(step.max()) >= room:
            r, t, E, step = (a.astype(object) for a in (r, t, E, step))
        todo = todo[~_closure_rows(h, r[todo] + t[todo, None] * step)]
        t[todo] = np.maximum(1, 2 * t[todo])
    climb = r + t[:, None] * step
    least = climb.copy()
    for e in E:
        lo, hi = np.full_like(t, -1), t.copy()
        while (open_ := np.flatnonzero(hi - lo > 1)).size:
            mid = (lo[open_] + hi[open_]) // 2
            ok = _closure_rows(h, climb[open_] - (t[open_] - mid)[:, None] * e)
            hi[open_[ok]] = mid[ok]
            lo[open_[~ok]] = mid[~ok]
        least -= (t - hi)[:, None] * e

    least = least[least.any(axis=1)]
    ok, shell = _dilation_rows(h, least)
    if not ok.all():
        raise AssumptionViolated(
            "least point %s of its coset is no member: the kept "
            "Cohen-Macaulay verdict is wrong"
            % (tuple(least[np.flatnonzero(~ok)[0]].tolist()),)
        )
    stop = _scan_stop(np.unique(shell).tolist(), *_scan_base(h, gens))
    order = np.lexsort((least[:, 2], least[:, 1], least[:, 0], shell))
    found = tuple(map(tuple, least[order].tolist()))
    return AperyRecord(tuple(gens), found, tuple(shell[order].tolist()), stop, stop)


def _order_sieve(
    h: SemigroupHandle,
    points: Iterable[IntVec],
    added: frozenset[IntVec] = frozenset(),
    descending: bool = False,
) -> list[IntVec]:
    """The distinct `points` that are not another of them plus a nonzero
    member (of the closure, when `added` holds its added points); with
    `descending`, the ones that are not another of them minus one.

    A nonzero member has a positive coordinate sum, so the points are
    judged in order of coordinate sum, ascending or descending, a batch
    at a time against the ones kept before the batch and the others in
    it.  Since the order is transitive, a point that an earlier,
    discarded point reaches is reached by a kept one too, so the result
    is the pairwise one on any finite set, a partial Apery set
    included.  A batch of m points with k kept forms m * (k + m) pairs,
    at most `_BLOCK` when k allows.
    """
    graded = int_rows(
        sorted(set(points), key=lambda p: (sum(p), p), reverse=descending)
    )
    sign = -1 if descending else 1
    kept = graded[:0]
    i = 0
    while i < len(graded):
        k = len(kept)
        m = max(1, (isqrt(k * k + 4 * _BLOCK) - k) // 2)
        batch = graded[i : i + m]
        d = sign * (batch[:, None] - np.concatenate([kept, batch]))
        x, y, z = d.transpose(2, 0, 1)
        below = (x >= 0) & (y >= 0) & (z >= 0) & ((x | y | z) != 0)
        bi, ri = np.nonzero(below)
        reached = np.zeros(len(batch), dtype=bool)
        reached[bi[_closure_rows(h, d[bi, ri], added)]] = True
        kept = np.concatenate([kept, batch[~reached]])
        i += m
    return list(map(tuple, kept.tolist()))


@dataclass(frozen=True)
class ClosureResult:
    """The closure semigroup: original members plus the finitely many
    cone points all of whose generator translates are members."""

    added_points: tuple[Point3, ...]
    gens_of_closure: GeneratorSet
    added_set: frozenset[IntVec] = field(repr=False)

    def is_trivial(self) -> bool:
        return not self.added_points


def closure_member_int(
    h: SemigroupHandle, cl: ClosureResult, p: IntVec
) -> bool:
    ok, _ = member_int(h, p)
    return ok or p in cl.added_set


def closure(h: SemigroupHandle, budget_layers: int = 400) -> ClosureResult:
    """Compute the closure semigroup and its minimal generators.

    A closure point is a gap whose translates by every minimal
    generator, the three ray generators among them, are members.  The
    generators come first, and making their Apery record asks for the
    Cohen-Macaulay verdict (`_ray_apery`), which is then read off the
    handle: a "yes" says that no gap has two ray-generator translates in
    the semigroup, so then the closure adds nothing, its generators are
    the `minimal_generators` result (from the cosets), and no gap is
    listed.

    Otherwise the candidates are the gaps of shells 1..kappa + period
    (`_gap_rows`) whose translates by every minimal generator are
    members; they must lie in the span hull H dilated to the overlap
    level kappa.  One in a shell past kappa (the least s with the point
    in s*H, off H's facets a.x >= c with c < 0) is outside the supported
    families: UnsupportedCase names the least such shell's
    lexicographically least one.
    """
    if not h.simplicial:
        raise NotSimplicial("closure is computed for three-ray cones")
    if budget_layers in h._closure:
        return h._closure[budget_layers]
    kappa = max(1, h.overlap)
    period = h.period()
    msg = minimal_generators(h, budget_layers=budget_layers)
    if _cm_yes(h):
        h._closure[budget_layers] = ClosureResult((), msg, frozenset())
        return h._closure[budget_layers]
    gens = [g.int_tuple() for g in msg.generators]

    rows = geometry._stack(_gap_rows(h, kappa + period))
    for g in gens:
        rows = rows[_closure_rows(h, rows + np.array(g, dtype=rows.dtype))]
    added: list[IntVec] = list(map(tuple, rows.tolist()))
    far = [f for f in h.span_hull.int_facets if f[3] < 0]
    shells = [max(-(-_dot(f, p) // f[3]) for f in far) for p in added]
    if shells and max(shells) > kappa:
        s = min(s for s in shells if s > kappa)
        raise UnsupportedCase(
            "closure point %s beyond the overlap level %d"
            % (added[shells.index(s)], kappa)
        )

    # the only possible closure generators are the original minimal
    # generators and the added points
    added_set = frozenset(added)
    accepted = _order_sieve(h, set(gens) | added_set, added_set)
    result = h._closure[budget_layers] = ClosureResult(
        added_points=tuple(Point3.of(*p) for p in sorted(added)),
        gens_of_closure=GeneratorSet(
            generators=tuple(Point3.of(*p) for p in sorted(accepted)),
            certified=msg.certified,
            layers_scanned=msg.layers_scanned,
        ),
        added_set=added_set,
    )
    return result
