"""Deciders for the ring properties of a polytope semigroup.

All three properties reduce to one combinatorial criterion: the
semigroup ring fails to be Cohen-Macaulay exactly when some gap lands
back in the semigroup under translation by two different extremal-ray
generators.  The cone configuration decides how much of the (usually
infinite) gap set must actually be inspected:

* no point-chord ray: the gap set is finite, and any gap at all
  produces a refuting pair by walking a staircase of generators;
* one point-chord ray, two segment chords: same emptiness test, with
  the scan window stretched by the point ray's translation period;
* two or three point-chord rays: the gap set is infinite but periodic,
  and one period of corner slabs past the separation level, together
  with the hull below it, carries a refuting gap iff any gap does.
  That window is read one block of rows at a time: the hull's blocks
  come off the column kernel and the slabs are translated templates,
  so no dilation is built and no whole window is held.

Gorenstein adds the unique-maximal-element test on the intersection of
the ray-generator Apery sets, and Buchsbaum is the Cohen-Macaulay
question asked of the closure semigroup instead.  The deciders ask
every membership question, in the semigroup or in its closure, of an
integer array at once: a block of the window or of the gap listing,
its gaps' generator translates, and the steps of a staircase climb up
to their cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from math import lcm
from typing import Iterator, Optional

import numpy as np

from .decomposition import (
    _ray_row,
    _ray_step,
    _separation,
    _Template,
    ray_chord_class,
    ray_period,
)
from .errors import (
    AssumptionViolated,
    BadParameter,
    NotAGap,
    NotSimplicial,
    UnsupportedCase,
)
from .geometry import (
    Point3,
    _add,
    _cross,
    _dot,
    _hull_planes,
    _points_under,
    _primitive,
    _refuse_box,
    _scale,
    _stack,
    int_rows,
    kernel_dtype,
)
from .semigroup import (
    SemigroupHandle,
    _apery_rows,
    _as_intvec,
    _closure_rows,
    _cm_yes,
    _gap_rows,
    _ray_apery,
    build,
    closure,
    in_cone_int,
    member_int,
)

IntVec = tuple[int, int, int]


@dataclass(frozen=True)
class Witness:
    """A gap refuting the property: both listed generator translates
    are members while the point itself is not."""

    point: Point3
    indices: tuple[int, int]


@dataclass(frozen=True)
class PropertyVerdict:
    property: str
    verdict: str
    witness: Optional[Witness]
    case_used: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Condition3Result:
    count: int
    indices: tuple[int, ...]


def check_condition3(h: SemigroupHandle, p) -> Condition3Result:
    """Which ray-generator translates of a gap are members.

    The property deciders refute Cohen-Macaulayness exactly when the
    count reaches two.
    """
    if not h.simplicial:
        raise NotSimplicial("the refutation test needs a three-ray cone")
    q = _as_intvec(p)
    if not in_cone_int(h, q):
        raise NotAGap("%s lies outside the cone" % (q,))
    ok, _ = member_int(h, q)
    if ok:
        raise NotAGap("%s is a member, not a gap" % (q,))
    gens = [g.int_tuple() for g in h.ray_generators]
    idx = tuple(
        i for i, g in enumerate(gens) if member_int(h, _add(q, g))[0]
    )
    return Condition3Result(count=len(idx), indices=idx)


def is_cohen_macaulay(h: SemigroupHandle) -> PropertyVerdict:
    """Decide Cohen-Macaulayness of the semigroup ring; the handle keeps
    the verdict.  Every query on a three-ray handle asks for it first:
    `is_gorenstein`, `is_buchsbaum`, and the Apery record that the
    structure chain reads (`semigroup._ray_apery`)."""
    if not h.simplicial:
        raise NotSimplicial("the decision procedures need a three-ray cone")
    if h._cm is None:
        h._cm = _decide(
            h, h.ray_generators, "Cohen-Macaulay", diag={}, added=frozenset()
        )
    return h._cm


def is_buchsbaum(h: SemigroupHandle, budget_layers: int = 400) -> PropertyVerdict:
    """Decide Buchsbaumness: Cohen-Macaulayness of the closure
    semigroup, with membership, generators, and the separation level
    all recomputed relative to the closure.

    The Cohen-Macaulay verdict is asked for first.  On "yes" the
    closure is the semigroup itself (`semigroup.closure`), so the
    answer is that verdict once the Apery set is complete at this
    budget; neither the closure nor the generators are computed.
    Otherwise the closure is; when it adds no point, `_decide` would
    get the inputs the kept verdict came from, so that verdict is
    returned again, and only a closure that adds points is decided
    afresh.  An UnsupportedCase from the Cohen-Macaulay decider is
    raised, as `is_cohen_macaulay` and `is_gorenstein` raise it: a
    corner window past 2^16 translates (which depends on the ray periods
    alone, so the closure's decider would refuse it too), one whose hull
    box is past 2^32 cells, or a gap box past 2^32 cells in the
    decider's emptiness test, where asking the closure first gave an
    "unsupported" verdict if `closure`'s own gap box was past 2^32 cells
    too.  After an AssumptionViolated the closure is decided as if no
    verdict were kept."""
    if not h.simplicial:
        raise NotSimplicial("the decision procedures need a three-ray cone")
    try:
        cm: Optional[PropertyVerdict] = is_cohen_macaulay(h)
    except AssumptionViolated:
        cm = None
    added: frozenset = frozenset()
    if not _cm_yes(h):
        try:
            added = closure(h, budget_layers=budget_layers).added_set
        except UnsupportedCase as exc:
            return PropertyVerdict(
                property="Buchsbaum",
                verdict="unsupported",
                witness=None,
                case_used="closure computation: %s" % exc,
                diagnostics={},
            )
    certified = _ray_apery(h, budget_layers)[2]
    diag: dict = {
        "membership": "closure",
        "closure_added_points": len(added),
    }
    if not certified:
        return PropertyVerdict(
            property="Buchsbaum",
            verdict="inconclusive",
            witness=None,
            case_used="closure generator enumeration hit its layer budget",
            diagnostics=diag,
        )
    gens = _closure_ray_generators(h, added)
    diag["generators_recomputed"] = tuple(gens) != tuple(h.ray_generators)
    if cm is not None and not added:
        return replace(
            cm, property="Buchsbaum", diagnostics={**diag, **cm.diagnostics}
        )
    return _decide(h, gens, prop="Buchsbaum", diag=diag, added=added)


def is_gorenstein(h: SemigroupHandle, budget_layers: int = 400) -> PropertyVerdict:
    """Decide Gorensteinness: Cohen-Macaulay plus a unique maximal
    element in the intersection of the ray-generator Apery sets.

    The Cohen-Macaulay verdict is asked for first and kept, and a "no"
    is the answer.  On a "yes" the Apery set comes from the cosets of
    Z^3 / ZE (`semigroup._coset_apery`, picked by `_ray_apery` from the
    kept verdict) rather than the shell scan; it is the same set, cut by
    `budget_layers` the same way, and a coset whose least point is no
    member raises AssumptionViolated."""
    cm = is_cohen_macaulay(h)
    if cm.verdict == "no":
        return PropertyVerdict(
            property="Gorenstein",
            verdict="no",
            witness=cm.witness,
            case_used="not Cohen-Macaulay (%s)" % cm.case_used,
            diagnostics=cm.diagnostics,
        )
    elements, maximal, complete = _apery_rows(h, budget_layers)
    diag = dict(cm.diagnostics)
    diag["apery_elements"] = len(elements)
    diag["apery_maximal"] = tuple(maximal)
    if not complete:
        return PropertyVerdict(
            property="Gorenstein",
            verdict="inconclusive",
            witness=None,
            case_used="Apery enumeration hit its layer budget",
            diagnostics=diag,
        )
    if len(maximal) == 1:
        return PropertyVerdict(
            property="Gorenstein",
            verdict="yes",
            witness=None,
            case_used="Cohen-Macaulay with a unique maximal Apery element",
            diagnostics=diag,
        )
    return PropertyVerdict(
        property="Gorenstein",
        verdict="no",
        witness=None,
        case_used="Cohen-Macaulay but %d maximal Apery elements"
        % len(maximal),
        diagnostics=diag,
    )


def gorenstein_family(k: int) -> list[Point3]:
    """The shipped one-parameter family of Gorenstein tetrahedra."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise BadParameter("the family is defined for integers k >= 2")
    return [
        Point3.of(4, 0, 0),
        Point3.of(4 + 2 * k, 0, 0),
        Point3.of(4 + k, k, 0),
        Point3.of(4 + k, 0, 1),
    ]


@dataclass(frozen=True)
class AperyTable:
    """The z=0 slice of Ap(g1) n Ap(g2) for a family member, row by
    row in y; rows at y >= k are verified empty."""

    k: int
    rows: tuple[tuple[IntVec, ...], ...]
    empty_rows_checked: tuple[int, ...]


def apery_table(k: int) -> AperyTable:
    """Exact per-row table of Ap(g1) n Ap(g2) n {z=0} for the family
    member with parameter k, read off the Apery set of all three ray
    generators.

    For this family any member with z > 0 stays a member after
    subtracting the z-carrying generator, so the whole Apery set lies
    in the plane z = 0, where that generator cannot be subtracted; an
    element off the plane or at y >= k refutes the table.
    """
    elements, _maximal, complete = _apery_rows(build_family(k), 400)
    if not complete:
        raise AssumptionViolated(
            "family Apery set for k=%d is incomplete" % k
        )
    rows: list[list[IntVec]] = [[] for _ in range(k)]
    for e in elements:
        x, y, z = e
        if z != 0 or y >= k:
            raise AssumptionViolated(
                "family Apery element %s outside the rows y < %d of z=0"
                % (e, k)
            )
        rows[y].append(e)
    return AperyTable(
        k=k,
        rows=tuple(tuple(row) for row in rows),
        empty_rows_checked=(k, k + 1),
    )


def build_family(k: int) -> SemigroupHandle:
    return build(gorenstein_family(k))


def _closure_ray_generators(
    h: SemigroupHandle, added: frozenset
) -> tuple[Point3, ...]:
    """Least multiple of each primitive ray direction inside the
    closure.  No multiple below a ray generator is a member, so it is
    the least multiple the closure added, if one is below the
    generator, and the generator otherwise.  A point-chord ray with
    generator a*d keeps it: m*d + a*d is no member for 0 < m < a."""
    out = []
    for g, r in zip(h.ray_generators, h.rays):
        d = r.int_tuple()
        on_ray = [sum(p) // sum(d) for p in added if _cross(p, d) == (0, 0, 0)]
        m = min([sum(g.int_tuple()) // sum(d), *on_ray])
        out.append(Point3.of(*_scale(d, m)))
    return tuple(out)


def _decide(
    h: SemigroupHandle,
    gens: tuple[Point3, ...],
    prop: str,
    diag: dict,
    added: frozenset,
) -> PropertyVerdict:
    """Shared dispatcher: the Cohen-Macaulay criterion for the
    semigroup, or for its closure when `added` holds the closure's
    added points.  Every membership question is an array for
    `semigroup._closure_rows`.  The verdict is "yes" or "no":
    `_separation` takes every three-ray cone with two or three point
    chords, as the docstrings of `decomposition` prove."""
    classes = [ray_chord_class(h, i) for i in range(3)]
    kappa = h.overlap
    diag = dict(diag)
    diag["overlap_level"] = kappa
    diag["chord_classes"] = tuple(classes)
    point_rays = [i for i in range(3) if classes[i] == "point"]

    witness = None
    if len(point_rays) <= 1:
        # the emptiness test of the module docstring: no gap in the
        # first shells (one translation period more with a point chord)
        # means yes; otherwise a staircase from the lexicographically
        # smallest gap ends at a refuting one
        if point_rays:
            i0 = point_rays[0]
            last = kappa + ray_period(h, i0) + 1
            i, j = (k for k in range(3) if k != i0)
            case = (
                "one point chord on ray %d: gap set emptiness over one "
                "translation period" % i0
            )
        else:
            last = kappa + 2
            i, j = 0, 1
            case = "all chords are segments: finite gap set emptiness"
        diag["scan_shells"] = last
        # the blocks are in lexicographic order: the first gap is the least
        first = next((b[0] for b in _gap_rows(h, last, added) if len(b)), None)
        if first is not None:
            start = tuple(first.tolist())
            cap = 16 * (kappa + h.period() + 4)
            p = _staircase(
                h, added, start, gens[i].int_tuple(), gens[j].int_tuple(), cap
            )
            witness = Witness(point=Point3.of(*p), indices=(i, j))
    else:
        sep, templates = _separation(h, gens)
        diag["separation_level"] = sep
        moves = int_rows([g.int_tuple() for g in gens])
        diag["region_points"] = diag["region_gaps"] = 0
        # the lexicographically least refuter of each block
        refuting = []
        for region in _corner_window(h, sep, templates):
            gaps = region[~_closure_rows(h, region, added)]
            diag["region_points"] += len(region)
            diag["region_gaps"] += len(gaps)
            # hits[i, r]: gap r translated by generator i is a member
            hits = np.array([_closure_rows(h, gaps + g, added) for g in moves])
            refuters = np.flatnonzero(hits.sum(axis=0) >= 2)
            if len(refuters):
                r = refuters[np.lexsort(gaps[refuters].T[::-1])[0]]
                idx = tuple(np.flatnonzero(hits[:, r]).tolist())
                refuting.append((tuple(gaps[r].tolist()), idx[:2]))
        case = (
            "corner-slab window at separation level %d over %d point "
            "chords" % (sep, len(point_rays))
        )
        if refuting:
            point, idx = min(refuting)
            witness = Witness(point=Point3.of(*point), indices=idx)
    return PropertyVerdict(
        property=prop,
        verdict="yes" if witness is None else "no",
        witness=witness,
        case_used=case,
        diagnostics=diag,
    )


def _staircase(
    h: SemigroupHandle,
    added: frozenset,
    start: IntVec,
    gi: IntVec,
    gj: IntVec,
    cap: int,
) -> IntVec:
    """From any gap, climb by one generator to the last non-member,
    then by the other: the end point is a gap both of whose climbs'
    next steps are members."""
    li = _climb(h, added, start, gi, cap)
    q = _add(start, _scale(gi, li - 1))
    lj = _climb(h, added, q, gj, cap)
    return _add(q, _scale(gj, lj - 1))


def _climb(
    h: SemigroupHandle, added: frozenset, p: IntVec, g: IntVec, cap: int
) -> int:
    """Least l in 1..cap with p + l*g a member, asked of the cap's steps
    in one array for `_closure_rows`."""
    steps = int_rows([_add(p, _scale(g, l)) for l in range(1, cap + 1)])
    hits = np.flatnonzero(_closure_rows(h, steps, added))
    if not len(hits):
        raise AssumptionViolated(
            "no member found along %s from %s within %d steps" % (g, p, cap)
        )
    return int(hits[0]) + 1


def _corner_window(
    h: SemigroupHandle, sep: int, templates: dict[int, _Template]
) -> Iterator[np.ndarray]:
    """Integer points of one full period of corner slabs from the
    separation level, plus the hull sep*conv(0, p0, p1, p2) joining the
    origin to the separation-level ray points, as blocks of distinct
    rows, no row in two blocks.  The hull's blocks come off the column
    kernel one at a time, from integer rows on the ray points' common
    denominator.  Slab (i, k) is the base-level template of ray i moved
    by k - base times ray point i: a template's rows and its ray point
    share the template's denominator, so its hull planes n.X <= c are
    found once and each translate by `move` reads them as n.X <= c +
    n.move.  The translates' points are deduplicated, those inside the
    hull are dropped by its planes, and the rest join the first hull
    block.  A window whose ray periods sum past 2^16, and then one whose
    hull box has more than 2^32 cells, is refused with UnsupportedCase
    before anything is listed."""
    periods = sum(ray_period(h, t.ray) for t in templates.values())
    if periods > 2**16:
        raise UnsupportedCase(
            "the corner window spans %d translates, more than 2^16" % periods
        )
    den = lcm(*(_ray_row(h, i)[1] for i in range(3)))
    corners = [(0, 0, 0), *(_scale(_ray_step(h, i, den), sep) for i in range(3))]
    what = "the hull of the corner window at separation level %d spans" % sep
    _refuse_box(corners, den, 1, what)
    blocks = []
    for t in templates.values():
        step = _ray_step(h, t.ray, t.den)
        planes = _primitive(_hull_planes(t.rows))
        first = sep - t.level
        for m in range(first, first + ray_period(h, t.ray)):
            move = _scale(step, m)
            rows = [_add(r, move) for r in t.rows]
            moved = [(n, c + _dot(n, move)) for n, c in planes]
            blocks.extend(_points_under(rows, t.den, moved))
    pts = _stack(blocks)
    pts = pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]
    repeat = np.zeros(len(pts), dtype=bool)
    repeat[1:] = (pts[1:] == pts[:-1]).all(axis=1)
    planes = _primitive(_hull_planes(corners))
    rows = [(*n, c) for n, c in planes]
    a = np.array(rows, kernel_dtype(rows, den * int(np.abs(pts).max(initial=1))))
    inside = (den * pts.astype(a.dtype) @ a[:, :3].T <= a[:, 3]).all(axis=1)
    hull = _points_under(corners, den, planes)
    return chain([np.concatenate([next(hull), pts[~repeat & ~inside]])], hull)
