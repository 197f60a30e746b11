"""Cohen-Macaulay, Gorenstein, and Buchsbaum deciders with witness
replay, the translate-count query, and the parametric family."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

import instancegen
from conftest import (
    GORENSTEIN_NO_VERTICES,
    NN_VERTICES,
    S3_VERTICES,
    S5_VERTICES,
)
from test_decomposition import POLY_SEPARATION, TETRA_SEPARATION
from polysgp import build, oracle, rings
from polysgp.decomposition import (
    _separation,
    corner_slab,
    ray_period,
    ray_point,
)
from polysgp.geometry import ORIGIN, integer_points_in_hull
from polysgp.rings import (
    _corner_window,
    apery_table,
    build_family,
    check_condition3,
    gorenstein_family,
    is_buchsbaum,
    is_cohen_macaulay,
    is_gorenstein,
)
from polysgp.errors import (
    BadParameter,
    NotAGap,
    NotSimplicial,
    PolysgpError,
)
from polysgp.semigroup import (
    closure,
    closure_member_int,
    member_int,
    minimal_generators,
)


def _replay_witness(h, verdict):
    """A refuting witness must be checkable from scratch: the point is
    not a member while both listed generator translates are."""
    w = verdict.witness
    p = w.point.int_tuple()
    assert not member_int(h, p)[0]
    i, j = w.indices
    assert i != j
    gens = [g.int_tuple() for g in h.ray_generators]
    for idx in (i, j):
        g = gens[idx]
        t = (p[0] + g[0], p[1] + g[1], p[2] + g[2])
        assert member_int(h, t)[0]


def test_cm_yes_s3(s3):
    v = is_cohen_macaulay(s3)
    assert v.property == "Cohen-Macaulay"
    assert v.verdict == "yes"
    assert v.witness is None
    assert v.diagnostics["separation_level"] == 3


def test_cm_no_s5_with_replayable_witness(s5):
    v = is_cohen_macaulay(s5)
    assert v.verdict == "no"
    assert v.witness.point.int_tuple() == (5, 5, 5)
    assert v.witness.indices == (0, 1)
    _replay_witness(s5, v)


def test_cm_no_we_with_replayable_witness(we):
    v = is_cohen_macaulay(we)
    assert v.verdict == "no"
    assert v.witness.point.int_tuple() == (0, 0, 1)
    _replay_witness(we, v)


def test_cm_yes_non_normal(nn):
    v = is_cohen_macaulay(nn)
    assert v.verdict == "yes"
    assert v.diagnostics["separation_level"] == 11


def test_cm_rejects_non_simplicial(pyramid):
    with pytest.raises(NotSimplicial):
        is_cohen_macaulay(pyramid)


def test_buchsbaum_yes_s5(s5):
    v = is_buchsbaum(s5)
    assert v.verdict == "yes"
    assert v.diagnostics["membership"] == "closure"
    assert v.diagnostics["closure_added_points"] == 2


def test_buchsbaum_yes_we_after_closing_three_gaps(we):
    v = is_buchsbaum(we)
    assert v.verdict == "yes"
    assert v.diagnostics["closure_added_points"] == 3


def test_buchsbaum_no_with_closure_relative_witness():
    # slab between 2x and (9/4)x the unit simplex: members occupy the
    # coordinate sums in U_j [2j, 9j/4], leaving gaps at sums 1, 3, 5, 7;
    # closing recovers only the sum-7 gaps, so the closure itself still
    # misses the cone and the semigroup is not Buchsbaum
    from fractions import Fraction as F

    q = F(9, 4)
    h = build(
        [(2, 0, 0), (q, 0, 0), (0, 2, 0), (0, q, 0), (0, 0, 2), (0, 0, q)]
    )
    cl = closure(h)
    assert {sum(p) for p in cl.added_set} == {7}
    v = is_buchsbaum(h)
    assert v.verdict == "no"
    assert v.diagnostics["membership"] == "closure"
    assert not v.diagnostics["generators_recomputed"]
    w = v.witness
    p = w.point.int_tuple()
    assert not closure_member_int(h, cl, p)
    gens = [g.int_tuple() for g in h.ray_generators]
    for idx in w.indices:
        g = gens[idx]
        t = (p[0] + g[0], p[1] + g[1], p[2] + g[2])
        assert closure_member_int(h, cl, t)


@pytest.mark.parametrize(
    "seed, added, witness, closure_gens",
    [
        (75, 29, (1, 0, 0), [(4, 0, 0), (8, 12, 4), (2, 2, 2)]),
        (102, 15, (1, 2, 1), [(2, 4, 2), (3, 6, 9), (3, 1, 2)]),
    ],
)
def test_buchsbaum_no_with_recomputed_generators(
    seed, added, witness, closure_gens
):
    # the closure fills the first gaps of a segment ray, so its least
    # point there is a new generator, and the witness is replayed
    # against the closure with those generators
    h = build(instancegen.poly_vertices(seed))
    cl = closure(h)
    v = is_buchsbaum(h)
    assert v.verdict == "no"
    assert v.diagnostics["closure_added_points"] == added == len(cl.added_set)
    assert v.diagnostics["generators_recomputed"]
    assert v.witness.point.int_tuple() == witness
    assert v.witness.indices == (0, 1)
    gens = []
    for r in h.rays:
        d = r.int_tuple()
        m = next(
            m
            for m in range(1, 100)
            if closure_member_int(h, cl, (m * d[0], m * d[1], m * d[2]))
        )
        gens.append((m * d[0], m * d[1], m * d[2]))
    assert gens == closure_gens
    assert gens != [g.int_tuple() for g in h.ray_generators]
    assert not closure_member_int(h, cl, witness)
    for i in v.witness.indices:
        g = gens[i]
        t = (witness[0] + g[0], witness[1] + g[1], witness[2] + g[2])
        assert closure_member_int(h, cl, t)


def test_gorenstein_family_members():
    for k in (2, 3, 4):
        v = is_gorenstein(build_family(k))
        assert v.verdict == "yes", k
        assert v.diagnostics["apery_maximal"] == ((10 + k, k - 1, 0),)


def test_gorenstein_no_with_two_maximal(gorenstein_no):
    assert is_cohen_macaulay(gorenstein_no).verdict == "yes"
    v = is_gorenstein(gorenstein_no)
    assert v.verdict == "no"
    assert v.witness is None
    assert set(v.diagnostics["apery_maximal"]) == {(12, 1, 0), (13, 1, 0)}


def test_gorenstein_propagates_cm_failure(s5):
    v = is_gorenstein(s5)
    assert v.verdict == "no"
    assert "Cohen-Macaulay" in v.case_used
    assert v.witness is not None
    _replay_witness(s5, v)


def test_exhausted_budgets_give_inconclusive_verdicts():
    h = build(S3_VERTICES)
    v = is_gorenstein(h, budget_layers=1)
    assert v.verdict == "inconclusive" and v.witness is None
    assert v.case_used == "Apery enumeration hit its layer budget"
    v = is_buchsbaum(h, budget_layers=1)
    assert v.verdict == "inconclusive" and v.witness is None
    assert v.case_used == "closure generator enumeration hit its layer budget"


def test_gorenstein_rejects_non_simplicial(pyramid):
    with pytest.raises(NotSimplicial):
        is_gorenstein(pyramid)


def test_family_vertices_and_validation():
    assert [p.int_tuple() for p in gorenstein_family(3)] == [
        (4, 0, 0),
        (10, 0, 0),
        (7, 3, 0),
        (7, 0, 1),
    ]
    for bad in (1, 0, -2, 2.5, True):
        with pytest.raises(BadParameter):
            gorenstein_family(bad)


def _published_table_rows(k):
    """Row-by-row closed form of the family's plane Apery slice."""
    rows = [((0, 0, 0), (5, 0, 0), (6, 0, 0), (7, 0, 0))]
    for j in range(1, k - 1):
        rows.append(((4 + j, j, 0), (5 + j, j, 0), (6 + j, j, 0), (7 + j, j, 0)))
    rows.append(
        ((3 + k, k - 1, 0), (4 + k, k - 1, 0), (5 + k, k - 1, 0), (10 + k, k - 1, 0))
    )
    return tuple(rows)


def test_apery_table_matches_closed_form():
    for k in (2, 3, 4, 5):
        table = apery_table(k)
        assert table.k == k
        assert table.rows == _published_table_rows(k)
        assert table.empty_rows_checked == (k, k + 1)


def test_apery_table_matches_oracle():
    h = build_family(2)
    box = oracle.box_for(h, 20)
    naive = oracle.naive_apery(h, box)
    flat = {p for row in apery_table(2).rows for p in row}
    assert flat == {p for p in naive if p[2] == 0}


def test_condition3_counts(nn, s5):
    r = check_condition3(nn, (1, 1, 1))
    assert r.count == 0 and r.indices == ()
    r = check_condition3(s5, (5, 5, 5))
    assert r.count >= 2
    assert r.indices[:2] == (0, 1)


def test_condition3_rejects_non_integer_points(nn):
    # the coordinates must not be truncated to (1, 1, 1), a valid gap
    with pytest.raises(BadParameter):
        check_condition3(nn, (F(3, 2), 1, 1))
    with pytest.raises(BadParameter):
        check_condition3(nn, (1.9, 1, 1))


def test_condition3_rejects_non_gaps(s3):
    with pytest.raises(NotAGap):
        check_condition3(s3, (3, 3, 2))
    with pytest.raises(NotAGap):
        check_condition3(s3, (50, 1, 1))


def test_condition3_rejects_non_simplicial(pyramid):
    with pytest.raises(NotSimplicial):
        check_condition3(pyramid, (1, 1, 1))


def test_tetrahedra_are_cm_and_buchsbaum(gorenstein_no):
    # spot check; the randomized battery lives in the acceptance suite
    assert is_cohen_macaulay(gorenstein_no).verdict == "yes"
    assert is_buchsbaum(gorenstein_no).verdict == "yes"


def test_verdicts_are_deterministic(s5):
    a = is_cohen_macaulay(s5)
    b = is_cohen_macaulay(s5)
    assert a == b


@pytest.mark.parametrize("verts", [S5_VERTICES, GORENSTEIN_NO_VERTICES])
@pytest.mark.parametrize("cm_first", [True, False])
def test_handle_decides_cohen_macaulay_once(monkeypatch, verts, cm_first):
    # the handle keeps the Cohen-Macaulay verdict, which the Gorenstein
    # decider reads, whichever of the two is asked first
    calls = []
    decide = rings._decide

    def counted(*args, **kwargs):
        calls.append(args)
        return decide(*args, **kwargs)

    monkeypatch.setattr(rings, "_decide", counted)
    h = build(verts)
    asks = [is_cohen_macaulay, is_gorenstein]
    verdicts = [ask(h) for ask in (asks if cm_first else asks[::-1])]
    assert len(calls) == 1
    assert is_cohen_macaulay(h) == verdicts[0 if cm_first else 1]


def test_cohen_macaulay_builds_few_fractions(monkeypatch):
    # the slab decider runs on integer rows: is_cohen_macaulay on a fresh
    # s5 handle made 1428 Fractions while its geometry ran on Fraction
    # points and 3 since (the integer chord, fan and window cores); the
    # bound is 20% of the old count
    new = F.__new__
    count = [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    h = build(S5_VERTICES)
    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    verdict = is_cohen_macaulay(h)
    monkeypatch.undo()
    assert verdict.verdict == "no"
    assert count[0] <= 1428 // 5


def _window_by_dilation(h, sep):
    """The decider window rebuilt slab by slab at each level: the
    integer points of corner slab (i, sep + j) over one period of every
    point-chord ray, plus those of conv(0, sep*p0, sep*p1, sep*p2)."""
    pts = set()
    for i in range(3):
        if h.ray_data[i].kind != "point":
            continue
        for j in range(ray_period(h, i)):
            slab = corner_slab(h, i, sep + j)
            pts.update(integer_points_in_hull(slab.vertex_list()))
    hull = [ORIGIN] + [ray_point(h, i) * sep for i in range(3)]
    pts.update(integer_points_in_hull(hull))
    return pts


def _decided_window_bodies():
    """The conftest bodies and frozen seeds that have a separation
    level."""
    cases = [("s3", S3_VERTICES), ("s5", S5_VERTICES), ("nn", NN_VERTICES)]
    for kind, table in (
        ("tetra", TETRA_SEPARATION),
        ("poly", POLY_SEPARATION),
    ):
        make = getattr(instancegen, "%s_vertices" % kind)
        cases += [
            ("%s-%d" % (kind, s), make(s))
            for s, sep in sorted(table.items())
            if sep is not None
        ]
    return cases


@pytest.mark.parametrize(
    "verts", [pytest.param(v, id=n) for n, v in _decided_window_bodies()]
)
def test_corner_window_from_templates_matches_dilated_slabs(verts):
    # tetra-85 is the one frozen seed whose separation level lies above
    # its base level, so its templates really move
    h = build(verts)
    sep, templates = _separation(h)
    assert all(t.level == max(1, h.overlap) for t in templates.values())
    window = _corner_window(h, sep, templates).tolist()
    assert list(map(tuple, window)) == sorted(_window_by_dilation(h, sep))


def test_corner_window_bodies_include_a_raised_template():
    h = build(instancegen.tetra_vertices(85))
    sep, templates = _separation(h)
    assert sep > max(t.level for t in templates.values())


def test_staircase_refutations_are_oracle_checked(monkeypatch):
    # every "no" of the emptiness branch (at most one point chord) over
    # tetra/poly seeds 0-399: the staircase's end is an oracle gap whose
    # two named generator translates are oracle members; every climb
    # stays within kappa + period + 4, a sixteenth of its cap
    climbs = []
    climb = rings._climb

    def recorded(h, added, p, g, cap):
        length = climb(h, added, p, g, cap)
        climbs.append((length, cap))
        return length

    monkeypatch.setattr(rings, "_climb", recorded)
    refuted = 0
    for kind in ("tetra", "poly"):
        make = getattr(instancegen, "%s_vertices" % kind)
        for seed in range(400):
            verts = make(seed)
            try:
                h = build(verts)
            except PolysgpError:
                continue
            if not h.simplicial or sum(
                d.kind == "point" for d in h.ray_data
            ) > 1:
                continue
            v = is_cohen_macaulay(h)
            if v.verdict != "no":
                continue
            refuted += 1
            p = v.witness.point.int_tuple()
            assert not oracle.point_member(verts, p), (kind, seed)
            for idx in v.witness.indices:
                g = h.ray_generators[idx].int_tuple()
                t = tuple(a + b for a, b in zip(p, g))
                assert oracle.point_member(verts, t), (kind, seed, idx)
    assert refuted == 145
    assert max(length for length, _cap in climbs) == 4
    assert all(16 * length <= cap for length, cap in climbs)
