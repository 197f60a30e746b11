"""Semigroup membership, generators, Apery sets, and closure."""

from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import instancegen
from polysgp import build, oracle
from polysgp.errors import (
    AssumptionViolated,
    BadParameter,
    DegenerateInput,
    NotSimplicial,
    OriginInside,
    OutsideCone,
    PolysgpError,
    UnsupportedCase,
)
from polysgp import rings, semigroup
from polysgp.rings import is_buchsbaum
from polysgp.semigroup import (
    _order_sieve,
    apery_intersection,
    closure,
    closure_member_int,
    in_cone_int,
    member,
    member_int,
    minimal_generators,
    semigroup_shells,
)
from conftest import (
    GORENSTEIN_NO_VERTICES,
    NN_VERTICES,
    S3_GENERATORS,
    S3_VERTICES,
    S5_VERTICES,
    WE_VERTICES,
)


def test_build_validation():
    with pytest.raises(DegenerateInput):
        build([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(BadParameter):
        build([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 1, 1)])
    with pytest.raises(OriginInside):
        build([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    with pytest.raises(OriginInside):
        # origin on the boundary counts as inside: every dilation chain
        # would collapse
        build([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])


def test_rays_and_simpliciality(s3, nn, pyramid):
    assert s3.simplicial
    assert {r.int_tuple() for r in s3.rays} == {(1, 2, 3), (3, 3, 2), (2, 3, 1)}
    assert nn.simplicial
    assert {r.int_tuple() for r in nn.rays} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert not pyramid.simplicial
    assert len(pyramid.rays) == 4


def test_fan_order_is_cyclic(pyramid):
    # consecutive rays span boundary planes of the cone: all remaining
    # rays sit strictly on one common side
    t = len(pyramid.rays)
    for i in range(t):
        a, b = pyramid.rays[i], pyramid.rays[(i + 1) % t]
        n = a.cross(b)
        signs = {
            (n.dot(r) > 0) - (n.dot(r) < 0)
            for j, r in enumerate(pyramid.rays)
            if j not in (i, (i + 1) % t)
        }
        assert len(signs) == 1 and 0 not in signs


def test_membership_basics(s3):
    assert member_int(s3, (0, 0, 0)) == (True, 0)
    ok, level = member_int(s3, (3, 3, 2))
    assert ok and level == 1
    ok, level = member_int(s3, (6, 6, 4))
    assert ok and level == 2
    assert member_int(s3, (1, 1, 1))[0] is False
    assert member_int(s3, (-1, 2, 3))[0] is False


def test_member_raises_outside_cone(s3):
    with pytest.raises(OutsideCone):
        member(s3, (9, 0, 0))
    ok, level = member(s3, (4, 6, 7))
    assert ok and level == 2


def test_member_reports_an_in_cone_gap(s5):
    # (5, 5, 5) is the gap s5's Cohen-Macaulay witness names
    assert in_cone_int(s5, (5, 5, 5))
    assert member(s5, (5, 5, 5)) == (False, None)


def test_non_normal_membership(nn):
    assert member_int(nn, (2, 2, 2))[0] is True
    assert member_int(nn, (1, 1, 1))[0] is False
    assert in_cone_int(nn, (1, 1, 1))


def test_minimal_generators_published_set(s3):
    gens = minimal_generators(s3)
    assert gens.certified
    assert set(gens.int_tuples()) == S3_GENERATORS


def test_minimal_generators_block_each_other(s3):
    # no generator is a sum of two semigroup elements below it
    gens = set(minimal_generators(s3).int_tuples())
    for g in gens:
        for a in product(range(g[0] + 1), range(g[1] + 1), range(g[2] + 1)):
            b = (g[0] - a[0], g[1] - a[1], g[2] - a[2])
            if a == (0, 0, 0) or b == (0, 0, 0):
                continue
            assert not (member_int(s3, a)[0] and member_int(s3, b)[0])


def test_budget_exhaustion_flags_partial(s3, nn, we, gorenstein_no):
    # every budget short of the certifying scan gives an uncertified
    # subset of the full set, after exactly that many layers
    for h in (s3, nn, we, gorenstein_no):
        full = minimal_generators(h)
        assert full.certified
        for budget in range(1, full.layers_scanned):
            gens = minimal_generators(h, budget_layers=budget)
            assert not gens.certified
            assert gens.layers_scanned == budget
            assert set(gens.int_tuples()) <= set(full.int_tuples())


def _counting(monkeypatch, *names, module=semigroup):
    """Count the calls of each named function of `module` (`semigroup`
    by default) from inside the module."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_structure_chain_scans_and_closes_once(monkeypatch):
    # the handle keeps the Apery scan and the closure, so the structure
    # chain scans the shells for the Apery set once and runs the
    # closure's candidate listing (its pass of `_gap_rows`) once
    calls = _counting(monkeypatch, "_apery_scan", "_gap_rows")
    h = build(S5_VERTICES)
    minimal_generators(h)
    apery_intersection(h)
    closure(h)
    assert is_buchsbaum(h).verdict == "yes"
    assert calls == {"_apery_scan": 1, "_gap_rows": 1}


def test_cm_yes_chain_decides_once_and_lists_no_gap(monkeypatch):
    # s3 is Cohen-Macaulay: `minimal_generators` asks for the verdict
    # and reads the cosets; the one decider run also gives a closure
    # that adds nothing and the Buchsbaum verdict, so no shell is
    # scanned and no gap is listed
    calls = _counting(monkeypatch, "_apery_scan", "_coset_apery", "_gap_rows")
    decided = _counting(monkeypatch, "_decide", module=rings)
    h = build(S3_VERTICES)
    minimal_generators(h)
    apery_intersection(h)
    assert closure(h).is_trivial()
    assert is_buchsbaum(h).verdict == "yes"
    assert calls == {"_apery_scan": 0, "_coset_apery": 1, "_gap_rows": 0}
    assert decided == {"_decide": 1}


def test_buchsbaum_on_a_fresh_cm_yes_handle_sieves_nothing(monkeypatch):
    # the verdict and the Apery set's `complete` flag are all it reads
    calls = _counting(monkeypatch, "minimal_generators", "_order_sieve")
    closed = _counting(monkeypatch, "closure", module=rings)
    assert is_buchsbaum(build(S3_VERTICES)).verdict == "yes"
    assert calls == {"minimal_generators": 0, "_order_sieve": 0}
    assert closed == {"closure": 0}


def _outcome(fn, h, budget):
    try:
        return fn(h, budget_layers=budget)
    except PolysgpError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize(
    "verts", [S3_VERTICES, WE_VERTICES, GORENSTEIN_NO_VERTICES]
)
def test_kept_results_match_fresh_handles(verts):
    # one handle asked at every budget up to the certifying one, upwards
    # and then downwards, answers as a fresh handle does: a partial scan
    # under a small budget never answers a larger one
    top = minimal_generators(build(verts)).layers_scanned
    fns = (minimal_generators, apery_intersection, closure)
    fresh = {
        (fn, b): _outcome(fn, build(verts), b)
        for fn in fns
        for b in range(1, top + 1)
    }
    assert not fresh[minimal_generators, top - 1].certified
    shared = build(verts)
    for b in [*range(1, top + 1), *range(top, 0, -1)]:
        for fn in fns:
            assert _outcome(fn, shared, b) == fresh[fn, b], (fn, b)


@pytest.mark.parametrize("verts", [S3_VERTICES, S5_VERTICES, WE_VERTICES])
def test_structure_chain_in_either_order(verts):
    forward, backward = build(verts), build(verts)
    fns = (minimal_generators, apery_intersection, closure, is_buchsbaum)
    ahead = [fn(forward) for fn in fns]
    behind = [fn(backward) for fn in reversed(fns)]
    assert ahead == behind[::-1]


def test_unsupported_closure_is_not_kept(monkeypatch):
    # an overlap level set below the true one (3) puts the closure point
    # (5, 5, 5) past it: each call runs the candidate loop and raises
    # again, and is_buchsbaum reports the case as unsupported
    h = build(S5_VERTICES)
    h._overlap = 0
    calls = _counting(monkeypatch, "_apery_scan", "_gap_rows")
    for _ in range(2):
        with pytest.raises(UnsupportedCase, match=r"\(5, 5, 5\)"):
            closure(h)
    assert is_buchsbaum(h).verdict == "unsupported"
    assert calls == {"_apery_scan": 1, "_gap_rows": 3}


def test_minimal_generators_non_simplicial(pyramid):
    gens = minimal_generators(pyramid)
    assert gens.certified
    expected = {(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)}
    assert set(gens.int_tuples()) == expected
    assert expected == oracle.naive_msg(pyramid, oracle.default_box(pyramid))


# Layer budget beyond which a drawn body is skipped as too costly.
_DRAWN_BUDGET = 14


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_generators_and_apery_match_oracle_on_drawn_bodies(seed):
    verts = instancegen.poly_vertices(seed)
    try:
        h = build(verts)
        assume(h.simplicial)
        gens = minimal_generators(h, budget_layers=_DRAWN_BUDGET)
        ap = apery_intersection(h, budget_layers=_DRAWN_BUDGET)
    except PolysgpError:
        assume(False)
    assume(gens.certified and ap.complete)
    msg = set(gens.int_tuples())
    elems = {p.int_tuple() for p in ap.elements}
    twice_body = 2 * (int(max(max(v) for v in verts)) + 1)
    reach = max(max(max(p) for p in msg | elems), twice_body)
    box = oracle.box_for(verts, reach)
    assert msg == oracle.naive_msg(verts, box)
    assert elems == oracle.naive_apery(verts, box)


def _in_cone_reference(h, p):
    """Cone test over Fractions: each facet a.x >= c of the body bounds
    the real dilations t with p in t*B (c < 0 from below, c > 0 from
    above); p is in the cone when those bounds leave room above 0."""
    if min(p) < 0:
        return False
    if p == (0, 0, 0):
        return True
    lo, hi = F(0), None
    for ax, ay, az, c in h.body.int_facets:
        v = ax * p[0] + ay * p[1] + az * p[2]
        if c == 0:
            if v < 0:
                return False
        elif c < 0:
            lo = max(lo, F(v, c))
        else:
            hi = F(v, c) if hi is None else min(hi, F(v, c))
    return hi is not None and hi > 0 and lo <= hi


def test_in_cone_int_matches_fraction_reference(
    s3, s5, nn, we, gorenstein_no, pyramid
):
    for h in (s3, s5, nn, we, gorenstein_no, pyramid):
        for p in product(range(13), repeat=3):
            assert in_cone_int(h, p) == _in_cone_reference(h, p), p


def test_semigroup_shells_agree_with_membership(s3):
    seen = set()
    for shell, p, ok in semigroup_shells(s3, 1, 4):
        assert p not in seen
        seen.add(p)
        assert ok == member_int(s3, p)[0]
        assert in_cone_int(s3, p)
        got, level = member_int(s3, p)
        if got:
            assert level == shell


def test_apery_family_k2():
    h = build([(4, 0, 0), (8, 0, 0), (6, 2, 0), (6, 0, 1)])
    ap = apery_intersection(h)
    assert ap.complete
    box = oracle.box_for(h, 20)
    assert {p.int_tuple() for p in ap.elements} == oracle.naive_apery(h, box)
    assert {p.int_tuple() for p in ap.maximal_elements} == {(12, 1, 0)}


# kappa = 68, period 2 and three point chords: no Apery element lies
# in shells 1 and 2, so a scan that stopped after one quiet period
# would certify there and miss the generator (1, 9, 11) of shell 4
FLOOR_VERTICES = [
    (0, F(5, 2), 3),
    (0, F(7, 2), F(5, 2)),
    (F(1, 4), F(9, 4), F(11, 4)),
    (1, 0, 3),
]


def test_apery_scan_floor_keeps_late_generators():
    h = build(FLOOR_VERTICES)
    gens = minimal_generators(h)
    assert gens.certified and gens.layers_scanned == 71
    expected = {(0, 5, 6), (0, 7, 5), (1, 0, 3), (1, 9, 11)}
    assert set(gens.int_tuples()) == expected
    assert oracle.naive_msg(h, oracle.box_for(h, 12)) == expected
    assert len(apery_intersection(h).elements) == 17


def test_apery_requires_simplicial(pyramid):
    with pytest.raises(NotSimplicial):
        apery_intersection(pyramid)


def test_closure_matches_definitional_recomputation(we):
    # independent recomputation: a cone point belongs to the closure iff
    # every generator translate is a member
    cl = closure(we)
    gens = minimal_generators(we).int_tuples()
    box = oracle.box_for(we, 8)
    present = oracle.scan_semigroup(we, box)
    expected_added = set()
    for p in product(range(6), repeat=3):
        if p in present or not in_cone_int(we, p):
            continue
        if all(
            oracle.point_member(we, (p[0] + g[0], p[1] + g[1], p[2] + g[2]))
            for g in gens
        ):
            expected_added.add(p)
    assert cl.added_set == expected_added
    assert cl.added_set == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert not cl.is_trivial()
    assert cl.gens_of_closure.certified


def test_closure_membership_wrapper(we):
    cl = closure(we)
    assert closure_member_int(we, cl, (0, 0, 1))
    assert closure_member_int(we, cl, (2, 0, 0))
    assert closure_member_int(we, cl, (0, 0, 0))


def _pairwise_extremal(points, member, descending=False):
    """The points that no other one reaches by adding a nonzero member
    (with `descending`, that reach no other one that way), each pair
    tested on its own."""

    def reaches(a, b):
        return a != b and member(tuple(y - x for x, y in zip(a, b)))

    if descending:
        return sorted(a for a in points if not any(reaches(a, b) for b in points))
    return sorted(b for b in points if not any(reaches(a, b) for a in points))


_SIEVE_BODIES = {
    "s3": S3_VERTICES,
    "s5": S5_VERTICES,
    "nn": NN_VERTICES,
    "we": WE_VERTICES,
    "gorenstein_no": GORENSTEIN_NO_VERTICES,
}


@lru_cache(maxsize=None)
def _closure_of(name):
    h = build(_SIEVE_BODIES[name])
    return h, closure(h)


# Largest set the pairwise reference is run on: it tests every pair,
# so larger sets take seconds each.
_PAIRWISE_MAX = 300


def _box_points(top):
    return st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=top)] * 3),
        unique=True,
        max_size=30,
    )


@given(
    st.sampled_from(sorted(_SIEVE_BODIES))
    | st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=6),
    _box_points(14),
)
@settings(max_examples=40, deadline=None)
def test_order_sieve_matches_pairwise_definitions(body, budget, points):
    # maximal Apery elements and minimal generators of a budget-cut
    # (incomplete) scan, and arbitrary point sets, sieved both ways
    try:
        h = build(
            _SIEVE_BODIES[body]
            if isinstance(body, str)
            else instancegen.poly_vertices(body)
        )
        assume(h.simplicial)
        ap = apery_intersection(h, budget_layers=budget)
        gens = minimal_generators(h, budget_layers=budget)
    except PolysgpError:
        assume(False)
    assume(len(ap.elements) <= _PAIRWISE_MAX)

    def member(p):
        return member_int(h, p)[0]

    elems = [p.int_tuple() for p in ap.elements]
    assert [p.int_tuple() for p in ap.maximal_elements] == _pairwise_extremal(
        elems, member, descending=True
    )
    nonzero = [p for p in elems if p != (0, 0, 0)]
    rays = [g.int_tuple() for g in h.ray_generators]
    assert gens.int_tuples() == sorted(rays + _pairwise_extremal(nonzero, member))
    for descending in (False, True):
        assert sorted(
            _order_sieve(h, points, descending=descending)
        ) == _pairwise_extremal(points, member, descending)


@pytest.mark.parametrize("body", ["we", "s5"])
def test_closure_generators_match_pairwise_definition(body):
    h, cl = _closure_of(body)
    assert cl.added_set

    def member(p):
        return closure_member_int(h, cl, p)

    candidates = set(minimal_generators(h).int_tuples()) | cl.added_set
    assert cl.gens_of_closure.int_tuples() == _pairwise_extremal(
        candidates, member
    )


# a small box, so that many pairs differ by an added point
@given(st.sampled_from(["we", "s5"]), _box_points(6))
@settings(max_examples=30, deadline=None)
def test_order_sieve_in_the_closure_matches_pairwise(body, points):
    h, cl = _closure_of(body)

    def member(p):
        return closure_member_int(h, cl, p)

    for descending in (False, True):
        assert sorted(
            _order_sieve(h, points, cl.added_set, descending)
        ) == _pairwise_extremal(points, member, descending)


def _climbed(h, added, p, g, cap):
    """`rings._climb`'s step count, or None where it finds no member."""
    try:
        return rings._climb(h, added, p, g, cap)
    except AssumptionViolated as exc:
        assert "no member found" in str(exc)
        return None


@given(
    st.sampled_from(["we", "s5"]),
    st.booleans(),
    st.tuples(*[st.integers(min_value=0, max_value=8)] * 3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=70),
)
@settings(max_examples=60, deadline=None)
def test_climb_matches_per_point_scan(body, in_closure, p, gi, cap):
    h, cl = _closure_of(body)
    added = cl.added_set if in_closure else frozenset()
    g = h.ray_generators[gi].int_tuple()
    steps = (tuple(a + l * b for a, b in zip(p, g)) for l in range(1, cap + 1))
    expected = next(
        (
            l
            for l, q in enumerate(steps, start=1)
            if member_int(h, q)[0] or q in added
        ),
        None,
    )
    assert _climbed(h, added, p, g, cap) == expected


THIN_VERTICES = [(100, 0, 0), (F(100001, 1000), 0, 0), (100, 1, 0), (100, 0, 1)]


def test_climb_finds_every_step_of_its_cap():
    # on the x-axis of the thin body the first member is (100, 0, 0),
    # so from (100 - t, 0, 0) it is t steps away
    h = build(THIN_VERTICES)
    for t in range(1, 101):
        assert _climbed(h, frozenset(), (100 - t, 0, 0), (1, 0, 0), 150) == t
    assert _climbed(h, frozenset(), (0, 0, 0), (1, 0, 0), 99) is None


def test_thin_body_ray_generator_stops_at_first_member(monkeypatch):
    # the x-axis chord is [100, 100 + 1/1000]: the ray generators are
    # read off the chords, so `build` asks no membership question, and
    # the first member on that ray is the 100th multiple
    rows = []
    kernel = semigroup._dilation_rows

    def counting(h, pts):
        rows.append(len(pts))
        return kernel(h, pts)

    monkeypatch.setattr(semigroup, "_dilation_rows", counting)
    h, *_ = [
        build(v) for v in (THIN_VERTICES, S3_VERTICES, S5_VERTICES, WE_VERTICES)
    ]
    assert rows == []
    gens = dict(zip((r.int_tuple() for r in h.rays), h.ray_generators))
    assert gens[(1, 0, 0)].int_tuple() == (100, 0, 0)


def test_closure_trivial_for_tetrahedron():
    h = build([(4, 0, 0), (8, 0, 0), (6, 2, 0), (6, 0, 1)])
    cl = closure(h)
    assert cl.is_trivial()
    assert cl.added_points == ()


def test_scaling_closure(s3):
    for g in S3_GENERATORS:
        for k in range(1, 5):
            assert member_int(s3, (k * g[0], k * g[1], k * g[2]))[0]


def test_sum_closure(s3):
    gens = sorted(S3_GENERATORS)
    for a in gens:
        for b in gens:
            s = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            assert member_int(s3, s)[0]


members_nn = st.sampled_from(
    sorted(product(range(7), repeat=3))
)


@given(members_nn, members_nn)
@settings(max_examples=150, deadline=None)
def test_membership_is_additive(p, q):
    h = build(NN_VERTICES)
    if member_int(h, p)[0] and member_int(h, q)[0]:
        s = (p[0] + q[0], p[1] + q[1], p[2] + q[2])
        assert member_int(h, s)[0]


@given(st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_ray_multiples_match_chord_pattern(k):
    # along each extremal ray the members are exactly the multiples
    # landing in some dilation of the chord interval
    h = build(WE_VERTICES)
    for i, r in enumerate(h.rays):
        d = r.int_tuple()
        p = (k * d[0], k * d[1], k * d[2])
        lo, hi = h.ray_data[i].lo, h.ray_data[i].hi
        expected = k == 0 or any(
            j * lo <= k <= j * hi for j in range(1, k // max(1, int(lo)) + 2)
        )
        assert member_int(h, p)[0] == expected
