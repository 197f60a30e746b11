"""Semigroup membership, generators, Apery sets, and closure."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import instancegen
from polysgp import build, oracle
from polysgp.errors import (
    BadParameter,
    DegenerateInput,
    NotSimplicial,
    OriginInside,
    OutsideCone,
    PolysgpError,
)
from polysgp.semigroup import (
    apery_intersection,
    closure,
    closure_member_int,
    in_cone_int,
    member,
    member_int,
    minimal_generators,
    semigroup_shells,
)
from conftest import NN_VERTICES, S3_GENERATORS, WE_VERTICES


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
