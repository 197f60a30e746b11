"""Vertex classification, overlap and separation levels, and the slab
decomposition of the layer-closure gap region."""

from __future__ import annotations

import sys
from fractions import Fraction as F

import pytest

from conftest import (
    GORENSTEIN_NO_VERTICES,
    NN_VERTICES,
    S3_VERTICES,
    S5_VERTICES,
    WE_VERTICES,
)
from test_acceptance import POLY_SEEDS, TETRA_SEEDS
from polysgp import (
    build,
    closure,
    decomposition,
    geometry,
    is_buchsbaum,
    is_cohen_macaulay,
    is_gorenstein,
    oracle,
)
from polysgp.decomposition import (
    classify,
    corner_slab,
    gap_points,
    gap_region,
    overlap_level,
    ray_chord_class,
    ray_period,
    ray_point,
    separation_level,
    slab_integer_points,
    slabs,
)
from polysgp.errors import (
    BadParameter,
    DegenerateInput,
    NotSimplicial,
    UnsupportedCase,
)
from polysgp.geometry import (
    Point3,
    _primitive_direction,
    cone_supporting_facets,
    contains,
    dilate,
)


def _t_interior(body, k, p):
    """Membership in the dilation's relative interior, treating the
    walls shared with the ambient cone as closed."""
    scaled = dilate(body, k)
    exempt = cone_supporting_facets(scaled)
    return contains(scaled, p, mode="relative_interior", exempt_facets=exempt)


def _overlap_predicate(h, cls, k):
    """The defining condition of the overlap level, recomputed from
    geometry primitives: every near vertex of level k+1 is swallowed by
    level k, every far vertex of level k by level k+1."""
    verts = h.body.vertices
    for vi in cls.entry_extremal + cls.entry_inner:
        if not _t_interior(h.body, k, verts[vi] * (k + 1)):
            return False
    for vi in cls.exit_extremal + cls.exit_inner:
        if not _t_interior(h.body, k + 1, verts[vi] * k):
            return False
    return True


def test_classify_s3(s3):
    cls = classify(s3)
    verts = s3.body.vertices
    names = lambda idxs: {verts[i].as_tuple() for i in idxs}
    assert names(cls.point_extremal) == {(2, 3, 1), (3, 3, 2)}
    assert names(cls.entry_extremal) == {(1, 2, 3)}
    assert names(cls.exit_extremal) == {(F(3, 2), 3, F(9, 2))}
    assert cls.entry_inner == ()
    assert names(cls.exit_inner) == {(F(33, 16), F(27, 8), F(63, 16))}


def test_classify_covers_all_vertices(s3, s5, nn, we):
    for h in (s3, s5, nn, we):
        cls = classify(h)
        groups = (
            cls.point_extremal,
            cls.entry_extremal,
            cls.exit_extremal,
            cls.entry_inner,
            cls.exit_inner,
        )
        seen = [i for grp in groups for i in grp]
        assert sorted(seen) == list(range(len(h.body.vertices)))


def test_chord_classes(s3, s5, nn, we):
    def kinds(h):
        return tuple(ray_chord_class(h, i) for i in range(len(h.rays)))

    assert sorted(kinds(s3)) == ["entry_vertex", "point", "point"]
    assert kinds(s5) == ("point", "point", "point")
    assert kinds(nn) == ("point", "point", "point")
    assert kinds(we) == ("entry_vertex",) * 3


def test_ray_point_and_period(s3):
    for i in range(3):
        if ray_chord_class(s3, i) == "point":
            p = ray_point(s3, i)
            hit = s3.ray_data[i]
            assert p == s3.rays[i] * hit.lo
            assert ray_period(s3, i) == hit.lo.denominator
        else:
            assert ray_period(s3, i) == 1


def test_handle_classifies_and_levels_once(monkeypatch):
    # the handle keeps its classification and overlap level, so the
    # deciders, the closure and the gap region share one computation
    calls = {"classify": 0, "overlap_level": 0}
    for name in calls:

        def counted(*args, _fn=getattr(decomposition, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(decomposition, name, counted)
    h = build(S3_VERTICES)
    is_gorenstein(h)
    is_buchsbaum(h)
    closure(h)
    gap_region(h)
    assert calls == {"classify": 1, "overlap_level": 1}


def test_levels_slabs_and_deciders_build_no_dilation(monkeypatch):
    # every "is x in L*B" question is asked of the body as "is x/L in
    # B", so all of them run with dilate refusing, wherever it was
    # imported
    dilate = geometry.dilate

    def refuse(*args):
        raise AssertionError("dilate called with %r" % (args[1:],))

    for name, module in list(sys.modules.items()):
        if name.startswith("polysgp") and (
            getattr(module, "dilate", None) is dilate
        ):
            monkeypatch.setattr(module, "dilate", refuse)
    for verts in (
        S3_VERTICES,
        S5_VERTICES,
        NN_VERTICES,
        WE_VERTICES,
        GORENSTEIN_NO_VERTICES,
    ):
        h = build(verts)
        overlap_level(h)
        if verts is not WE_VERTICES:
            separation_level(h)
        gap_region(h)
        is_cohen_macaulay(h)
        is_gorenstein(h)
        is_buchsbaum(h)


def test_slab_templates_build_each_fan_once(monkeypatch):
    # past the base level slabs are translates of one template per
    # point ray, so each entry point builds one fan per point ray: the
    # decider window and the gap region translate the templates that
    # the separation level built
    calls = []
    fan = decomposition._ordered_fan

    def counted(h, i, k):
        calls.append((i, k))
        return fan(h, i, k)

    monkeypatch.setattr(decomposition, "_ordered_fan", counted)
    for verts, entry, expected in (
        (S3_VERTICES, separation_level, 2),
        (S5_VERTICES, separation_level, 3),
        (S5_VERTICES, lambda h: slabs(h, 3), 3),
        (S5_VERTICES, is_cohen_macaulay, 3),
        (S5_VERTICES, gap_region, 3),
    ):
        calls.clear()
        entry(build(verts))
        assert len(calls) == expected, (entry, calls)


def test_overlap_levels(s3, s5, nn):
    assert overlap_level(s3) == 3
    assert overlap_level(s5) == 3
    assert overlap_level(nn) == 11


def test_overlap_level_is_minimal(s3, s5, nn, we):
    for h in (s3, s5, nn, we):
        cls = classify(h)
        kappa = overlap_level(h)
        assert _overlap_predicate(h, cls, kappa)
        assert _overlap_predicate(h, cls, kappa + 1)
        if kappa > 1:
            assert not _overlap_predicate(h, cls, kappa - 1)


def test_separation_levels(s3, s5, nn):
    assert separation_level(s3) == 3
    assert separation_level(s5) == 3
    assert separation_level(nn) == 11


def test_separation_level_generator_override(s5):
    assert separation_level(s5, generators=s5.ray_generators) == 3
    with pytest.raises(BadParameter):
        separation_level(s5, generators=s5.ray_generators[:2])


TETRA_SEPARATION = {
    0: 3, 13: 5, 24: 1, 43: 1, 53: 2, 62: 7, 85: 2, 107: 2, 135: 4,
    142: 3, 143: 1, 152: 4, 155: 1, 183: 4, 196: 3, 201: 3, 274: 5,
    284: 2, 324: 3, 334: 2,
}
POLY_SEPARATION = {
    3: 1, 27: 2, 34: 2, 48: 2, 61: 1, 68: 1, 93: 2, 96: 4, 111: None,
    197: 3, 235: None, 278: None, 280: None,
}


@pytest.mark.parametrize(
    "kind, seed",
    [("tetra", s) for s in TETRA_SEEDS] + [("poly", s) for s in POLY_SEEDS],
)
def test_separation_levels_on_frozen_seeds(kind, seed):
    # None marks a configuration outside the decided cases; tetra seed
    # 85 is the one frozen seed whose level lies above its base level
    import instancegen

    verts = getattr(instancegen, "%s_vertices" % kind)(seed)
    expected = (TETRA_SEPARATION if kind == "tetra" else POLY_SEPARATION)[
        seed
    ]
    h = build(verts)
    for gens in (None, h.ray_generators[::-1]):
        if expected is None:
            with pytest.raises(UnsupportedCase):
                separation_level(h, generators=gens)
        else:
            assert separation_level(h, generators=gens) == expected


def test_separation_not_below_overlap(s3, s5, nn):
    for h in (s3, s5, nn):
        assert separation_level(h) >= overlap_level(h)


def test_decomposition_matches_oracle_layer_gaps(s3):
    # the union of closed slabs at level k carries exactly the integer
    # points of the layer closure that neither adjacent dilation covers
    top = max(c for v in s3.body.vertices for c in v.as_tuple())
    for k in range(3, 6):
        box = oracle.box_for(s3, int((k + 2) * top) + 2)
        covered = oracle.scan_layer(s3, k, box) | oracle.scan_layer(
            s3, k + 1, box
        )
        ss = slabs(s3, k)
        slab_pts = set()
        for s in ss.corner + ss.bridge:
            slab_pts |= slab_integer_points(s)
        assert slab_pts - covered == oracle.scan_layer_gaps(s3, k, box)


def test_no_point_rays_means_no_slabs_and_no_high_gaps(we):
    kappa = overlap_level(we)
    ss = slabs(we, kappa)
    assert ss.corner == () and ss.bridge == ()
    top = 3
    for k in range(kappa, kappa + 3):
        box = oracle.box_for(we, (k + 2) * top + 2)
        assert oracle.scan_layer_gaps(we, k, box) == set()


def test_corner_slab_vertexwise_translation(s3, s5):
    # one level up, every corner slab translates by its ray's chord
    # point; periods here are 1 so integer points translate as well.
    # Each triangle of a bridge moves by its own ray's chord point.
    base = separation_level(s3)
    for i in range(3):
        if ray_chord_class(s3, i) != "point":
            continue
        p = ray_point(s3, i)
        assert ray_period(s3, i) == 1
        for j in range(1, 6):
            lo_slab = corner_slab(s3, i, base)
            hi_slab = corner_slab(s3, i, base + j)
            shift = p * j
            assert [v + shift for v in lo_slab.vertex_list()] == list(
                hi_slab.vertex_list()
            )
            moved = {
                (q[0] + int(shift.x), q[1] + int(shift.y), q[2] + int(shift.z))
                for q in slab_integer_points(lo_slab)
            }
            assert moved == slab_integer_points(hi_slab)
    for h in (s3, s5):
        base = separation_level(h)
        templates = slabs(h, base).bridge
        assert templates
        for j in range(1, 6):
            moved = slabs(h, base + j).bridge
            assert [(b.ray, b.next_ray) for b in moved] == [
                (b.ray, b.next_ray) for b in templates
            ]
            for lo, hi in zip(templates, moved):
                steps = (ray_point(h, lo.ray), ray_point(h, lo.next_ray))
                assert hi.triangles == tuple(
                    tuple(v + p * j for v in tri)
                    for tri, p in zip(lo.triangles, steps)
                )


def test_corner_slab_fractional_period_translation():
    # chord point with denominator 2: vertex lists translate every
    # level by the chord point, integer points every two levels
    h = build(
        [(F(3, 2), 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2), (0, 0, 3), (1, 1, 1)]
    )
    point_rays = [
        i for i in range(3) if ray_chord_class(h, i) == "point"
    ]
    assert point_rays, "construction must yield a point chord"
    base = gap_region(h).base_level
    for i in point_rays:
        p = ray_point(h, i)
        h_i = ray_period(h, i)
        assert h_i == p.denominator_lcm()
        lo_slab = corner_slab(h, i, base)
        vec = p * h_i
        hi_slab = corner_slab(h, i, base + h_i)
        assert [v + vec for v in lo_slab.vertex_list()] == list(
            hi_slab.vertex_list()
        )
        moved = {
            (q[0] + int(vec.x), q[1] + int(vec.y), q[2] + int(vec.z))
            for q in slab_integer_points(lo_slab)
        }
        assert moved == slab_integer_points(hi_slab)


def test_corner_slab_parameter_validation(s3):
    segment_ray = next(
        i for i in range(3) if ray_chord_class(s3, i) == "entry_vertex"
    )
    point_ray = next(
        i for i in range(3) if ray_chord_class(s3, i) == "point"
    )
    with pytest.raises(BadParameter):
        corner_slab(s3, segment_ray, 3)
    with pytest.raises(BadParameter):
        corner_slab(s3, point_ray, 0)
    # below the base level max(1, overlap level) = 3 a fan edge can miss
    # the neighbouring dilation
    with pytest.raises(BadParameter, match="base level 3"):
        corner_slab(s3, point_ray, 2)
    with pytest.raises(BadParameter, match="base level 3"):
        slabs(s3, 2)
    for ray in (-1, len(s3.rays)):
        with pytest.raises(BadParameter):
            corner_slab(s3, ray, 3)
        for query in (ray_point, ray_chord_class, ray_period):
            with pytest.raises(BadParameter):
                query(s3, ray)
    with pytest.raises(BadParameter):
        slabs(s3, 0)


def test_chord_near_ends_are_always_vertices(
    s3, s5, nn, we, gorenstein_no, pyramid
):
    # the proofs the slab code relies on, checked on a battery: a chord's
    # near end is a body vertex (extremal rays are exposed), only extremal
    # rays hold point-chord vertices, classify and overlap_level refuse
    # nothing, and every corner fan of a three-ray cone is nonempty.
    # Seeds whose vertices span no body are the only ones left out.
    import instancegen

    handles = [s3, s5, nn, we, gorenstein_no, pyramid]
    for seed in range(1000):
        for gen in (instancegen.tetra_vertices, instancegen.poly_vertices):
            try:
                handles.append(build(gen(seed)))
            except DegenerateInput:
                continue
    assert len(handles) > 1900
    for h in handles:
        vset = set(h.body.vertices)
        for i in range(len(h.rays)):
            assert ray_point(h, i) in vset
        cls = classify(h)
        overlap_level(h)
        ray_dirs = {r.int_tuple() for r in h.rays}
        points = [
            vi
            for vi, ((ln, ld), (hn, hd)) in enumerate(h._chords)
            if ln * hd == hn * ld
        ]
        assert sorted(cls.point_extremal) == points
        for vi in points:
            assert _primitive_direction(h.body.rows[vi]) in ray_dirs
        if h.simplicial:
            base = max(1, h.overlap)
            for i in range(3):
                if h.ray_data[i].kind == "point":
                    assert corner_slab(h, i, base).fan, (h.body.vertices, i)


def test_slabs_reject_non_simplicial(pyramid):
    with pytest.raises(NotSimplicial):
        separation_level(pyramid)


def test_gap_region_shape(s3):
    region = gap_region(s3)
    assert region.overlap == 3
    assert region.separation == 3
    assert region.base_level == 3
    assert len(region.corner_templates) == 2
    assert len(region.bridge_templates) == 1
    assert set(region.periods.values()) == {1}


def test_gap_points_are_exactly_the_low_shell_gaps(s3):
    from polysgp.semigroup import in_cone_int, member_int

    region = gap_region(s3)
    pts = gap_points(s3, region, extra_periods=1)
    assert pts == sorted(pts, key=lambda p: p.as_tuple())
    for p in pts:
        t = p.int_tuple()
        assert in_cone_int(s3, t)
        assert not member_int(s3, t)[0]
    with pytest.raises(BadParameter):
        gap_points(s3, region, extra_periods=-1)


def test_gap_points_match_oracle_box(s3):
    # within a box that the enumerated shells fully cover, the gap list
    # and the oracle's cone-minus-semigroup scan agree
    region = gap_region(s3)
    pts = {p.int_tuple() for p in gap_points(s3, region, extra_periods=2)}
    probe = 9
    box = oracle.box_for(s3, probe)
    oracle_gaps = oracle.scan_gaps(s3, box)
    assert {p for p in pts if max(p) <= probe} == {
        g for g in oracle_gaps if max(g) <= probe
    }
