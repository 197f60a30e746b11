"""Checks for the brute-force scan oracle itself.

The oracle works from vertex coordinates alone, so these tests pin its
behaviour against published data, against its own definitions at two
window sizes, and against the main algorithms over full boxes.
"""

import ast
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import conftest
import instancegen
from conftest import (
    S3_GENERATORS,
    S3_VERTICES,
    WE_VERTICES,
    WIDE_NORMALS_VERTICES,
)
from test_acceptance import CM_YES_VERTICES
from polysgp import build, in_cone_int, member_int, oracle
from polysgp.semigroup import _smallest_ray_point
from polysgp.errors import BoxTooSmall, DegenerateInput


def test_box_rejects_empty_windows():
    with pytest.raises(BoxTooSmall):
        oracle.Box(0, 5)
    with pytest.raises(BoxTooSmall):
        oracle.Box(5, 0)


def test_scan_rejects_uncovered_box(s3):
    # [0, 10]^3 needs more than one dilation layer to classify points
    # near the far corner.
    with pytest.raises(BoxTooSmall):
        oracle.scan_semigroup(s3, oracle.Box(10, 1))


def test_scan_agrees_with_point_member(s3):
    box = oracle.box_for(s3, 9)
    present = oracle.scan_semigroup(s3, box)
    for p in product(range(10), repeat=3):
        assert (p in present) == oracle.point_member(s3, p)


def test_naive_msg_matches_published_generators(s3):
    box = oracle.box_for(s3, 15)
    assert oracle.naive_msg(s3, box) == set(S3_GENERATORS)


def test_raw_vertices_and_handle_agree(s3):
    box = oracle.box_for(S3_VERTICES, 8)
    assert oracle.scan_semigroup(S3_VERTICES, box) == oracle.scan_semigroup(
        s3, box
    )


def test_gaps_stable_under_box_growth(we):
    small = oracle.box_for(we, 10)
    big = oracle.box_for(we, 16)
    gaps_small = oracle.scan_gaps(we, small)
    gaps_big = oracle.scan_gaps(we, big)
    assert gaps_small == {p for p in gaps_big if max(p) <= 10}


def test_semigroup_monotone_under_box_growth(s3):
    small = oracle.scan_semigroup(s3, oracle.box_for(s3, 8))
    big = oracle.scan_semigroup(s3, oracle.box_for(s3, 12))
    assert small <= big


def test_cone_rays_match_main_handle(s3, nn):
    for h in (s3, nn):
        main = {r.int_tuple() for r in h.rays}
        assert set(oracle.cone_rays(h)) == main


# Drawn bodies whose ray generators fit in the oracle's default box:
# three-ray cones with no, one and two segment chords, and four-ray
# cones with no and one segment chord.
_DRAWN = [
    instancegen.tetra_vertices(0),
    instancegen.tetra_vertices(9),
    instancegen.poly_vertices(0),
    instancegen.poly_vertices(2),
    instancegen.poly_vertices(3),
    instancegen.poly_vertices(9),
]


def test_ray_generators_match_main_handle(s3, we, pyramid):
    # a cone with more than three rays keeps no `ray_generators`; its
    # generators come from `_smallest_ray_point` when needed
    for h in (s3, we, pyramid, *map(build, _DRAWN)):
        main = h.ray_generators or [
            _smallest_ray_point(h, i) for i in range(len(h.rays))
        ]
        assert set(oracle.ray_generators(h)) == {g.int_tuple() for g in main}


def test_naive_apery_matches_its_definition():
    # each p - g asked of the layer-by-layer membership test; the box
    # just covers the ray generators (one drawn body, whose generators
    # reach coordinate 74, would make that test take half a minute)
    for verts in (S3_VERTICES, WE_VERTICES, *_DRAWN):
        gens = oracle.ray_generators(verts)
        top = max(max(g) for g in gens)
        if top > 30:
            continue
        box = oracle.box_for(verts, top + 2)
        expect = {
            p
            for p in oracle.scan_semigroup(verts, box)
            if not any(
                oracle.point_member(verts, oracle._sub(p, g)) for g in gens
            )
        }
        assert oracle.naive_apery(verts, box) == expect


def test_naive_msg_matches_two_term_definition():
    # a generator is a nonzero present point that is no sum a + b of
    # two nonzero present points; the drawn seeds 0-99 on tiny boxes
    cases = [
        (verts, 12)
        for verts in (S3_VERTICES, WE_VERTICES, CM_YES_VERTICES, *_DRAWN)
    ]
    for seed in range(100):
        cases.append((instancegen.tetra_vertices(seed), 4))
        cases.append((instancegen.poly_vertices(seed), 4))
    for verts, top in cases:
        try:
            box = oracle.box_for(verts, top)
        except DegenerateInput:
            # a poly with three vertices and no segment chord is flat
            continue
        nonzero = oracle.scan_semigroup(verts, box) - {(0, 0, 0)}
        expect = {
            p for p in nonzero
            if not any(oracle._sub(p, a) in nonzero for a in nonzero)
        }
        assert oracle.naive_msg(verts, box) == expect


def test_prepared_facets_are_facets_of_fractional_bodies():
    # the facets are found on the integer rows of L.P; on bodies with
    # fractional vertices each must hold on every vertex of P and be
    # tight on three of them that are not collinear
    bodies = [CM_YES_VERTICES, *map(instancegen.tetra_vertices, range(12))]
    for verts in bodies:
        pts = [tuple(Fraction(c) for c in v) for v in verts]
        assert any(c.denominator > 1 for v in pts for c in v)
        for f in oracle._prepare(verts).facets:
            n, off = f[:3], f[3]
            assert all(oracle._dot(n, v) >= off for v in pts)
            tight = [v for v in pts if oracle._dot(n, v) == off]
            assert any(
                any(oracle._cross(oracle._sub(b, a), oracle._sub(c, a)))
                for a, b, c in combinations(tight, 3)
            ), (verts, f)


def test_naive_condition3_empty_for_s3(s3):
    assert oracle.naive_condition3(s3, oracle.box_for(s3, 12)) == []


def test_naive_condition3_flags_s5(s5):
    # The least ray elements reach coordinate 24, so the window must
    # extend at least that far before translates can be tested.
    hits = oracle.naive_condition3(s5, oracle.box_for(s5, 26))
    by_point = dict(hits)
    assert (5, 5, 5) in by_point
    assert len(by_point[(5, 5, 5)]) >= 2


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateInput):
        oracle.scan_semigroup([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(DegenerateInput):
        oracle.scan_semigroup([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0)])
    with pytest.raises(DegenerateInput):
        oracle.scan_semigroup([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(DegenerateInput):
        oracle.scan_semigroup([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_scan_layer_covers_low_shells(we):
    # Layer four of this body starts at coordinate sum 8, so below sum 8
    # the first three layers account for every present point.
    box = oracle.box_for(we, 9)
    union = {(0, 0, 0)}
    for j in range(1, 4):
        union |= oracle.scan_layer(we, j, box)
    present = oracle.scan_semigroup(we, box)
    assert union <= present
    assert {p for p in union if sum(p) <= 7} == {
        p for p in present if sum(p) <= 7
    }


def _scan_layer_by_layer(source, box):
    """`scan_semigroup` as a loop over the layers 1..need, testing each
    box point against every one."""
    pre = oracle._prepare(source)
    need = oracle._layer_bound(pre, 3 * box.max_coord)
    dtype = oracle._dtype_for(pre, box)
    pts = np.indices((box.max_coord + 1,) * 3).reshape(3, -1)
    normals = np.array([f[:3] for f in pre.facets], dtype=dtype)
    offsets = np.array([f[3] for f in pre.facets], dtype=dtype)
    dots = normals @ pts.astype(dtype)
    present = np.zeros(pts.shape[1], dtype=bool)
    for j in range(1, need + 1):
        present |= (dots >= j * offsets[:, None]).all(axis=0)
    return set(map(tuple, pts.T[present].tolist())) | {(0, 0, 0)}


@pytest.mark.parametrize(
    "name",
    ["S3", "S5", "NN", "WE", "GORENSTEIN_NO", "NONSIMPLICIAL"],
)
@pytest.mark.parametrize("exact", [False, True])
def test_scan_reads_layers_off_facet_products(name, exact, monkeypatch):
    verts = getattr(conftest, name + "_VERTICES")
    box = oracle.default_box(verts)
    if exact:
        # Python integers, as for boxes whose products pass int64
        monkeypatch.setattr(oracle, "_dtype_for", lambda pre, box: object)
        box = oracle.box_for(verts, 9)
    assert oracle.scan_semigroup(verts, box) == _scan_layer_by_layer(verts, box)


# Set-based references: the scans as they ran before the oracle held its
# box as one boolean cube, point by point on `_scan_layer_by_layer`.


def _reference_gaps(source, box):
    cone = oracle._prepare(source).cone
    present = _scan_layer_by_layer(source, box)
    return {
        p
        for p in product(range(box.max_coord + 1), repeat=3)
        if p not in present and all(oracle._dot(n, p) >= 0 for n in cone)
    }


def _reference_msg(source, box):
    # p is kept unless p - g is present for a g kept before it
    present = _scan_layer_by_layer(source, box)
    gens = []
    for p in sorted(present, key=sum):
        if p != (0, 0, 0) and not any(
            oracle._sub(p, g) in present for g in gens
        ):
            gens.append(p)
    return set(gens)


def _reference_apery(source, box):
    gens = oracle.ray_generators(source, box)
    present = _scan_layer_by_layer(source, box)
    return {
        p
        for p in present
        if all(oracle._sub(p, g) not in present for g in gens)
    }


def _check_cube(verts, box):
    cube = oracle.Cube(verts, box)
    assert oracle._points(cube.present) == _scan_layer_by_layer(verts, box)
    assert oracle._points(cube.gaps()) == _reference_gaps(verts, box)
    assert oracle._points(cube.generators()) == _reference_msg(verts, box)
    try:
        expect = _reference_apery(verts, box)
    except BoxTooSmall:
        # a ray generator lies past the box
        with pytest.raises(BoxTooSmall):
            cube.apery()
    else:
        assert oracle._points(cube.apery()) == expect


@pytest.mark.parametrize(
    "name",
    ["S3", "S5", "NN", "WE", "GORENSTEIN_NO", "NONSIMPLICIAL", "CM_YES"],
)
def test_cube_matches_set_references_on_fixtures(name):
    verts = CM_YES_VERTICES if name == "CM_YES" else getattr(
        conftest, name + "_VERTICES"
    )
    _check_cube(verts, oracle.default_box(verts))


def test_cube_matches_set_references_on_drawn_bodies():
    # a poly with three vertices and no segment chord is flat
    checked = 0
    for seed in range(100):
        for verts in (
            instancegen.tetra_vertices(seed),
            instancegen.poly_vertices(seed),
        ):
            try:
                box = oracle.box_for(verts, 14)
            except DegenerateInput:
                continue
            _check_cube(verts, box)
            checked += 1
    assert checked == 194


def test_cone_test_stays_exact_past_int64():
    # n.p reaches 9 * (A + 1) > 2^63 in this box, so int64 would wrap
    verts = WIDE_NORMALS_VERTICES
    h = build(verts)
    box = oracle.box_for(verts, 9)
    assert max(map(abs, sum(oracle._prepare(verts).cone, ()))) * 9 >= 2**63
    cube = oracle.Cube(verts, box)
    gaps = cube.gaps()
    for p in product(range(10), repeat=3):
        member = oracle.point_member(verts, p)
        assert cube.present[p] == member
        assert gaps[p] == (in_cone_int(h, p) and not member), p
    assert gaps[1:, 1:, 5:].any()


def test_oracle_matches_main_membership(s3, we, pyramid):
    # membership with its least dilation, and the cone
    for h in (s3, we, pyramid, *map(build, _DRAWN)):
        box = oracle.box_for(h, 12)
        present = oracle.scan_semigroup(h, box)
        cone = present | oracle.scan_gaps(h, box)
        layers = [oracle.scan_layer(h, j, box) for j in range(box.max_layer + 1)]
        for p in product(range(13), repeat=3):
            ok, k = member_int(h, p)
            assert (p in present) == ok
            assert (p in cone) == in_cone_int(h, p)
            if ok:
                assert k == next(j for j, lay in enumerate(layers) if p in lay)


def test_oracle_imports_only_errors_from_the_package():
    # The oracle must not share code with what it checks: from polysgp
    # it may import the exception types and nothing else.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "polysgp" + ("." + base if base else "")
            if base == "polysgp":
                modules.update(base + "." + a.name for a in node.names)
            else:
                modules.add(base)
    ours = {m for m in modules if m.split(".")[0] == "polysgp"}
    assert ours == {"polysgp.errors"}
