"""The array layer kernel: shells, membership and the int64/object rule."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import instancegen
from polysgp import build, geometry
from polysgp.decomposition import gap_points, gap_region
from polysgp.errors import PolysgpError
from polysgp.rings import is_buchsbaum, is_cohen_macaulay, is_gorenstein
from polysgp.geometry import (
    dilate,
    integer_points,
    kernel_dtype,
    shell_integer_points,
)
from polysgp.semigroup import (
    _dilation_rows,
    apery_intersection,
    closure,
    member_int,
    minimal_generators,
    semigroup_shells,
)

BODIES = ("s3", "s5", "nn", "we", "gorenstein_no", "pyramid")


def _reference_shells(h, last):
    """Shell s as the integer points of the s-fold dilation of the span
    hull minus those of the (s-1)-fold one, with member_int on each."""
    inner = {(0, 0, 0)}
    out = {}
    for s in range(1, last + 1):
        outer = set(integer_points(dilate(h.span_hull, s)))
        out[s] = {(p, member_int(h, p)[0]) for p in outer - inner}
        inner = outer
    return out


def _kernel_shells(h, last):
    out = {s: set() for s in range(1, last + 1)}
    for s, p, ok in semigroup_shells(h, 1, last):
        assert type(ok) is bool and all(type(c) is int for c in p)
        out[s].add((p, ok))
    return out


@pytest.mark.parametrize("name", BODIES)
def test_shells_match_dilation_reference(name, request):
    h = request.getfixturevalue(name)
    assert _kernel_shells(h, 4) == _reference_shells(h, 4)


@given(
    st.sampled_from(("poly", "tetra")), st.integers(min_value=0, max_value=10**6)
)
@settings(max_examples=30, deadline=None)
def test_shells_match_dilation_reference_on_drawn_bodies(kind, seed):
    gen = instancegen.poly_vertices if kind == "poly" else instancegen.tetra_vertices
    try:
        h = build(gen(seed))
    except PolysgpError:
        assume(False)
    assert _kernel_shells(h, 3) == _reference_shells(h, 3)


def test_kernel_dtype_picks_object_past_the_limit():
    # (2^60 + 2) * 4 > 2^62: a product could leave the safe range
    assert kernel_dtype([(2**60, 1, 1, 0)], 4) is object
    assert kernel_dtype([(2**58, 1, 1, 0)], 4) is np.int64
    # the offset counts with the dilation factor
    assert kernel_dtype([(1, 0, 0, -(2**40))], 1, 2**22) is object
    assert kernel_dtype([(1, 0, 0, -(2**40))], 1, 2**20) is np.int64
    assert kernel_dtype([(1, 0, 0, 2**62)], 0) is object


def test_huge_facet_coefficients_take_the_object_path():
    # a denominator near 2^62 gives facet coefficients beyond int64
    d = 2**62 + 1
    corner = (F(3 * d + 1, d), F(2 * d + 7, d), F(5 * d + 3, d))
    h = build([(1, 0, 0), (0, 1, 0), (0, 0, 1), corner])
    assert shell_integer_points(h.span_hull, 2).dtype == object
    assert _kernel_shells(h, 3) == _reference_shells(h, 3)
    # the origin, a member at dilation 0, is the callers' rule
    grid = list(product(range(5), repeat=3))[1:]
    ok, lo = _dilation_rows(h, np.array(grid, dtype=np.int64))
    assert lo.dtype == object
    got = [(m, k if m else None) for m, k in zip(ok.tolist(), lo.tolist())]
    assert got == [member_int(h, p) for p in grid]


def _results(verts):
    """Every scan-backed result and every decider verdict, exceptions
    included: the scans on one fresh handle, the deciders on another,
    so that each decider runs its own window, Apery set and staircase.
    The handle keeps its scan, closure and CM verdict, so a second run
    on one handle would only read them back.  The layer budget keeps the
    Buchsbaum body's object-dtype run short; the partial results compare
    just as well."""
    h, d = build(verts), build(verts)
    out = []
    for run in (
        lambda: minimal_generators(h, budget_layers=12),
        lambda: apery_intersection(h, budget_layers=12),
        lambda: closure(h, budget_layers=12),
        lambda: gap_points(h, gap_region(h), extra_periods=1),
        lambda: is_cohen_macaulay(d),
        lambda: is_gorenstein(d, budget_layers=12),
        lambda: is_buchsbaum(d, budget_layers=12),
    ):
        try:
            out.append(run())
        except PolysgpError as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("name", BODIES)
def test_object_path_matches_int64(name, request, monkeypatch):
    verts = request.getfixturevalue(name).body.vertices
    expected = _results(verts)
    monkeypatch.setattr(geometry, "_INT64_LIMIT", 0)
    assert shell_integer_points(build(verts).span_hull, 2).dtype == object
    assert _results(verts) == expected
