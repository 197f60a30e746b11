"""The gap listing off one column-kernel pass over last*H
(`semigroup._gap_rows`), against the shell-by-shell listing it replaces:
the non-members of each dilation shell 1..last, concatenated and
lexsorted, and the closure's candidate loop over those shells."""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest

import instancegen
from conftest import (
    GORENSTEIN_NO_VERTICES,
    NN_VERTICES,
    NONSIMPLICIAL_VERTICES,
    S3_VERTICES,
    S5_CLOSURE_TETRA,
    S5_VERTICES,
    WE_VERTICES,
)
from polysgp import build
from polysgp.decomposition import gap_region, gap_rows
from polysgp.errors import PolysgpError, UnsupportedCase
from polysgp.semigroup import _closure_rows, _shell, closure, minimal_generators

# Every conftest body but the wide-normal one, whose listing is refused
# (tests/test_cli.py).
_CONFTEST = {
    "s3": S3_VERTICES,
    "s5": S5_VERTICES,
    "s5_closure": S5_CLOSURE_TETRA,
    "nn": NN_VERTICES,
    "we": WE_VERTICES,
    "gorenstein_no": GORENSTEIN_NO_VERTICES,
    "pyramid": NONSIMPLICIAL_VERTICES,
}

# The object-path body of tests/test_kernel.py: a denominator near 2^62
# gives facet coefficients beyond int64.
_D = 2**62 + 1
_HUGE = [
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (F(3 * _D + 1, _D), F(2 * _D + 7, _D), F(5 * _D + 3, _D)),
]


def _seed_bodies(count):
    for seed in range(count):
        yield instancegen.tetra_vertices(seed)
        yield instancegen.poly_vertices(seed)


def _shell_gaps(h, last):
    """The non-members of every block of shells 1..last, as (shell,
    rows) in lexicographic order within a shell."""
    for s in range(1, last + 1):
        for pts, ok in _shell(h, s):
            yield s, pts[~ok]


def _reference_gap_rows(h, region, extra_periods):
    maxh = max(region.periods.values(), default=1)
    bound = region.base_level + extra_periods * maxh + 1
    gaps = np.concatenate(
        [rows for _s, rows in _shell_gaps(h, bound)]
        or [np.empty((0, 3), dtype=np.int64)]
    )
    return gaps[np.lexsort((gaps[:, 2], gaps[:, 1], gaps[:, 0]))]


def _check_gap_rows(verts):
    """`gap_rows` at 0..2 extra periods against the reference, rows and
    dtype; returns the dtype."""
    h = build(verts)
    region = gap_region(h)
    for extra in range(3):
        got = gap_rows(h, region, extra)
        want = _reference_gap_rows(h, region, extra)
        assert got.dtype == want.dtype, extra
        assert got.tolist() == want.tolist(), extra
    return got.dtype


@pytest.mark.parametrize("name", sorted(_CONFTEST))
def test_gap_rows_match_the_shell_listing(name):
    _check_gap_rows(_CONFTEST[name])


def test_gap_rows_match_the_shell_listing_on_the_object_path():
    assert _check_gap_rows(_HUGE) == object


def test_gap_rows_match_the_shell_listing_on_seeds():
    checked = 0
    for verts in _seed_bodies(100):
        try:
            h = build(verts)
            if h.overlap > 12:
                continue
            gap_region(h)
        except PolysgpError:
            continue
        _check_gap_rows(verts)
        checked += 1
    assert checked > 100


def _reference_closure(h, budget_layers):
    """The closure's added points by the shell-by-shell candidate loop,
    or the UnsupportedCase message it raised."""
    kappa = max(1, h.overlap)
    msg = minimal_generators(h, budget_layers=budget_layers)
    gens = [g.int_tuple() for g in msg.generators]
    added = []
    for s, rows in _shell_gaps(h, kappa + h.period()):
        for g in gens:
            rows = rows[_closure_rows(h, rows + np.array(g, dtype=rows.dtype))]
        if len(rows) and s > kappa:
            return "closure point %s beyond the overlap level %d" % (
                tuple(rows[0].tolist()),
                kappa,
            )
        added.extend(map(tuple, rows.tolist()))
    return sorted(added)


def _closure_outcome(h, budget_layers):
    try:
        return [p.int_tuple() for p in closure(h, budget_layers).added_points]
    except UnsupportedCase as exc:
        return str(exc)


# A small layer budget keeps the Apery scans short: both sides filter
# by the same partial generating set, which only lets more points
# through to the offender check.
_BUDGET = 12


def _check_forced_overlaps(verts):
    """Closure with the overlap level forced to each value below the
    true one (at most 4), against the reference on the same handle,
    which keeps the one Apery scan both read; returns how many
    raised."""
    raised = 0
    for forced in range(min(build(verts).overlap, 4)):
        h = build(verts)
        h._overlap = forced
        want = _reference_closure(h, _BUDGET)
        got = _closure_outcome(h, _BUDGET)
        assert got == want, forced
        raised += isinstance(got, str)
    return raised


@pytest.mark.parametrize(
    "name", sorted(n for n in _CONFTEST if n != "pyramid")
)
def test_closure_offender_matches_the_shell_loop(name):
    _check_forced_overlaps(_CONFTEST[name])


def test_closure_offender_matches_the_shell_loop_on_seeds():
    # the three-ray bodies of kappa <= 12; those of period 60 take the
    # shell loop seconds each and are left out
    raised = 0
    for verts in _seed_bodies(40):
        try:
            h = build(verts)
            if not h.simplicial or h.overlap > 12 or h.period() > 30:
                continue
        except PolysgpError:
            continue
        raised += _check_forced_overlaps(verts)
    assert raised > 0
