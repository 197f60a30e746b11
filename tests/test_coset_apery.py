"""The Apery set of a Cohen-Macaulay three-ray cone read off the cosets
of Z^3 / ZE (`semigroup._coset_apery`), against the shell scan
(`semigroup._apery_scan`) it replaces there, and the one record per
handle that `semigroup._ray_apery` answers every budget from."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instancegen
from conftest import (
    GORENSTEIN_NO_VERTICES,
    NN_VERTICES,
    S3_VERTICES,
    S5_VERTICES,
    WE_VERTICES,
)
from polysgp import build, semigroup
from polysgp.errors import AssumptionViolated, PolysgpError
from polysgp.geometry import _cross, _dot
from polysgp.rings import (
    PropertyVerdict,
    build_family,
    is_cohen_macaulay,
    is_gorenstein,
)
from polysgp.semigroup import (
    _apery_scan,
    _ask_cm,
    _coset_apery,
    _ray_apery,
    closure,
    member_int,
)

# The Cohen-Macaulay bodies among tetra/poly seeds 0-99 with overlap
# level at most 25 (every other seed is non-simplicial, not
# Cohen-Macaulay, past that level, or rejected by `build`).
CM_TETRA_SEEDS = [
    0, 1, 2, 3, 5, 6, 10, 11, 13, 14, 16, 18, 20, 21, 23, 24, 28, 38, 42,
    43, 53, 57, 59, 61, 62, 65, 71, 73, 75, 77, 83, 84, 85, 87, 93, 97, 98,
]
CM_POLY_SEEDS = [
    4, 5, 6, 10, 11, 20, 22, 27, 31, 34, 35, 38, 40, 42, 44, 47, 48, 50,
    61, 64, 66, 73, 80, 82, 83, 85, 92, 93, 95, 96, 97, 98,
]

_BODIES = {
    "s3": lambda: build(S3_VERTICES),
    "nn": lambda: build(NN_VERTICES),
    "gorenstein_no": lambda: build(GORENSTEIN_NO_VERTICES),
    **{"family%d" % k: (lambda k=k: build_family(k)) for k in range(2, 9)},
    **{
        "tetra%d" % s: (lambda s=s: build(instancegen.tetra_vertices(s)))
        for s in CM_TETRA_SEEDS
    },
    **{
        "poly%d" % s: (lambda s=s: build(instancegen.poly_vertices(s)))
        for s in CM_POLY_SEEDS
    },
}


def _gens(h):
    return tuple(g.int_tuple() for g in h.ray_generators)


def _answer(h, record, budget):
    """What `_ray_apery` answers at `budget` off `record`: the elements,
    the `complete` flag and the layer count."""
    h._apery = record
    return _ray_apery(h, budget)[1:]


# Certifying layer count up to which the scan runs at every budget; a
# deeper scan runs once, and its shells 1..b stand for budget b.
_EVERY_BUDGET = 30


@pytest.mark.parametrize("name", sorted(_BODIES))
def test_coset_apery_matches_scan_at_every_budget(name, monkeypatch):
    h = _BODIES[name]()
    assert is_cohen_macaulay(h).verdict == "yes" and h.overlap <= 25
    gens = _gens(h)
    cosets = _coset_apery(h, gens)
    top = _answer(h, cosets, 400)
    assert top[1] and top == _answer(h, cosets, top[2])
    if top[2] > _EVERY_BUDGET:
        assert top == _answer(h, _apery_scan(h, gens, 400), 400)
        found, _, last = top
        shell = [member_int(h, p)[1] for p in found]
        assert shell == sorted(shell) and shell[-1] < last
        assert cosets.shells == tuple(shell)
        for budget in range(1, last):
            want = tuple(p for p, s in zip(found, shell) if s <= budget)
            assert _answer(h, cosets, budget) == (want, False, budget)
        return
    # the scan at budget b reads shells 1..b, the same at every budget,
    # so each shell is enumerated once and replayed for the larger ones
    shells, shell = {}, semigroup._shell

    def replay(h, s):
        if s not in shells:
            shells[s] = list(shell(h, s))
        return iter(shells[s])

    monkeypatch.setattr(semigroup, "_shell", replay)
    for budget in range(1, top[2] + 1):
        got = _answer(h, cosets, budget)
        assert got == _answer(h, _apery_scan(h, gens, budget), budget), budget
    assert got == top


@pytest.mark.parametrize(
    "name", ["s3", "gorenstein_no", "family2", "family5", "tetra0", "poly96"]
)
@pytest.mark.parametrize("budget", [1, 400])
def test_is_gorenstein_unchanged_on_fresh_handles(name, budget, monkeypatch):
    fast = is_gorenstein(_BODIES[name](), budget_layers=budget)
    # the scan again, whatever verdict the handle keeps
    monkeypatch.setattr(
        semigroup, "_coset_apery", lambda h, gens: _apery_scan(h, gens, budget)
    )
    assert is_gorenstein(_BODIES[name](), budget_layers=budget) == fast
    if budget == 1:
        assert fast.verdict == "inconclusive"


def _count_apery_calls(monkeypatch):
    calls = {"_coset_apery": 0, "_apery_scan": 0}
    for fn in calls:

        def counted(*args, _fn=getattr(semigroup, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(semigroup, fn, counted)
    return calls


@pytest.mark.parametrize(
    "name", ["s3", "gorenstein_no", "family3", "tetra1", "poly4"]
)
def test_ray_apery_takes_the_cosets_only_after_a_yes(name, monkeypatch):
    # `_ray_apery` asks for the verdict before it makes a record: a
    # fresh Cohen-Macaulay handle keeps the "yes" and reads the cosets,
    # which answer as the complete scan does
    calls = _count_apery_calls(monkeypatch)
    h = _BODIES[name]()
    got = _ray_apery(h, 399)
    assert h._cm.verdict == "yes" and got[2]
    assert calls == {"_coset_apery": 1, "_apery_scan": 0}
    assert got[1:] == _answer(h, _apery_scan(h, _gens(h), 400), 399)


def test_one_coset_run_answers_every_budget(monkeypatch):
    calls = _count_apery_calls(monkeypatch)
    h = _BODIES["tetra1"]()
    is_cohen_macaulay(h)
    top = _ray_apery(h, 400)
    stop = top[3]
    for budget in [*range(1, stop + 1), 400]:
        got = _ray_apery(h, budget)
        assert got[2] == (budget >= stop) and got[3] == min(budget, stop)
    assert got == top
    assert calls == {"_coset_apery": 1, "_apery_scan": 0}


def test_one_complete_scan_answers_every_budget(monkeypatch):
    # we is not Cohen-Macaulay, so its record is a scan
    calls = _count_apery_calls(monkeypatch)
    h = build(WE_VERTICES)
    top = _ray_apery(h, 400)
    assert h._cm.verdict == "no"
    assert top[2] and h._apery.stop == top[3]
    for budget in [*range(top[3], 0, -1), 400]:
        assert _ray_apery(h, budget)[3] == min(budget, top[3])
    assert calls == {"_coset_apery": 0, "_apery_scan": 1}


@pytest.mark.parametrize("cm_first", [False, True])
def test_a_cut_scan_is_run_again_for_a_larger_budget(cm_first, monkeypatch):
    # a scan of we (not Cohen-Macaulay) cut at 3 answers budgets up to
    # 3, and a larger budget makes the record again; asking for the
    # verdict before the first record changes nothing, since making a
    # record asks for it anyway
    calls = _count_apery_calls(monkeypatch)
    h = build(WE_VERTICES)
    if cm_first:
        is_cohen_macaulay(h)
    cut = _ray_apery(h, 3)
    assert not cut[2] and h._apery.stop is None and h._apery.read == 3
    assert _ray_apery(h, 2) == _ray_apery(build(WE_VERTICES), 2)
    assert calls == {"_coset_apery": 0, "_apery_scan": 2}
    full = _ray_apery(h, 400)
    assert full == _ray_apery(build(WE_VERTICES), 400)
    assert full[1][: len(cut[1])] == cut[1]
    assert calls == {"_coset_apery": 0, "_apery_scan": 4}


@pytest.mark.parametrize(
    "name", ["s3", "gorenstein_no", "family3", "tetra1", "poly4"]
)
def test_closure_asks_first_and_reads_the_cosets(name, monkeypatch):
    calls = _count_apery_calls(monkeypatch)
    h = _BODIES[name]()
    assert closure(h).is_trivial()
    assert h._cm.verdict == "yes"
    assert calls == {"_coset_apery": 1, "_apery_scan": 0}


@pytest.mark.parametrize("verts", [S5_VERTICES, WE_VERTICES])
def test_closure_scans_after_a_no(verts, monkeypatch):
    calls = _count_apery_calls(monkeypatch)
    h = build(verts)
    closure(h)
    assert h._cm.verdict == "no"
    assert calls == {"_coset_apery": 0, "_apery_scan": 1}


def test_a_decider_that_raises_leaves_the_scan(monkeypatch):
    # the Cohen-Macaulay decider fails an invariant on poly seed 735
    # (the strict xfail below); asking keeps no verdict, and the Apery
    # set is scanned
    calls = _count_apery_calls(monkeypatch)
    h = build(instancegen.poly_vertices(735))
    assert not _ask_cm(h) and h._cm is None
    ray_gens, found, complete, scanned = _ray_apery(h, 3)
    assert not complete and scanned == 3
    assert calls == {"_coset_apery": 0, "_apery_scan": 1}


# Overlap level and ray-generator index past which a drawn body is
# skipped as too costly for the shell scan.
_DRAWN_KAPPA = 12
_DRAWN_INDEX = 5000


def _admitted(kind, seed):
    """The drawn body's vertices, handle and ray generators when it is a
    Cohen-Macaulay three-ray cone within the drawn bounds, else None."""
    verts = getattr(instancegen, kind + "_vertices")(seed)
    try:
        h = build(verts)
        if not (h.simplicial and h.overlap <= _DRAWN_KAPPA):
            return None
        gens = _gens(h)
        e1, e2, e3 = gens
        if abs(_dot(e1, _cross(e2, e3))) > _DRAWN_INDEX:
            return None
        if is_cohen_macaulay(h).verdict != "yes":
            return None
    except PolysgpError:
        return None
    return verts, h, gens


@given(
    st.sampled_from(["tetra", "poly"]),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_coset_apery_matches_scan_on_drawn_bodies(kind, seed):
    # the first admitted body from the drawn seed on, so that no draw
    # is filtered out
    while (drawn := _admitted(kind, seed)) is None:
        seed += 1
    verts, h, gens = drawn
    got, want = _coset_apery(h, gens), _apery_scan(h, gens, 400)
    assert got == want, "%s seed %d: %s" % (kind, seed, verts)


@pytest.mark.parametrize("verts", [S5_VERTICES, WE_VERTICES])
def test_wrong_cm_verdict_is_caught_by_the_cosets(verts):
    # neither body is Cohen-Macaulay, and some coset's least point is
    # no member, so a forced "yes" raises instead of answering
    h = build(verts)
    assert is_cohen_macaulay(build(verts)).verdict == "no"
    h._cm = PropertyVerdict("Cohen-Macaulay", "yes", None, "forced")
    with pytest.raises(AssumptionViolated, match="no member"):
        _ray_apery(h, 400)


@pytest.mark.xfail(strict=True, raises=AssumptionViolated)
def test_poly_seed_735_gets_a_cm_verdict():
    # the body lies flat on the cone facet of rays 0 and 1, where the
    # bridge model finds no edge parallel to the corner chord
    h = build(instancegen.poly_vertices(735))
    assert is_cohen_macaulay(h).verdict in ("yes", "no")
