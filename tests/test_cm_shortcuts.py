"""The shortcuts a "yes" Cohen-Macaulay verdict lets the structure
chain take, against the work they skip: the trivial closure against the
closure's candidate loop over the shells (`_reference_closure`), and
`is_buchsbaum` against the closure decided by `rings._decide` with no
verdict consulted."""

from __future__ import annotations

import pytest

from polysgp import build
from polysgp.errors import PolysgpError
from polysgp.rings import (
    PropertyVerdict,
    _closure_ray_generators,
    _decide,
    is_buchsbaum,
    is_cohen_macaulay,
)
from polysgp.semigroup import _order_sieve, closure, minimal_generators
from test_gap_listing import _CONFTEST, _reference_closure, _seed_bodies


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PolysgpError as exc:
        return (type(exc), str(exc))


def _direct_buchsbaum(h, budget_layers, reference):
    """Buchsbaumness of the closure whose added points (or offender
    message) `_reference_closure` gave, with `is_buchsbaum`'s
    unsupported and inconclusive answers and `_decide` on the closure's
    ray generators otherwise."""
    if isinstance(reference, str):
        return PropertyVerdict(
            "Buchsbaum", "unsupported", None, "closure computation: %s" % reference
        )
    added = frozenset(reference)
    diag = {"membership": "closure", "closure_added_points": len(added)}
    if not minimal_generators(h, budget_layers).certified:
        return PropertyVerdict(
            "Buchsbaum",
            "inconclusive",
            None,
            "closure generator enumeration hit its layer budget",
            diag,
        )
    gens = _closure_ray_generators(h, added)
    diag["generators_recomputed"] = gens != tuple(h.ray_generators)
    return _decide(h, gens, "Buchsbaum", diag, added)


def _check_body(verts, budget_layers):
    """`is_buchsbaum` on a fresh handle against the direct decision, and
    on a Cohen-Macaulay body the closure against the candidate loop;
    returns whether the body is Cohen-Macaulay."""
    h = build(verts)
    reference = _outcome(_reference_closure, h, budget_layers)
    want = _outcome(_direct_buchsbaum, h, budget_layers, reference)
    assert _outcome(is_buchsbaum, build(verts), budget_layers) == want
    if _outcome(lambda: is_cohen_macaulay(h).verdict) != "yes":
        return False
    cl = closure(build(verts), budget_layers)
    assert [p.int_tuple() for p in cl.added_points] == reference == []
    gens = minimal_generators(h, budget_layers).int_tuples()
    assert cl.gens_of_closure.int_tuples() == sorted(_order_sieve(h, gens))
    return True


@pytest.mark.parametrize(
    "name", sorted(n for n in _CONFTEST if n != "pyramid")
)
@pytest.mark.parametrize("budget", [1, 400])
def test_shortcuts_match_the_direct_chain(name, budget):
    _check_body(_CONFTEST[name], budget)


def test_shortcuts_match_the_direct_chain_on_seeds():
    # the three-ray bodies of kappa <= 12 among seeds 0-59; those of
    # period 60 take the shell loop seconds each and are left out
    checked = cm = 0
    for verts in _seed_bodies(60):
        try:
            h = build(verts)
            if not h.simplicial or h.overlap > 12 or h.period() > 30:
                continue
        except PolysgpError:
            continue
        cm += _check_body(verts, 400)
        checked += 1
    assert checked > 50 and cm > 30
