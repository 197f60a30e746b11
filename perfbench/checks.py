"""Turning results into comparable summaries, and checking them.

A summary is a JSON-shaped value.  For the frozen corpus it is compared
with the committed golden; for a fresh body it is cross-checked against
`polysgp.oracle`, which shares no code with what it checks.  Both
happen outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from polysgp import oracle
from polysgp.errors import NotSimplicial, UnsupportedCase

# Exceptions a query may raise by design; anything else is a failure.
EXPECTED_ERRORS = (UnsupportedCase, NotSimplicial)


def _pts(points) -> list:
    return sorted(list(p.int_tuple()) if hasattr(p, "int_tuple") else list(p)
                  for p in points)


def _plain(value):
    """Diagnostics as JSON values: tuples become lists."""
    return json.loads(json.dumps(value, default=lambda p: list(p.int_tuple())))


def summarize(op: str, result) -> dict:
    """The part of a result the goldens pin down."""
    if isinstance(result, BaseException):
        return {"raises": type(result).__name__}
    if op == "build":
        return {
            "rays": _pts(result.rays),
            "simplicial": result.simplicial,
            "ray_generators": None if result.ray_generators is None
            else [list(g.int_tuple()) for g in result.ray_generators],
        }
    if op == "minimal_generators":
        return {"certified": result.certified,
                "generators": _pts(result.generators)}
    if op == "apery_intersection":
        return {"complete": result.complete,
                "elements": _pts(result.elements),
                "maximal": _pts(result.maximal_elements)}
    if op == "closure":
        return {"added": _pts(result.added_points),
                "certified": result.gens_of_closure.certified,
                "generators": _pts(result.gens_of_closure.generators)}
    if op.startswith("is_"):
        w = result.witness
        return {
            "verdict": result.verdict,
            "case": result.case_used,
            "witness": None if w is None
            else [list(w.point.int_tuple()), list(w.indices)],
            "diagnostics": _plain(result.diagnostics),
        }
    # a CLI invocation: (exit code, stdout text)
    code, out = result
    data = out.encode()
    return {"exit": code, "stdout_bytes": len(data),
            "stdout_sha256": hashlib.sha256(data).hexdigest()}


# ---------------------------------------------------------------------------
# oracle cross-checks: each returns None when the summary is confirmed


def _box(verts, max_coord: int) -> oracle.Box:
    return oracle.box_for(verts, max(1, max_coord))


def _top(verts) -> int:
    return int(max(max(v) for v in verts)) + 1


def _max_coord(points) -> int:
    return max((max(p) for p in points), default=1)


def _members(verts, max_coord: int) -> set:
    """Semigroup points of the box [0, max_coord]^3, by the oracle."""
    return oracle.scan_semigroup(verts, _box(verts, max_coord))


def _refuters(member, gens, gaps) -> list:
    """Gaps with at least two ray-generator translates inside."""
    out = []
    for q in gaps:
        hits = sum(member((q[0] + g[0], q[1] + g[1], q[2] + g[2])) for g in gens)
        if hits >= 2:
            out.append(q)
    return out


def _ray_gens(verts, member):
    """Least member on each primitive extremal ray."""
    gens = []
    for d in oracle.cone_rays(verts):
        k = 1
        while not member((k * d[0], k * d[1], k * d[2])):
            k += 1
        gens.append((k * d[0], k * d[1], k * d[2]))
    return gens


def _plain_gens(verts):
    return _ray_gens(verts, lambda q: oracle.point_member(verts, q))


def _check_verdict(verts, s: dict, added: frozenset = frozenset()) -> Optional[str]:
    """A yes must leave no refuting gap in a box three body-widths
    wide; a no must carry a witness that replays, or (Gorenstein) more
    than one maximal Apery element."""
    v = s["verdict"]
    if v == "unsupported":
        return None
    if v not in ("yes", "no"):
        return "verdict %r" % v

    def slow_member(q):
        return tuple(q) in added or oracle.point_member(verts, q)

    gens = _ray_gens(verts, slow_member)
    if s["witness"] is not None:
        if v != "no":
            return "witness on a yes verdict"
        p = tuple(s["witness"][0])
        if slow_member(p) or not _refuters(slow_member, gens, [p]):
            return "witness %s does not replay" % (p,)
        return None
    apery_max = s["diagnostics"].get("apery_maximal")
    if apery_max is not None:
        top = _max_coord(list(apery_max) + _plain_gens(verts))
        elems = oracle.naive_apery(verts, _box(verts, top))
        present = _members(verts, top)
        maximal = [e for e in elems if not any(
            f != e and (f[0] - e[0], f[1] - e[1], f[2] - e[2]) in present
            for f in elems)]
        if sorted(maximal) != sorted(tuple(m) for m in apery_max):
            return "maximal Apery elements differ from the oracle's"
        if len(elems) != s["diagnostics"]["apery_elements"]:
            return "Apery element count differs from the oracle's"
        if v == "no" and len(maximal) == 1:
            return "no without witness but a unique maximal element"
        if v == "yes" and len(maximal) != 1:
            return "yes with %d maximal elements" % len(maximal)
    if v == "yes":
        reach = 3 * _top(verts)
        present = _members(verts, reach + _max_coord(gens)) | set(added)
        gaps = sorted(oracle.scan_gaps(verts, _box(verts, reach)) - added)
        bad = _refuters(present.__contains__, gens, gaps)
        if bad:
            return "oracle refutes the yes at %s" % (bad[0],)
        return None
    if apery_max is None:
        return "no verdict without a witness"
    return None


def oracle_check(op: str, s: dict, verts, related: dict) -> Optional[str]:
    """Cross-check one summary of a body with no golden.

    `related` holds the summaries of the body's earlier queries in the
    same pass (the closure for is_buchsbaum)."""
    if "raises" in s:
        expected = {e.__name__ for e in EXPECTED_ERRORS}
        return None if s["raises"] in expected else "raised %s" % s["raises"]
    if op == "build":
        if sorted(tuple(r) for r in s["rays"]) != sorted(oracle.cone_rays(verts)):
            return "extremal rays differ from the oracle's"
        return None
    if op == "minimal_generators":
        if not s["certified"]:
            return "uncertified"
        gens = {tuple(g) for g in s["generators"]}
        reach = max(_max_coord(gens), 2 * _top(verts))
        naive = oracle.naive_msg(verts, _box(verts, reach))
        return None if naive == gens else "generators differ from the oracle's"
    if op == "apery_intersection":
        if not s["complete"]:
            return "incomplete"
        elems = {tuple(e) for e in s["elements"]}
        reach = max(_max_coord(list(elems) + _plain_gens(verts)),
                    2 * _top(verts))
        naive = oracle.naive_apery(verts, _box(verts, reach))
        return None if naive == elems else "Apery set differs from the oracle's"
    if op == "closure":
        if not s["certified"]:
            return "uncertified"
        added = {tuple(p) for p in s["added"]}
        box = _box(verts, max(_max_coord(added), _top(verts)))
        msg = related["minimal_generators"]["generators"]
        naive_gens = oracle.naive_msg(verts, _box(verts, _max_coord(msg)))
        present = _members(verts, box.max_coord + _max_coord(naive_gens))
        expect = {q for q in oracle.scan_gaps(verts, box) if all(
            (q[0] + g[0], q[1] + g[1], q[2] + g[2]) in present
            for g in naive_gens)}
        return None if expect == added else "closure points differ from the oracle's"
    if op == "is_buchsbaum":
        cl = related.get("closure", {})
        added = frozenset(tuple(p) for p in cl.get("added", ()))
        return _check_verdict(verts, s, added)
    if op.startswith("is_"):
        return _check_verdict(verts, s)
    return None


def cli_check(argv: tuple, code: int, out: str, verts, structured) -> Optional[str]:
    """Cross-check one CLI invocation on a body with no golden.

    `structured` is the library verdict for is-cm and is-gorenstein
    (summarized), run outside the timed region."""
    if code != 0:
        return "exit code %d" % code
    lines = out.splitlines()
    cmd = argv[0]
    if cmd == "gaps" and "--format" in argv:
        rec = json.loads(out)
        pts = {tuple(p) for p in rec["points"]}
        if rec["count"] != len(pts):
            return "count does not match the points"
        gaps = oracle.scan_gaps(verts, _box(verts, _max_coord(pts) + 1))
        return None if pts <= gaps else "a listed point is not a gap by the oracle"
    if cmd == "gaps":
        n = int(next(l for l in lines if l.startswith("gap points:")).split(":")[1])
        listed = sum(1 for l in lines if l.startswith("  "))
        return None if n == listed else "gap count does not match the listing"
    if cmd in ("is-cm", "is-gorenstein"):
        verdict = next(l for l in lines if l.startswith("verdict:")).split(": ")[1]
        if verdict != structured["verdict"]:
            return "CLI verdict differs from the library's"
        return _check_verdict(verts, structured)
    if cmd == "msg":
        return None if any(l.startswith("oracle: ok") for l in lines) \
            else "msg --oracle reports a mismatch"
    if cmd == "oracle-check":
        last = lines[-1] if lines else "no output"
        return None if last == "result: ok" else "oracle-check: %s" % last
    return None
