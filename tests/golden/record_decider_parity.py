"""Record tests/golden/decider_parity.json: what the slab decider derives
on a fixed set of bodies, field by field.

    PYTHONPATH=src python3 tests/golden/record_decider_parity.py [--force]

The bodies are the conftest bodies, the Gorenstein family k = 2..8 and
the instancegen tetra and poly seeds 0-99.  A seed whose
`is_cohen_macaulay` takes more than `SECONDS` on a fresh handle when
the golden is recorded is left out and listed under "skipped".  Per
body the golden holds the vertex classification, the overlap level,
every ray's chord and the ray generators, the base-level corner slabs
and bridges, the separation level, the length and sha256 of the decider
window and the Cohen-Macaulay and Gorenstein verdicts; an entry point
that raises records "<ErrorType>: <message>" instead.  Every value is an
exact string, so `test_decider_parity` compares them with ==.

An existing golden is kept unless --force is given: it is the reference
a change must reproduce, not something to regenerate after it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TESTS = HERE.parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import conftest  # noqa: E402
import instancegen  # noqa: E402

from polysgp import build  # noqa: E402
from polysgp.decomposition import _separation, slabs  # noqa: E402
from polysgp.errors import PolysgpError  # noqa: E402
from polysgp.geometry import _stack  # noqa: E402
from polysgp.rings import (  # noqa: E402
    _corner_window,
    gorenstein_family,
    is_cohen_macaulay,
    is_gorenstein,
)

GOLDEN = HERE / "decider_parity.json"
SEEDS = range(100)
SECONDS = 2.0

CONFTEST = (
    "S3_VERTICES",
    "S5_VERTICES",
    "S5_CLOSURE_TETRA",
    "NN_VERTICES",
    "WE_VERTICES",
    "GORENSTEIN_NO_VERTICES",
    "NONSIMPLICIAL_VERTICES",
)


def candidate_bodies() -> list[tuple[str, list]]:
    out = [(name, getattr(conftest, name)) for name in CONFTEST]
    out += [("family-%d" % k, gorenstein_family(k)) for k in range(2, 9)]
    for kind in ("tetra", "poly"):
        make = getattr(instancegen, "%s_vertices" % kind)
        out += [("%s-%d" % (kind, s), make(s)) for s in SEEDS]
    return out


def _attempt(fn):
    """fn() or, when it raises a package error, its type and text."""
    try:
        return fn()
    except PolysgpError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _verdict(v) -> dict:
    return {
        "verdict": v.verdict,
        "case_used": v.case_used,
        "witness": None
        if v.witness is None
        else [repr(v.witness.point), list(v.witness.indices)],
        "diagnostics": {k: repr(x) for k, x in v.diagnostics.items()},
    }


def _slabs(h, k) -> dict:
    ss = slabs(h, k)
    return {
        "corner": [
            [c.ray, c.level, [repr(p) for p in c.apex_pair], [repr(p) for p in c.fan]]
            for c in ss.corner
        ],
        "bridge": [
            [b.ray, b.next_ray, b.level, [[repr(p) for p in t] for t in b.triangles]]
            for b in ss.bridge
        ],
    }


def _window(h) -> dict:
    sep, templates = _separation(h)
    rows = sorted(_stack(_corner_window(h, sep, templates)).tolist())
    digest = hashlib.sha256(repr(rows).encode("ascii")).hexdigest()
    return {"separation": sep, "rows": len(rows), "sha256": digest}


def record_body(verts) -> dict:
    """Every field of the golden for one body."""
    h = _attempt(lambda: build(verts))
    if isinstance(h, str):
        return {"build": h}
    out: dict = {
        "rays": [repr(r) for r in h.rays],
        "chords": [[c.kind, str(c.lo), str(c.hi)] for c in h.ray_data],
        "ray_generators": None
        if h.ray_generators is None
        else [repr(g) for g in h.ray_generators],
    }
    cls = _attempt(lambda: h.classification)
    out["classification"] = cls if isinstance(cls, str) else [
        list(cls.point_extremal),
        list(cls.entry_extremal),
        list(cls.exit_extremal),
        list(cls.entry_inner),
        list(cls.exit_inner),
    ]
    out["overlap"] = _attempt(lambda: h.overlap)
    out["slabs"] = _attempt(lambda: _slabs(h, max(1, h.overlap)))
    out["window"] = _attempt(lambda: _window(h))
    out["cohen_macaulay"] = _attempt(lambda: _verdict(is_cohen_macaulay(h)))
    out["gorenstein"] = _attempt(lambda: _verdict(is_gorenstein(h)))
    return out


def main(argv: list[str]) -> int:
    if GOLDEN.exists() and "--force" not in argv:
        print("%s exists; pass --force to overwrite it" % GOLDEN, file=sys.stderr)
        return 1
    bodies: dict = {}
    skipped: list[str] = []
    for name, verts in candidate_bodies():
        if name.startswith(("tetra-", "poly-")):
            t0 = time.perf_counter()
            _attempt(lambda: is_cohen_macaulay(build(verts)))
            if time.perf_counter() - t0 > SECONDS:
                skipped.append(name)
                continue
        bodies[name] = record_body(verts)
        print(name, file=sys.stderr)
    # one body per line, so a diff of the golden names the bodies
    lines = ",\n".join(
        "%s: %s" % (json.dumps(name), json.dumps(body, sort_keys=True))
        for name, body in bodies.items()
    )
    GOLDEN.write_text(
        '{"seconds": %s, "skipped": %s,\n"bodies": {\n%s\n}}\n'
        % (json.dumps(SECONDS), json.dumps(skipped), lines)
    )
    print("%d bodies, %d skipped" % (len(bodies), len(skipped)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
