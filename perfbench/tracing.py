"""Spans around calls into each polysgp module, recorded from outside.

`Tracer.install` replaces each public function listed in `SPANNED` at
every name under which a polysgp module binds it (for example both
`polysgp.rings.member_int` and `polysgp.semigroup.member_int`), so
calls between modules go through the wrapper too.  Nothing under
`src/` changes; `uninstall` puts the originals back.

A span records its name, start, end, parent span and query id.  For a
generator only the time inside `next()` counts.  Self time is a span's
busy time minus the busy time of the spans it caused.  `member_int` and
`in_cone_int` are too hot for spans and are only counted.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import polysgp
from polysgp import cli, decomposition, geometry, oracle, rings, semigroup
from polysgp.errors import UnsupportedCase

MODULES = (polysgp, geometry, semigroup, decomposition, rings, oracle, cli)

SPANNED = {
    geometry: ("shell_integer_points", "dilate", "integer_points_in_hull",
               "minkowski_difference_contains_origin", "convex_hull"),
    semigroup: ("semigroup_shells", "minimal_generators",
                "apery_intersection", "closure", "build"),
    decomposition: ("classify", "overlap_level", "separation_level",
                    "corner_slab", "slab_integer_points", "gap_region",
                    "gap_points"),
    rings: ("is_cohen_macaulay", "is_gorenstein", "is_buchsbaum"),
    oracle: ("scan_semigroup", "scan_gaps", "naive_msg", "naive_apery"),
    cli: ("main", "parse_vertices"),
}
COUNTED = {semigroup: ("member_int", "in_cone_int")}
DECIDERS = ("rings.is_cohen_macaulay", "rings.is_gorenstein",
            "rings.is_buchsbaum")

# Every per-layer metric with its unit, in report order.
PER_LAYER = [
    ("geometry.shell_integer_points.points", "count"),
    ("geometry.shell_integer_points.self_s", "s"),
    ("geometry.dilate.calls", "count"),
    ("geometry.dilate.self_s", "s"),
    ("geometry.integer_points_in_hull.calls", "count"),
    ("geometry.integer_points_in_hull.points", "count"),
    ("geometry.integer_points_in_hull.self_s", "s"),
    ("geometry.minkowski_difference_contains_origin.calls", "count"),
    ("geometry.minkowski_difference_contains_origin.self_s", "s"),
    ("geometry.convex_hull.calls", "count"),
    ("geometry.convex_hull.self_s", "s"),
    ("semigroup.member_int.calls", "count"),
    ("semigroup.in_cone_int.calls", "count"),
    ("semigroup.semigroup_shells.points", "count"),
    ("semigroup.semigroup_shells.members", "count"),
    ("semigroup.semigroup_shells.member_ratio", "ratio"),
    ("semigroup.semigroup_shells.self_s", "s"),
    ("semigroup.minimal_generators.calls", "count"),
    ("semigroup.minimal_generators.calls_per_body", "count"),
    ("semigroup.minimal_generators.layers_scanned", "count"),
    ("semigroup.minimal_generators.generators", "count"),
    ("semigroup.minimal_generators.gen_yield", "ratio"),
    ("semigroup.minimal_generators.self_s", "s"),
    ("semigroup.apery_intersection.calls", "count"),
    ("semigroup.apery_intersection.elements", "count"),
    ("semigroup.apery_intersection.self_s", "s"),
    ("semigroup.closure.calls", "count"),
    ("semigroup.closure.added_points", "count"),
    ("semigroup.closure.self_s", "s"),
    ("semigroup.build.self_s", "s"),
    ("decomposition.classify.calls", "count"),
    ("decomposition.classify.self_s", "s"),
    ("decomposition.overlap_level.calls", "count"),
    ("decomposition.overlap_level.self_s", "s"),
    ("decomposition.separation_level.calls", "count"),
    ("decomposition.separation_level.unsupported", "count"),
    ("decomposition.separation_level.self_s", "s"),
    ("decomposition.corner_slab.calls", "count"),
    ("decomposition.corner_slab.self_s", "s"),
    ("decomposition.slab_integer_points.calls", "count"),
    ("decomposition.slab_integer_points.points", "count"),
    ("decomposition.slab_integer_points.self_s", "s"),
    ("decomposition.gap_region.self_s", "s"),
    ("decomposition.gap_points.points", "count"),
    ("decomposition.gap_points.self_s", "s"),
    ("rings.is_cohen_macaulay.self_s", "s"),
    ("rings.is_gorenstein.self_s", "s"),
    ("rings.is_buchsbaum.self_s", "s"),
    ("rings.region_points", "count"),
    ("rings.region_gaps", "count"),
    ("rings.scan_shells", "count"),
    ("rings.gap_share", "ratio"),
    ("rings.unsupported", "count"),
    ("rings.inconclusive", "count"),
    ("oracle.scan_semigroup.calls", "count"),
    ("oracle.scan_semigroup.box_points", "count"),
    ("oracle.scan_semigroup.self_s", "s"),
    ("oracle.scan_gaps.self_s", "s"),
    ("oracle.naive_msg.self_s", "s"),
    ("oracle.naive_apery.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.parse_vertices.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("bench.query.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
]


class Span:
    __slots__ = ("id", "name", "parent", "query", "start", "end", "busy",
                 "child", "counters")

    def __init__(self, sid, name, parent, query, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.query = query
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.counters = {}


def _box_points(args, kwargs):
    box = kwargs.get("box", args[1] if len(args) > 1 else None)
    if box is None:
        box = oracle.default_box(args[0])
    return (box.max_coord + 1) ** 3


def _result_counters(name, result, args, kwargs):
    """Work counts read off a call's result, outside its span."""
    if name in ("geometry.integer_points_in_hull",
                "decomposition.slab_integer_points",
                "decomposition.gap_points"):
        return {"points": len(result)}
    if name == "semigroup.minimal_generators":
        return {"layers_scanned": result.layers_scanned,
                "generators": len(result.generators)}
    if name == "semigroup.apery_intersection":
        return {"elements": len(result.elements)}
    if name == "semigroup.closure":
        return {"added_points": len(result.added_points)}
    if name == "oracle.scan_semigroup":
        return {"box_points": _box_points(args, kwargs)}
    if name in DECIDERS:
        d = result.diagnostics
        c = {k: d[k] for k in ("region_points", "region_gaps", "scan_shells")
             if k in d}
        c[result.verdict] = 1
        return c
    return {}


class Tracer:
    """Spans kept in memory; `dump` writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts = defaultdict(int)
        self.query = None
        self._saved = []

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        s = Span(len(self.spans), name, parent.id if parent else None,
                 self.query, time.perf_counter())
        self.spans.append(s)
        return s

    def begin_query(self, qid: str):
        self.query = qid
        root = self._open("bench.query")
        self.stack.append(root)
        return root

    def end_query(self, root):
        root.end = time.perf_counter()
        root.busy = root.end - root.start
        self.stack.pop()
        self.query = None

    def _wrap_call(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except UnsupportedCase:
                span.counters["unsupported"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1].child += span.busy
            span.counters.update(_result_counters(name, result, args, kwargs))
            return result

        return traced

    def _wrap_gen(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = None
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                if span is None:
                    span = tracer._open(name)
                    span.counters["points"] = 0
                    span.counters["members"] = 0
                consumer = tracer.stack[-1] if tracer.stack else None
                tracer.stack.append(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    tracer.stack.pop()
                    span.busy += t1 - t0
                    span.end = t1
                    if consumer is not None:
                        consumer.child += t1 - t0
                span.counters["points"] += 1
                if len(item) == 3 and item[2] is True:
                    span.counters["members"] += 1
                yield item

        return traced

    def _wrap_count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def install(self):
        for mod, names in list(SPANNED.items()) + list(COUNTED.items()):
            for attr in names:
                fn = getattr(mod, attr)
                name = "%s.%s" % (mod.__name__.rsplit(".", 1)[1], attr)
                if mod in COUNTED and attr in COUNTED[mod]:
                    wrapper = self._wrap_count(name, fn)
                elif inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_gen(name, fn)
                else:
                    wrapper = self._wrap_call(name, fn)
                for m in MODULES:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._saved.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, fn in reversed(self._saved):
            setattr(m, key, fn)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "query": s.query, "start": s.start, "end": s.end,
                    "busy": s.busy, "self": s.busy - s.child,
                    "counters": s.counters,
                }) + "\n")

    def msg_calls_by_body(self) -> dict:
        """minimal_generators calls by the body of their query."""
        counts = defaultdict(int)
        for s in self.spans:
            if s.name == "semigroup.minimal_generators":
                counts[s.query.split("|")[0]] += 1
        return dict(counts)

    def layer_metrics(self, passes: int, full_bodies: set) -> dict:
        """Per-layer metrics per pass, from the spans and counts.
        `calls_per_body` averages over `full_bodies`, the bodies that run
        every structure query."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        sums = defaultdict(float)
        msg_members = 0
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += s.busy - s.child
            parent = None if s.parent is None else self.spans[s.parent]
            if s.name in DECIDERS and (parent is None
                                       or parent.name not in DECIDERS):
                for k, v in s.counters.items():
                    sums["rings." + k] += v
                continue
            for k, v in s.counters.items():
                sums["%s.%s" % (s.name, k)] += v
            if s.name == "semigroup.semigroup_shells" and parent is not None \
                    and parent.name == "semigroup.minimal_generators":
                msg_members += s.counters["members"]
        out = {}
        for name, unit in PER_LAYER:
            mod_fn, _, field = name.rpartition(".")
            if field == "calls":
                v = calls.get(mod_fn, 0) or self.counts.get(mod_fn, 0)
            elif field == "self_s":
                v = self_s.get(mod_fn, 0.0)
            else:
                v = sums.get(name, 0)
            out[name] = v
        msg_per_body = self.msg_calls_by_body()
        full = [b for b in msg_per_body if b in full_bodies]
        out["semigroup.minimal_generators.calls_per_body"] = (
            sum(msg_per_body[b] for b in full) / len(full) if full else 0)
        out["semigroup.semigroup_shells.member_ratio"] = _ratio(
            sums["semigroup.semigroup_shells.members"],
            sums["semigroup.semigroup_shells.points"])
        out["semigroup.minimal_generators.gen_yield"] = _ratio(
            sums["semigroup.minimal_generators.generators"], msg_members)
        out["rings.gap_share"] = _ratio(sums["rings.region_gaps"],
                                        sums["rings.region_points"])
        out["rings.unsupported"] = sums["rings.unsupported"]
        out["rings.inconclusive"] = sums["rings.inconclusive"]
        for name, unit in PER_LAYER:
            if unit != "ratio":
                out[name] = out[name] / passes
        return out


def _ratio(a, b):
    return a / b if b else 0.0
