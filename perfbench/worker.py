"""One workload in one fresh process: closed loop, checks, metrics.

Run by `run.py` with the environment pinned; prints one JSON object
with the metrics, the checks' outcome and what the report needs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy  # noqa: E402

import polysgp  # noqa: E402
import polysgp.cli  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

# Per-pass sums of these entry points, reported on the workload that
# runs them.
ENTRY_METRICS = {
    "structure": {
        "minimal_generators_s": ("minimal_generators",),
        "apery_intersection_s": ("apery_intersection",),
        "closure_s": ("closure",),
        "is_buchsbaum_s": ("is_buchsbaum",),
    },
    "deciders": {
        "is_cohen_macaulay_s": ("is_cohen_macaulay",),
        "is_gorenstein_s": ("is_gorenstein",),
    },
    "cli": {
        "cli_gaps_s": ("gaps", "gaps --format structured"),
        "cli_oracle_check_s": ("oracle-check",),
    },
}


def vertex_document(verts) -> str:
    rows = ("%s %s %s" % tuple(Fraction(c) for c in v) for v in verts)
    return "vertices\n" + "\n".join(rows) + "\n"


def run_query(workload: str, q, verts, doc, handles: dict):
    """Run one query; the caller times this call and nothing else."""
    try:
        if workload == "cli":
            out = io.StringIO()
            sys.stdin = io.StringIO(doc)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = polysgp.cli.main(list(q.argv) + ["-"])
            return code, out.getvalue()
        if workload == "deciders":
            return getattr(polysgp, q.op)(polysgp.build(verts))
        if q.op == "build":
            handles[q.body] = polysgp.build(verts)
            return handles[q.body]
        return getattr(polysgp, q.op)(handles[q.body])
    except checks.EXPECTED_ERRORS as exc:
        return exc
    except Exception as exc:  # recorded as a failed query, run continues
        traceback.print_exc(file=sys.stderr)
        return exc
    finally:
        sys.stdin = sys.__stdin__


def run_passes(workload, queries, corp, docs, seconds=None, passes=None,
               tracer=None, calib=None):
    """Closed loop over whole passes: stop after `passes` passes, or
    before the first pass that would, at the mean pass time so far, end
    after `seconds` (there is always one pass).  Returns per-pass lists
    of (query, latency, summary, raw result); the raw result is kept only
    where a check needs it (CLI output of fresh bodies).  With a `calib`
    list, the reference kernel is timed at the start of a pass and after
    every query, and each pass appends the list of its kernel times."""
    out = []
    t_start = time.perf_counter()
    while True:
        handles: dict = {}  # a fresh handle for every pass
        raw = []
        kernel_s = [] if calib is None else [calibrate.time_kernel()]
        for q in queries:
            root = tracer.begin_query(q.key) if tracer else None
            t0 = time.perf_counter()
            r = run_query(workload, q, corp.vertices[q.body],
                          docs.get(q.body), handles)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_query(root)
            if calib is not None:
                kernel_s.append(calibrate.time_kernel())
            raw.append((q, dt, r))
        del handles
        if calib is not None:
            calib.append(kernel_s)
        out.append([
            (q, dt, checks.summarize(q.op, r),
             r if workload == "cli" and q.body in corp.fresh else None)
            for q, dt, r in raw
        ])
        del raw
        if passes is not None and len(out) >= passes:
            return out
        elapsed = time.perf_counter() - t_start
        if passes is None and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def run_traced_pairs(workload, queries, corp, docs, seconds, calib):
    """Alternate one plain pass and one traced pass until the next pair
    would, at the mean pair time so far, end after `seconds`.  Each pair
    runs at about the same host speed, so the tracing overhead is the
    median difference within a pair."""
    tracer = tracing.Tracer()
    passes, traced = [], []
    t_start = time.perf_counter()
    while True:
        passes += run_passes(workload, queries, corp, docs, passes=1,
                             calib=calib)
        tracer.install()
        try:
            traced += run_passes(workload, queries, corp, docs, passes=1,
                                 tracer=tracer)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, traced, tracer


class Checker:
    """Golden lookups for the frozen corpus, oracle checks (cached per
    distinct summary) for fresh bodies."""

    def __init__(self, workload, corp, goldens):
        self.workload = workload
        self.corp = corp
        self.goldens = goldens
        self.cache = {}
        self.failures = []

    def check_pass(self, results) -> int:
        related: dict = {}
        failed = 0
        for q, _dt, summary, raw in results:
            related.setdefault(q.body, {})[q.op] = summary
            reason = self.check(q, summary, raw, related[q.body])
            if reason is not None:
                failed += 1
                self.failures.append("%s: %s" % (q.key, reason))
        return failed

    def check(self, q, summary, raw, related):
        if q.body not in self.corp.fresh:
            gold = self.goldens.get(q.key)
            if gold is None:
                return "no golden"
            return None if gold == summary else "differs from the golden"
        ck = (q.key, json.dumps(summary, sort_keys=True))
        if ck not in self.cache:
            try:
                self.cache[ck] = self._oracle_check(q, summary, raw, related)
            except Exception as exc:  # a check that cannot run fails the query
                self.cache[ck] = "check raised %s: %s" % (type(exc).__name__, exc)
        return self.cache[ck]

    def _oracle_check(self, q, summary, raw, related):
        verts = self.corp.vertices[q.body]
        if self.workload != "cli":
            return checks.oracle_check(q.op, summary, verts, related)
        lib = None
        if q.argv[0] in ("is-cm", "is-gorenstein"):
            fn = {"is-cm": "is_cohen_macaulay",
                  "is-gorenstein": "is_gorenstein"}[q.argv[0]]
            lib = checks.summarize(fn, getattr(polysgp, fn)(polysgp.build(verts)))
        code, text = raw if isinstance(raw, tuple) else (-1, "")
        return checks.cli_check(q.argv, code, text, verts, lib)


def query_latencies(passes, calib=None) -> list:
    """Each query's latency: its median over the passes, each time
    multiplied by the speed factor of the kernel times just before and
    just after it (calibrate.py); without `calib`, as measured."""
    out = []
    for i in range(len(passes[0])):
        dts = [p[i][1] for p in passes]
        if calib is not None:
            dts = [dt * calibrate.factor(ks[i:i + 2])
                   for dt, ks in zip(dts, calib)]
        out.append(statistics.median(dts))
    return out


def latency_metrics(lat, frozen) -> dict:
    """Throughput over all queries of one pass, p50 and tail over its
    frozen ones, given each query's latency (so n does not depend on how
    many passes fit).  A seed's fresh body adds a few queries of its own
    size; left in, they would move the p50 and tail by whole ranks, and
    where neighbouring queries differ by 40% (as they do around the cli
    p50) that swamps everything else."""
    frozen_lat = sorted(t for t, keep in zip(lat, frozen) if keep)
    n = len(frozen_lat)
    # ten queries lie beyond the reported one; the maximum when n <= 10
    tail_i = n - 11 if n > 10 else n - 1
    return {
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_s": statistics.median(frozen_lat),
        "query_tail_s": frozen_lat[tail_i],
        "tail_percentile": 100.0 * (tail_i + 1) / n,
        "n": n,
    }


def environment() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "PYTHONHASHSEED")},
    }


def measure(workload, seed, seconds, trace, goldens=None, only=None):
    """Everything one invocation does, as a result dict.  `only`
    restricts the pass to the named bodies (for the self-test)."""
    corp, names = corpus.make_corpus(workload, seed)
    if only is not None:
        names = [n for n in names if n in only]
    queries = corpus.make_pass(workload, names)
    docs = {n: vertex_document(v) for n, v in corp.vertices.items()} \
        if workload == "cli" else {}
    if goldens is None:
        goldens = json.loads(GOLDENS.read_text())
    checker = Checker(workload, corp, goldens)

    calib: list = []
    if trace:
        passes, traced, tracer = run_traced_pairs(
            workload, queries, corp, docs, seconds, calib)
    else:
        passes = run_passes(workload, queries, corp, docs, seconds=seconds,
                            calib=calib)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "queries_per_pass": len(queries), "bodies": names,
        "fresh": sorted(corp.fresh), "rejected": corp.rejected,
        "environment": environment(),
        "metrics": {"peak_rss_mb": rss_mb},
    }
    # at the host's quiet speed (calibrate.py), and as measured
    frozen = [q.body not in corp.fresh for q in queries]
    for key, cal in (("metrics", calib), ("raw_metrics", None)):
        lat = query_latencies(passes, cal)
        m = latency_metrics(lat, frozen)
        for name, ops in ENTRY_METRICS[workload].items():
            m[name] = sum(dt for q, dt in zip(queries, lat) if q.op in ops)
        res.setdefault(key, {}).update(m)
    res["scale"] = statistics.median(calibrate.factor(k) for k in calib)
    attempted = len(queries) * len(passes)
    failed = sum(checker.check_pass(p) for p in passes)

    if trace:
        attempted += sum(len(p) for p in traced)
        failed += sum(checker.check_pass(p) for p in traced)
        npass = len(traced)
        full = {q.body for q in queries if q.op == "closure"}
        layers = tracer.layer_metrics(npass, full)
        walls = [sum(dt for _q, dt, _s, _r in p) for p in passes]
        t_walls = [sum(dt for _q, dt, _s, _r in p) for p in traced]
        t_wall = sum(t_walls)
        self_sum = sum(s.busy - s.child for s in tracer.spans)
        layers["cli.stdout_bytes"] = sum(
            s["stdout_bytes"] for p in traced for _q, _dt, s, _r in p
            if "stdout_bytes" in s) / npass
        layers["trace.wall_s"] = t_wall / npass
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(t_walls, walls))
        layers["trace.unattributed_s"] = (t_wall - self_sum) / npass
        res["layers"] = [[k, layers[k], u] for k, u in tracing.PER_LAYER]
        res["msg_calls_by_body"] = {
            b: c / npass for b, c in tracer.msg_calls_by_body().items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / ("spans-%s-seed%d.jsonl" % (workload, seed)))

    res["attempted"] = attempted
    res["failed"] = failed
    res["failures"] = checker.failures[:20]
    res["metrics"]["error_rate"] = failed / attempted
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(ENTRY_METRICS))
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    res = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
