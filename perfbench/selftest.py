"""The benchmark's own self-test, on a tiny pass of each workload.

    python3 perfbench/selftest.py

Checks that:
  * the metric names, units and directions match BENCHMARK.json;
  * a tiny pass of each workload reports every end-to-end metric with
    its unit and direction, with no failed query;
  * a tiny traced pass reports every per-layer metric, and its counts
    repeat exactly on a second traced pass;
  * a deliberately corrupted golden is counted in error_rate instead of
    crashing the run.
Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import sys

import worker  # sets sys.path for src/ and tests/

import run
import tracing

TINY = {
    "structure": {"cm", "we"},
    "deciders": {"cm", "tetra-24", "poly-27"},
    "cli": {"cm", "we"},
}
COUNT_UNITS = ("count", "bytes")


def check_benchmark_json() -> list[str]:
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    problems = []
    want = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if want != [tuple(m) for m in run.END_TO_END]:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    want = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if want != list(tracing.PER_LAYER):
        problems.append("per_layer metrics differ from tracing.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(TINY):
        problems.append("workloads differ")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    setup = run.setup_seconds(run.pinned_env(), repeats=1)
    for workload, only in TINY.items():
        res = worker.measure(workload, 0, 0, trace=1, only=only)
        for line in run.report(res, setup):
            print(line)
        shown = set(res["metrics"]) | {"setup_s"}
        missing = [n for n, _u, _b in run.END_TO_END if n not in shown]
        if missing:
            problems.append("%s: missing %s" % (workload, missing))
        if res["failed"]:
            problems.append("%s: %d failed queries" % (workload, res["failed"]))
        again = worker.measure(workload, 0, 0, trace=1, only=only)
        for (name, a, unit), (_n, b, _u) in zip(res["layers"], again["layers"]):
            if unit in COUNT_UNITS and a != b:
                problems.append("%s: %s is %r then %r" % (workload, name, a, b))

    goldens = json.loads(worker.GOLDENS.read_text())
    bad = copy.deepcopy(goldens)
    bad["cm|minimal_generators"]["generators"].pop()
    res = worker.measure("structure", 0, 0, trace=0, goldens=bad,
                         only=TINY["structure"])
    if res["failed"] != 1 or not res["metrics"]["error_rate"] > 0:
        problems.append("corrupted golden gave failed=%d" % res["failed"])
    else:
        print("corrupted golden counted: error_rate %.3f (%s)" % (
            res["metrics"]["error_rate"], res["failures"][0]))

    for p in problems:
        print("SELFTEST PROBLEM: %s" % p)
    print("selftest %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
