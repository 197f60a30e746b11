"""Record perfbench/goldens.json from one pass of each workload.

    PYTHONPATH=src python3 perfbench/record_goldens.py

Runs the default-seed pass of every workload once, untimed.  Every
summary must first pass the same oracle cross-check a fresh body gets,
and the published objects must match the paper's values: the 6 and 13
generator sets (read from tests/test_acceptance.py; the 71 of the
Buchsbaum body too, should a pass run it again) and, for the Gorenstein
family, the unique maximal Apery element (10+k, k-1, 0).
Only then are the summaries written.  Rerun it only when a change is
meant to alter results.
"""

from __future__ import annotations

import ast
import json
import sys
import time

import worker  # sets sys.path for src/ and tests/

import corpus

PUBLISHED = {"cm": "CM_YES_GENERATORS", "gorenstein": "GORENSTEIN_GENERATORS",
             "buchsbaum": "BUCHSBAUM_GENERATORS"}


def published_generators() -> dict:
    tree = ast.parse((worker.ROOT / "tests" / "test_acceptance.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
    return {body: sorted(list(p) for p in ast.literal_eval(found[name]))
            for body, name in PUBLISHED.items()}


def paper_check(key: str, s: dict, published: dict):
    body, op = key.split("|")
    if op == "minimal_generators" and body in published:
        return None if s["generators"] == published[body] and s["certified"] \
            else "differs from the published generator set"
    if body.startswith("family-"):
        k = int(body.split("-")[1])
        top = [[10 + k, k - 1, 0]]
        if op == "apery_intersection" and s["maximal"] != top:
            return "family maximal Apery element is not %s" % top
        if op == "is_gorenstein" and (s["verdict"] != "yes" or
                                      s["diagnostics"]["apery_maximal"] != top):
            return "family member is not Gorenstein with maximal %s" % top
    return None


def dump_goldens(goldens: dict) -> str:
    """One golden per line, sorted by key."""
    rows = ["%s: %s" % (json.dumps(k), json.dumps(goldens[k], sort_keys=True))
            for k in sorted(goldens)]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def main() -> int:
    published = published_generators()
    goldens: dict = {}
    problems = []
    for workload in ("structure", "deciders", "cli"):
        corp, names = corpus.make_corpus(workload, corpus.DEFAULT_SEED)
        # treat every body as fresh so the checker consults the oracle
        corp.fresh = set(corp.vertices)
        queries = corpus.make_pass(workload, names)
        docs = {n: worker.vertex_document(v) for n, v in corp.vertices.items()}
        results = worker.run_passes(workload, queries, corp, docs, passes=1)[0]
        checker = worker.Checker(workload, corp, {})
        t0 = time.perf_counter()
        checker.check_pass(results)
        print("%s: oracle checks took %.1f s" % (
            workload, time.perf_counter() - t0), file=sys.stderr)
        problems += checker.failures
        for q, dt, s, _raw in results:
            reason = paper_check(q.key, s, published)
            if reason:
                problems.append("%s: %s" % (q.key, reason))
            if q.key in goldens and goldens[q.key] != s:
                problems.append("%s: differs between workloads" % q.key)
            goldens[q.key] = s
            print("%-45s %8.3f s" % (q.key, dt), file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    worker.GOLDENS.write_text(dump_goldens(goldens))
    print("wrote %d goldens to %s" % (len(goldens), worker.GOLDENS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
