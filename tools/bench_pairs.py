"""Paired benchmark runs of a change against its parent commit.

    python3 tools/bench_pairs.py --pr N --change "what the change does" \\
        --workloads structure deciders cli [--seeds 0] \\
        [--claim structure:queries_per_s]

Run from a polysgp checkout.  The parent side is HEAD, exported with
`git archive`; the change side is the working tree's tracked and
untracked, not ignored, files.  Each side is copied into its own
temporary directory, so neither holds compiled bytecode, and the runs
set PYTHONDONTWRITEBYTECODE so none is written.  Each workload and
seed gets PAIRS pairs; pair i (from 1) runs the parent first when i is
odd and the change first otherwise.  Each run is `python3
perfbench/run.py --workload W --seed S --seconds T`, T being
BENCHMARK.json's run_seconds, in its side's directory, and only its
final JSON line is read.  After every pair the summary is written to
BENCH_<pr>.json at the checkout's root, whose `runs` entries for other
workloads or seeds are kept, so workloads can be run one at a time.
The file also records `src_lines`, each side's `wc -l src/polysgp/*.py`
total, the net source line count next to the bench.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
RUN_TIMEOUT_S = 600

METHOD = (
    "Alternating pairs of parent and change runs, back to back on one "
    "host (pair i runs the parent first when i is odd), each side from "
    "its own copy of the same benchmark code (the parent exported with "
    "git archive, the change copied from the working tree), with no "
    "compiled bytecode in either copy. Medians and quartiles (inclusive "
    "method) over the pairs; change_wins counts the pairs where the "
    "change reads better, ties counting for neither. Assembled by "
    "tools/bench_pairs.py from each run's final JSON line; perfbench/ "
    "itself writes no bench file."
)


def final_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    """Median and inclusive quartiles; one value is all three."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(statistics.median(values), 6),
        "q1": round(q1, 6),
        "q3": round(q3, 6),
    }


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """One `runs` entry's `pairs`, `all_correct` and `metrics` from the
    (parent, change) final results of each pair.  `better` maps each
    metric to "lower" or "higher"; a pair where the change reads better
    counts toward `change_wins`, a tie for neither side."""
    metrics = {}
    for name, direction in better.items():
        parent = [p["metrics"][name]["value"] for p, _c in pairs]
        change = [c["metrics"][name]["value"] for _p, c in pairs]
        sign = 1 if direction == "higher" else -1
        metrics[name] = {
            "better": direction,
            "parent": _spread(parent),
            "change": _spread(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    return {
        "pairs": len(pairs),
        "all_correct": all(r["correct"] for pair in pairs for r in pair),
        "metrics": metrics,
    }


def src_lines(tree: Path) -> int:
    """The line count `wc -l src/polysgp/*.py` totals in `tree`: the
    newlines of the package's modules."""
    modules = (tree / "src" / "polysgp").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in modules)


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True
    ).stdout


def _export_commit(root: Path, commit: str, dest: Path) -> None:
    archive = _git(root, "archive", "--format=tar", commit)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _copy_working_tree(root: Path, dest: Path) -> None:
    listed = _git(
        root, "ls-files", "-z", "--cached", "--others", "--exclude-standard"
    )
    for name in filter(None, listed.decode().split("\0")):
        src = root / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run(side: Path, workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
        ],
        cwd=side, env=env, capture_output=True, text=True, check=True,
        timeout=RUN_TIMEOUT_S,
    )
    return final_result(done.stdout)


def _host() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        "%d-CPU %s host, Python %s, numpy %s; timings at the host's "
        "quiet-speed scale that perfbench/calibrate.py applies"
        % (os.cpu_count() or 1, platform.system(), platform.python_version(),
           numpy_version)
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--change", required=True, help="one line: what changed")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = ap.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = root / ("BENCH_%d.json" % args.pr)
    bench = json.loads(out.read_text()) if out.is_file() else {}
    bench.update(
        pr=args.pr,
        change=args.change,
        parent_commit=_git(root, "rev-parse", "HEAD").decode().strip(),
        command="python3 perfbench/run.py --workload W --seed S --seconds %d"
        % seconds,
        method=METHOD,
        host=_host(),
    )
    if args.claim:
        workload, metric = args.claim.split(":")
        bench["claimed"] = {
            "workload": workload, "seed": args.seeds[0],
            "metric": metric, "better": better[metric],
        }
    bench.setdefault("runs", {})

    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        parent, change = work / "parent", work / "change"
        parent.mkdir()
        change.mkdir()
        _export_commit(root, bench["parent_commit"], parent)
        _copy_working_tree(root, change)
        bench["src_lines"] = {
            "parent": src_lines(parent), "change": src_lines(change),
        }
        for workload in args.workloads:
            for seed in args.seeds:
                key = "%s seed %d" % (workload, seed)
                pairs = []
                for i in range(1, PAIRS + 1):
                    order = [parent, change] if i % 2 else [change, parent]
                    result = {side: _run(side, workload, seed, seconds)
                              for side in order}
                    pairs.append((result[parent], result[change]))
                    bench["runs"][key] = {
                        "workload": workload, "seed": seed,
                        **summarize(pairs, better),
                    }
                    out.write_text(
                        json.dumps(bench, indent=2, ensure_ascii=False) + "\n"
                    )
                    print("%s: pair %d of %d done" % (key, i, PAIRS),
                          file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
