"""polysgp benchmark: one workload per invocation, checked against goldens.

    python3 perfbench/run.py --workload {structure,deciders,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload runs in a fresh child
process with one thread and a fixed hash seed (`worker.py`); this
process measures set-up time, starts the child, prints a human report
and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a
traced re-run of the same passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import calibrate  # noqa: E402  (perfbench/ is on sys.path as the script's dir)

SETUP_REPEATS = 9
TIME_LIMIT_S = 175

# name, unit, better; the gated ones are listed in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("query_p50_s", "s", "lower"),
    ("query_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# Reported, not gated: error_rate (0 when all is well; failures also
# show in `failed` and `correct`) and the entry-point sums, which exist
# on one workload each.
REPORTED = [
    ("error_rate", "ratio", "lower"),
    ("minimal_generators_s", "s", "lower"),
    ("apery_intersection_s", "s", "lower"),
    ("closure_s", "s", "lower"),
    ("is_buchsbaum_s", "s", "lower"),
    ("is_cohen_macaulay_s", "s", "lower"),
    ("is_gorenstein_s", "s", "lower"),
    ("cli_gaps_s", "s", "lower"),
    ("cli_oracle_check_s", "s", "lower"),
]


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict, repeats: int = SETUP_REPEATS) -> tuple:
    """Median time from starting an interpreter until
    `import polysgp, polysgp.cli` returns in it: at the host's quiet
    speed (each start scaled by the reference kernel timed three times
    before and after it, calibrate.py), and as measured."""
    code = ("import time, polysgp, polysgp.cli; "
            "print(repr(time.monotonic()))")
    samples = []
    scaled = []
    for _ in range(repeats):
        kernel_s = [calibrate.time_kernel() for _ in range(3)]
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        samples.append(float(done.stdout.strip()) - t0)
        kernel_s += [calibrate.time_kernel() for _ in range(3)]
        scaled.append(samples[-1] * calibrate.factor(kernel_s))
    return statistics.median(scaled), statistics.median(samples)


def run_worker(args, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def report(res: dict, setup) -> list[str]:
    """The human report; `setup` is None or what setup_seconds gives."""
    env = res["environment"]
    m = res["metrics"]
    lines = [
        "workload %s, seed %d: %d pass(es) of %d queries, %d bodies "
        "(%d fresh)" % (res["workload"], res["seed"], res["passes"],
                        res["queries_per_pass"], len(res["bodies"]),
                        len(res["fresh"])),
        "environment: Python %s, numpy %s, nproc %d, cpu %s, %s" % (
            env["python"], env["numpy"], env["nproc"], env["cpu"],
            " ".join("%s=%s" % kv for kv in env["threads"].items())),
    ]
    if res["fresh"]:
        lines.append("fresh bodies: %s" % " ".join(res["fresh"]))
    why: dict = {}
    for _kind, _s, reason in res["rejected"]:
        key = reason.split(":")[0] if reason.startswith("build") \
            else reason.split(" >")[0].rstrip("0123456789 ")
        why[key] = why.get(key, 0) + 1
    if why:
        lines.append("skipped %d draws: %s (first: %s seed %d, %s)" % (
            len(res["rejected"]),
            ", ".join("%d %s" % (n, k) for k, n in sorted(why.items())),
            *res["rejected"][0]))
    raw = dict(res["raw_metrics"])
    if setup is not None:
        m = dict(m, setup_s=setup[0])
        raw["setup_s"] = setup[1]
    lines.append("times at the host's quiet speed (as measured in brackets); "
                 "median speed factor of the passes %.3f" % res["scale"])
    for name, unit, better in END_TO_END + REPORTED:
        if name in m:
            lines.append("%-22s %14.6g %-5s (%s is better)%s" % (
                name, m[name], unit, better,
                "  [%.6g]" % raw[name] if name in raw
                and raw[name] != m[name] else ""))
    lines.append("query_tail_s is the p%.1f latency of the n=%d frozen queries "
                 "of a pass (each the median over %d pass(es))" % (
                     m["tail_percentile"], m["n"], res["passes"]))
    lines += ["FAILED %s" % f for f in res["failures"]]
    if "layers" in res:
        lines.append("traced run, per pass (%d pass(es)):" % res["passes"])
        for name, value, unit in res["layers"]:
            lines.append("  %-52s %14.6g %s" % (name, value, unit))
        lay = {name: value for name, value, _u in res["layers"]}
        lines.append(
            "self times sum to %.4f s of %.4f s traced wall per pass; "
            "tracing overhead %.4f s per pass" % (
                lay["trace.wall_s"] - lay["trace.unattributed_s"],
                lay["trace.wall_s"], lay["trace.overhead_s"]))
        lines.append("minimal_generators calls per body: %s" % ", ".join(
            "%s %g" % kv for kv in sorted(res["msg_calls_by_body"].items())))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("structure", "deciders", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polysgp" / "__init__.py").is_file() or not (
            ROOT / "tests" / "instancegen.py").is_file():
        print("error: run from a polysgp checkout (src/polysgp and "
              "tests/instancegen.py not found under %s)" % ROOT, file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = pinned_env()
    setup = None if args.trace else setup_seconds(env)
    try:
        res = run_worker(args, env, deadline)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    for line in report(res, setup):
        print(line)
    if args.trace:
        metrics = {n: {"value": v, "unit": u} for n, v, u in res["layers"]}
    else:
        metrics = {n: {"value": setup[0] if n == "setup_s"
                       else res["metrics"][n],
                       "unit": u} for n, u, _b in END_TO_END}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
