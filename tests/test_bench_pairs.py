"""The summary of `tools/bench_pairs.py` on canned run output, and its
source line counts on temporary trees; no benchmark is run."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _output(correct, qps, p50):
    """A run's stdout: report lines, then the final JSON line."""
    final = {
        "correct": correct,
        "attempted": 100,
        "failed": 0 if correct else 1,
        "metrics": {
            "queries_per_s": {"value": qps, "unit": "1/s"},
            "query_p50_s": {"value": p50, "unit": "s"},
        },
    }
    return "workload structure, seed 0: 3 pass(es)\nreport line\n%s\n" % (
        json.dumps(final)
    )


_BETTER = {"queries_per_s": "higher", "query_p50_s": "lower"}


def test_summary_of_canned_pairs():
    runs = [
        # (parent qps, p50), (change qps, p50)
        ((100.0, 0.004), (150.0, 0.003)),
        ((110.0, 0.003), (140.0, 0.003)),
        ((90.0, 0.005), (90.0, 0.002)),
        ((120.0, 0.002), (160.0, 0.004)),
        ((105.0, 0.004), (155.0, 0.001)),
    ]
    pairs = [
        tuple(bench_pairs.final_result(_output(True, *side)) for side in pair)
        for pair in runs
    ]
    got = bench_pairs.summarize(pairs, _BETTER)
    assert got["pairs"] == 5 and got["all_correct"] is True
    qps = got["metrics"]["queries_per_s"]
    assert qps["better"] == "higher"
    assert qps["parent"] == {"median": 105.0, "q1": 100.0, "q3": 110.0}
    assert qps["change"] == {"median": 150.0, "q1": 140.0, "q3": 155.0}
    # the third pair ties and counts for neither side
    assert qps["change_wins"] == 4
    p50 = got["metrics"]["query_p50_s"]
    assert p50["change"] == {"median": 0.003, "q1": 0.002, "q3": 0.003}
    assert p50["change_wins"] == 3


def test_one_incorrect_run_clears_all_correct():
    good = bench_pairs.final_result(_output(True, 100.0, 0.001))
    bad = bench_pairs.final_result(_output(False, 100.0, 0.001))
    pairs = [(good, good), (good, bad)]
    assert bench_pairs.summarize(pairs, _BETTER)["all_correct"] is False


def test_a_run_that_printed_nothing_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.final_result("\n\n")


def _module(tree, name, text):
    path = tree / "src" / "polysgp" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_src_lines_counts_as_wc_does(tmp_path):
    _module(tmp_path, "a.py", "x = 1\ny = 2\n")
    # wc -l counts newlines: a last line without one is not counted
    _module(tmp_path, "b.py", "z = 3\nw = 4")
    _module(tmp_path, "notes.txt", "not a module\n")
    (tmp_path / "src" / "other.py").write_text("outside the package\n")
    assert bench_pairs.src_lines(tmp_path) == 3


def test_bench_file_records_src_lines_of_both_sides(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    spec = {"run_seconds": 1, "end_to_end": [
        {"name": name, "better": better} for name, better in _BETTER.items()
    ]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    _module(tmp_path, "a.py", "x = 1\ny = 2\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    _module(tmp_path, "b.py", "z = 3\n")
    canned = bench_pairs.final_result(_output(True, 100.0, 0.001))
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: canned)
    monkeypatch.chdir(tmp_path)
    argv = ["--pr", "7", "--change", "c", "--workloads", "structure"]
    assert bench_pairs.main(argv) == 0
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert bench["src_lines"] == {"parent": 2, "change": 3}
    assert bench["runs"]["structure seed 0"]["pairs"] == bench_pairs.PAIRS
