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
_BOUNDS = {"queries_per_s": 0.25, "query_p50_s": 0.25}


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
    got = bench_pairs.summarize(pairs, _BETTER, _BOUNDS)
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


def _pairs(parent_qps, change_qps):
    """Pairs of final results with the given queries per second."""
    return [
        (
            bench_pairs.final_result(_output(True, p, 0.001)),
            bench_pairs.final_result(_output(True, c, 0.001)),
        )
        for p, c in zip(parent_qps, change_qps)
    ]


def _verdict(parent_qps, change_qps):
    got = bench_pairs.summarize(_pairs(parent_qps, change_qps), _BETTER, _BOUNDS)
    return got["metrics"]["queries_per_s"]["verdict"]


def test_verdicts_of_canned_pairs():
    narrow = [100.0, 101.0, 99.0, 100.0, 102.0]
    # the change's median 30% below the parent's, past the 25% bound
    assert _verdict(narrow, [70.0, 71.0, 69.0, 70.0, 72.0]) == "worse"
    # 20% below, within the bound, on a narrow parent
    assert _verdict(narrow, [80.0, 81.0, 79.0, 80.0, 82.0]) == "within"
    # a parent spread wider than the bound leaves a close change open
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert _verdict(wide, [90.0, 110.0, 100.0, 70.0, 130.0]) == "unresolved"
    # unless every change run beats every parent run
    assert _verdict(wide, [150.0, 151.0, 152.0, 153.0, 154.0]) == "within"
    # a metric where lower reads better turns the comparison round
    pairs = [
        (
            bench_pairs.final_result(_output(True, 100.0, 0.0010)),
            bench_pairs.final_result(_output(True, 100.0, 0.0013)),
        )
    ] * 5
    got = bench_pairs.summarize(pairs, _BETTER, _BOUNDS)["metrics"]
    assert got["query_p50_s"]["verdict"] == "worse"
    assert got["queries_per_s"]["verdict"] == "within"


def test_claim_met_needs_nine_wins_and_a_gain_past_the_spread():
    def metric(parent_qps, change_qps):
        pairs = _pairs(parent_qps, change_qps)
        got = bench_pairs.summarize(pairs, _BETTER, _BOUNDS)
        return bench_pairs.claim_met(got["metrics"]["queries_per_s"], len(pairs))

    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    # nine wins in ten, the median 10 above a parent spread of 1.5
    assert metric(parent, [110.0] * 9 + [90.0]) is True
    # eight wins in ten
    assert metric(parent, [110.0] * 8 + [90.0, 90.0]) is False
    # ten wins by a median gain of 1, inside the parent's spread
    assert metric(parent, [p + 1.0 for p in parent]) is False


def test_one_incorrect_run_clears_all_correct():
    good = bench_pairs.final_result(_output(True, 100.0, 0.001))
    bad = bench_pairs.final_result(_output(False, 100.0, 0.001))
    pairs = [(good, good), (good, bad)]
    assert bench_pairs.summarize(pairs, _BETTER, _BOUNDS)["all_correct"] is False


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


def test_src_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    _module(tmp_path, "a.py", (
        '"""Module doc,\n\nin two paragraphs."""\n'
        "\n"
        "import os  # a comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """One line."""\n'
        "    # a comment line\n"
        "    return (x +\n"
        "            1)\n"
    ))
    _module(tmp_path, "b.py", (
        "class C:\n"
        '    """Doc."""\n'
        "\n"
        '    s = """a string over\n'
        'two lines"""\n'
        "\n"
        "\n"
        'def g(): """Doc on the line of its def."""'
    ))
    _module(tmp_path, "notes.txt", "not = a module\n")
    # a.py: import, def, and the two lines of the return; b.py: class,
    # the two lines of the string, and the def
    assert bench_pairs.src_code_lines(tmp_path) == 8


def test_bench_file_records_src_lines_of_both_sides(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    spec = {"run_seconds": 1, "end_to_end": [
        {"name": name, "better": better, "bound": _BOUNDS[name]}
        for name, better in _BETTER.items()
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
    argv += ["--claim", "structure:queries_per_s"]
    assert bench_pairs.main(argv) == 0
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert bench["src_lines"] == {"parent": 2, "change": 3}
    assert bench["src_code_lines"] == {"parent": 2, "change": 3}
    run = bench["runs"]["structure seed 0"]
    assert run["pairs"] == bench_pairs.PAIRS
    # every run reads the same: no verdict is worse, and no claim is met
    assert {m["verdict"] for m in run["metrics"].values()} == {"within"}
    assert bench["claimed"]["claim_met"] is False
