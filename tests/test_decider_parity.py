"""The slab decider reproduces tests/golden/decider_parity.json field by
field: classification, overlap level, ray chords and generators,
base-level corner slabs and bridges, separation level, decider window
and verdicts (see tests/golden/record_decider_parity.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "decider_parity.json").read_text("utf-8"))


def _recorder():
    spec = importlib.util.spec_from_file_location(
        "record_decider_parity", GOLDEN_DIR / "record_decider_parity.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORDER = _recorder()
VERTICES = dict(RECORDER.candidate_bodies())


def test_golden_covers_the_candidates():
    assert set(GOLDEN["bodies"]) | set(GOLDEN["skipped"]) == set(VERTICES)
    assert not set(GOLDEN["bodies"]) & set(GOLDEN["skipped"])


@pytest.mark.parametrize("name", sorted(GOLDEN["bodies"]))
def test_decider_parity(name):
    assert RECORDER.record_body(VERTICES[name]) == GOLDEN["bodies"][name]
