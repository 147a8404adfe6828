"""``bench/counts.py``: its counts repeat, and every answer is
certified."""

import importlib.util
import json
from pathlib import Path

from minregret.lp import WarmLP

ROOT = Path(__file__).resolve().parents[1]


def _load_counts():
    spec = importlib.util.spec_from_file_location("bench_counts", ROOT / "bench" / "counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _without_seconds(rungs):
    return [{key: value for key, value in rung.items() if key != "seconds"} for rung in rungs]


def test_counts_repeat_and_every_answer_is_certified(tmp_path):
    counts = _load_counts()
    solve = WarmLP._solve
    first = counts.run_rungs()
    assert WarmLP._solve is solve  # the counting seam is taken out again
    out = tmp_path / "counts.json"
    assert counts.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["revision"]
    # the same counts, largest LP and value bits on every rung
    assert _without_seconds(report["rungs"]) == _without_seconds(first)
    assert [rung["rung"] for rung in first] == [rung.name for rung in counts.RUNGS]
    for rung in first:
        assert rung["solves"] > 0 and rung["refreshes"] > 0, rung["rung"]
        assert rung["dual_pivots"] + rung["primal_pivots"] > 0, rung["rung"]
        assert 0.0 <= rung["certified_gap"] <= counts.TOL, rung["rung"]
    assert {rung["solver"] for rung in first} == {"randomized", "adversary-lp"}
