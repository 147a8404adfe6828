"""``bench/counts.py``: its counts repeat, every answer is certified, and its
layer seconds fit inside each rung's seconds."""

import importlib.util
import json
import os
from pathlib import Path

from minregret import lp
from minregret.lp import WarmLP, _kernel
from minregret.solvers import _RestrictedGame

ROOT = Path(__file__).resolve().parents[1]


def _load_counts():
    """The script as a module.  It pins the BLAS thread variables as it
    loads, too late to change this process's numpy; they are put back as
    they were, so that no later test or subprocess sees them changed."""
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("bench_counts", ROOT / "bench" / "counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for var in module.THREAD_VARS:
        if var in saved:
            os.environ[var] = saved[var]
        else:
            del os.environ[var]
    return module


def _without_seconds(rungs):
    return [
        {key: value for key, value in rung.items() if key not in ("seconds", "layers")}
        for rung in rungs
    ]


def _seams():
    return [
        WarmLP._solve,
        _kernel.run_simplex,
        lp._refresh,
        _RestrictedGame.responses,
        _RestrictedGame.grow,
    ]


def test_counts_repeat_and_every_answer_is_certified(tmp_path):
    before = dict(os.environ)
    counts = _load_counts()
    assert dict(os.environ) == before
    seams = _seams()
    first = counts.run_rungs()
    assert _seams() == seams  # every wrapper is taken out again
    out = tmp_path / "counts.json"
    assert counts.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["revision"]
    assert set(report["threads"]) == set(counts.THREAD_VARS)
    # the same counts, largest LP and value bits on every rung
    assert _without_seconds(report["rungs"]) == _without_seconds(first)
    assert [rung["rung"] for rung in first] == [rung.name for rung in counts.RUNGS]
    for rung in first:
        assert rung["solves"] > 0 and rung["refreshes"] > 0, rung["rung"]
        assert rung["dual_pivots"] + rung["primal_pivots"] > 0, rung["rung"]
        assert isinstance(rung["lifts"], int) and rung["lifts"] >= 0, rung["rung"]
        assert 0.0 <= rung["certified_gap"] <= counts.TOL, rung["rung"]
        layers = rung["layers"]
        assert list(layers) == list(counts.LAYERS), rung["rung"]
        assert min(layers.values()) >= 0.0, rung["rung"]
        # six numbers rounded to 1e-4, each by at most half of that
        assert sum(layers.values()) <= rung["seconds"] + 3e-4, rung["rung"]
    assert {rung["solver"] for rung in first} == {"randomized", "adversary-lp"}
