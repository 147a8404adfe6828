"""Self-tests of the solver benchmark.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import workloads as W  # noqa: E402
from minregret import (  # noqa: E402
    MarginalVector,
    NotInHullError,
    PlayerMixedStrategy,
    build_oracle,
    decompose_marginal,
    generate_instance,
    solve_adversary_lp_discrete,
    solve_deterministic_exact,
    solve_randomized,
    approx_mean_cost,
    approx_midpoint,
)


def _case(solver, instance, **kw):
    return W.Case("t", solver, instance, build_oracle(instance), False, 0, **kw)


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = W.WORKLOADS[name]
    first = W.inputs_digest(W.build_cases(workload, 7))
    assert first == W.inputs_digest(W.build_cases(workload, 7))
    assert first != W.inputs_digest(W.build_cases(workload, 8))


def test_pinned_cases_do_not_depend_on_the_seed():
    workload = W.WORKLOADS["do-interval"]
    pinned = [[c.id for c in W.build_cases(workload, s) if c.pinned] for s in (1, 2)]
    assert pinned[0] == pinned[1]
    for known in ("k-selection/inte/n80/s2/randomized", "k-selection/inte/n100/s3/randomized"):
        assert known in pinned[0]


def test_shifted_marginal_leaves_the_hull():
    rng = np.random.default_rng(0)
    for family in ("k-selection", "spanning-tree", "dag-path"):
        oracle = build_oracle(generate_instance(family, n=10, seed=3))
        p = W.random_marginal(oracle, 10, 3, rng)
        with pytest.raises(NotInHullError):
            decompose_marginal(MarginalVector(W.shift_out_of_hull(p, rng)), oracle)


# -- answer checks reject corrupted answers -------------------------------------


def test_game_check_rejects_a_shifted_value():
    inst = generate_instance("k-selection", n=8, seed=1)
    oracle = build_oracle(inst)
    sol = solve_randomized(inst, oracle=oracle)
    assert W.check_game(inst, oracle, sol) is None
    bad = dataclasses.replace(sol, value=sol.value + 1e-3)
    assert W.check_game(inst, oracle, bad) is not None


def test_adversary_and_pair_checks_reject_a_shifted_value():
    inst = generate_instance("spanning-tree", n=8, uncertainty="scenarios", n_scenarios=3, seed=2)
    oracle = build_oracle(inst)
    adversary, value, player = solve_adversary_lp_discrete(inst, oracle=oracle)
    assert W.check_adversary(inst, oracle, (adversary, value, player)) is None
    assert W.check_adversary(inst, oracle, (adversary, value + 1e-3, player)) is not None
    game_value = solve_randomized(inst, oracle=oracle).value
    assert W.check_pair(value, game_value) is None
    assert W.check_pair(value + 1e-3, game_value) is not None


def test_decomposition_check_rejects_a_dropped_support_set():
    oracle = build_oracle(generate_instance("k-selection", n=8, seed=4))
    p = W.random_marginal(oracle, 8, 4, np.random.default_rng(1))
    strategy = decompose_marginal(MarginalVector(p), oracle)
    assert strategy.support_size > 1
    assert W.check_decomposition(p, oracle, strategy) is None
    dropped = PlayerMixedStrategy.cleaned(strategy.support[1:], strategy.probs[1:] / strategy.probs[1:].sum())
    assert W.check_decomposition(p, oracle, dropped) is not None


def test_certificate_check_rejects_a_flipped_sign():
    oracle = build_oracle(generate_instance("dag-path", n=10, seed=5))
    rng = np.random.default_rng(2)
    q = W.shift_out_of_hull(W.random_marginal(oracle, 10, 3, rng), rng)
    with pytest.raises(NotInHullError) as info:
        decompose_marginal(MarginalVector(q), oracle)
    u, w = np.asarray(info.value.u), float(info.value.w)
    assert W.check_certificate(q, oracle, u, w) is None
    assert W.check_certificate(q, oracle, -u, -w) is not None


def test_enumeration_checks_reject_wrong_values():
    inst = generate_instance("k-selection", n=8, seed=6)
    oracle = build_oracle(inst)
    T, opt = solve_deterministic_exact(inst, oracle=oracle)
    assert W.check_deterministic(inst, oracle, (T, opt)) is None
    assert W.check_deterministic(inst, oracle, (T, opt + 1e-3)) is not None
    M, value = approx_midpoint(inst, oracle=oracle)
    assert W.check_approximation(inst, oracle, "midpoint", (M, value), opt) is None
    # an optimum larger than the approximation's value, or far below it
    assert W.check_approximation(inst, oracle, "midpoint", (M, value), value + 1e-3) is not None
    assert W.check_approximation(inst, oracle, "midpoint", (M, value), value / 2.0 - 1e-3) is not None

    scen = generate_instance("k-selection", n=8, uncertainty="scenarios", n_scenarios=3, seed=6)
    scen_oracle = build_oracle(scen)
    _, scen_opt = solve_deterministic_exact(scen, oracle=scen_oracle)
    M, value = approx_mean_cost(scen, oracle=scen_oracle)
    assert W.check_approximation(scen, scen_oracle, "mean-cost", (M, value), scen_opt) is None
    assert W.check_approximation(scen, scen_oracle, "mean-cost", (M, value + 1e-3), scen_opt) is not None


def test_classify_types_outcomes():
    inst = generate_instance("k-selection", n=8, seed=1)
    in_case = _case("decompose", inst, marginal=np.full(8, 0.5), in_hull=True)
    err = NotInHullError("outside", u=np.zeros(8), w=1.0)
    assert W.classify(in_case, None, err, None)[0] == "wrong"
    out_case = _case("decompose", inst, marginal=np.full(8, 0.5), in_hull=False)
    strategy = decompose_marginal(MarginalVector(np.full(8, 0.5)), out_case.oracle)
    assert W.classify(out_case, strategy, None, None)[0] == "wrong"
    game = _case("randomized", inst)
    assert W.classify(game, None, W.CaseTimeout(), None)[0] == "timeout"
    assert W.classify(game, None, W.SolverError("matrix-game LP ended with status breakdown"), None)[0] == "breakdown"
    assert W.classify(game, None, W.SolverError("double oracle stalled with residual gap"), None)[0] == "stall"


def test_tail_index_keeps_ten_cases_beyond():
    assert measure.tail_index(30) == 19  # 10 values beyond index 19
    assert measure.tail_index(11) == 0
    assert measure.tail_index(5) == 4


# -- end to end ---------------------------------------------------------------

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_tiny_workload_runs_end_to_end(name, trace, tmp_path):
    proc = _run(["--workload", name, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert all(c["outcome"] in W.CAUSES for c in record["cases"])
    if trace and name == "enumerate":
        assert result["metrics"]["lp.solves"]["value"] == 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "enumerate", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
