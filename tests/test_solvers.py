import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from minregret.core import (
    AdversaryMixedStrategy,
    CostVector,
    EnumerationCapError,
    InstanceError,
    IterationLimitError,
    MarginalVector,
    SolverError,
    expected_regret,
    marginal_of_strategy,
)
from minregret.decompose import decompose_marginal
from minregret.gen import generate_instance
from minregret.io import describe_instance, validate_instance
from minregret.nominal import DagPathOracle, NominalOracle, build_oracle
from minregret.regret import (
    IntervalSide,
    ScenarioSide,
    adversary_side,
    extreme_cost_vector,
    max_expected_regret,
    max_regret_det,
    player_best_response,
)
import minregret.solvers as solvers_mod
from minregret.solvers import (
    approx_dual_weighted,
    approx_mean_cost,
    approx_midpoint,
    bruteforce_game_value,
    solve_adversary_lp_discrete,
    solve_deterministic_exact,
    solve_randomized,
    _BRACKET_WIDTH,
    _convex_bracket,
    _double_oracle,
    _sorted_unique,
)
from minregret.verify import VALUE_TOL

from conftest import (
    RepeatingOracle,
    k_selection_instance,
    suite_instances,
    tight_discrete,
    tight_interval,
)


class TestSolveRandomized:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_tight_discrete_value_and_strategies(self, k):
        inst = tight_discrete(k)
        game = solve_randomized(inst)
        assert game.value == pytest.approx(1.0 / k, abs=1e-9)
        assert game.certified_gap <= 1e-7
        assert game.player.support_size == k
        assert np.allclose(game.player.probs, 1.0 / k, atol=1e-9)
        assert game.adversary.support_size == k
        assert np.allclose(game.adversary.probs, 1.0 / k, atol=1e-9)
        assert np.allclose(game.marginal.p, 1.0 / k, atol=1e-9)

    def test_tight_interval_value(self):
        game = solve_randomized(tight_interval())
        assert game.value == pytest.approx(0.5, abs=1e-9)
        assert game.adversary.generators is not None

    def test_degenerate_intervals_collapse(self):
        inst = k_selection_instance(3, 1, lower=[2, 3, 4], upper=[2, 3, 4])
        game = solve_randomized(inst)
        assert game.value == pytest.approx(0.0, abs=1e-9)
        assert game.player.support_size == 1
        assert game.player.support[0].indices == (0,)

    def test_partially_degenerate_intervals(self):
        # distinct generating sets share extreme cost vectors where the
        # interval width is zero; the column pool must not duplicate them
        inst = k_selection_instance(
            4, 2, lower=[1.0, 1.0, 0.0, 0.5], upper=[1.0, 1.0, 2.0, 1.5]
        )
        game = solve_randomized(inst)
        brute, _, _ = bruteforce_game_value(inst)
        assert game.value == pytest.approx(brute, abs=1e-6)
        costs = {c.values.tobytes() for c in game.adversary.support}
        assert len(costs) == game.adversary.support_size

    def test_marginal_matches_player(self):
        game = solve_randomized(tight_discrete(4))
        rebuilt = marginal_of_strategy(game.player)
        assert np.max(np.abs(rebuilt.p - game.marginal.p)) <= 1e-7

    def test_iteration_limit_reports_bracket(self):
        # the budget applies to the double oracle; k-selection's public path
        # solves scenario games by the compact LP, without iterations
        inst = tight_discrete(5)
        with pytest.raises(IterationLimitError) as info:
            _double_oracle(inst, 1e-7, 2, build_oracle(inst))
        assert info.value.lower is not None and info.value.upper is not None
        assert info.value.lower <= 0.2 + 1e-9
        assert info.value.upper >= 0.2 - 1e-9

    # k-selection interval cases that used to fail in the restricted game
    # LP's phase 1 (n=80/100 seed 2 broke down) or took 26 s (n=100 seed 3).
    # The double-oracle arm keeps those regressions on the game LP; the
    # public path is the threshold search.
    @pytest.mark.parametrize("n,seed", [(80, 2), (100, 2), (100, 3)])
    def test_interval_k_selection_at_scale(self, n, seed):
        inst = generate_instance("k-selection", n=n, uncertainty="interval", seed=seed)
        for game in (
            solve_randomized(inst),
            _double_oracle(inst, 1e-7, 10000, build_oracle(inst)),
        ):
            assert game.certified_gap <= 1e-7
            upper = max_expected_regret(game.marginal, inst).value
            lower = player_best_response(game.adversary, inst).value
            assert -1e-9 <= upper - game.value <= 1e-6
            assert -1e-9 <= game.value - lower <= 1e-6


# HiGHS's feasibility tolerances default to 1e-7; the references are compared
# at 1e-9.
_HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _highs_interval_k_selection(inst) -> float:
    """The compact interval LP over (p, alpha, beta), solved by HiGHS."""
    n, k = inst.n, inst.nominal.k
    lo, hi = inst.uncertainty.lower, inst.uncertainty.upper
    res = linprog(
        np.concatenate([hi, [-k], -np.ones(n)]),
        A_ub=np.hstack([-np.diag(hi - lo), np.ones((n, 1)), np.eye(n)]),
        b_ub=lo,
        A_eq=np.concatenate([np.ones(n), np.zeros(n + 1)])[None, :],
        b_eq=[k],
        bounds=[(0, 1)] * n + [(None, None)] + [(None, 0)] * n,
        method="highs",
        options=_HIGHS_TIGHT,
    )
    assert res.status == 0
    return float(res.fun)


def _highs_scenario_k_selection(inst, oracle) -> float:
    """The compact scenario LP over (p, t), solved by HiGHS."""
    n, k = inst.n, inst.nominal.k
    costs = inst.uncertainty.costs
    optima = np.array([oracle.solve(c)[1] for c in costs])
    res = linprog(
        np.concatenate([np.zeros(n), [1.0]]),
        A_ub=np.hstack([costs, -np.ones((len(costs), 1))]),
        b_ub=optima,
        A_eq=np.concatenate([np.ones(n), [0.0]])[None, :],
        b_eq=[k],
        bounds=[(0, 1)] * n + [(None, None)],
        method="highs",
        options=_HIGHS_TIGHT,
    )
    assert res.status == 0
    return float(res.fun)


def _assert_sound_game(game, inst, oracle):
    """Closed bracket, consistent marginal, feasible sets, distinct costs."""
    assert game.certified_gap <= 1e-7
    assert np.array_equal(marginal_of_strategy(game.player).p, game.marginal.p)
    assert game.player.support_size <= inst.n
    assert all(oracle.is_feasible(T) for T in game.player.support)
    costs = {c.values.tobytes() for c in game.adversary.support}
    assert len(costs) == game.adversary.support_size
    if inst.is_interval:
        assert all(oracle.is_feasible(A) for A in game.adversary.generators)
        for A, c in zip(game.adversary.generators, game.adversary.support):
            assert c == extreme_cost_vector(A, inst.uncertainty)
    else:
        assert game.adversary.scenario_indices is not None
    game.adversary.validate_for(inst)


class TestCompactKSelection:
    """The direct k-selection solvers against the double oracle: the
    threshold search under intervals, the compact LP under scenarios."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [10, 25, 40, 80])
    @pytest.mark.parametrize(
        "uncertainty,scenarios",
        [("interval", 2), ("scenarios", 2), ("scenarios", 8)],
        ids=["interval", "2-scenarios", "8-scenarios"],
    )
    def test_matches_double_oracle(self, uncertainty, scenarios, n, seed):
        inst = generate_instance(
            "k-selection", n=n, uncertainty=uncertainty, n_scenarios=scenarios, seed=seed
        )
        oracle = build_oracle(inst)
        game = solve_randomized(inst, oracle=oracle)
        reference = _double_oracle(inst, 1e-7, 10000, oracle)
        assert game.iterations == 1
        assert game.value == pytest.approx(reference.value, abs=1e-6)
        _assert_sound_game(game, inst, oracle)

    @pytest.mark.parametrize(
        "inst",
        [
            k_selection_instance(6, 1, lower=[0, 1, 2, 0, 1, 2], upper=[3, 2, 5, 1, 4, 2]),
            k_selection_instance(6, 6, lower=[0, 1, 2, 0, 1, 2], upper=[3, 2, 5, 1, 4, 2]),
            k_selection_instance(5, 1, scenarios=[[1, 0, 2, 3, 1], [0, 2, 1, 1, 3]]),
            k_selection_instance(5, 5, scenarios=[[1, 0, 2, 3, 1], [0, 2, 1, 1, 3]]),
            tight_interval(),
            tight_discrete(4),
            k_selection_instance(3, 1, lower=[2, 3, 4], upper=[2, 3, 4]),
            k_selection_instance(5, 2, lower=[1, 1, 1, 1, 1], upper=[1, 1, 1, 1, 1]),
            k_selection_instance(
                4, 2, lower=[1.0, 1.0, 0.0, 0.5], upper=[1.0, 1.0, 2.0, 1.5]
            ),
        ],
        ids=[
            "interval-k1",
            "interval-kn",
            "scenarios-k1",
            "scenarios-kn",
            "tight-interval",
            "tight-discrete",
            "degenerate",
            "degenerate-ties",
            "partially-degenerate",
        ],
    )
    def test_edge_cases(self, inst):
        oracle = build_oracle(inst)
        game = solve_randomized(inst, oracle=oracle)
        reference = _double_oracle(inst, 1e-7, 10000, oracle)
        brute, _, _ = bruteforce_game_value(inst, oracle=oracle)
        assert game.value == pytest.approx(reference.value, abs=1e-6)
        assert game.value == pytest.approx(brute, abs=1e-6)
        _assert_sound_game(game, inst, oracle)

    @staticmethod
    def _check_at_scale(inst, reference, tol=1e-6):
        """Checks the direct solve; returns its wall time in seconds."""
        oracle = build_oracle(inst)
        started = time.perf_counter()
        game = solve_randomized(inst, oracle=oracle)
        elapsed = time.perf_counter() - started
        assert game.iterations == 1
        _assert_sound_game(game, inst, oracle)
        upper = max_expected_regret(game.marginal, inst, oracle).value
        lower = player_best_response(game.adversary, inst, oracle).value
        assert lower - 1e-9 <= game.value <= upper + 1e-9
        assert game.value == pytest.approx(reference(inst, oracle), abs=tol)
        return elapsed

    # Beyond desk scale: the double oracle takes about 0.7 s on seed 1 and
    # about 22 s on seed 2.  HiGHS solves the compact interval LP.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_interval_n200(self, seed):
        inst = generate_instance("k-selection", n=200, uncertainty="interval", seed=seed)
        elapsed = self._check_at_scale(
            inst, lambda inst, oracle: _highs_interval_k_selection(inst), 1e-9
        )
        assert elapsed < 120.0

    # The compact interval LP that the threshold search replaced took about
    # 0.25 s per case here on a 2-vCPU machine.
    @pytest.mark.parametrize("seed", [1, 2])
    def test_interval_n300(self, seed):
        inst = generate_instance("k-selection", n=300, uncertainty="interval", seed=seed)
        elapsed = self._check_at_scale(
            inst, lambda inst, oracle: _highs_interval_k_selection(inst), 1e-9
        )
        assert elapsed < 60.0

    # Every other item has a width of at most 1e-6 above a common lower bound
    # of 2, so the values are below 1e-5.  HiGHS on these instances misses
    # the value by up to 4e-8, whatever its tolerances.  Every set has k
    # items, so the value scales with any affine map c -> a + b*c (b > 0) of
    # the costs, and HiGHS solves the instance mapped onto widths of at most 1.
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_interval_tiny_widths(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        k = int(rng.integers(1, n + 1))
        width = rng.uniform(0.0, 1e-6, n) * (np.arange(n) % 2 == 0)
        inst = k_selection_instance(n, k, lower=np.full(n, 2.0), upper=2.0 + width)
        scale = width.max()
        mapped = k_selection_instance(n, k, lower=np.zeros(n), upper=width / scale)
        self._check_at_scale(
            inst, lambda inst, oracle: scale * _highs_interval_k_selection(mapped), 1e-9
        )

    def test_16_scenarios_n400(self):
        inst = generate_instance(
            "k-selection", n=400, uncertainty="scenarios", n_scenarios=16, seed=1
        )
        self._check_at_scale(inst, _highs_scenario_k_selection)

    # About 0.03 s in-process on a 2-vCPU machine; with the two-phase LP
    # that the anchored one replaced, 0.1 s.
    def test_16_scenarios_n1000(self):
        inst = generate_instance(
            "k-selection", n=1000, uncertainty="scenarios", n_scenarios=16, seed=1
        )
        assert self._check_at_scale(inst, _highs_scenario_k_selection) < 10.0

    # The scenario LP is anchored at the mean-cost set A: t0, the largest
    # regret of A, is 0 for a single scenario and for identical ones.
    @pytest.mark.parametrize(
        "inst",
        [
            k_selection_instance(4, 2, scenarios=[[-3, 1, -1, 2], [0, -2, 4, -4]]),
            k_selection_instance(5, 3, scenarios=[[-1, -4, 2, 0, 3], [2, 1, -3, -4, -2],
                                                  [-2, 0, 1, -1, 4]]),
            k_selection_instance(4, 2, scenarios=[[1, 2, 3, 4]] * 3),
            k_selection_instance(5, 2, scenarios=[[3, -1, 2, 0, 1]]),
            k_selection_instance(4, 2, scenarios=[[1, 1, 2, 2], [2, 2, 1, 1]]),
            k_selection_instance(5, 2, scenarios=[[1, 1, 1, 1, 1], [0, 0, 0, 0, 0]]),
        ],
        ids=[
            "negative-costs",
            "negative-costs-3-scenarios",
            "identical-scenarios",
            "single-scenario",
            "tied-costs",
            "all-tied",
        ],
    )
    def test_anchored_lp_edge_cases(self, inst):
        oracle = build_oracle(inst)
        game = solve_randomized(inst, oracle=oracle)
        brute, _, _ = bruteforce_game_value(inst, oracle=oracle)
        assert game.value == pytest.approx(brute, abs=1e-9)
        _assert_sound_game(game, inst, oracle)

    def test_anchor_already_optimal(self):
        # A = {0}, the mean-cost set, has regret 1 in both scenarios; any
        # weight moved to item 1 or 2 costs 5 in one scenario and saves 1
        inst = k_selection_instance(3, 1, scenarios=[[1, 0, 5], [1, 5, 0]])
        oracle = build_oracle(inst)
        assert oracle.solve(adversary_side(inst, oracle).seed_costs)[0].indices == (0,)
        game = solve_randomized(inst, oracle=oracle)
        assert game.value == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(game.marginal.p, [1.0, 0.0, 0.0])
        assert game.player.support_size == 1
        _assert_sound_game(game, inst, oracle)

    def test_seeded_corpus_against_bruteforce(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            scenarios = rng.integers(-4, 5, size=(int(rng.integers(1, 5)), n))
            inst = k_selection_instance(n, k, scenarios=scenarios)
            oracle = build_oracle(inst)
            game = solve_randomized(inst, oracle=oracle)
            brute, _, _ = bruteforce_game_value(inst, oracle=oracle)
            assert game.value == pytest.approx(brute, abs=1e-9)
            assert game.certified_gap <= 1e-7


# Scenario k-selection n=2000, 16 scenarios, seed 1: both restricted games
# reach a confirmed optimum whose mixes miss the bracket (payoff span 2722,
# bracket tol 2.7e-6).  The kernel accepts reduced costs down to
# -PIVOT_TOL, and on the adversary LP's 391 x 16 game the smallest
# (Q z)_i - 1 is -7.1e-10, which concedes 2.8e-6 in payoff units; the
# matrix game re-prices such an optimum (2 and 3 pivots here).
def _ks2000s16():
    inst = generate_instance(
        "k-selection", n=2000, uncertainty="scenarios", n_scenarios=16, seed=1
    )
    oracle = build_oracle(inst)
    return inst, oracle, solve_randomized(inst, oracle=oracle).value  # the compact LP


def test_double_oracle_scenario_k_selection_n2000():
    inst, oracle, value = _ks2000s16()
    game = _double_oracle(inst, 1e-7, 10000, oracle)
    assert game.value == pytest.approx(value, abs=1e-9)


def test_adversary_lp_scenario_k_selection_n2000():
    inst, oracle, value = _ks2000s16()
    _, z_ar, _ = solve_adversary_lp_discrete(inst, oracle=oracle)
    assert z_ar == pytest.approx(value, abs=1e-9)


# The scenario axis: the adversary LP's restricted game gets about 10x slower
# per doubling of the scenario count on k-selection.  On a 2-vCPU machine it
# took 3.4 s and the compact LP 0.016 s; both read 121.9824413834.
def test_adversary_lp_k_selection_128_scenarios():
    inst = generate_instance(
        "k-selection", n=100, uncertainty="scenarios", n_scenarios=128, seed=1
    )
    oracle = build_oracle(inst)
    compact = solve_randomized(inst, oracle=oracle).value
    started = time.perf_counter()
    _, z_ar, _ = solve_adversary_lp_discrete(inst, oracle=oracle)
    elapsed = time.perf_counter() - started
    assert abs(z_ar - compact) <= VALUE_TOL
    assert elapsed < 120.0


# The double oracle on interval k-selection at n=200, which solve_randomized
# leaves to the threshold search.  Taking the most infeasible row in the dual
# pass, seeds 1 and 3 took 55,468 and 44,112 pivots (3.9 and 2.6 s on a
# 2-vCPU machine); under dual steepest edge, 10,443 and 6,041 (0.7 and 0.4 s).
@pytest.mark.parametrize("seed", [1, 3])
def test_double_oracle_interval_k_selection_n200(seed):
    inst = generate_instance("k-selection", n=200, uncertainty="interval", seed=seed)
    oracle = build_oracle(inst)
    started = time.perf_counter()
    game = _double_oracle(inst, 1e-7, 10000, oracle)
    elapsed = time.perf_counter() - started
    assert 0.0 <= game.certified_gap <= 1e-7
    assert abs(game.value - solve_randomized(inst, oracle=oracle).value) <= VALUE_TOL
    assert elapsed < 5.0


@given(
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool + [0.0, -0.0]), max_size=200)
    )
)
def test_sorted_unique_is_np_unique_on_floats(values):
    # signs of zero included: among equal zeros both keep the first one sorted
    a = np.array(values, dtype=float)
    got, want = _sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3), max_size=200))
def test_sorted_unique_is_np_unique_on_ints(values):
    a = np.array(values, dtype=np.int64)
    got, want = _sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(st.integers(_BRACKET_WIDTH, 5000), st.floats(0.0, 1.0))
def test_convex_bracket_rounds_to_increasing_indices(size, at):
    # with xs = 0, 1, 2, ... each point evaluated is its own index
    xs = np.arange(float(size))
    target = at * (size - 1)
    rounds = []

    def f(points):
        if len(points) == _BRACKET_WIDTH:
            rounds.append(points.astype(int))
        return (points - target) ** 2

    left, right = _convex_bracket(f, xs, 0.5)
    assert rounds
    for idx in rounds:
        assert np.all(np.diff(idx) > 0)
    assert left <= target <= right


class TestThresholdKSelection:
    """Interval k-selection by the scalar threshold search."""

    @pytest.mark.parametrize(
        "inst",
        [
            k_selection_instance(6, 3, lower=[2, 2, 2, 2, 2, 2], upper=[3, 7, 4, 2, 6, 5]),
            k_selection_instance(
                7, 3, lower=[1, 1, 0, 0, 2, 2, 1], upper=[4, 4, 3, 3, 5, 5, 4]
            ),
            k_selection_instance(6, 2, lower=[1, 0, 2, 3, 1, 0], upper=[1, 4, 2, 3, 5, 0]),
            k_selection_instance(6, 1, lower=[3, 1, 4, 1, 5, 9], upper=[6, 2, 7, 8, 5, 9]),
            k_selection_instance(6, 6, lower=[3, 1, 4, 1, 5, 9], upper=[6, 2, 7, 8, 5, 9]),
            k_selection_instance(5, 2, lower=[1, 1, 1, 1, 1], upper=[2, 2, 2, 2, 2]),
            k_selection_instance(1, 1, lower=[2.5], upper=[4.0]),
            # no fractional item pins the cardinality price: a range of
            # prices makes p a cheapest fill, and mu must use one inside it
            k_selection_instance(3, 1, lower=[2, 3, 3], upper=[2, 6, 6]),
            k_selection_instance(4, 2, lower=[0, 3, 0, 1], upper=[1, 4, 0, 4]),
        ],
        ids=[
            "equal-lower",
            "duplicated-pairs",
            "zero-width-items",
            "k1",
            "kn",
            "all-identical",
            "single-item",
            "free-price",
            "free-price-k2",
        ],
    )
    def test_degenerate_instances(self, inst):
        oracle = build_oracle(inst)
        game = solve_randomized(inst, oracle=oracle)
        brute, _, _ = bruteforce_game_value(inst, oracle=oracle)
        assert game.iterations == 1
        assert game.value == pytest.approx(brute, abs=1e-9)
        assert game.value == pytest.approx(_highs_interval_k_selection(inst), abs=1e-9)
        assert game.value == pytest.approx(
            _double_oracle(inst, 1e-7, 10000, oracle).value, abs=1e-7
        )
        _assert_sound_game(game, inst, oracle)
        # strong duality between the two threshold searches
        unc, k = inst.uncertainty, oracle.k
        fill = solvers_mod._ThresholdFill(unc.lower, unc.upper, k)
        adv = fill.for_adversary()
        beta = adv.best_alpha()
        z = fill.h(fill.best_alpha())[0]
        assert z == pytest.approx(-adv.h(beta)[0], abs=1e-9 * (1.0 + abs(z)))
        assert adv.marginal(beta).sum() == pytest.approx(k, abs=1e-9)

    # Zero-width items alternate with wide ones, and k leaves only a few
    # items out: the player's marginal sits within round-off of 1 on items
    # whose cost cannot move, and the adversary's point must still sum to k.
    @pytest.mark.parametrize(
        "n,k,upper",
        [(300, 279, [3.0, 2.0] * 150), (182, 154, [2.3, 2.0] * 91)],
        ids=["n300", "n182"],
    )
    def test_alternating_zero_widths(self, n, k, upper):
        inst = k_selection_instance(n, k, lower=[2.0] * n, upper=upper)
        oracle = build_oracle(inst)
        game = solve_randomized(inst, oracle=oracle)
        assert game.value == pytest.approx(_highs_interval_k_selection(inst), abs=1e-9)
        _assert_sound_game(game, inst, oracle)

    def test_optimum_on_an_endpoint(self):
        # h is least at alpha* = 4 = u_1 and strictly larger on either side
        inst = k_selection_instance(3, 2, lower=[1, 0, 3], upper=[5, 4, 5])
        unc = inst.uncertainty
        fill = solvers_mod._ThresholdFill(unc.lower, unc.upper, 2)
        assert fill.best_alpha() == 4.0
        assert fill.h(4.0)[0] == pytest.approx(1.5, abs=1e-12)
        assert fill.h([4.0 - 1e-3, 4.0 + 1e-3]).min() > 1.5 + 1e-6
        game = solve_randomized(inst)
        assert game.value == pytest.approx(1.5, abs=1e-12)
        assert game.value == pytest.approx(_highs_interval_k_selection(inst), abs=1e-9)
        _assert_sound_game(game, inst, build_oracle(inst))

    def test_near_duplicate_endpoints(self):
        # 3.3 and 3.3000000000000003 are one ulp apart: a bisection that
        # compared h there went the wrong way and missed the optimum by 0.01
        lower = [6.6, 0.3, 6.3, 1.8, 9.2, 6.9, 9.2, 9.9, 4.5, 3.1, 1.9, 4.2, 8.6, 7.6,
                 5.6, 2.2, 3.3, 4.7, 9.6, 0.1, 1.4, 7.1, 9.8, 1.7, 1.8, 8.7, 1.0, 6.4,
                 6.8, 2.4, 6.2, 7.6, 1.2, 0.7, 8.1, 5.4, 6.5]
        width = [0.0, 2.7, 0.0, 4.4, 4.4, 0.0, 0.0, 0.8, 3.6, 3.7, 2.6, 2.4, 4.5, 0.2,
                 0.0, 2.1, 0.0, 0.0, 4.4, 3.2, 0.0, 3.7, 0.0, 0.0, 0.0, 2.8, 2.3, 0.0,
                 0.0, 0.0, 0.0, 0.6, 4.1, 2.3, 4.6, 0.8, 0.0]
        inst = k_selection_instance(
            37, 11, lower=lower, upper=np.add(lower, width)
        )
        game = solve_randomized(inst)
        assert game.value == pytest.approx(_highs_interval_k_selection(inst), abs=1e-9)
        _assert_sound_game(game, inst, build_oracle(inst))

    def test_wrong_adversary_point_raises(self, monkeypatch):
        real = solvers_mod._ThresholdFill.marginal

        def shifted(fill, alpha):
            mu = real(fill, alpha)
            if fill._sign > 0:  # the player's fill stays as it is
                return mu
            # still in conv(X): a third of a unit moves between two items
            give, take = int(np.argmax(mu)), int(np.argmin(mu))
            mu[give] -= 1.0 / 3.0
            mu[take] += 1.0 / 3.0
            return mu

        monkeypatch.setattr(solvers_mod._ThresholdFill, "marginal", shifted)
        inst = generate_instance("k-selection", n=20, uncertainty="interval", seed=1)
        with pytest.raises(SolverError, match="best-response gap"):
            solve_randomized(inst)

    @pytest.mark.parametrize("n,z_r,z_d", [(200, None, None), (1000, 483.007625, 792.251071)])
    def test_gap_bound_chain_at_scale(self, n, z_r, z_d):
        """Z_R <= Z_D <= R_max(midpoint) <= 2 Z_R, the paper's interval bound."""
        inst = generate_instance("k-selection", n=n, uncertainty="interval", seed=1)
        oracle = build_oracle(inst)
        started = time.perf_counter()
        game = solve_randomized(inst, oracle=oracle)
        randomized = time.perf_counter() - started
        T, value = solve_deterministic_exact(inst, oracle=oracle)
        deterministic = time.perf_counter() - started - randomized
        assert randomized < 10.0 and deterministic < 10.0
        _, rmax = approx_midpoint(inst, oracle=oracle)
        assert game.certified_gap <= 1e-7
        assert value == max_regret_det(T, inst, oracle)
        assert game.value <= value + 1e-9
        assert value <= rmax + 1e-9
        assert rmax <= 2.0 * game.value + 1e-9
        if z_r is not None:
            assert game.value == pytest.approx(z_r, abs=1e-6)
            assert value == pytest.approx(z_d, abs=1e-6)


def _enumerated_deterministic(inst):
    """Deterministic minmax regret by scanning the sorted family."""
    oracle = build_oracle(inst)
    best, best_val = None, np.inf
    for T in sorted(oracle.enumerate_feasible(), key=lambda T: T.indices):
        val = max_regret_det(T, inst, oracle)
        if val < best_val:
            best, best_val = T, val
    return best, best_val


class TestSolveDeterministic:
    def test_tight_discrete(self):
        _, z_d = solve_deterministic_exact(tight_discrete(3))
        assert z_d == 1.0

    def test_tight_interval(self):
        _, z_d = solve_deterministic_exact(tight_interval())
        assert z_d == 1.0

    def test_single_scenario_optimum(self):
        inst = k_selection_instance(3, 1, scenarios=[[4.0, 2.0, 3.0]])
        T, z_d = solve_deterministic_exact(inst)
        assert z_d == pytest.approx(0.0)
        assert T.indices == (1,)

    def test_tie_break_is_lexicographic(self):
        inst = tight_discrete(3)
        T, _ = solve_deterministic_exact(inst)
        assert T.indices == (0,)

    @pytest.mark.parametrize("seed", range(1, 7))
    @pytest.mark.parametrize("n", range(4, 13))
    def test_endpoint_scan_matches_enumeration(self, n, seed):
        inst = generate_instance("k-selection", n=n, uncertainty="interval", seed=seed)
        T, value = solve_deterministic_exact(inst)
        ref_T, ref_value = _enumerated_deterministic(inst)
        assert T.indices == ref_T.indices
        assert value == ref_value

    @pytest.mark.parametrize(
        "inst",
        [
            tight_interval(),
            k_selection_instance(6, 1, lower=[0, 1, 2, 0, 1, 2], upper=[3, 2, 5, 1, 4, 2]),
            k_selection_instance(6, 6, lower=[0, 1, 2, 0, 1, 2], upper=[3, 2, 5, 1, 4, 2]),
            k_selection_instance(3, 1, lower=[2, 3, 4], upper=[2, 3, 4]),
            k_selection_instance(5, 2, lower=[1, 1, 1, 1, 1], upper=[1, 1, 1, 1, 1]),
            k_selection_instance(
                4, 2, lower=[1.0, 1.0, 0.0, 0.5], upper=[1.0, 1.0, 2.0, 1.5]
            ),
            k_selection_instance(6, 3, lower=[1, 1, 1, 1, 1, 1], upper=[2, 3, 2, 3, 2, 3]),
            k_selection_instance(5, 2, lower=[0, 1, 2, 3, 4], upper=[4, 4, 4, 4, 4]),
            # two thresholds reach Z_D, and the later one holds the
            # lexicographically smaller set
            k_selection_instance(5, 2, lower=[1, 0, 2, 2, 3], upper=[3, 0, 2, 3, 6]),
        ],
        ids=[
            "tight-interval",
            "interval-k1",
            "interval-kn",
            "degenerate",
            "degenerate-ties",
            "partially-degenerate",
            "equal-lower",
            "equal-upper",
            "ties-across-thresholds",
        ],
    )
    def test_endpoint_scan_ties(self, inst):
        T, value = solve_deterministic_exact(inst)
        ref_T, ref_value = _enumerated_deterministic(inst)
        assert T.indices == ref_T.indices
        assert value == ref_value

    def test_endpoint_scan_ignores_the_cap(self, monkeypatch):
        monkeypatch.setenv("REGRET_ENUM_CAP", "10")
        inst = generate_instance("k-selection", n=30, uncertainty="interval", seed=1)
        T, value = solve_deterministic_exact(inst)
        assert T.size == inst.nominal.k
        assert value == max_regret_det(T, inst)


@pytest.mark.parametrize("family", ["k-selection", "spanning-tree", "dag-path"])
def test_interval_best_response_is_optimal_at_its_own_costs(family):
    """The adversary's best response A to a marginal p minimizes l + d*p, so
    no set beats A at c^A (it would out-regret A against p): the optimum at
    c^A is l(A), the column optimum the double oracle stores unsolved."""
    for n, seed in ((12, 1), (40, 2), (90, 3)):
        inst = generate_instance(family, n=n, uncertainty="interval", seed=seed)
        oracle, unc = build_oracle(inst), inst.uncertainty
        rng = np.random.default_rng([n, seed])
        for _ in range(20):
            sets = [oracle.solve(rng.random(n))[0].indicator for _ in range(rng.integers(1, 6))]
            p = rng.dirichlet(np.ones(len(sets))) @ np.array(sets, dtype=float)
            br = max_expected_regret(MarginalVector(p), inst, oracle)
            opt = oracle.solve(br.cost.values)[1]
            assert abs(unc.lower @ br.chosen_set.indicator - opt) <= 1e-12 * max(1.0, abs(opt))


def test_interval_columns_store_their_optimum_without_a_solve(monkeypatch):
    inst = generate_instance("spanning-tree", n=30, uncertainty="interval", seed=1)
    oracle = build_oracle(inst)
    side = adversary_side(inst, oracle)
    game = solvers_mod._RestrictedGame(inst.n, side, every_scenario=False)
    br = max_expected_regret(MarginalVector(np.full(30, 0.5)), inst, oracle)
    solves = []
    solve = oracle.solve
    monkeypatch.setattr(oracle, "solve", lambda c: solves.append(c) or solve(c))
    game.grow(side.respond(np.full(30, 0.5))[1], None)
    assert len(solves) == 1  # the response's own solve; none for the column
    monkeypatch.undo()
    assert game.optima.rows[-1] == oracle.solve(br.cost.values)[1]
    assert game.labels[-1] == br.chosen_set


def _optima_rows(monkeypatch, oracle) -> list[int]:
    """The row count of each later ``oracle.optima`` call, in call order."""
    calls, optima = [], oracle.optima
    monkeypatch.setattr(oracle, "optima", lambda costs: calls.append(len(costs)) or optima(costs))
    return calls


def test_threshold_certificate_solves_no_generator_optimum(monkeypatch):
    # each generator A's optimum is l(A); solving them one by one took 129 rows
    inst = generate_instance("k-selection", n=300, uncertainty="interval", seed=1)
    oracle = build_oracle(inst)
    calls = _optima_rows(monkeypatch, oracle)
    game = solve_randomized(inst, oracle=oracle)
    assert calls == []
    assert game.certified_gap <= 1e-7


def test_compact_lp_solves_the_scenario_optima_once(monkeypatch):
    # the LP, the marginal's best response and the mix's response share them
    inst = generate_instance(
        "k-selection", n=400, uncertainty="scenarios", n_scenarios=16, seed=1
    )
    oracle = build_oracle(inst)
    calls = _optima_rows(monkeypatch, oracle)
    game = solve_randomized(inst, oracle=oracle)
    assert calls == [16]
    assert game.certified_gap <= 1e-7


def test_compact_lp_breakdown_is_a_solver_error(monkeypatch):
    from minregret.lp import LpSolution

    broken = LpSolution("breakdown", None, None, None, 0, 0, reason="budget")
    monkeypatch.setattr(solvers_mod.WarmLP, "solve", lambda self, iterate=False: broken)
    inst = k_selection_instance(3, 1, scenarios=np.eye(3))
    with pytest.raises(
        SolverError, match=r"^compact k-selection LP ended with status breakdown \(budget\)$"
    ):
        solve_randomized(inst)


def test_certified_game_reports_a_marginal_outside_the_hull():
    inst = tight_discrete(3)
    side = adversary_side(inst, build_oracle(inst))
    with pytest.raises(SolverError, match="^probe answer outside the hull: "):
        solvers_mod._certified_game(side, 1e-7, 0.0, np.zeros(3), lambda: None, "probe")


def test_bruteforce_solves_the_scenario_optima_once(monkeypatch):
    # the payoff's exhaustive optima; the side solves its own only when used
    inst = generate_instance(
        "spanning-tree", n=9, uncertainty="scenarios", n_scenarios=8, seed=1
    )
    oracle = build_oracle(inst)
    calls = _optima_rows(monkeypatch, oracle)
    value, _, _ = bruteforce_game_value(inst, oracle=oracle)
    assert calls == [8]
    monkeypatch.undo()
    assert value == pytest.approx(solve_randomized(inst).value, abs=1e-7)


# A tolerance is a finite number at least 0 and an iteration limit an
# integer at least 1, as the CLI requires; anything else names its parameter.
@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, -1e-300, "1e-7", True, None])
def test_solvers_reject_an_unusable_tol(tol):
    inst = generate_instance("spanning-tree", n=12, uncertainty="scenarios", n_scenarios=4, seed=1)
    oracle = build_oracle(inst)
    for run in (
        lambda: solve_randomized(inst, tol=tol),
        lambda: solve_adversary_lp_discrete(inst, tol=tol),
        lambda: decompose_marginal(MarginalVector(np.full(12, 0.5)), oracle, tol=tol),
    ):
        with pytest.raises(InstanceError, match="^tol must be a finite number >= 0"):
            run()


@pytest.mark.parametrize("max_iter", [0, -3, 1.5, np.nan, True, "10"])
def test_solve_randomized_rejects_an_unusable_max_iter(max_iter):
    inst = generate_instance("spanning-tree", n=12, uncertainty="interval", seed=1)
    with pytest.raises(InstanceError, match="^max_iter must be"):
        solve_randomized(inst, max_iter=max_iter)


def test_zero_tol_and_integral_max_iter_are_accepted():
    inst = generate_instance("spanning-tree", n=12, uncertainty="interval", seed=1)
    game = solve_randomized(inst, max_iter=np.int64(100))
    assert solve_randomized(inst, max_iter=100.0).value == game.value
    T = game.player.support[0]
    p = MarginalVector(T.indicator.astype(float))
    strategy = decompose_marginal(p, build_oracle(inst), tol=0)
    assert strategy.support == (T,)
    with pytest.raises(IterationLimitError):
        solve_randomized(inst, max_iter=1)


def test_adversary_lp_cut_budget_raises_iteration_limit(monkeypatch):
    inst = generate_instance(
        "spanning-tree", n=12, uncertainty="scenarios", n_scenarios=4, seed=1
    )
    _, value, player = solve_adversary_lp_discrete(inst)
    assert len(player.support) > 1
    for cuts in (1, 2, 3):
        monkeypatch.setattr(solvers_mod, "MAX_CUTS", cuts)
        with pytest.raises(IterationLimitError) as info:
            solve_adversary_lp_discrete(inst)
        assert info.value.iterations == cuts
        # every cut proves a lower bound as well as an upper one
        assert info.value.lower <= value <= info.value.upper


# A loop whose oracle keeps reporting the set it found first generates
# nothing new, and must stall with its own error, raised from a confirmed
# solve.
@pytest.mark.parametrize("family", ["spanning-tree", "k-selection"])
@pytest.mark.parametrize("uncertainty", ["interval", "scenarios"])
def test_double_oracle_stall_raises(monkeypatch, family, uncertainty):
    inst = generate_instance(family, n=12, uncertainty=uncertainty, n_scenarios=4, seed=1)
    log = _record_solves(monkeypatch)
    with pytest.raises(SolverError, match="double oracle stalled with residual gap"):
        _double_oracle(inst, 1e-7, 10000, RepeatingOracle(build_oracle(inst)))
    refreshes, last_pivots = log[-1]
    assert refreshes >= 1 and last_pivots == 0


# The adversary LP is the double oracle's loop started with every scenario,
# so it stalls with the loop's error.
@pytest.mark.parametrize("family", ["spanning-tree", "k-selection"])
def test_adversary_lp_stall_raises(family):
    inst = generate_instance(family, n=12, uncertainty="scenarios", n_scenarios=4, seed=1)
    with pytest.raises(SolverError, match="double oracle stalled with residual gap"):
        solve_adversary_lp_discrete(inst, oracle=RepeatingOracle(build_oracle(inst)))


# The instance set of tests/answer_digest.py.  The double oracle used to
# report the gap of its raw LP weights, before they were merged, dropped and
# renormalised, and so missed the returned pair's bracket on seven scenario
# instances: spanning trees n=6 s2, n=30 s3, n=60 s2 and s3, DAG paths n=9
# s2, n=30 s2 and n=60 s1.
@pytest.mark.parametrize("uncertainty", ["scenarios", "interval"])
@pytest.mark.parametrize("family", ["k-selection", "spanning-tree", "dag-path"])
def test_certified_gap_is_the_bracket_of_the_returned_pair(family, uncertainty):
    for n in (6, 9, 30, 60):
        for seed in (1, 2, 3):
            inst = generate_instance(
                family, n=n, uncertainty=uncertainty, n_scenarios=4, seed=seed
            )
            oracle = build_oracle(inst)
            games = [solve_randomized(inst, oracle=oracle)]
            if n <= 9:
                games.append(_double_oracle(inst, 1e-7, 10000, oracle))
            for game in games:
                upper = max_expected_regret(game.marginal, inst, oracle).value
                lower = player_best_response(game.adversary, inst, oracle).value
                bracket = max(0.0, upper - lower)
                if uncertainty == "scenarios":
                    assert game.certified_gap == bracket, (n, seed)
                else:
                    # the solvers take l(A) as the optimum at c^A, a bound on it
                    scale = 1.0 + np.abs(inst.uncertainty.upper).sum()
                    assert abs(game.certified_gap - bracket) <= 1e-12 * scale, (n, seed)


# Only the certificate reads the side's optima, and it takes them on the
# returned pair, so optima one too high leave a gap of about 1 there.
@pytest.mark.parametrize(
    "side, uncertainty, solve",
    [
        (ScenarioSide, "scenarios", solve_randomized),
        (ScenarioSide, "scenarios", solve_adversary_lp_discrete),
        (IntervalSide, "interval", solve_randomized),
    ],
    ids=["randomized-scenarios", "adversary-lp", "randomized-interval"],
)
def test_double_oracle_certifies_the_returned_pair(monkeypatch, side, uncertainty, solve):
    inst = generate_instance(
        "spanning-tree", n=12, uncertainty=uncertainty, n_scenarios=4, seed=1
    )
    optima = side.optima
    monkeypatch.setattr(side, "optima", lambda self, mix: optima(self, mix) + 1.0)
    with pytest.raises(SolverError, match="^double oracle left a best-response gap 1"):
        solve(inst)


def test_double_oracle_iteration_limit_reports_the_best_bracket():
    inst = generate_instance("spanning-tree", n=12, uncertainty="interval", seed=1)
    oracle = build_oracle(inst)
    game = _double_oracle(inst, 1e-7, 10000, oracle)
    assert game.iterations > 4
    brackets = []
    for limit in (1, 2, 3, 4):
        text = f"^double oracle exceeded {limit} iterations$"
        with pytest.raises(IterationLimitError, match=text) as info:
            _double_oracle(inst, 1e-7, limit, oracle)
        assert info.value.iterations == limit
        assert info.value.lower <= game.value <= info.value.upper
        brackets.append((info.value.lower, info.value.upper))
    # each run is a prefix of the next, so the best bracket only tightens
    for (lower, upper), (next_lower, next_upper) in zip(brackets, brackets[1:]):
        assert next_lower >= lower and next_upper <= upper


def _scaled(instance, factor):
    """``instance`` with every interval bound multiplied by ``factor``."""
    description = describe_instance(instance)
    for side in ("lower", "upper"):
        description["uncertainty"][side] = [factor * x for x in description["uncertainty"][side]]
    return validate_instance(description)


class _ShiftedOptimum(NominalOracle):
    """The sets of ``oracle``, each reported with its optimum plus ``shift``."""

    def __init__(self, oracle, shift):
        self.oracle, self.n, self.shift = oracle, oracle.n, shift

    def solve(self, costs):
        T, value = self.oracle.solve(costs)
        return T, value + self.shift


# The gaps are tested against the absolute tol = 1e-7 while their round-off
# grows with the costs, so both solves fail at bounds x1e6: the spanning-tree
# double oracle stalls with a residual gap of 1.86e-7.
@pytest.mark.xfail(strict=True, raises=SolverError, reason="absolute tol at large cost scales")
@pytest.mark.parametrize("family, n, seed", [("k-selection", 300, 1), ("spanning-tree", 30, 4)])
def test_randomized_at_large_cost_scale(family, n, seed):
    inst = _scaled(generate_instance(family, n=n, seed=seed), 1e6)
    _assert_sound_game(solve_randomized(inst), inst, build_oracle(inst))


class TestApproximations:
    def test_mean_cost_on_tight_instance(self):
        inst = tight_discrete(3)
        M, rmax = approx_mean_cost(inst)
        assert M.indices == (0,)  # all items tie at mean cost 1/3
        assert rmax == pytest.approx(1.0)

    def test_mean_cost_single_scenario(self):
        inst = k_selection_instance(3, 2, scenarios=[[5.0, 1.0, 2.0]])
        M, rmax = approx_mean_cost(inst)
        assert rmax == pytest.approx(0.0)
        assert M.indices == (1, 2)

    def test_mean_cost_guarantee_random(self, rng):
        for trial in range(5):
            costs = rng.uniform(0, 9, size=(2, 5))
            inst = k_selection_instance(5, 2, scenarios=costs)
            _, rmax = approx_mean_cost(inst)
            z_r = solve_randomized(inst).value
            assert rmax <= 2.0 * z_r + 1e-6

    def test_midpoint_on_tight_instance(self):
        inst = tight_interval()
        M, rmax = approx_midpoint(inst)
        assert M.indices == (0,)
        assert rmax == pytest.approx(1.0)

    def test_midpoint_degenerate_intervals(self):
        inst = k_selection_instance(3, 1, lower=[2, 3, 4], upper=[2, 3, 4])
        _, rmax = approx_midpoint(inst)
        assert rmax == pytest.approx(0.0)

    def test_midpoint_identity_on_spanning_tree(self, rng):
        lo = rng.uniform(0, 5, size=6)
        hi = lo + rng.uniform(0, 5, size=6)
        inst = validate_instance(
            {
                "name": "st6",
                "n": 6,
                "nominal": {
                    "type": "spanning-tree",
                    "vertices": 4,
                    "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3]],
                },
                "uncertainty": {
                    "type": "interval",
                    "lower": lo.tolist(),
                    "upper": hi.tolist(),
                },
            }
        )
        oracle = build_oracle(inst)
        M, rmax = approx_midpoint(inst, oracle)
        inside = M.indicator.astype(bool)
        f_low = oracle.solve(np.where(inside, lo, hi))[1]
        f_flip = oracle.solve(np.where(inside, hi, lo))[1]
        lhs = float((lo + hi) @ M.indicator) - f_low - f_flip
        assert lhs == pytest.approx(rmax, abs=1e-9)
        assert f_low == pytest.approx(float(lo @ M.indicator), abs=1e-9)
        det, _ = adversary_side(inst, oracle).worst_case(M)
        assert det == pytest.approx(rmax)

    def test_midpoint_at_large_cost_scale(self):
        # an absolute 1e-9 on the optimum at M's lower bounds rejected this
        # instance; the check is now relative to the midpoint costs
        inst = _scaled(generate_instance("spanning-tree", n=60, seed=1), 1e6)
        M, rmax = approx_midpoint(inst)
        assert rmax == max_regret_det(M, inst)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_midpoint_rejects_a_wrong_optimum(self, scale):
        inst = _scaled(generate_instance("spanning-tree", n=60, seed=1), scale)
        oracle = _ShiftedOptimum(build_oracle(inst), -1e-6 * scale)
        with pytest.raises(SolverError, match="not optimal at its own lower-bound costs"):
            approx_midpoint(inst, oracle)

    def test_dual_weighted_uniform_equals_mean(self):
        inst = tight_discrete(4)
        w = AdversaryMixedStrategy(
            tuple(CostVector(c) for c in inst.uncertainty.costs),
            np.full(4, 0.25),
        )
        assert approx_dual_weighted(inst, w) == approx_mean_cost(inst)

    def test_dual_weighted_degenerate_scenario(self, rng):
        costs = rng.uniform(0, 9, size=(3, 4))
        inst = k_selection_instance(4, 2, scenarios=costs)
        oracle = build_oracle(inst)
        w = AdversaryMixedStrategy((CostVector(costs[1]),), np.array([1.0]))
        M, _ = approx_dual_weighted(inst, w, oracle)
        assert M == oracle.solve(costs[1])[0]

    def test_dual_weighted_with_equilibrium_weights(self):
        inst = tight_discrete(3)
        game = solve_randomized(inst)
        M, rmax = approx_dual_weighted(inst, game.adversary)
        assert rmax == pytest.approx(1.0)  # any singleton has max regret 1 here

    def test_method_mismatch_raises(self):
        from minregret.core import InstanceError

        with pytest.raises(InstanceError):
            approx_mean_cost(tight_interval())
        with pytest.raises(InstanceError):
            approx_midpoint(tight_discrete(2))
        mix = AdversaryMixedStrategy((CostVector(np.zeros(2)),), [1.0])
        with pytest.raises(InstanceError, match="^dual-weighted approximation requires scenario"):
            approx_dual_weighted(tight_interval(), mix)
        with pytest.raises(InstanceError, match="^the cutting-plane adversary LP requires"):
            solve_adversary_lp_discrete(tight_interval())


class TestAdversaryLp:
    def test_tight_three(self):
        adv, z_ar, player = solve_adversary_lp_discrete(tight_discrete(3))
        assert z_ar == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert np.allclose(adv.probs, 1.0 / 3.0, atol=1e-9)
        assert player.support_size == 3

    def test_single_scenario(self):
        inst = k_selection_instance(3, 1, scenarios=[[4.0, 2.0, 3.0]])
        adv, z_ar, player = solve_adversary_lp_discrete(inst)
        assert z_ar == pytest.approx(0.0, abs=1e-9)
        assert adv.support_size == 1

    def test_matches_randomized_on_random_instances(self, rng):
        for trial in range(8):
            costs = rng.uniform(0, 9, size=(3, 4))
            inst = k_selection_instance(4, 2, scenarios=costs)
            z_r = solve_randomized(inst).value
            _, z_ar, player = solve_adversary_lp_discrete(inst)
            assert z_ar == pytest.approx(z_r, abs=1e-6)
            # row duals form a certified player strategy
            value = max_expected_regret(
                marginal_of_strategy(player), inst
            ).value
            assert value <= z_ar + 1e-6


class TestBruteforceAndInvariants:
    def test_tight_instances(self):
        v_d, _, _ = bruteforce_game_value(tight_discrete(3))
        assert v_d == pytest.approx(1.0 / 3.0, abs=1e-9)
        v_i, _, _ = bruteforce_game_value(tight_interval())
        assert v_i == pytest.approx(0.5, abs=1e-9)

    # three sets fit under the cap, five scenario columns do not
    def test_scenario_count_past_the_cap_refused(self, monkeypatch):
        monkeypatch.setenv("REGRET_ENUM_CAP", "4")
        inst = k_selection_instance(3, 1, scenarios=np.arange(15.0).reshape(5, 3) % 4)
        with pytest.raises(EnumerationCapError, match="^scenario count exceeds the cap$"):
            bruteforce_game_value(inst)

    def test_random_interval_selection_instance(self, rng):
        lo = rng.uniform(0, 5, size=4)
        hi = lo + rng.uniform(0, 5, size=4)
        inst = k_selection_instance(4, 2, lower=lo, upper=hi)
        value, player, adversary = bruteforce_game_value(inst)
        game = solve_randomized(inst)
        assert game.value == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree", "dag-path"])
    def test_suite_invariants(self, family):
        for inst in suite_instances(family, count=6):
            oracle = build_oracle(inst)
            game = solve_randomized(inst, oracle=oracle)
            z_r = game.value
            _, z_d = solve_deterministic_exact(inst, oracle=oracle)
            brute, _, _ = bruteforce_game_value(inst, oracle=oracle)

            assert z_r <= z_d + 1e-9
            factor = 2.0 if inst.is_interval else float(inst.uncertainty.k)
            assert z_r >= z_d / factor - 1e-9
            assert z_r == pytest.approx(brute, abs=1e-6)

            # saddle-point certificates
            ub = max_expected_regret(game.marginal, inst, oracle).value
            lb = player_best_response(game.adversary, inst, oracle).value
            assert ub <= z_r + 1e-6
            assert lb >= z_r - 1e-6
            assert expected_regret(game.player, game.adversary, oracle) == pytest.approx(
                z_r, abs=1e-6
            )

            if inst.is_interval:
                _, rmax = approx_midpoint(inst, oracle)
                assert rmax <= 2.0 * z_r + 1e-6
            else:
                _, z_ar, _ = solve_adversary_lp_discrete(inst, oracle=oracle)
                assert z_ar == pytest.approx(z_r, abs=1e-6)
                _, rmax = approx_mean_cost(inst, oracle)
                assert rmax <= factor * z_r + 1e-6

    # DAG paths n=80 have 2,357 paths: under intervals the payoff would be
    # 2,357 x 2,357, and 2,000 scenarios give 2,357 x 2,000; both are past
    # the guard's 4e6 entries.  The path count refuses them before any path
    # is built, with the guard's own error.
    @pytest.mark.parametrize("uncertainty", ["interval", "scenarios"])
    def test_payoff_guard_refuses_before_enumerating(self, monkeypatch, uncertainty):
        def never(self):
            raise AssertionError("enumerated a family past the payoff guard")

        monkeypatch.setattr(DagPathOracle, "_enumerate", never)
        inst = generate_instance(
            "dag-path", n=80, uncertainty=uncertainty, n_scenarios=2000, seed=1
        )
        with pytest.raises(EnumerationCapError, match="^full payoff matrix would exceed"):
            bruteforce_game_value(inst)

    def test_adversary_strategy_members_of_uncertainty(self):
        game = solve_randomized(tight_interval())
        game.adversary.validate_for(tight_interval())
        game_d = solve_randomized(tight_discrete(3))
        game_d.adversary.validate_for(tight_discrete(3))


def test_solver_lps_start_from_slack_basis(monkeypatch):
    """Each generator run keeps one ``WarmLP``.  Its first solve starts from
    the slack basis (feasible, since every right-hand side is nonnegative),
    and every later solve starts from the basis the previous solve ended at
    plus the slacks of the rows appended since.  A generator that rebuilt
    its LP cold would show up as extra engines."""
    import minregret.lp as lp_mod

    engines = []  # kept alive so that ids stay unique
    history = {}  # id(engine) -> [(shape, start basis, end basis)]
    started = []  # the basis of each kernel run during the current solve
    real_solve = lp_mod.WarmLP.solve
    real_run = lp_mod._kernel.run_simplex

    def recording(self, *args, **kwargs):
        if id(self) not in history:
            engines.append(self)
            history[id(self)] = []
        started.clear()
        sol = real_solve(self, *args, **kwargs)
        assert sol.is_optimal
        # a solve's first kernel run starts from the tableau it kept
        history[id(self)].append((self.shape, started[0], self.basis.copy()))
        return sol

    def run(T, basis, *args, **bounds):
        started.append(basis.copy())
        return real_run(T, basis, *args, **bounds)

    monkeypatch.setattr(lp_mod.WarmLP, "solve", recording)
    monkeypatch.setattr(lp_mod._kernel, "run_simplex", run)

    runs = []

    def one_engine(run, *args):
        before = len(engines)
        try:
            run(*args)
        finally:
            runs.append(engines[before:])

    interval = generate_instance("k-selection", n=12, uncertainty="interval", seed=1)
    oracle = build_oracle(interval)
    # the private entry, since k-selection games skip the double oracle
    game = _double_oracle(interval, 1e-7, 10000, oracle)
    runs.append(engines[:])
    one_engine(
        solve_adversary_lp_discrete,
        generate_instance("spanning-tree", n=12, uncertainty="scenarios", n_scenarios=4, seed=1),
    )

    assert [len(run) for run in runs] == [1, 1]
    for (engine,) in runs:
        solves = history[id(engine)]
        assert len(solves) >= 2
        (m, n), start, _ = solves[0]
        assert np.array_equal(start, np.arange(n, n + m))
        for (prev_shape, _, prev_end), (shape, start, _) in zip(solves, solves[1:]):
            (m0, n0), (m1, n1) = prev_shape, shape
            kept = np.where(prev_end >= n0, prev_end + (n1 - n0), prev_end)
            assert np.array_equal(start, np.concatenate([kept, n1 + m0 + np.arange(m1 - m0)]))


# The two growth loops solve their LP as iterates and decide at confirmed
# solves: these tests run each loop on every generated family.
LOOP_FAMILIES = ("k-selection", "spanning-tree", "dag-path")


def _loop_runs(family, n=12, seed=2):
    """``(label, run)`` for each growth loop on ``family``: the double oracle
    under both uncertainty types and the adversary LP.  Each run asserts
    that the loop's answer holds."""
    interval = generate_instance(family, n=n, uncertainty="interval", seed=seed)
    scenarios = generate_instance(family, n=n, uncertainty="scenarios", n_scenarios=4, seed=seed)

    def game(instance):
        sol = _double_oracle(instance, 1e-7, 10000, build_oracle(instance))
        upper = max_expected_regret(sol.marginal, instance).value
        lower = player_best_response(sol.adversary, instance).value
        assert sol.certified_gap <= 1e-7 and upper - lower <= 1e-7

    def adversary():
        _, value, player = solve_adversary_lp_discrete(scenarios)
        regret = max_expected_regret(marginal_of_strategy(player), scenarios).value
        assert regret == pytest.approx(value, abs=1e-7)

    return [
        ("double-oracle-interval", lambda: game(interval)),
        ("double-oracle-scenarios", lambda: game(scenarios)),
        ("adversary-lp", adversary),
    ]


def _record_solves(monkeypatch):
    """Patch ``WarmLP.solve`` to log ``(refreshes, pivots of its last kernel
    run)`` for every solve; returns the log."""
    import minregret.lp as lp_mod

    log, last_run = [], []
    real_solve = lp_mod.WarmLP.solve
    real_run = lp_mod._kernel.run_simplex

    def run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        last_run[:] = [result[1]]
        return result

    def recording(self, *args, **kwargs):
        sol = real_solve(self, *args, **kwargs)
        log.append((sol.refreshes, last_run[0]))
        return sol

    monkeypatch.setattr(lp_mod.WarmLP, "solve", recording)
    monkeypatch.setattr(lp_mod._kernel, "run_simplex", run)
    return log


@pytest.mark.parametrize("family", LOOP_FAMILIES)
def test_loops_exit_from_confirmed_solves(monkeypatch, family):
    """Every answer and certificate comes from a solve that refreshed and
    whose last kernel run confirmed it without pivoting; the solves before
    it may be unrefreshed iterates."""
    log = _record_solves(monkeypatch)
    iterates = 0
    for label, run in _loop_runs(family):
        log.clear()
        run()
        refreshes, last_pivots = log[-1]
        assert refreshes >= 1 and last_pivots == 0, label
        iterates += sum(r == 0 for r, _ in log)
    assert iterates > 0  # the loops do solve as iterates


# DAG-path games seldom grow both ways in one iteration (one of 30 runs at
# n = 10-30, seeds 1-3), so they are left out here.
@pytest.mark.parametrize("family", ["k-selection", "spanning-tree"])
def test_loop_grows_by_a_new_column_before_a_new_row(monkeypatch, family):
    """Between two solves the game grows by nothing (an iterate re-solved
    confirmed), a column, a row, or a column and then a row, and never by a
    strategy it already holds; started with every scenario, by rows only."""
    import minregret.lp as lp_mod

    events, games = [], []
    solve, grow = lp_mod.MatrixGame.solve, lp_mod.MatrixGame.grow

    def logged_solve(self, *args, **kwargs):
        events.append("|")
        games.append(self)
        return solve(self, *args, **kwargs)

    def logged_grow(self, columns=None, rows=None):
        # one growth: "c" if it carries columns, then "r" if it carries rows
        events.append("c" * (columns is not None) + "r" * (rows is not None))
        return grow(self, columns, rows)

    monkeypatch.setattr(lp_mod.MatrixGame, "solve", logged_solve)
    monkeypatch.setattr(lp_mod.MatrixGame, "grow", logged_grow)
    interval = generate_instance(family, n=12, uncertainty="interval", seed=2)
    scenarios = generate_instance(family, n=12, uncertainty="scenarios", n_scenarios=4, seed=2)
    both = set()  # where an iteration grew the game by a column and a row
    for instance, every_scenario, allowed in (
        (interval, False, {"", "c", "r", "cr"}),
        (scenarios, False, {"", "c", "r", "cr"}),
        (scenarios, True, {"", "r"}),
    ):
        events.clear()
        _double_oracle(instance, 1e-7, 10000, build_oracle(instance), every_scenario)
        growth = "".join(events).split("|")[1:]
        assert set(growth) <= allowed and "r" in growth
        if "cr" in growth:
            both.add(instance.name)
        # distinct strategies of these random instances have distinct payoffs
        payoff = games[-1].payoff
        assert len(np.unique(payoff, axis=0)) == len(payoff)
        assert len(np.unique(payoff, axis=1).T) == payoff.shape[1]
    assert both  # the order was exercised


@pytest.mark.parametrize("family", LOOP_FAMILIES)
def test_iterates_refresh_within_burst_pivots(monkeypatch, family):
    """However the iterates and confirmed solves interleave, a tableau never
    takes more than ``BURST_PIVOTS`` pivots between two exact refreshes."""
    import minregret.lp as lp_mod

    monkeypatch.setattr(lp_mod, "BURST_PIVOTS", 3)
    since = [0]
    statuses = []
    real_run = lp_mod._kernel.run_simplex
    real_refresh = lp_mod._refresh

    def run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        statuses.append(result[0])
        since[0] += result[1]
        assert since[0] <= 3
        return result

    def refresh(*args, **kwargs):
        since[0] = 0
        return real_refresh(*args, **kwargs)

    monkeypatch.setattr(lp_mod._kernel, "run_simplex", run)
    monkeypatch.setattr(lp_mod, "_refresh", refresh)
    # At n=12 seed 2 no dag-path loop reaches 3 pivots between refreshes;
    # at n=16 seed 1 the double oracle does.
    for _, loop in _loop_runs(family, n=16, seed=1):
        since[0] = 0  # each loop starts a new LP from its data
        loop()
    assert lp_mod._kernel.STATUS_PIVOT_LIMIT in statuses  # the limit did bind


@pytest.mark.parametrize("family", LOOP_FAMILIES)
def test_iterate_at_pivot_limit_falls_back_to_confirmed(monkeypatch, family):
    """An iterate whose kernel run stops at the pivot limit takes the
    confirmed path, and the loops still return certified answers."""
    import minregret.lp as lp_mod

    pending = [False]
    log = []
    real_solve = lp_mod.WarmLP.solve
    real_run = lp_mod._kernel.run_simplex

    def solve(self, iterate=False):
        pending[0] = iterate
        sol = real_solve(self, iterate=iterate)
        log.append(sol.refreshes)
        return sol

    def run(*args, **kwargs):
        if pending[0]:  # the iterate's one kernel run
            pending[0] = False
            return lp_mod._kernel.STATUS_PIVOT_LIMIT, 0, 0
        return real_run(*args, **kwargs)

    monkeypatch.setattr(lp_mod.WarmLP, "solve", solve)
    monkeypatch.setattr(lp_mod._kernel, "run_simplex", run)
    for _, loop in _loop_runs(family):
        loop()
    assert log and min(log) >= 1  # every solve was confirmed
