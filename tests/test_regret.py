import numpy as np
import pytest

from minregret.core import (
    AdversaryMixedStrategy,
    CostVector,
    FeasibleSet,
    Intervals,
    MarginalVector,
    marginal_of_strategy,
)
from minregret.nominal import build_oracle
from minregret.regret import (
    IntervalSide,
    ScenarioSide,
    adversary_side,
    extreme_cost_vector,
    max_expected_regret,
    player_best_response,
)

from conftest import (
    brute_max_regret_interval,
    k_selection_instance,
    random_support_strategy,
    tight_discrete,
    tight_interval,
)


def fs(n, *indices):
    return FeasibleSet.from_indices(n, indices)


def worst_case(T, inst, oracle=None):
    return adversary_side(inst, oracle).worst_case(T)


def respond(p, inst, oracle=None):
    """The adversary side's best response to p: value, cost, label."""
    value, (_, cost, _, label) = adversary_side(inst, oracle).respond(p.p)
    return value, cost, label


class TestExtremeCostVector:
    def test_empty_generator_gives_uppers(self):
        unc = Intervals(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        c = extreme_cost_vector(FeasibleSet(np.zeros(2, dtype=np.int8)), unc)
        assert np.array_equal(c.values, [1.0, 1.0])

    def test_full_generator_gives_lowers(self):
        unc = Intervals(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert np.array_equal(extreme_cost_vector(fs(2, 0, 1), unc).values, [0.0, 0.0])

    def test_componentwise(self):
        unc = Intervals(np.array([2.0, 3.0]), np.array([5.0, 4.0]))
        assert np.array_equal(extreme_cost_vector(fs(2, 0), unc).values, [2.0, 4.0])


class TestMaxRegretInterval:
    def test_tight_pair(self):
        inst = tight_interval()
        value, worst = worst_case(fs(2, 0), inst)
        assert value == pytest.approx(1.0)
        assert np.array_equal(worst.values, [1.0, 0.0])

    def test_degenerate_intervals_reduce_to_regret(self):
        inst = k_selection_instance(3, 2, lower=[1, 2, 4], upper=[1, 2, 4])
        from minregret.core import regret

        oracle = build_oracle(inst)
        T = fs(3, 0, 2)
        value, worst = worst_case(T, inst, oracle)
        assert value == pytest.approx(regret(T, np.array([1.0, 2.0, 4.0]), oracle))
        assert np.array_equal(worst.values, [1.0, 2.0, 4.0])

    def test_matches_corner_bruteforce(self):
        inst = k_selection_instance(3, 2, lower=[0, 1, 0], upper=[2, 1, 3])
        value, _ = worst_case(fs(3, 0, 1), inst)
        assert value == pytest.approx(brute_max_regret_interval(fs(3, 0, 1), inst), abs=1e-9)

    def test_corner_bruteforce_on_random_instances(self, rng):
        for trial in range(10):
            lo = rng.uniform(0, 5, size=4)
            hi = lo + rng.uniform(0, 5, size=4)
            inst = k_selection_instance(4, 2, lower=lo, upper=hi)
            oracle = build_oracle(inst)
            for T in oracle.enumerate_feasible():
                value, _ = worst_case(T, inst, oracle)
                assert value == pytest.approx(
                    brute_max_regret_interval(T, inst), abs=1e-9
                )
                assert value >= -1e-12


class TestMaxRegretDiscrete:
    def test_single_scenario(self):
        inst = k_selection_instance(2, 1, scenarios=[[3.0, 5.0]])
        value, idx = worst_case(fs(2, 1), inst)
        assert value == pytest.approx(2.0) and idx == 0

    def test_tight_three(self):
        inst = tight_discrete(3)
        value, idx = worst_case(fs(3, 0), inst)
        assert value == pytest.approx(1.0) and idx == 0

    def test_matches_scan(self, rng):
        costs = rng.uniform(0, 9, size=(3, 4))
        inst = k_selection_instance(4, 2, scenarios=costs)
        oracle = build_oracle(inst)
        from conftest import brute_min

        for T in oracle.enumerate_feasible():
            value, idx = worst_case(T, inst, oracle)
            scans = [
                float(costs[s] @ T.indicator) - brute_min(oracle, costs[s])[1]
                for s in range(3)
            ]
            assert value == pytest.approx(max(scans), abs=1e-9)
            assert idx == int(np.argmax(scans))


class TestMaxExpectedRegretInterval:
    def test_tight_half_half(self):
        inst = tight_interval()
        value, _, _ = respond(MarginalVector(np.array([0.5, 0.5])), inst)
        assert value == pytest.approx(0.5)

    def test_indicator_reduces_to_deterministic(self, rng):
        lo = rng.uniform(0, 5, size=4)
        hi = lo + rng.uniform(0, 5, size=4)
        inst = k_selection_instance(4, 2, lower=lo, upper=hi)
        oracle = build_oracle(inst)
        for T in oracle.enumerate_feasible():
            p = MarginalVector(T.indicator.astype(float))
            value, _, _ = respond(p, inst, oracle)
            det, _ = worst_case(T, inst, oracle)
            assert value == pytest.approx(det, abs=1e-9)

    def test_uneven_marginal_by_hand(self):
        inst = tight_interval()
        value, _, A = respond(MarginalVector(np.array([0.3, 0.7])), inst)
        # candidate sets: {e0} scores upper[1]*0.7 = 0.7, {e1} scores 0.3
        assert value == pytest.approx(0.7)
        assert A.indices == (0,)

    def test_value_matches_formula_at_returned_set(self, rng):
        lo = rng.uniform(0, 4, size=5)
        hi = lo + rng.uniform(0, 4, size=5)
        inst = k_selection_instance(5, 2, lower=lo, upper=hi)
        oracle = build_oracle(inst)
        for _ in range(20):
            y = random_support_strategy(oracle, rng)
            p = marginal_of_strategy(y)
            value, c, A = respond(p, inst, oracle)
            T = A.indicator.astype(bool)
            formula = float(hi[~T] @ p.p[~T]) - float(lo[T] @ (1.0 - p.p[T]))
            assert value == pytest.approx(formula, abs=1e-9)
            # the best-response cost vector realizes that expected regret
            assert np.array_equal(c, extreme_cost_vector(A, inst.uncertainty).values)
            _, opt = oracle.solve(c)
            assert value == pytest.approx(float(c @ p.p) - opt, abs=1e-9)
            br = max_expected_regret(p, inst, oracle)
            assert (br.value, br.chosen_set, br.cost, br.scenario) == (value, A, CostVector(c), None)

    def test_convex_along_segments(self, rng):
        lo = rng.uniform(0, 4, size=4)
        hi = lo + rng.uniform(0, 4, size=4)
        inst = k_selection_instance(4, 2, lower=lo, upper=hi)
        oracle = build_oracle(inst)
        for _ in range(20):
            p1 = marginal_of_strategy(random_support_strategy(oracle, rng)).p
            p2 = marginal_of_strategy(random_support_strategy(oracle, rng)).p
            lam = rng.random()
            mid = MarginalVector(lam * p1 + (1 - lam) * p2)
            v_mid = respond(mid, inst, oracle)[0]
            v1 = respond(MarginalVector(p1), inst, oracle)[0]
            v2 = respond(MarginalVector(p2), inst, oracle)[0]
            assert v_mid <= lam * v1 + (1 - lam) * v2 + 1e-9
            assert v_mid >= -1e-12


class TestMaxExpectedRegretDiscrete:
    def test_single_scenario_optimal_marginal(self):
        inst = k_selection_instance(2, 1, scenarios=[[3.0, 5.0]])
        value, _, s = respond(MarginalVector(np.array([1.0, 0.0])), inst)
        assert value == pytest.approx(0.0) and s == 0

    def test_tight_uniform_ties_to_first_scenario(self):
        inst = tight_discrete(3)
        value, _, s = respond(MarginalVector(np.full(3, 1.0 / 3.0)), inst)
        assert value == pytest.approx(1.0 / 3.0)
        assert s == 0

    def test_matches_direct_scan(self, rng):
        costs = rng.uniform(0, 9, size=(2, 3))
        inst = k_selection_instance(3, 1, scenarios=costs)
        oracle = build_oracle(inst)
        from conftest import brute_min

        p = MarginalVector(np.array([0.2, 0.5, 0.3]))
        value, c, s = respond(p, inst, oracle)
        scans = [
            float(costs[s] @ p.p) - brute_min(oracle, costs[s])[1] for s in range(2)
        ]
        assert value == pytest.approx(max(scans), abs=1e-9)
        assert s == int(np.argmax(scans))
        assert np.array_equal(c, costs[s])
        br = max_expected_regret(p, inst, oracle)
        assert (br.value, br.chosen_set, br.cost, br.scenario) == (value, None, CostVector(c), s)


class TestPlayerBestResponse:
    def test_degenerate_cost_yields_zero_regret(self):
        inst = k_selection_instance(2, 1, scenarios=[[3.0, 5.0]])
        w = AdversaryMixedStrategy(
            (CostVector(np.array([3.0, 5.0])),), np.array([1.0])
        )
        br = player_best_response(w, inst)
        assert br.value == pytest.approx(0.0)
        assert br.chosen_set.indices == (0,)

    def test_tight_uniform_scenarios(self):
        for k in (2, 3, 5):
            inst = tight_discrete(k)
            w = AdversaryMixedStrategy(
                tuple(CostVector(c) for c in inst.uncertainty.costs),
                np.full(k, 1.0 / k),
            )
            br = player_best_response(w, inst)
            assert br.value == pytest.approx(1.0 / k)
            assert br.chosen_set.size == 1

    def test_interval_uniform_extremes(self):
        inst = tight_interval()
        w = AdversaryMixedStrategy(
            (CostVector(np.array([0.0, 1.0])), CostVector(np.array([1.0, 0.0]))),
            np.array([0.5, 0.5]),
        )
        br = player_best_response(w, inst)
        assert br.value == pytest.approx(0.5)
        assert br.chosen_set.size == 1

    def test_value_matches_direct_recompute(self, rng):
        from minregret.core import regret

        inst = k_selection_instance(4, 2, scenarios=rng.uniform(0, 9, size=(3, 4)))
        oracle = build_oracle(inst)
        probs = rng.dirichlet(np.ones(3))
        w = AdversaryMixedStrategy(
            tuple(CostVector(c) for c in inst.uncertainty.costs), probs
        )
        br = player_best_response(w, inst, oracle)
        direct = sum(
            float(pw) * regret(br.chosen_set, c, oracle)
            for c, pw in zip(w.support, w.probs)
        )
        assert br.value == pytest.approx(direct, abs=1e-9)
        # no feasible set does better
        for T in oracle.enumerate_feasible():
            other = sum(
                float(pw) * regret(T, c, oracle) for c, pw in zip(w.support, w.probs)
            )
            assert br.value <= other + 1e-9


class TestAdversarySide:
    def test_interval_instance_gets_the_interval_side(self):
        inst = tight_interval()
        oracle = build_oracle(inst)
        side = adversary_side(inst, oracle)
        assert type(side) is IntervalSide and side.oracle is oracle
        A = fs(2, 0)
        assert side.mix([A], [1.0]).generators == (A,)
        assert np.array_equal(side.seed_costs, [0.5, 0.5])

    def test_scenario_instance_gets_the_scenario_side(self):
        inst = tight_discrete(2)
        side = adversary_side(inst)
        assert type(side) is ScenarioSide and side.oracle is inst.nominal
        assert side.mix([1], [1.0]).scenario_indices == (1,)
        assert np.array_equal(side.seed_costs, inst.uncertainty.costs.mean(axis=0))
        assert np.array_equal(side.opt, [0.0, 0.0])

    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree"])
    def test_generator_optima_bound_the_solved_ones(self, family):
        # l(A) is c^A(A), so never below the optimum at c^A; at an
        # equilibrium mix the two agree to round-off
        from minregret.gen import generate_instance
        from minregret.solvers import solve_randomized

        for seed in (1, 2, 3):
            inst = generate_instance(family, n=40, uncertainty="interval", seed=seed)
            oracle = build_oracle(inst)
            mix = solve_randomized(inst, oracle=oracle).adversary
            solved = oracle.optima(np.stack([c.values for c in mix.support]))
            bound = adversary_side(inst, oracle).optima(mix)
            assert np.all(bound >= solved - 1e-12 * (1.0 + np.abs(solved)))
            assert np.allclose(bound, solved, rtol=0.0, atol=1e-9)
