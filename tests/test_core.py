import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minregret.core import (
    AdversaryMixedStrategy,
    CostVector,
    FeasibleSet,
    InstanceError,
    Intervals,
    MarginalVector,
    PlayerMixedStrategy,
    Scenarios,
    expected_regret,
    marginal_of_strategy,
    regret,
    solution_cost,
)
from minregret.gen import generate_instance
from minregret.io import describe_instance, validate_instance
from minregret.nominal import KSelectionOracle, build_oracle

from conftest import k_selection_instance, tight_discrete


def fs(n, *indices):
    return FeasibleSet.from_indices(n, indices)


class TestValidateInstance:
    def test_two_item_selection_intervals(self):
        inst = validate_instance(
            {
                "name": "pair",
                "n": 2,
                "nominal": {"type": "k-selection", "n": 2, "k": 1},
                "uncertainty": {"type": "interval", "lower": [0, 0], "upper": [1, 1]},
            }
        )
        assert inst.n == 2 and inst.is_interval

    def test_lower_above_upper_names_item(self):
        with pytest.raises(InstanceError, match="item 0"):
            validate_instance(
                {
                    "name": "bad",
                    "n": 1,
                    "nominal": {"type": "k-selection", "n": 1, "k": 1},
                    "uncertainty": {"type": "interval", "lower": [1.0], "upper": [0.0]},
                }
            )

    def test_cyclic_dag_rejected(self):
        with pytest.raises(InstanceError, match="acyclic"):
            validate_instance(
                {
                    "name": "loop",
                    "n": 2,
                    "nominal": {
                        "type": "dag-path",
                        "vertices": 2,
                        "arcs": [[0, 1], [1, 0]],
                        "source": 0,
                        "target": 1,
                    },
                    "uncertainty": {"type": "interval", "lower": [0, 0], "upper": [1, 1]},
                }
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(InstanceError, match="unknown field"):
            validate_instance(
                {
                    "name": "x",
                    "n": 1,
                    "jitter": 3,
                    "nominal": {"type": "k-selection", "n": 1, "k": 1},
                    "uncertainty": {"type": "interval", "lower": [0], "upper": [1]},
                }
            )

    def test_empty_explicit_family_rejected(self):
        with pytest.raises(InstanceError, match="empty"):
            validate_instance(
                {
                    "name": "x",
                    "n": 2,
                    "nominal": {"type": "explicit", "sets": []},
                    "uncertainty": {"type": "interval", "lower": [0, 0], "upper": [1, 1]},
                }
            )

    # The family's oracle is built with the instance, so a graph it refuses
    # is rejected here rather than at the first solve.
    @pytest.mark.parametrize(
        "nominal, text",
        [
            ({"type": "spanning-tree", "vertices": 4, "edges": [[0, 1], [2, 3]]}, "disconnected"),
            (
                {"type": "dag-path", "vertices": 3, "arcs": [[1, 2], [0, 1]], "source": 1, "target": 0},
                "unreachable",
            ),
        ],
    )
    def test_oracle_rejects_the_graph(self, nominal, text):
        with pytest.raises(InstanceError, match=text):
            validate_instance(
                {
                    "name": "x",
                    "n": 2,
                    "nominal": nominal,
                    "uncertainty": {"type": "interval", "lower": [0, 0], "upper": [1, 1]},
                }
            )

    def test_family_item_count_must_match(self):
        with pytest.raises(InstanceError, match="nominal family describes 3 items, instance has 2"):
            validate_instance(
                {
                    "name": "x",
                    "n": 2,
                    "nominal": {"type": "k-selection", "n": 3, "k": 1},
                    "uncertainty": {"type": "interval", "lower": [0, 0], "upper": [1, 1]},
                }
            )

    def test_instance_holds_its_oracle(self, monkeypatch):
        import minregret.nominal as nominal_mod

        orders = []
        real = nominal_mod.topological_order

        def counted(*args):
            orders.append(args)
            return real(*args)

        monkeypatch.setattr(nominal_mod, "topological_order", counted)
        inst = generate_instance("dag-path", n=12, seed=1)
        assert build_oracle(inst) is inst.nominal
        assert isinstance(inst.nominal, nominal_mod.DagPathOracle)
        build_oracle(inst).solve(np.ones(inst.n))
        assert len(orders) == 1  # the DAG is ordered once, when it is checked

    def test_describe_round_trip(self):
        inst = tight_discrete(3)
        again = validate_instance(describe_instance(inst))
        assert describe_instance(again) == describe_instance(inst)


class TestSolutionCost:
    def test_single_item(self):
        assert solution_cost(fs(2, 0), np.array([3.0, 5.0])) == 3.0

    def test_empty_set(self):
        assert solution_cost(FeasibleSet(np.zeros(2, dtype=np.int8)), [7.0, -2.0]) == 0.0

    def test_two_items(self):
        assert solution_cost(fs(2, 0, 1), np.array([3.0, 5.0])) == 8.0


class TestRegret:
    def test_one_of_two(self):
        oracle = KSelectionOracle(2, 1)
        assert regret(fs(2, 1), np.array([3.0, 5.0]), oracle) == 2.0

    def test_argmin_has_zero_regret(self):
        oracle = KSelectionOracle(2, 1)
        best, _ = oracle.solve(np.array([3.0, 5.0]))
        assert regret(best, np.array([3.0, 5.0]), oracle) == 0.0

    def test_two_of_three_against_bruteforce(self):
        oracle = KSelectionOracle(3, 2)
        costs = np.array([1.0, 2.0, 4.0])
        # independent oracle: scan all two-subsets for the optimum
        brute = min(
            costs[list(pair)].sum()
            for pair in [(0, 1), (0, 2), (1, 2)]
        )
        assert brute == 3.0
        assert regret(fs(3, 0, 2), costs, oracle) == pytest.approx(5.0 - brute)

    def test_infeasible_set_rejected(self):
        oracle = KSelectionOracle(3, 2)
        with pytest.raises(InstanceError):
            regret(fs(3, 0), np.array([1.0, 2.0, 3.0]), oracle)

    def test_nonnegative_for_all_feasible_sets(self, rng):
        oracle = KSelectionOracle(5, 2)
        for _ in range(50):
            c = rng.normal(scale=4.0, size=5)
            for T in oracle.enumerate_feasible():
                assert regret(T, c, oracle) >= -1e-12


class TestExpectedRegret:
    def test_degenerate_optimal_pair_is_zero(self):
        oracle = KSelectionOracle(2, 1)
        c = np.array([3.0, 5.0])
        best, _ = oracle.solve(c)
        y = PlayerMixedStrategy((best,), np.array([1.0]))
        w = AdversaryMixedStrategy((CostVector(c),), np.array([1.0]))
        assert expected_regret(y, w, oracle) == 0.0

    def test_tight_two_scenario_value(self):
        inst = tight_discrete(2)
        oracle = build_oracle(inst)
        y = PlayerMixedStrategy((fs(2, 0), fs(2, 1)), np.array([0.5, 0.5]))
        w = AdversaryMixedStrategy(
            tuple(CostVector(c) for c in inst.uncertainty.costs),
            np.array([0.5, 0.5]),
        )
        assert expected_regret(y, w, oracle) == pytest.approx(0.5)

    def test_half_half_against_degenerate_cost(self):
        oracle = KSelectionOracle(2, 1)
        y = PlayerMixedStrategy((fs(2, 0), fs(2, 1)), np.array([0.5, 0.5]))
        w = AdversaryMixedStrategy((CostVector(np.array([0.0, 1.0])),), np.array([1.0]))
        # direct enumeration: picking item 0 gives 0 regret, item 1 gives 1
        assert expected_regret(y, w, oracle) == pytest.approx(0.5)

    def test_matches_double_loop(self, rng):
        oracle = KSelectionOracle(4, 2)
        family = oracle.enumerate_feasible()
        sets = [family[i] for i in rng.choice(len(family), size=3, replace=False)]
        y = PlayerMixedStrategy.cleaned(sets, rng.dirichlet(np.ones(3)))
        costs = [CostVector(rng.uniform(0, 5, size=4)) for _ in range(3)]
        w = AdversaryMixedStrategy.cleaned(costs, rng.dirichlet(np.ones(3)))
        direct = 0.0
        for T, py in zip(y.support, y.probs):
            for c, pw in zip(w.support, w.probs):
                direct += py * pw * regret(T, c, oracle)
        assert expected_regret(y, w, oracle) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree", "dag-path"])
    def test_bilinear_identity_matches_the_pair_loop(self, rng, family):
        # The reference sums the regret of every support pair, solving the
        # nominal problem once per adversary point.
        oracle = build_oracle(generate_instance(family, n=30, seed=1))
        sets = list(dict.fromkeys(oracle.solve(rng.normal(size=oracle.n))[0] for _ in range(40)))
        y = PlayerMixedStrategy.cleaned(sets, rng.dirichlet(np.ones(len(sets))))
        costs = [CostVector(rng.uniform(-5.0, 20.0, size=oracle.n)) for _ in range(40)]
        w = AdversaryMixedStrategy.cleaned(costs, rng.dirichlet(np.ones(40)))
        assert y.support_size > 5
        optima = [oracle.solve(c.values)[1] for c in w.support]
        reference = 0.0
        for T, py in zip(y.support, y.probs):
            for c, pw, best in zip(w.support, w.probs, optima):
                reference += float(py) * float(pw) * (solution_cost(T, c) - best)
        exact = expected_regret(y, w, oracle)
        assert abs(exact - reference) <= 1e-9 * max(1.0, abs(reference))

    @given(lam=st.floats(0.0, 1.0))
    def test_linear_in_adversary_mixture(self, lam):
        oracle = KSelectionOracle(3, 1)
        y = PlayerMixedStrategy(
            (fs(3, 0), fs(3, 1), fs(3, 2)), np.array([0.2, 0.3, 0.5])
        )
        c1 = CostVector(np.array([1.0, 0.0, 2.0]))
        c2 = CostVector(np.array([0.0, 3.0, 1.0]))
        w1 = AdversaryMixedStrategy((c1,), np.array([1.0]))
        w2 = AdversaryMixedStrategy((c2,), np.array([1.0]))
        if lam in (0.0, 1.0):
            mix = w1 if lam == 1.0 else w2
        else:
            mix = AdversaryMixedStrategy((c1, c2), np.array([lam, 1.0 - lam]))
        blended = lam * expected_regret(y, w1, oracle) + (1.0 - lam) * expected_regret(
            y, w2, oracle
        )
        assert expected_regret(y, mix, oracle) == pytest.approx(blended, abs=1e-12)


class TestMarginals:
    def test_two_singletons(self):
        y = PlayerMixedStrategy((fs(2, 0), fs(2, 1)), np.array([0.5, 0.5]))
        assert np.allclose(marginal_of_strategy(y).p, [0.5, 0.5])

    def test_degenerate_is_indicator(self):
        T = fs(3, 0, 2)
        y = PlayerMixedStrategy((T,), np.array([1.0]))
        assert np.array_equal(marginal_of_strategy(y).p, T.indicator.astype(float))

    def test_two_pair_supports(self):
        y = PlayerMixedStrategy((fs(3, 0, 1), fs(3, 1, 2)), np.array([0.25, 0.75]))
        assert np.allclose(marginal_of_strategy(y).p, [0.25, 1.0, 0.75])

    def test_total_mass_matches_sizes(self, rng):
        oracle = KSelectionOracle(5, 3)
        family = oracle.enumerate_feasible()
        idx = rng.choice(len(family), size=4, replace=False)
        y = PlayerMixedStrategy.cleaned([family[i] for i in idx], rng.dirichlet(np.ones(4)))
        p = marginal_of_strategy(y).p
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        expected_mass = sum(float(pr) * T.size for T, pr in zip(y.support, y.probs))
        assert p.sum() == pytest.approx(expected_mass, abs=1e-12)


class TestStrategyValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InstanceError):
            PlayerMixedStrategy((fs(2, 0),), np.array([0.9]))

    def test_negative_probability_rejected(self):
        with pytest.raises(InstanceError):
            PlayerMixedStrategy((fs(2, 0), fs(2, 1)), np.array([1.5, -0.5]))

    def test_duplicate_support_rejected(self):
        with pytest.raises(InstanceError):
            PlayerMixedStrategy((fs(2, 0), fs(2, 0)), np.array([0.5, 0.5]))

    def test_constructors_check_support_against_probs(self):
        T = fs(2, 0)
        c, d = CostVector(np.array([1.0, 0.0])), CostVector(np.array([0.0, 1.0]))
        Player, Adversary = PlayerMixedStrategy, AdversaryMixedStrategy
        cases = [
            (lambda: Player((T,), [0.5, 0.5]), "support and probability lengths differ"),
            (lambda: Player((), []), "a mixed strategy needs a nonempty probability vector"),
            (lambda: Adversary((c,), [0.5, 0.5]), "support and probability lengths differ"),
            (lambda: Adversary((c, c), [0.5, 0.5]), "support cost vectors must be pairwise distinct"),
            (
                lambda: Adversary((c, d), [0.5, 0.5], scenario_indices=(0,)),
                "support labels must match support length",
            ),
            (lambda: Player.cleaned([T], [0.0]), "strategy support vanished after cleaning"),
        ]
        for build, message in cases:
            with pytest.raises(InstanceError, match=f"^{message}$"):
                build()

    def test_cleaned_drops_round_off_ghosts(self):
        y = PlayerMixedStrategy.cleaned(
            [fs(2, 0), fs(2, 1)], np.array([1.0 - 1e-13, 1e-13])
        )
        assert y.support_size == 1
        assert y.probs[0] == 1.0

    # A NaN weight fails "p > PROB_DROP" and would vanish in the cleaning,
    # leaving the other weights to be renormalized onto 1; an inf one would
    # renormalize to NaN.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cleaned_rejects_non_finite_weights(self, bad):
        with pytest.raises(InstanceError, match="probabilities must be finite"):
            PlayerMixedStrategy.cleaned([fs(2, 0), fs(2, 1)], [bad, 1.0])
        costs = [CostVector(np.array([1.0, 0.0])), CostVector(np.array([0.0, 1.0]))]
        with pytest.raises(InstanceError, match="probabilities must be finite"):
            AdversaryMixedStrategy.cleaned(costs, [bad, 1.0])
        with pytest.raises(InstanceError, match="probabilities must be finite"):
            AdversaryMixedStrategy.cleaned(costs, np.array([1.0, bad]), generators=(0, 1))

    # zip truncated a short or long weight list, a negative weight was dropped
    # like a round-off ghost, and a short label tuple raised IndexError
    @pytest.mark.parametrize(
        "sets, probs, message",
        [
            ([0, 1], [1.0], "support and probability lengths differ"),
            ([0], [0.5, 0.5], "support and probability lengths differ"),
            ([0, 1], [1.5, -0.5], "probabilities must be nonnegative"),
        ],
        ids=["short-probs", "long-probs", "negative"],
    )
    def test_cleaned_rejects_what_round_off_cannot_explain(self, sets, probs, message):
        with pytest.raises(InstanceError, match=message):
            PlayerMixedStrategy.cleaned([fs(2, i) for i in sets], probs)
        costs = [CostVector(np.eye(2)[i]) for i in sets]
        with pytest.raises(InstanceError, match=message):
            AdversaryMixedStrategy.cleaned(costs, probs)

    def test_cleaned_labels_need_one_per_support_point(self):
        costs = [CostVector(np.array([1.0, 0.0])), CostVector(np.array([0.0, 1.0]))]
        for labels in ({"scenario_indices": (0,)}, {"generators": (fs(2, 0),) * 3}):
            with pytest.raises(InstanceError, match="support labels must match"):
                AdversaryMixedStrategy.cleaned(costs, [0.5, 0.5], **labels)

    def test_cleaned_keeps_the_first_label_and_drops_solver_round_off(self):
        # an LP dual may sit at -PROB_SUM_TOL; it merges and drops like round-off
        c1, c2 = CostVector(np.array([1.0, 0.0])), CostVector(np.array([0.0, 1.0]))
        w = AdversaryMixedStrategy.cleaned(
            [c1, c2, c1], [0.5, -1e-9, 0.5 + 1e-9], scenario_indices=(4, 5, 6)
        )
        assert w.support == (c1,) and w.scenario_indices == (4,)
        assert w.probs.tolist() == [1.0]

    def test_adversary_support_outside_bounds(self):
        inst = k_selection_instance(2, 1, lower=[0, 0], upper=[1, 1])
        w = AdversaryMixedStrategy((CostVector(np.array([2.0, 0.0])),), np.array([1.0]))
        with pytest.raises(InstanceError):
            w.validate_for(inst)

    def test_adversary_support_of_another_length(self):
        inst = k_selection_instance(3, 1, scenarios=[[1.0, 0.0, 0.0]])
        w = AdversaryMixedStrategy((CostVector(np.zeros(2)),), np.array([1.0]))
        with pytest.raises(InstanceError, match="^cost vector length differs from instance n$"):
            w.validate_for(inst)

    def test_adversary_scenario_membership(self):
        inst = k_selection_instance(2, 1, scenarios=[[1.0, 0.0], [0.0, 1.0]])
        ok = AdversaryMixedStrategy((CostVector(np.array([1.0, 0.0])),), np.array([1.0]))
        ok.validate_for(inst)
        bad = AdversaryMixedStrategy((CostVector(np.array([0.5, 0.5])),), np.array([1.0]))
        with pytest.raises(InstanceError):
            bad.validate_for(inst)

    def test_marginal_bounds_enforced(self):
        with pytest.raises(InstanceError):
            MarginalVector(np.array([1.2, 0.0]))
        with pytest.raises(InstanceError):
            MarginalVector(np.array([-0.2, 0.0]))

    def test_cost_vector_must_be_finite(self):
        with pytest.raises(InstanceError):
            CostVector(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: MarginalVector(np.zeros((2, 2))), InstanceError,
                "marginal vector must be one-dimensional"),
            (lambda: CostVector.from_rows([1.0, 2.0]), InstanceError,
                "cost rows must form a matrix"),
            (lambda: FeasibleSet.from_indices(3, [[0]]), TypeError,
                "item indices must be a flat sequence"),
        ],
        ids=["marginal-matrix", "cost-rows-vector", "nested-indices"],
    )
    def test_misshapen_input_rejected(self, build, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            build()


def _per_object_sets(rows):
    return tuple(FeasibleSet(row) for row in rows)


def _per_object_costs(rows):
    return tuple(CostVector(row) for row in rows)


class TestValuePredicates:
    """The per-object constructors and the matrix constructors keep one rule
    each: indicator entries are 0 or 1, cost entries are finite, marginal
    entries are finite and in [0, 1] within 1e-9."""

    @pytest.mark.parametrize("build", [_per_object_sets, FeasibleSet.from_rows])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_int8_indicator_entries_other_than_0_and_1_rejected(self, build, bad):
        rows = np.array([[0, 1, 0], [1, 0, bad]], dtype=np.int8)
        with pytest.raises(InstanceError, match="0 or 1"):
            build(rows)

    @pytest.mark.parametrize("build", [_per_object_sets, FeasibleSet.from_rows])
    def test_bool_indicators_accepted_and_fractions_rejected(self, build):
        sets = build(np.array([[True, False], [False, True]]))
        assert [T.indices for T in sets] == [(0,), (1,)]
        assert all(T.indicator.dtype == np.int8 for T in sets)
        with pytest.raises(InstanceError, match="0 or 1"):
            build(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_indicator_axes(self):
        with pytest.raises(InstanceError):
            FeasibleSet(np.zeros((2, 2), dtype=np.int8))
        with pytest.raises(InstanceError):
            FeasibleSet.from_rows(np.zeros(2, dtype=np.int8))

    def test_matrix_sets_equal_per_object_sets(self, rng):
        rows = (rng.random((6, 9)) < 0.5).astype(np.int8)
        by_row, at_once = _per_object_sets(rows), FeasibleSet.from_rows(rows)
        assert by_row == at_once
        assert [hash(T) for T in by_row] == [hash(T) for T in at_once]

    @pytest.mark.parametrize("build", [_per_object_costs, CostVector.from_rows])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_costs_rejected(self, build, bad):
        with pytest.raises(InstanceError, match="finite"):
            build(np.array([[1.0, 2.0], [3.0, bad]]))

    def test_matrix_costs_equal_per_object_costs(self, rng):
        rows = rng.uniform(-5.0, 5.0, size=(4, 7))
        assert _per_object_costs(rows) == CostVector.from_rows(rows)

    @pytest.mark.parametrize("entry", [-1e-8, 1.0 + 1e-8])
    def test_marginal_entries_past_a_bound_rejected(self, entry):
        with pytest.raises(InstanceError, match=r"\[0, 1\]"):
            MarginalVector(np.array([0.5, entry]))

    def test_marginal_entries_within_round_off_are_clipped(self):
        p = MarginalVector(np.array([-5e-10, 1.0 + 5e-10, 0.25])).p
        assert p.tolist() == [0.0, 1.0, 0.25]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_marginal_rejected(self, bad):
        with pytest.raises(InstanceError):
            MarginalVector(np.array([bad, 0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        sets = (fs(3, 0), fs(3, 1))
        with pytest.raises(InstanceError):
            PlayerMixedStrategy(sets, np.array([bad, 1.0]))
        costs = (CostVector(np.array([1.0, 0.0, 0.0])), CostVector(np.array([0.0, 1.0, 0.0])))
        with pytest.raises(InstanceError):
            AdversaryMixedStrategy(costs, np.array([bad, 1.0]))

    def test_arrays_come_out_read_only(self):
        rows = np.array([[0, 1], [1, 0]], dtype=np.int8)
        costs = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = [
            FeasibleSet(rows[0]).indicator,
            *(T.indicator for T in FeasibleSet.from_rows(rows)),
            CostVector(np.array([1.0, 2.0])).values,
            *(c.values for c in CostVector.from_rows(costs)),
            MarginalVector(np.array([0.5, 0.5])).p,
            MarginalVector(np.array([0.5, 1.0 + 5e-10])).p,
        ]
        for arr in out:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        # the indicator matrix stays the caller's, and writable
        rows[0, 0] = 1


class TestImmutability:
    def test_arrays_are_read_only(self):
        inst = tight_discrete(2)
        with pytest.raises(ValueError):
            inst.uncertainty.costs[0, 0] = 9.0
        T = fs(3, 1)
        with pytest.raises(ValueError):
            T.indicator[0] = 1
        unc = Intervals(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            unc.lower[0] = 5.0
        sc = Scenarios(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            sc.costs[0, 0] = 3.0
