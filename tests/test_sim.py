import numpy as np
import pytest

from minregret.core import (
    AdversaryMixedStrategy,
    CostVector,
    FeasibleSet,
    InstanceError,
    PlayerMixedStrategy,
    expected_regret,
)
from minregret.nominal import build_oracle
from minregret.sim import GAMMA, MASK64, _mix64_vec, simulate, stream_uniform
from minregret.solvers import solve_randomized

from conftest import k_selection_instance, tight_discrete, tight_interval


class TestStreamGenerator:
    def test_deterministic_and_chunk_invariant(self):
        a = stream_uniform(123, 5, 1000)
        b = np.concatenate(
            [stream_uniform(123, 5, 400), stream_uniform(123, 5, 600, start=400)]
        )
        assert np.array_equal(a, b)

    def test_range_and_moments(self):
        u = stream_uniform(9, 0, 200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_substreams_differ(self):
        assert not np.array_equal(stream_uniform(1, 0, 100), stream_uniform(1, 1, 100))


class TestSimulate:
    def test_one_sample_has_zero_stderr(self):
        inst = tight_discrete(3)
        game = solve_randomized(inst)
        est = simulate(inst, game.player, game.adversary, 1, seed=3)
        assert est.stderr == 0.0
        assert est.mean in (0.0, 1.0)  # the regret of the one pair drawn

    def test_degenerate_pair_is_exact(self):
        inst = tight_discrete(3)
        y = PlayerMixedStrategy((FeasibleSet.from_indices(3, [1]),), np.array([1.0]))
        w = AdversaryMixedStrategy(
            (CostVector(np.array([0.0, 1.0, 0.0])),), np.array([1.0])
        )
        est = simulate(inst, y, w, 12345, seed=9)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_bit_identical_reruns(self):
        inst = tight_discrete(3)
        game = solve_randomized(inst)
        a = simulate(inst, game.player, game.adversary, 200_000, seed=42)
        b = simulate(inst, game.player, game.adversary, 200_000, seed=42)
        assert a == b

    def test_tight_discrete_statistics(self):
        inst = tight_discrete(3)
        game = solve_randomized(inst)
        est = simulate(inst, game.player, game.adversary, 10**5, seed=7)
        assert abs(est.mean - 1.0 / 3.0) <= 3.0 * est.stderr

    def test_tight_interval_statistics(self):
        inst = tight_interval()
        game = solve_randomized(inst)
        est = simulate(inst, game.player, game.adversary, 10**5, seed=3)
        assert abs(est.mean - 0.5) <= 3.0 * est.stderr

    def test_exact_mean_within_sampled_support(self, rng):
        inst = k_selection_instance(4, 2, scenarios=rng.uniform(0, 9, size=(3, 4)))
        oracle = build_oracle(inst)
        game = solve_randomized(inst, oracle=oracle)
        y, w = game.player, game.adversary
        exact = expected_regret(y, w, oracle)
        X = np.stack([T.indicator for T in y.support]).astype(float)
        C = np.stack([c.values for c in w.support])
        optima = np.array([oracle.solve(c)[1] for c in C])
        regrets = X @ C.T - optima
        assert regrets.min() - 1e-12 <= exact <= regrets.max() + 1e-12

    def test_sample_count_validation(self):
        inst = tight_discrete(2)
        game = solve_randomized(inst)
        with pytest.raises(InstanceError):
            simulate(inst, game.player, game.adversary, 0, seed=1)

    # 2.5 samples drew 3 pairs and divided by 2.5; an np.int64 seed raised
    # OverflowError and 3.0 a TypeError
    @pytest.mark.parametrize(
        "samples, seed, message",
        [
            (2.5, 1, "samples must be an integer, got 2.5"),
            (True, 1, "samples must be an integer, got True"),
            (-4, 1, "samples must be at least 1"),
            (10, 1.5, "seed must be an integer, got 1.5"),
            (10, "1", "seed must be an integer, got '1'"),
        ],
    )
    def test_counts_are_read_as_integers(self, samples, seed, message):
        inst = tight_discrete(2)
        game = solve_randomized(inst)
        with pytest.raises(InstanceError, match=message):
            simulate(inst, game.player, game.adversary, samples, seed=seed)

    def test_integral_numbers_of_any_type_give_the_same_estimate(self):
        inst = tight_discrete(3)
        game = solve_randomized(inst)
        y, w = game.player, game.adversary
        est = simulate(inst, y, w, 1000, seed=3)
        assert simulate(inst, y, w, np.int64(1000), seed=np.int64(3)) == est
        assert simulate(inst, y, w, 1000.0, seed=3.0) == est

    def test_infeasible_player_set_rejected(self):
        # regret is defined only for feasible sets: k = 3 of 6 items here
        inst = k_selection_instance(6, 3, scenarios=[[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]])
        y = PlayerMixedStrategy(
            (FeasibleSet.from_indices(6, [0]), FeasibleSet.from_indices(6, range(6))),
            np.array([0.5, 0.5]),
        )
        w = AdversaryMixedStrategy((CostVector(np.array([1.0, 2, 3, 4, 5, 6])),), np.array([1.0]))
        with pytest.raises(InstanceError, match="only for feasible sets"):
            simulate(inst, y, w, 100, seed=1)

    def test_nested_runs_agree_with_exact(self):
        # 100 seeds; N and 4N runs from split seeds should sit within
        # 4 standard errors of the exact value in at least 99 cases.
        inst = tight_discrete(3)
        game = solve_randomized(inst)
        oracle = build_oracle(inst)
        exact = expected_regret(game.player, game.adversary, oracle)
        good = 0
        for trial_seed in range(100):
            ok = True
            # an independent second seed: the stream root one index along
            root = np.array([(trial_seed + GAMMA) & MASK64], dtype=np.uint64)
            split = int(_mix64_vec(root)[0])
            for factor, seed in ((1, trial_seed), (4, split)):
                est = simulate(
                    inst, game.player, game.adversary, 4000 * factor, seed=seed
                )
                if abs(est.mean - exact) > 4.0 * est.stderr:
                    ok = False
            good += ok
        assert good >= 99
