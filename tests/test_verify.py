import time

import pytest

import minregret.solvers as solvers
import minregret.verify as verify_mod
from minregret.core import Instance, InstanceError, Intervals, SolverError
from minregret.gen import generate_instance
from minregret.nominal import SpanningTreeOracle
from minregret.verify import DOUBLE_ORACLE_MAX_N, run_instance_checks

from conftest import k_selection_instance


def _by_name(results):
    return {r.name.split(" ")[0]: r for r in results}


class TestBeyondDeskScale:
    def test_interval_k_selection_n40_runs_every_check(self):
        # Z_D comes from the endpoint scan, so only the exhaustive game
        # solve is past its cap
        inst = generate_instance("k-selection", n=40, uncertainty="interval", seed=1)
        results = run_instance_checks(inst)
        assert all(r.passed for r in results)
        assert [r.name for r in results if r.skipped] == ["bruteforce_equivalence"]
        checks = _by_name(results)
        for name in ("value_order", "gap_bound", "compact_vs_double_oracle"):
            assert not checks[name].skipped

    def test_scenario_k_selection_n40_skips_the_capped_checks(self):
        inst = generate_instance(
            "k-selection", n=40, uncertainty="scenarios", n_scenarios=3, seed=1
        )
        results = run_instance_checks(inst)
        assert all(r.passed for r in results)
        skipped = {r.name.split(" ")[0] for r in results if r.skipped}
        assert skipped == {"value_order", "gap_bound", "bruteforce_equivalence"}
        assert all("enumeration cap" in r.detail for r in results if r.skipped)

    def test_spanning_tree_n40_skips_the_capped_checks_without_enumerating(
        self, monkeypatch
    ):
        # 30,600,000 spanning trees: the matrix-tree count refuses the family
        def never(self):
            raise AssertionError("enumerated a family past the cap")

        monkeypatch.setattr(SpanningTreeOracle, "_enumerate", never)
        inst = generate_instance("spanning-tree", n=40, seed=1)
        results = run_instance_checks(inst)
        assert all(r.passed for r in results)
        skipped = {r.name.split(" ")[0] for r in results if r.skipped}
        assert skipped == {"value_order", "gap_bound", "bruteforce_equivalence"}
        assert all("enumeration cap" in r.detail for r in results if r.skipped)

    # Past the enumeration cap, the checks that need the whole family are
    # skipped; interval k-selection gets Z_D from its endpoint scan.  Past
    # n=100, so is k-selection's double-oracle cross-check.
    UNENUMERATED = {"value_order", "gap_bound", "bruteforce_equivalence"}
    INTERVAL_K_SELECTION = {"bruteforce_equivalence", "compact_vs_double_oracle"}

    @pytest.mark.parametrize(
        "build, skipped, cap",
        [
            (
                lambda: generate_instance("k-selection", n=1000, seed=1),
                INTERVAL_K_SELECTION,
                10.0,
            ),
            (
                lambda: generate_instance(
                    "k-selection", n=1000, uncertainty="scenarios", n_scenarios=16, seed=1
                ),
                UNENUMERATED | {"compact_vs_double_oracle"},
                30.0,
            ),
            (
                lambda: k_selection_instance(
                    300, 279, lower=[2.0] * 300, upper=[3.0, 2.0] * 150, name="alt300"
                ),
                INTERVAL_K_SELECTION,
                10.0,
            ),
            (
                lambda: generate_instance(
                    "k-selection", n=2000, uncertainty="scenarios", n_scenarios=16, seed=1
                ),
                UNENUMERATED | {"compact_vs_double_oracle"},
                30.0,
            ),
            (lambda: generate_instance("spanning-tree", n=300, seed=1), UNENUMERATED, 30.0),
            (
                lambda: generate_instance(
                    "spanning-tree", n=300, uncertainty="scenarios", n_scenarios=16, seed=1
                ),
                UNENUMERATED,
                30.0,
            ),
            (
                lambda: generate_instance(
                    "dag-path", n=1000, uncertainty="scenarios", n_scenarios=64, seed=1
                ),
                UNENUMERATED,
                30.0,
            ),
            (
                lambda: Instance(
                    "st60x1e6",
                    60,
                    (st60 := generate_instance("spanning-tree", n=60, seed=1)).nominal,
                    Intervals(1e6 * st60.uncertainty.lower, 1e6 * st60.uncertainty.upper),
                ),
                UNENUMERATED,
                30.0,
            ),
        ],
        ids=[
            "ks1000",
            "ks1000s16",
            "alt300",
            "ks2000s16",
            "st300",
            "st300s16",
            "dag1000s64",
            "st60x1e6",
        ],
    )
    def test_scale_instances_pass_within_their_caps(self, build, skipped, cap):
        """Every check passes, the skipped set is exactly the capped one,
        and the instance is built and checked within ``cap`` seconds.

        - ks1000: the threshold search's answer at scale, interval
          k-selection n=1000.
        - ks1000s16: scenario k-selection n=1000, 16 scenarios, is one
          compact LP over conv(X), anchored at the mean-cost set, and the
          package's only bounded LP (its box 0 <= z <= 1 as native bounds);
          the adversary LP checks it by strong duality.
        - alt300: interval k-selection n=300, k=279, every lower bound 2 and
          upper bounds alternating 3, 2.  Half the items have zero width,
          and the adversary's threshold search must still return a point of
          the hull (sum(mu) = k), which the round trip decomposes.
        - ks2000s16: scenario k-selection n=2000, 16 scenarios.  The matrix
          game re-prices a confirmed optimum whose mixes miss the bracket by
          round-off, so strong duality holds.
        - st300, st300s16: spanning trees n=300, interval and 16 scenarios,
          run both growth loops (the double oracle, and the adversary LP for
          strong duality) and the decomposition round trip.
        - dag1000s64: DAG paths n=1000, 64 scenarios: both restricted-game
          starts and flow peeling at scale.
        - st60x1e6: spanning trees n=60 with bounds x1e6; the midpoint
          check is relative to the costs.
        """
        started = time.perf_counter()
        results = run_instance_checks(build())
        elapsed = time.perf_counter() - started
        assert [r.name for r in results if not r.passed] == []
        assert {r.name.split(" ")[0] for r in results if r.skipped} == skipped
        assert elapsed < cap

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n", [60, 300])
    @pytest.mark.parametrize("uncertainty", ["interval", "scenarios"])
    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree", "dag-path"])
    def test_random_scale_sweep(self, family, uncertainty, n, seed):
        # DAG paths n=150 are left out: 60,479 paths, under the enumeration
        # cap, which the deterministic solve scans for about 7 s an instance.
        inst = generate_instance(family, n=n, uncertainty=uncertainty, n_scenarios=8, seed=seed)
        results = run_instance_checks(inst)
        assert [r.name for r in results if not r.passed] == []

    @pytest.mark.parametrize("uncertainty", ["interval", "scenarios"])
    def test_double_oracle_skipped_past_its_size(self, uncertainty):
        n = DOUBLE_ORACLE_MAX_N + 1
        inst = generate_instance("k-selection", n=n, uncertainty=uncertainty, seed=2)
        results = run_instance_checks(inst)
        assert all(r.passed for r in results)
        check = _by_name(results)["compact_vs_double_oracle"]
        assert check.skipped and f"n={n}" in check.detail


# 1.5 raised a bare TypeError and True ran one instance
@pytest.mark.parametrize(
    "count, seed, message",
    [
        (1.5, 1, "count must be an integer, got 1.5"),
        (True, 1, "count must be an integer, got True"),
        (1, 0.5, "seed must be an integer, got 0.5"),
        (0, 1, "count must be at least 1, got 0"),
    ],
)
def test_random_suite_reads_integer_counts(count, seed, message):
    with pytest.raises(InstanceError, match=message):
        verify_mod.run_random_suite(count, seed)


def test_decomposition_solver_error_fails_both_of_its_checks(monkeypatch):
    def fails(*args, **kwargs):
        raise SolverError("corral stalled")

    monkeypatch.setattr(verify_mod, "decompose_marginal", fails)
    inst = generate_instance("spanning-tree", n=6, seed=1)
    results = run_instance_checks(inst)
    failed = [r for r in results if not r.passed]
    assert [r.name.split(" ")[0] for r in failed] == ["decompose_roundtrip", "decompose_support"]
    assert all(r.detail == "SolverError: corral stalled" for r in failed)
    assert len(results) > len(failed)


def test_adversary_lp_iteration_limit_fails_only_strong_duality(monkeypatch):
    # The real adversary LP, held to one cut, raises IterationLimitError:
    # its check fails and every other check still reports.
    monkeypatch.setattr(solvers, "MAX_CUTS", 1)
    inst = generate_instance("spanning-tree", n=6, uncertainty="scenarios", n_scenarios=3, seed=1)
    results = run_instance_checks(inst)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["strong_duality Z_AR == Z_R"]
    assert failed[0].detail.startswith("IterationLimitError: ")
    assert len(results) > len(failed)
