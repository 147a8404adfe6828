import pytest

import minregret.verify as verify_mod
from minregret.core import SolverError
from minregret.gen import generate_instance
from minregret.nominal import SpanningTreeOracle
from minregret.verify import DOUBLE_ORACLE_MAX_N, run_instance_checks


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

    @pytest.mark.parametrize("uncertainty", ["interval", "scenarios"])
    def test_double_oracle_skipped_past_its_size(self, uncertainty):
        n = DOUBLE_ORACLE_MAX_N + 1
        inst = generate_instance("k-selection", n=n, uncertainty=uncertainty, seed=2)
        results = run_instance_checks(inst)
        assert all(r.passed for r in results)
        check = _by_name(results)["compact_vs_double_oracle"]
        assert check.skipped and f"n={n}" in check.detail


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
