import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minregret import io
from minregret.core import Instance, InstanceError, Intervals, Scenarios
from minregret.gen import generate_instance
from minregret.io import (
    adversary_strategy_from_dict,
    describe_instance,
    adversary_strategy_to_dict,
    instance_text,
    load_instance,
    load_marginal,
    load_strategies,
    player_strategy_from_dict,
    player_strategy_to_dict,
    save_instance,
    validate_instance,
)
from minregret.nominal import (
    DagPathOracle,
    ExplicitOracle,
    KSelectionOracle,
    NominalOracle,
    SpanningTreeOracle,
    build_oracle,
)
from minregret.solvers import solve_randomized


class TestGenerator:
    def test_tight_discrete_structure(self):
        inst = generate_instance("tight-discrete", k=5)
        assert inst.n == 5
        assert inst.nominal.k == 1
        assert np.array_equal(inst.uncertainty.costs, np.eye(5))

    # The oracle reads k as an integer, as the instance file does, and the
    # generator reads its own integer arguments the same way: n=5.0 raised a
    # bare TypeError and n=True was read as 1.
    def test_integral_k_of_any_type_gives_the_same_instance(self):
        random = {"n": 6, "k": 2, "uncertainty": "scenarios", "n_scenarios": 3, "seed": 1}
        for family, given, field, what in (
            ("k-selection", random, "k", "nominal k"),
            ("k-selection", random, "n", "n"),
            ("k-selection", random, "n_scenarios", "n_scenarios"),
            ("k-selection", random, "seed", "seed"),
            ("tight-discrete", {"k": 3}, "k", "k"),
        ):
            text = instance_text(generate_instance(family, **given))
            for same in (float(given[field]), np.int64(given[field])):
                assert instance_text(generate_instance(family, **{**given, field: same})) == text
            for bad in (given[field] + 0.5, True):
                message = f"^{what} must be an integer, got {bad!r}$"
                with pytest.raises(InstanceError, match=message):
                    generate_instance(family, **{**given, field: bad})

    @pytest.mark.parametrize(
        "given, message",
        [
            ({"n": 0}, "^n must be at least 1, got 0$"),
            (
                {"n": 4, "uncertainty": "scenarios", "n_scenarios": 0},
                "^n_scenarios must be at least 1, got 0$",
            ),
            ({}, "--n"),
        ],
        ids=["n", "n_scenarios", "missing-n"],
    )
    def test_counts_must_be_at_least_one(self, given, message):
        with pytest.raises(InstanceError, match=message):
            generate_instance("spanning-tree", **given)

    def test_unknown_uncertainty_kind(self):
        with pytest.raises(InstanceError, match="^unknown uncertainty kind 'box'$"):
            generate_instance("k-selection", n=3, uncertainty="box")

    def test_tight_discrete_needs_k_at_least_two(self):
        with pytest.raises(InstanceError):
            generate_instance("tight-discrete", k=1)

    def test_spanning_tree_needs_n_at_least_two(self):
        with pytest.raises(InstanceError, match="^spanning-tree family needs n >= 2$"):
            generate_instance("spanning-tree", n=1)

    def test_tight_interval_structure(self):
        inst = generate_instance("tight-interval")
        assert inst.n == 2
        assert np.array_equal(inst.uncertainty.lower, [0.0, 0.0])
        assert np.array_equal(inst.uncertainty.upper, [1.0, 1.0])

    def test_same_seed_is_byte_identical(self):
        a = generate_instance("spanning-tree", n=7, uncertainty="scenarios", n_scenarios=3, seed=11)
        b = generate_instance("spanning-tree", n=7, uncertainty="scenarios", n_scenarios=3, seed=11)
        assert instance_text(a) == instance_text(b)

    def test_different_seeds_differ(self):
        a = generate_instance("k-selection", n=6, seed=1)
        b = generate_instance("k-selection", n=6, seed=2)
        assert instance_text(a) != instance_text(b)

    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree", "dag-path"])
    @pytest.mark.parametrize("kind", ["interval", "scenarios"])
    def test_generated_instances_are_valid_and_solvable(self, family, kind):
        for seed in range(4):
            inst = generate_instance(
                family, n=5 + seed, uncertainty=kind, n_scenarios=3, seed=seed
            )
            assert isinstance(inst, Instance)
            oracle = build_oracle(inst)  # graph families must be connected/reachable
            assert len(oracle.enumerate_feasible()) >= 1
            if kind == "interval":
                assert np.all(inst.uncertainty.lower <= inst.uncertainty.upper)
                assert np.all(inst.uncertainty.upper <= 10.0)
            else:
                assert inst.uncertainty.k == 3

    def test_unknown_family(self):
        with pytest.raises(InstanceError):
            generate_instance("matchings", n=4)

    # Instance files and benchmark inputs are named by (family, parameters,
    # seed), so the generator's output is pinned across versions, not only
    # between two calls.
    def test_generated_instances_are_pinned(self):
        h = hashlib.sha256()
        for family in ("k-selection", "spanning-tree", "dag-path"):
            for kind in ("interval", "scenarios"):
                for n in (3, 5, 10, 20, 45, 60, 100, 300):
                    for seed in range(4):
                        for k in (None, 2) if family == "k-selection" else (None,):
                            inst = generate_instance(
                                family, n=n, k=k, uncertainty=kind, n_scenarios=1 + seed, seed=seed
                            )
                            h.update(instance_text(inst).encode())
        for inst in (
            *(generate_instance("tight-discrete", k=k) for k in (2, 3, 10)),
            generate_instance("tight-interval"),
        ):
            h.update(instance_text(inst).encode())
        assert h.hexdigest() == (
            "55f0f8206a2fa7673a667c1b8e145e9efd8cebb66889858e2293e6e55a65e7e6"
        )


class TestInstanceIo:
    def test_package_exports_the_schema_functions(self):
        import minregret
        import minregret.gen
        import minregret.io
        import minregret.sim

        assert minregret.validate_instance is minregret.io.validate_instance
        assert minregret.describe_instance is minregret.io.describe_instance
        assert minregret.generate_instance is minregret.gen.generate_instance
        assert minregret.simulate is minregret.sim.simulate
        with pytest.raises(AttributeError, match="no_such_name"):
            minregret.no_such_name

    def test_package_import_loads_no_file_format(self):
        # solving reads no file and simulates or generates nothing, and every
        # benchmark run's setup time includes this import: the file formats,
        # the simulator, the generator and the CLI load on use
        src = Path(__file__).resolve().parents[1] / "src"
        heavy = [
            "minregret.io", "minregret.cli", "minregret.verify", "minregret.sim",
            "minregret.gen", "json", "argparse",
        ]
        script = f"import sys, minregret; print([m for m in {heavy!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # Every solver path on every family and uncertainty type, in a fresh
    # interpreter.  np.unique imports numpy.ma (np.ma.is_masked), about 10 ms
    # and 1.3 MB of every process that solves interval k-selection.
    _SOLVE_EVERY_PATH = """
import sys
import numpy as np
import minregret

def loaded():
    return {m for m in sys.modules if m == "numpy" or m.startswith("numpy.")}

before = loaded()
from minregret import (
    approx_dual_weighted, approx_mean_cost, approx_midpoint, decompose_marginal,
    generate_instance, solve_adversary_lp_discrete, solve_deterministic_exact,
    solve_randomized,
)
from minregret.core import Instance, Intervals, Scenarios
from minregret.nominal import ExplicitOracle
from minregret.verify import run_instance_checks

explicit = ExplicitOracle(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
instances = [
    generate_instance(family, n=6, uncertainty=kind, n_scenarios=3, seed=1)
    for family in ("k-selection", "spanning-tree", "dag-path")
    for kind in ("interval", "scenarios")
] + [
    Instance("explicit-interval", 4, explicit, Intervals(np.zeros(4), np.arange(1.0, 5.0))),
    Instance(
        "explicit-scenarios", 4, explicit, Scenarios(np.array([[1.0, 0, 2, 1], [0, 3, 1, 1]]))
    ),
]
for inst in instances:
    game = solve_randomized(inst)
    solve_deterministic_exact(inst)
    decompose_marginal(game.marginal, inst.nominal)
    if inst.is_interval:
        approx_midpoint(inst)
    else:
        approx_mean_cost(inst)
        approx_dual_weighted(inst, solve_adversary_lp_discrete(inst)[0])
    assert all(check.passed for check in run_instance_checks(inst)), inst.name
print(sorted(loaded() - before))
"""

    def test_solvers_load_no_numpy_submodule(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", self._SOLVE_EVERY_PATH],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_save_load_round_trip(self, tmp_path):
        inst = generate_instance("dag-path", n=6, uncertainty="interval", seed=3)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert describe_instance(again) == describe_instance(inst)

    # One instance per row of each table: a new type must join this list.
    _NOMINALS = {
        "k-selection": KSelectionOracle(3, 2),
        "spanning-tree": SpanningTreeOracle(3, [(0, 1), (1, 2), (0, 2)]),
        "dag-path": DagPathOracle(3, [(0, 1), (1, 2), (0, 2)], 0, 2),
        "explicit": ExplicitOracle(3, [(2, 0), (1,)]),
    }
    _UNCERTAINTIES = {
        "interval": Intervals(np.array([0.0, 1.0, 0.25]), np.array([1.0, 1.0, 2.5])),
        "scenarios": Scenarios(np.array([[1.0, 0.0, 3.0], [0.5, 2.0, 0.0]])),
    }

    def test_every_table_row_round_trips(self):
        assert set(self._NOMINALS) == set(io._NOMINAL)
        assert set(self._UNCERTAINTIES) == set(io._UNCERTAINTY)
        for kind, nominal in self._NOMINALS.items():
            for ukind, uncertainty in self._UNCERTAINTIES.items():
                inst = Instance("row", 3, nominal, uncertainty)
                d = describe_instance(inst)
                assert d["nominal"]["type"] == kind and d["uncertainty"]["type"] == ukind
                again = validate_instance(json.loads(instance_text(inst)))
                assert type(again.nominal) is type(nominal)
                assert describe_instance(again) == d
                assert instance_text(again) == instance_text(inst)

    # A nominal oracle with no file type used to end in an AttributeError
    # on ``sets``, the explicit family's field.
    def test_describe_names_a_foreign_oracle(self):
        class CircuitOracle(NominalOracle):
            n = 3

        inst = Instance("foreign", 3, CircuitOracle(), self._UNCERTAINTIES["interval"])
        with pytest.raises(InstanceError, match="CircuitOracle"):
            describe_instance(inst)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InstanceError):
            load_instance(path)

    def test_load_rejects_unknown_fields(self, tmp_path):
        inst = generate_instance("k-selection", n=4, seed=0)
        d = describe_instance(inst)
        d["extra"] = 1
        path = tmp_path / "x.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(InstanceError, match="unknown field"):
            load_instance(path)


class TestStrategyIo:
    def test_player_round_trip(self):
        inst = generate_instance("tight-discrete", k=3)
        game = solve_randomized(inst)
        d = player_strategy_to_dict(game.player)
        y = player_strategy_from_dict(d, inst.n)
        assert [T.indices for T in y.support] == [T.indices for T in game.player.support]

    def test_adversary_round_trip_keeps_scenarios(self):
        inst = generate_instance("tight-discrete", k=3)
        game = solve_randomized(inst)
        d = adversary_strategy_to_dict(game.adversary)
        assert d["scenarios"] == [0, 1, 2]
        w = adversary_strategy_from_dict(d, inst.n)
        w.validate_for(inst)

    def test_adversary_cost_vector_an_entry_short_is_rejected(self):
        d = {"costs": [[1.0, 0.0, 0.0], [1.0, 0.0]], "probs": [0.5, 0.5]}
        with pytest.raises(InstanceError, match="^adversary cost vector length differs from n$"):
            adversary_strategy_from_dict(d, 3)

    def test_strategies_file(self, tmp_path):
        inst = generate_instance("tight-discrete", k=2)
        game = solve_randomized(inst)
        path = tmp_path / "strat.json"
        path.write_text(
            json.dumps(
                {
                    "player": player_strategy_to_dict(game.player),
                    "adversary": adversary_strategy_to_dict(game.adversary),
                }
            ),
            encoding="utf-8",
        )
        y, w = load_strategies(path, inst)
        assert y.support_size == 2 and w.support_size == 2

    # A typo'd "scenario" was ignored, so its labels were never checked.  The
    # top level still takes a whole solve report, whose other fields are kept
    # out of the strategies.
    @pytest.mark.parametrize(
        "side, typo", [("player", "prob"), ("adversary", "scenario")]
    )
    def test_strategies_reject_unknown_fields(self, tmp_path, side, typo):
        inst = generate_instance("tight-discrete", k=2)
        game = solve_randomized(inst)
        report = {
            "value": game.value,
            "player": player_strategy_to_dict(game.player),
            "adversary": adversary_strategy_to_dict(game.adversary),
        }
        path = tmp_path / "strat.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert load_strategies(path, inst)[1].scenario_indices == (0, 1)
        report[side][typo] = [0]
        path.write_text(json.dumps(report), encoding="utf-8")
        with pytest.raises(InstanceError, match=rf"unknown field\(s\) \['{typo}'\] in {side}"):
            load_strategies(path, inst)
        report[side] = "ab"
        path.write_text(json.dumps(report), encoding="utf-8")
        with pytest.raises(InstanceError, match=f"^{side} strategy must be an object$"):
            load_strategies(path, inst)

    def test_strategies_file_needs_both_entries(self, tmp_path):
        inst = generate_instance("tight-discrete", k=2)
        path = tmp_path / "strat.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(InstanceError):
            load_strategies(path, inst)

    def test_marginal_loader_checks_length(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[0.5, 0.5, 0.5]", encoding="utf-8")
        with pytest.raises(InstanceError):
            load_marginal(path, 2)
        path.write_text("[0.5, 0.5]", encoding="utf-8")
        assert np.allclose(load_marginal(path, 2).p, [0.5, 0.5])
