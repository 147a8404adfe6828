import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import minregret.cli as cli_mod
import minregret.verify as verify_mod
from minregret.cli import main
from minregret.core import IterationLimitError, NotInHullError, SolverError
from minregret.gen import generate_instance
from minregret.io import describe_instance, instance_text, save_instance, validate_instance
from minregret.nominal import SpanningTreeOracle


@pytest.fixture
def tight3(tmp_path):
    path = tmp_path / "tight3.json"
    save_instance(generate_instance("tight-discrete", k=3), path)
    return path


@pytest.fixture
def tight_pair(tmp_path):
    path = tmp_path / "pair.json"
    save_instance(generate_instance("tight-interval"), path)
    return path


def _text(items=3, drop=None, **parts):
    """JSON text of an instance file on ``items`` items, k-selection with
    k = 1 under unit intervals, with ``parts`` replaced and ``drop`` left out."""
    description = {
        "name": "case",
        "n": items,
        "nominal": {"type": "k-selection", "n": items, "k": 1},
        "uncertainty": {"type": "interval", "lower": [0.0] * items, "upper": [1.0] * items},
    }
    description.update(parts)
    description.pop(drop, None)
    return json.dumps(description)


def _solve_file(tmp_path, capsys, text):
    """Exit code and error output of ``solve`` on a file holding ``text``
    (None: no file at the path)."""
    path = tmp_path / "instance.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code = main(["solve", "--instance", str(path), "--model", "randomized"])
    return code, capsys.readouterr().err


def _box(lower, upper):
    return {"type": "interval", "lower": lower, "upper": upper}


def _scenarios(*costs):
    return {"type": "scenarios", "costs": list(costs)}


def _graph(kind, vertices, arcs, **ends):
    field = "edges" if kind == "spanning-tree" else "arcs"
    return {"type": kind, "vertices": vertices, field: arcs, **ends}


_ARCS = [[0, 1], [1, 2], [0, 2]]
# Each structural rejection of an instance file, by id: the file text (None
# for no file at the path) and a part of its error message.
_MALFORMED = {
    "inverted-interval": (_text(1, uncertainty=_box([1.0], [0.0])), "item 0"),
    "not-an-object": ("[1, 2]", "instance description must be an object"),
    "unknown-nominal": (_text(nominal={"type": "matroid"}), "unknown nominal type 'matroid'"),
    "unknown-uncertainty": (_text(uncertainty={"type": "box"}), "unknown uncertainty type 'box'"),
    "missing-n": (_text(drop="n"), "malformed instance description: 'n'"),
    "missing-k": (_text(nominal={"type": "k-selection", "n": 3}), "malformed nominal spec: 'k'"),
    "item-count": (_text(uncertainty=_box([0.0] * 2, [1.0] * 2)),
        "uncertainty describes 2 items, instance has 3"),
    "unequal-bounds": (_text(uncertainty=_box([0.0] * 3, [1.0] * 2)),
        "interval bounds must be equal-length vectors"),
    "infinite-bound": (_text().replace("1.0]", "1e999]"), "interval bounds must be finite"),
    "infinite-scenario-cost": (
        _text(uncertainty=_scenarios([1.0, 0.0, 2.0])).replace("2.0", "1e999"),
        "scenario costs must be finite",
    ),
    "scenarios-1d": (_text(uncertainty=_scenarios(1.0, 2.0, 3.0)),
        "scenario costs must be a nonempty k x n matrix"),
    "scenarios-empty": (_text(uncertainty=_scenarios()),
        "scenario costs must be a nonempty k x n matrix"),
    "no-items": (_text(0, nominal={"type": "explicit", "sets": [[]]}),
        "instance needs at least one item"),
    "k-too-large": (
        _text(nominal={"type": "k-selection", "n": 3, "k": 4}), "k=4 out of range 1..3"
    ),
    "one-vertex-tree": (_text(nominal=_graph("spanning-tree", 1, [[0, 0]] * 3)),
        "spanning-tree graph needs at least two vertices"),
    "self-loop": (_text(nominal=_graph("spanning-tree", 3, [[0, 1], [1, 1], [0, 2]])),
        "bad edge (1,1)"),
    "dag-source-is-target": (_text(nominal=_graph("dag-path", 3, _ARCS, source=1, target=1)),
        "source and target must differ"),
    "dag-target-out-of-range": (_text(nominal=_graph("dag-path", 3, _ARCS, source=0, target=3)),
        "source/target out of range"),
    "explicit-out-of-range": (_text(nominal={"type": "explicit", "sets": [[0], [3]]}),
        "set (3,) not a subset of 0..2"),
    "explicit-repeat": (_text(nominal={"type": "explicit", "sets": [[0], [1, 1]]}),
        "set (1, 1) repeats an item"),
    "unreadable": (None, "cannot read"),
}


def run_json(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--format", "json", "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return code, report


class TestSolveCommand:
    def test_randomized_tight(self, tight3, tmp_path):
        code, report = run_json(
            ["solve", "--instance", str(tight3), "--model", "randomized"], tmp_path
        )
        assert code == 0
        assert report["value"] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert report["certified_gap"] <= 1e-7
        assert len(report["player"]["sets"]) == 3
        assert report["adversary"]["scenarios"] == [0, 1, 2]
        assert report["wall_time_seconds"] < 1.0

    def test_deterministic_tight(self, tight3, tmp_path):
        code, report = run_json(
            ["solve", "--instance", str(tight3), "--model", "deterministic"], tmp_path
        )
        assert code == 0
        assert report["value"] == 1.0
        assert report["chosen_set"] == [0]

    @pytest.mark.parametrize("text, message", _MALFORMED.values(), ids=_MALFORMED)
    def test_malformed_instance_exits_2(self, tmp_path, capsys, text, message):
        code, err = _solve_file(tmp_path, capsys, text)
        assert code == 2 and message in err

    # numpy read each as a number and the instance was solved: true as 1.0,
    # "0" as 0.0.
    @pytest.mark.parametrize(
        "uncertainty, message",
        [
            (_box(["0", 0.0, 0.0], [1.0] * 3), "interval lower must hold numbers, got '0'"),
            (_box([0.0] * 3, [1.0, True, 1.0]), "interval upper must hold numbers, got True"),
            (
                _scenarios([1.0, 0.0, 0.0], [0.0, "1", 0.0]),
                "scenario costs must hold numbers, got '1'",
            ),
            (_scenarios([1.0, False, 0.0]), "scenario costs must hold numbers, got False"),
        ],
        ids=["lower-string", "upper-boolean", "costs-string", "costs-boolean"],
    )
    def test_non_numeric_real_field_exits_2(self, tmp_path, capsys, uncertainty, message):
        code, err = _solve_file(tmp_path, capsys, _text(uncertainty=uncertainty))
        assert code == 2 and message in err

    # Each was truncated to an integer and solved: n to 3, k to 2 or 1, the
    # edge to (0, 1), the set item to 0.
    @pytest.mark.parametrize(
        "n, nominal, message",
        [
            (3.9, {"type": "k-selection", "n": 3, "k": 2}, "n must be an integer, got 3.9"),
            (3, {"type": "k-selection", "n": 3, "k": 2.5}, "nominal k must be an integer, got 2.5"),
            (3, {"type": "k-selection", "n": 3, "k": True}, "nominal k must be an integer, got True"),
            (
                3,
                _graph("spanning-tree", 3, [[0, 1.7], [1, 2], [0, 2]]),
                "edge endpoint must be an integer, got 1.7",
            ),
            (
                3,
                {"type": "explicit", "sets": [[0.9, 1], [1, 2]]},
                "set item must be an integer, got 0.9",
            ),
        ],
        ids=["n", "k-fraction", "k-boolean", "edge", "set-item"],
    )
    def test_non_integer_field_exits_2(self, tmp_path, capsys, n, nominal, message):
        code, err = _solve_file(tmp_path, capsys, _text(n=n, nominal=nominal))
        assert code == 2 and message in err

    # A NaN or negative tolerance used to stall the solver, an infinite one
    # ended it at a wrong value, and a zero budget exited 3 with no bracket.
    @pytest.mark.parametrize(
        "option, value", [("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"), ("--max-iter", "0")]
    )
    def test_unusable_tolerance_or_budget_exits_2_at_parse_time(
        self, option, value, tmp_path, capsys
    ):
        path = tmp_path / "st12.json"
        save_instance(generate_instance("spanning-tree", n=12, seed=1), path)
        with pytest.raises(SystemExit) as info:
            main(["solve", "--instance", str(path), "--model", "randomized", option, value])
        assert info.value.code == 2
        assert f"argument {option}: must be" in capsys.readouterr().err

    def test_iteration_budget_exit_3_with_bracket_report(self, tmp_path):
        # The tight-discrete k=10 game with its family listed explicitly:
        # k-selection is solved directly (this scenario game by the compact
        # LP), with no iteration budget, while explicit families run the
        # double oracle.
        inst = tmp_path / "t10.json"
        tight = describe_instance(generate_instance("tight-discrete", k=10))
        tight["nominal"] = {"type": "explicit", "sets": [[e] for e in range(10)]}
        save_instance(validate_instance(tight), inst)
        code, report = run_json(
            [
                "solve",
                "--instance",
                str(inst),
                "--model",
                "randomized",
                "--max-iter",
                "2",
            ],
            tmp_path,
        )
        assert code == 3
        assert report["status"] == "iteration-limit"
        assert report["lower_bound"] <= 0.1 <= report["upper_bound"]

    # the cap error is not caught by the command; main maps it to exit 3
    def test_enumeration_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "st10.json"
        save_instance(
            generate_instance("spanning-tree", n=10, uncertainty="scenarios", n_scenarios=3, seed=7),
            path,
        )
        monkeypatch.setenv("REGRET_ENUM_CAP", "5")
        assert main(["solve", "--instance", str(path), "--model", "deterministic"]) == 3
        assert capsys.readouterr().err == "error: feasible family exceeds enumeration cap 5\n"

    # Interval k-selection n=1000 seed 1, through the threshold search and
    # the endpoint scan.  The randomized JSON report holds 490 cost vectors
    # of 1000 floats (10.7 MB); writing it is about half of the command.
    @pytest.mark.parametrize(
        "model, value",
        [("randomized", 483.007625), ("deterministic", 792.251071)],
        ids=["randomized", "deterministic"],
    )
    def test_k_selection_n1000_within_10_seconds(self, tmp_path, model, value):
        path = tmp_path / "ks1000.json"
        save_instance(generate_instance("k-selection", n=1000, seed=1), path)
        started = time.perf_counter()
        code, report = run_json(["solve", "--instance", str(path), "--model", model], tmp_path)
        assert time.perf_counter() - started < 10.0
        assert code == 0
        assert report["value"] == pytest.approx(value, abs=1e-6)
        assert report["certified_gap"] <= 1e-7

    def test_text_report_rounds(self, tight3, tmp_path):
        out = tmp_path / "report.txt"
        code = main(
            [
                "solve",
                "--instance",
                str(tight3),
                "--model",
                "randomized",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "value: 0.333333" in text


class TestApproxCommand:
    def test_midpoint_certify_tight_pair(self, tight_pair, tmp_path):
        code, report = run_json(
            ["approx", "--instance", str(tight_pair), "--certify"], tmp_path
        )
        assert code == 0
        assert report["method"] == "midpoint"
        assert report["ratio"] == pytest.approx(2.0, abs=1e-6)
        assert report["guarantee_factor"] == 2.0

    def test_mean_certify_tight3(self, tight3, tmp_path):
        code, report = run_json(
            ["approx", "--instance", str(tight3), "--method", "mean", "--certify"],
            tmp_path,
        )
        assert code == 0
        assert report["ratio"] == pytest.approx(3.0, abs=1e-6)
        assert report["guarantee_factor"] == 3.0

    def test_single_scenario_mean_is_exact(self, tmp_path):
        inst = tmp_path / "one.json"
        inst.write_text(_text(uncertainty=_scenarios([4.0, 2.0, 3.0])), encoding="utf-8")
        code, report = run_json(
            ["approx", "--instance", str(inst), "--method", "mean"], tmp_path
        )
        assert code == 0
        assert report["max_regret"] == pytest.approx(0.0)

    def test_method_mismatch_exits_2(self, tight_pair):
        assert main(["approx", "--instance", str(tight_pair), "--method", "mean"]) == 2

    def test_dual_weighted_on_intervals_exits_2_before_solving(
        self, tight_pair, capsys, monkeypatch
    ):
        def solves(*args, **kwargs):
            raise AssertionError("the game was solved")

        monkeypatch.setattr(cli_mod, "solve_randomized", solves)
        code = main(["approx", "--instance", str(tight_pair), "--method", "dual-weighted"])
        assert code == 2
        assert "requires scenario uncertainty" in capsys.readouterr().err

    def test_dual_weighted(self, tight3, tmp_path):
        code, report = run_json(
            ["approx", "--instance", str(tight3), "--method", "dual-weighted"],
            tmp_path,
        )
        assert code == 0
        assert report["max_regret"] == pytest.approx(1.0)

    def test_dual_weighted_certify_solves_the_game_once(self, tight3, tmp_path, monkeypatch):
        calls = []
        real = cli_mod.solve_randomized

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "solve_randomized", counted)
        code, report = run_json(
            ["approx", "--instance", str(tight3), "--method", "dual-weighted", "--certify"],
            tmp_path,
        )
        assert code == 0
        assert len(calls) == 1
        assert report["ratio"] == pytest.approx(3.0, abs=1e-6)


class TestDecomposeCommand:
    def test_half_half(self, tight_pair, tmp_path):
        marg = tmp_path / "m.json"
        marg.write_text("[0.5, 0.5]", encoding="utf-8")
        code, report = run_json(
            ["decompose", "--instance", str(tight_pair), "--marginal", str(marg)],
            tmp_path,
        )
        assert code == 0
        assert report["reconstruction_error"] <= 1e-7
        assert sorted(map(tuple, report["strategy"]["sets"])) == [(0,), (1,)]

    def test_not_in_hull_exits_4(self, tight_pair, tmp_path):
        marg = tmp_path / "m.json"
        marg.write_text("[0.0, 0.0]", encoding="utf-8")
        code, report = run_json(
            ["decompose", "--instance", str(tight_pair), "--marginal", str(marg)],
            tmp_path,
        )
        assert code == 4
        assert report["status"] == "not-in-hull"
        assert "u" in report["certificate"] and "w" in report["certificate"]

    def test_spanning_tree_n300_solution_round_trip(self, tmp_path, monkeypatch):
        """The optimal marginal of spanning-tree interval n=300 seed 1, read
        back from its solve report, decomposes.  Its twin with edge 0 moved
        by 0.1 is off the row sum(p) = V - 1 that every spanning tree lies
        on: decompose rejects it from that row, without a nominal solve, and
        exits 4.  Each command finishes within its cap."""
        inst = tmp_path / "st300.json"
        save_instance(generate_instance("spanning-tree", n=300, seed=1), inst)
        started = time.perf_counter()
        code, solution = run_json(
            ["solve", "--instance", str(inst), "--model", "randomized"], tmp_path, "solution.json"
        )
        assert time.perf_counter() - started < 60.0
        assert code == 0
        p = solution["marginal"]
        marg = tmp_path / "marginal.json"
        marg.write_text(json.dumps(p), encoding="utf-8")
        decompose = ["decompose", "--instance", str(inst), "--marginal", str(marg)]
        started = time.perf_counter()
        code, report = run_json(decompose, tmp_path)
        assert time.perf_counter() - started < 60.0
        assert code == 0
        assert report["reconstruction_error"] <= 1e-7 and report["support_size"] <= 301

        def never(self, costs):
            raise AssertionError("solved a nominal problem")

        monkeypatch.setattr(SpanningTreeOracle, "solve", never)
        p[0] += 0.1 if p[0] <= 0.5 else -0.1
        marg.write_text(json.dumps(p), encoding="utf-8")
        started = time.perf_counter()
        code, report = run_json(decompose, tmp_path)
        assert time.perf_counter() - started < 10.0
        assert code == 4
        assert report["status"] == "not-in-hull"
        assert len(set(report["certificate"]["u"])) == 1  # the set-size row

    def test_nan_marginal_exits_2(self, tmp_path):
        # Python's json reads NaN; no range check may let it through
        inst_path = tmp_path / "inst.json"
        save_instance(generate_instance("k-selection", n=3, seed=1), inst_path)
        marg = tmp_path / "m.json"
        marg.write_text(json.dumps([float("nan"), 0.5, 0.5]), encoding="utf-8")
        code = main(["decompose", "--instance", str(inst_path), "--marginal", str(marg)])
        assert code == 2

    # numpy's float conversion raised ValueError / TypeError: exit 1.  It read
    # a boolean or a numeric string as a number: exit 0.
    @pytest.mark.parametrize(
        "content",
        [
            ["a", 0.5, 0.5, 0.5],
            {"p": 1},
            [True, False, True, False],
            ["0.5", "0.5", "0.5", "0.5"],
        ],
        ids=["string", "object", "boolean", "numeric-string"],
    )
    def test_non_numeric_marginal_exits_2(self, tmp_path, capsys, content):
        inst_path = tmp_path / "inst.json"
        save_instance(generate_instance("k-selection", n=4, seed=1), inst_path)
        marg = tmp_path / "m.json"
        marg.write_text(json.dumps(content), encoding="utf-8")
        code = main(["decompose", "--instance", str(inst_path), "--marginal", str(marg)])
        assert code == 2
        assert "marginal file must hold 4 reals" in capsys.readouterr().err

    def test_random_mixture_round_trip(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst = generate_instance("k-selection", n=6, uncertainty="interval", seed=5)
        save_instance(inst, inst_path)
        from minregret.core import PlayerMixedStrategy, marginal_of_strategy
        from minregret.nominal import build_oracle

        oracle = build_oracle(inst)
        family = oracle.enumerate_feasible()
        rng = np.random.default_rng(4)
        idx = rng.choice(len(family), size=4, replace=False)
        y = PlayerMixedStrategy.cleaned([family[i] for i in idx], rng.dirichlet(np.ones(4)))
        p = marginal_of_strategy(y)
        marg = tmp_path / "m.json"
        marg.write_text(json.dumps(p.p.tolist()), encoding="utf-8")
        code, report = run_json(
            ["decompose", "--instance", str(inst_path), "--marginal", str(marg)],
            tmp_path,
        )
        assert code == 0
        assert report["reconstruction_error"] <= 1e-7
        assert report["support_size"] <= inst.n + 1


class TestSimulateCommand:
    # simulate used to reject the count only after loading strategies or
    # solving the game, which takes tens of seconds on large instances
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_unusable_sample_count_exits_2_before_solving(
        self, samples, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "st12.json"
        save_instance(generate_instance("spanning-tree", n=12, seed=1), path)

        def never(*args, **kwargs):
            raise AssertionError("simulate solved the game before reading --samples")

        monkeypatch.setattr(cli_mod, "solve_randomized", never)
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--instance", str(path), "--samples", samples, "--seed", "1"])
        assert info.value.code == 2
        assert "argument --samples: must be at least 1" in capsys.readouterr().err

    def test_iteration_limit_of_the_solve_exits_3(self, tight3, capsys, monkeypatch):
        def limited(*args, **kwargs):
            raise IterationLimitError("budget spent", lower=0.0, upper=1.0, iterations=2)

        monkeypatch.setattr(cli_mod, "solve_randomized", limited)
        code = main(["simulate", "--instance", str(tight3), "--samples", "10", "--seed", "1"])
        assert code == 3
        assert capsys.readouterr().err == "error: budget spent\n"

    def test_degenerate_strategies_exact(self, tight3, tmp_path):
        strat = tmp_path / "s.json"
        strat.write_text(
            json.dumps(
                {
                    "player": {"sets": [[0]], "probs": [1.0]},
                    "adversary": {"costs": [[1.0, 0.0, 0.0]], "probs": [1.0]},
                }
            ),
            encoding="utf-8",
        )
        code, report = run_json(
            [
                "simulate",
                "--instance",
                str(tight3),
                "--samples",
                "1000",
                "--seed",
                "5",
                "--strategies",
                str(strat),
            ],
            tmp_path,
        )
        assert code == 0
        assert report["stderr"] == 0.0
        assert report["mean"] == report["exact_expected_regret"] == 1.0

    def test_default_strategies_close_to_value(self, tight3, tmp_path):
        code, report = run_json(
            ["simulate", "--instance", str(tight3), "--samples", "50000", "--seed", "42"],
            tmp_path,
        )
        assert code == 0
        assert report["deviation_in_stderr"] <= 4.0

    def test_malformed_strategy_file_exits_2(self, tight3, tmp_path):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"player": {"sets": [[0]]}}), encoding="utf-8")
        code = main(
            [
                "simulate",
                "--instance",
                str(tight3),
                "--samples",
                "10",
                "--seed",
                "1",
                "--strategies",
                str(strat),
            ]
        )
        assert code == 2

    # numpy read each as a number and the play was simulated: true as 1.0,
    # "1" as 1.0.
    @pytest.mark.parametrize(
        "player_probs, costs, adversary_probs, message",
        [
            ([True], [1.0, 0.0, 0.0], [1.0], "player probs must hold numbers, got True"),
            ([1.0], [1.0, 0.0, 0.0], ["1"], "adversary probs must hold numbers, got '1'"),
            ([1.0], [1.0, 0.0, 0.0], [True], "adversary probs must hold numbers, got True"),
            ([1.0], [True, 0.0, 0.0], [1.0], "adversary costs must hold numbers, got True"),
            ([1.0], ["1", 0.0, 0.0], [1.0], "adversary costs must hold numbers, got '1'"),
        ],
        ids=[
            "player-probs-boolean",
            "adversary-probs-string",
            "adversary-probs-boolean",
            "adversary-costs-boolean",
            "adversary-costs-string",
        ],
    )
    def test_non_numeric_real_field_exits_2(
        self, tight3, tmp_path, capsys, player_probs, costs, adversary_probs, message
    ):
        strat = tmp_path / "s.json"
        strat.write_text(
            json.dumps(
                {
                    "player": {"sets": [[0]], "probs": player_probs},
                    "adversary": {"costs": [costs], "probs": adversary_probs},
                }
            ),
            encoding="utf-8",
        )
        code = main(
            ["simulate", "--instance", str(tight3), "--samples", "10", "--seed", "1",
             "--strategies", str(strat)]
        )
        assert code == 2
        assert message in capsys.readouterr().err


    def test_nan_player_probability_exits_2(self, tight3, tmp_path):
        strat = tmp_path / "s.json"
        strat.write_text(
            json.dumps(
                {
                    "player": {"sets": [[0], [1]], "probs": [float("nan"), 1.0]},
                    "adversary": {"costs": [[1.0, 0.0, 0.0]], "probs": [1.0]},
                }
            ),
            encoding="utf-8",
        )
        code = main(
            ["simulate", "--instance", str(tight3), "--samples", "10", "--seed", "1",
             "--strategies", str(strat)]
        )
        assert code == 2

    # Labels were read unchecked: 3 crashed with a TypeError (exit 1), and the
    # rest were accepted, the swapped pair with each row under the other's index.
    @pytest.mark.parametrize(
        "labels, message",
        [
            (3, "malformed adversary strategy"),
            ([0, 7], "support vector labelled 7 is not scenario row 7"),
            ("ab", "scenario label must be an integer, got 'a'"),
            ([0.5, 1], "scenario label must be an integer, got 0.5"),
            ([1, 0], "support vector labelled 1 is not scenario row 1"),
        ],
        ids=["number", "out-of-range", "string", "fraction", "swapped"],
    )
    def test_scenario_labels_must_name_their_rows(self, tmp_path, capsys, labels, message):
        assert self._simulate_ks4(tmp_path, [0, 1], labels) == 2
        assert message in capsys.readouterr().err

    # A fraction or an integral float crashed with an IndexError (exit 1),
    # and a boolean was read as item 1.  An integral float is an item, as it is
    # in an instance file.  A repeated item was dropped without a word (exit 0).
    @pytest.mark.parametrize(
        "items, message",
        [
            ([0.5, 1], "player set item must be an integer, got 0.5"),
            ([True, 1], "player set item must be an integer, got True"),
            (["0", 1], "player set item must be an integer, got '0'"),
            ([0.0, 1.0], None),
            ([0, 1, 1], "player set [0, 1, 1] repeats an item"),
        ],
        ids=["fraction", "boolean", "string", "integral-float", "repeated-item"],
    )
    def test_player_set_items_must_be_integers(self, tmp_path, capsys, items, message):
        code = self._simulate_ks4(tmp_path, items, [0, 1])
        if message is None:
            assert code == 0
        else:
            assert code == 2
            assert message in capsys.readouterr().err

    @staticmethod
    def _simulate_ks4(tmp_path, items, labels):
        """``simulate`` on k-selection n=4, k=2 with 2 scenarios, the player
        on the one set ``items`` and the adversary on the scenarios labelled
        ``labels``; returns the exit code."""
        instance = tmp_path / "ks4.json"
        save_instance(
            generate_instance("k-selection", n=4, uncertainty="scenarios", n_scenarios=2, seed=1),
            instance,
        )
        d = json.loads(instance.read_text(encoding="utf-8"))
        assert d["nominal"]["k"] == 2
        strat = tmp_path / "s.json"
        strat.write_text(
            json.dumps(
                {
                    "player": {"sets": [items], "probs": [1.0]},
                    "adversary": {
                        "costs": d["uncertainty"]["costs"],
                        "probs": [0.5, 0.5],
                        "scenarios": labels,
                    },
                }
            ),
            encoding="utf-8",
        )
        return main(
            ["simulate", "--instance", str(instance), "--samples", "10", "--seed", "1",
             "--strategies", str(strat)]
        )

    def test_scenario_labels_on_an_interval_instance_exit_2(self, tight_pair, tmp_path, capsys):
        strat = tmp_path / "s.json"
        strat.write_text(
            json.dumps(
                {
                    "player": {"sets": [[0]], "probs": [1.0]},
                    "adversary": {"costs": [[1.0, 0.0]], "probs": [1.0], "scenarios": [0]},
                }
            ),
            encoding="utf-8",
        )
        code = main(
            ["simulate", "--instance", str(tight_pair), "--samples", "10", "--seed", "1",
             "--strategies", str(strat)]
        )
        assert code == 2
        assert "scenario labels on an interval instance" in capsys.readouterr().err

    def test_infeasible_player_set_exits_2(self, tmp_path, capsys):
        instance = tmp_path / "ks6.json"
        save_instance(
            generate_instance("k-selection", n=6, k=3, uncertainty="scenarios", seed=1),
            instance,
        )
        costs = json.loads(instance.read_text(encoding="utf-8"))["uncertainty"]["costs"]
        strat = tmp_path / "s.json"
        strat.write_text(
            json.dumps(
                {
                    "player": {"sets": [[0], [0, 1, 2, 3, 4, 5]], "probs": [0.5, 0.5]},
                    "adversary": {"costs": [costs[0]], "probs": [1.0]},
                }
            ),
            encoding="utf-8",
        )
        code = main(
            ["simulate", "--instance", str(instance), "--samples", "10", "--seed", "1",
             "--strategies", str(strat)]
        )
        assert code == 2
        assert "only for feasible sets" in capsys.readouterr().err

    def test_player_item_out_of_range_exits_2(self, tight3, tmp_path, capsys):
        strat = tmp_path / "s.json"
        strat.write_text(
            json.dumps(
                {
                    "player": {"sets": [[3]], "probs": [1.0]},
                    "adversary": {"costs": [[1.0, 0.0, 0.0]], "probs": [1.0]},
                }
            ),
            encoding="utf-8",
        )
        code = main(
            ["simulate", "--instance", str(tight3), "--samples", "10", "--seed", "1",
             "--strategies", str(strat)]
        )
        assert code == 2
        assert "error: item index 3 out of range 0..2" in capsys.readouterr().err


class TestGenCommand:
    def test_tight_discrete_structure(self, tmp_path):
        out = tmp_path / "t5.json"
        assert main(["gen", "--family", "tight-discrete", "--k", "5", "--out", str(out)]) == 0
        d = json.loads(out.read_text(encoding="utf-8"))
        assert d["n"] == 5
        assert d["nominal"] == {"type": "k-selection", "n": 5, "k": 1}
        costs = np.array(d["uncertainty"]["costs"])
        assert np.array_equal(costs, np.eye(5))

    def test_tight_interval_instance(self, tmp_path):
        out = tmp_path / "ti.json"
        assert main(["gen", "--family", "tight-interval", "--out", str(out)]) == 0
        d = json.loads(out.read_text(encoding="utf-8"))
        assert d["uncertainty"] == {
            "type": "interval",
            "lower": [0.0, 0.0],
            "upper": [1.0, 1.0],
        }

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--family", "dag-path", "--n", "7", "--uncertainty", "scenarios",
                "--scenarios", "3", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_params_exit_2(self):
        assert main(["gen", "--family", "k-selection"]) == 2

    @pytest.mark.parametrize("option", ["--n", "--scenarios"])
    def test_unusable_count_exits_2_at_parse_time(self, option, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", "k-selection", "--n", "4", option, "0"])
        assert info.value.code == 2
        assert f"argument {option}: must be at least 1, got 0" in capsys.readouterr().err


class TestVerifyCommand:
    def test_tight_instance_passes(self, tight3, capsys):
        assert main(["verify", "--instance", str(tight3)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_tight_interval_passes(self, tight_pair, capsys):
        assert main(["verify", "--instance", str(tight_pair)]) == 0

    def test_random_suite(self, capsys):
        for count, seed, checks in (("6", "7", 59), ("30", "1", 295)):
            assert main(["verify", "--random-suite", "--count", count, "--seed", seed]) == 0
            assert f"\n{checks}/{checks} checks passed\n" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_random_suite_needs_a_positive_count(self, count, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--random-suite", "--count", count])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "checks passed" not in captured.out
        assert "argument --count: must be at least 1" in captured.err

    def test_negative_tolerance_exits_2_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--random-suite", "--count", "1", "--tol", "-0.1"])
        assert info.value.code == 2
        assert "argument --tol: must be" in capsys.readouterr().err

    def test_requires_a_target(self, capsys):
        assert main(["verify"]) == 2

    # Each solver's typed error fails that solver's checks, and only those;
    # the rest of the report is still printed.
    @pytest.mark.parametrize(
        "instance, solver, error, checks",
        [
            (
                "tight3",
                "solve_adversary_lp_discrete",
                IterationLimitError("double oracle exceeded 1 iterations", 0.0, 1.0, 1),
                ["strong_duality"],
            ),
            (
                "tight3",
                "decompose_marginal",
                NotInHullError("marginal is outside the hull", np.ones(3), 1.0),
                ["decompose_roundtrip", "decompose_support"],
            ),
            (
                "tight_pair",
                "approx_midpoint",
                SolverError("midpoint identity failed"),
                ["approx_midpoint"],
            ),
        ],
        ids=["adversary-lp", "decompose", "approx-midpoint"],
    )
    def test_cross_check_solver_error_is_a_failed_check(
        self, instance, solver, error, checks, request, capsys, monkeypatch
    ):
        def fails(*args, **kwargs):
            raise error

        monkeypatch.setattr(verify_mod, solver, fails)
        path = request.getfixturevalue(instance)
        assert main(["verify", "--instance", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line.split(" ") for line in lines if line.startswith("FAIL")]
        assert [words[1] for words in failed] == checks
        detail = f"[{type(error).__name__}: {error}]"
        assert all(line.endswith(detail) for line in lines if line.startswith("FAIL"))
        assert lines[-1] == f"{len(lines) - 1 - len(checks)}/{len(lines) - 1} checks passed"
        assert len(lines) > 10

    def test_primary_solver_error_propagates(self, tight3, capsys, monkeypatch):
        def fails(*args, **kwargs):
            raise SolverError("no answer")

        monkeypatch.setattr(verify_mod, "solve_randomized", fails)
        assert main(["verify", "--instance", str(tight3)]) == 2
        assert "error: no answer" in capsys.readouterr().err


def test_reports_are_self_contained(tight3, tmp_path):
    """Strategies copied out of a solve report reproduce its value."""
    code, report = run_json(
        ["solve", "--instance", str(tight3), "--model", "randomized"], tmp_path
    )
    assert code == 0
    strat = tmp_path / "strategies.json"
    strat.write_text(
        json.dumps({"player": report["player"], "adversary": report["adversary"]}),
        encoding="utf-8",
    )
    code, sim_report = run_json(
        [
            "simulate",
            "--instance",
            str(tight3),
            "--samples",
            "200000",
            "--seed",
            "11",
            "--strategies",
            str(strat),
        ],
        tmp_path,
        name="sim.json",
    )
    assert code == 0
    assert sim_report["exact_expected_regret"] == pytest.approx(
        report["value"], abs=1e-6
    )
    assert abs(sim_report["mean"] - report["value"]) <= 4 * sim_report["stderr"]


def test_module_entry_point():
    """``python -m minregret`` runs the CLI: ``gen`` without ``--out``
    writes the instance file's text to stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "minregret", "gen", "--family", "tight-interval"],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == instance_text(generate_instance("tight-interval"))
