"""Command-line interface.

Subcommands: ``solve`` (randomized or deterministic optimum), ``approx``
(mean-cost / midpoint / dual-weighted heuristics), ``decompose`` (marginal to
mixed strategy), ``simulate`` (seeded Monte Carlo play), ``gen`` (instance
files, including the tight gap constructions), ``verify`` (invariant suite).

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource cap
hit, 4 marginal not inside the feasible hull.  Text reports round to six
decimals; JSON reports carry full precision.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .core import (
    EnumerationCapError,
    InstanceError,
    IterationLimitError,
    MAX_CUTS,
    MinregretError,
    NotInHullError,
    as_count,
    as_tolerance,
    expected_regret,
    marginal_of_strategy,
)
from .decompose import decompose_marginal
from .gen import FAMILIES, generate_instance
from .io import (
    adversary_strategy_to_dict,
    instance_text,
    load_instance,
    load_marginal,
    load_strategies,
    player_strategy_to_dict,
)
from .nominal import build_oracle
from .sim import simulate
from .solvers import (
    approx_dual_weighted,
    approx_mean_cost,
    approx_midpoint,
    solve_deterministic_exact,
    solve_randomized,
)
from .verify import run_instance_checks, run_random_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_NOT_IN_HULL = 4

# The exit code of an error that reaches main; any other MinregretError
# exits EXIT_INPUT.  cmd_decompose reports a NotInHullError itself.
_ERROR_EXITS = (
    ((EnumerationCapError, IterationLimitError), EXIT_RESOURCE),
    (NotInHullError, EXIT_NOT_IN_HULL),
)


def _round6(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, list):
        return [_round6(v) for v in value]
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    return value


def _render_text(report: dict) -> str:
    return _render_rounded(_round6(report)) + "\n"


def _render_rounded(report: dict, indent: int = 0) -> str:
    """The text layout of a report whose floats are already rounded."""
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_rounded(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{pad}{key}:")
            lines.extend(f"{pad}  {item}" for item in value)
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _json_text(value, indent: int = 0) -> str:
    """JSON laid out like ``indent=2``, except that a list of scalars stays
    on one line.  Those lists go through the C encoder, which ``indent``
    turns off; report lists hold either scalars or containers, never both."""
    pad = "  " * (indent + 1)
    if isinstance(value, dict) and value:
        items = (
            f"{pad}{json.dumps(key)}: {_json_text(item, indent + 1)}"
            for key, item in value.items()
        )
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        items = (pad + _json_text(v, indent + 1) for v in value)
    else:
        return json.dumps(value)
    opening, closing = ("{", "}") if isinstance(value, dict) else ("[", "]")
    return opening + "\n" + ",\n".join(items) + "\n" + "  " * indent + closing


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = _json_text(report) + "\n"
    else:
        text = _render_text(report)
    _write(text, args.out)


def _write(text: str, path: str | None) -> None:
    """``text`` into the file at ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solution_report(game) -> dict:
    return {
        "value": game.value,
        "player": player_strategy_to_dict(game.player),
        "adversary": adversary_strategy_to_dict(game.adversary),
        "marginal": game.marginal.p.tolist(),
        "certified_gap": game.certified_gap,
        "iterations": game.iterations,
    }


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    started = time.perf_counter()
    report = {"command": "solve", "model": args.model, "instance": instance.name}
    if args.model == "deterministic":
        chosen, value = solve_deterministic_exact(instance)
        report.update(
            {
                "value": value,
                "chosen_set": list(chosen.indices),
                "marginal": chosen.indicator.astype(float).tolist(),
                "certified_gap": 0.0,
                "iterations": 0,
            }
        )
    else:
        try:
            game = solve_randomized(instance, tol=args.tol, max_iter=args.max_iter)
        except IterationLimitError as exc:
            report.update(
                {
                    "status": "iteration-limit",
                    "lower_bound": exc.lower,
                    "upper_bound": exc.upper,
                    "iterations": exc.iterations,
                    "wall_time_seconds": time.perf_counter() - started,
                }
            )
            _emit(report, args)
            return EXIT_RESOURCE
        report.update(_solution_report(game))
    report["wall_time_seconds"] = time.perf_counter() - started
    _emit(report, args)
    return EXIT_OK


def cmd_approx(args) -> int:
    instance = load_instance(args.instance)
    method = args.method
    if method == "auto":
        method = "midpoint" if instance.is_interval else "mean"
    started = time.perf_counter()
    game = None
    if method == "midpoint":
        chosen, rmax = approx_midpoint(instance)
        bound = 2.0
    elif method == "mean":
        chosen, rmax = approx_mean_cost(instance)
        bound = float(instance.uncertainty.k)
    else:  # dual-weighted: argparse restricts the choices
        if instance.is_interval:
            raise InstanceError("dual-weighted approximation requires scenario uncertainty")
        game = solve_randomized(instance, tol=args.tol)
        chosen, rmax = approx_dual_weighted(instance, game.adversary)
        bound = float(instance.uncertainty.k)
    report = {
        "command": "approx",
        "method": method,
        "instance": instance.name,
        "chosen_set": list(chosen.indices),
        "max_regret": rmax,
        "guarantee_factor": bound,
    }
    if args.certify:
        if game is None:
            game = solve_randomized(instance, tol=args.tol)
        report["value_randomized"] = game.value
        report["ratio"] = rmax / game.value if game.value > 1e-12 else None
    report["wall_time_seconds"] = time.perf_counter() - started
    _emit(report, args)
    return EXIT_OK


def cmd_decompose(args) -> int:
    instance = load_instance(args.instance)
    oracle = build_oracle(instance)
    p = load_marginal(args.marginal, instance.n)
    report = {"command": "decompose", "instance": instance.name, "marginal": p.p.tolist()}
    try:
        strategy = decompose_marginal(p, oracle, tol=args.tol)
    except NotInHullError as exc:
        report.update(
            {
                "status": "not-in-hull",
                "certificate": {"u": exc.u.tolist(), "w": exc.w},
            }
        )
        _emit(report, args)
        return EXIT_NOT_IN_HULL
    err = float(
        np.max(np.abs(marginal_of_strategy(strategy).p - p.p))
    )
    report.update(
        {
            "status": "decomposed",
            "strategy": player_strategy_to_dict(strategy),
            "support_size": strategy.support_size,
            "reconstruction_error": err,
        }
    )
    _emit(report, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    instance = load_instance(args.instance)
    oracle = build_oracle(instance)
    if args.strategies:
        y, w = load_strategies(args.strategies, instance)
    else:
        game = solve_randomized(instance, tol=args.tol)
        y, w = game.player, game.adversary
    started = time.perf_counter()
    est = simulate(instance, y, w, args.samples, args.seed, oracle=oracle)
    exact = expected_regret(y, w, oracle)
    deviation = abs(est.mean - exact)
    if est.stderr > 0.0:
        normalized = deviation / est.stderr
    else:
        normalized = 0.0 if deviation == 0.0 else None  # stderr 0 with a mismatch
    report = {
        "command": "simulate",
        "instance": instance.name,
        "samples": args.samples,
        "seed": args.seed,
        "mean": est.mean,
        "stderr": est.stderr,
        "exact_expected_regret": exact,
        "deviation_in_stderr": normalized,
        "wall_time_seconds": time.perf_counter() - started,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_gen(args) -> int:
    instance = generate_instance(
        args.family,
        n=args.n,
        k=args.k,
        uncertainty=args.uncertainty,
        n_scenarios=args.scenarios,
        seed=args.seed,
    )
    _write(instance_text(instance), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.random_suite:
        results, _ = run_random_suite(args.count, args.seed, tol=args.tol)
    elif args.instance:
        instance = load_instance(args.instance)
        results = run_instance_checks(instance, tol=args.tol)
    else:
        raise InstanceError("verify needs --instance or --random-suite")
    failures = 0
    for res in results:
        tag = "SKIP" if res.skipped else ("PASS" if res.passed else "FAIL")
        if not res.passed:
            failures += 1
        detail = f"  [{res.detail}]" if res.detail else ""
        sys.stdout.write(f"{tag} {res.name} slack={res.slack:.3g}{detail}\n")
    sys.stdout.write(
        f"{len(results) - failures}/{len(results)} checks passed\n"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


# argparse exits 2 on a value these reject, before any instance is loaded
def tolerance(text: str) -> float:
    return _argument(as_tolerance, float(text))


def positive_int(text: str) -> int:
    return _argument(as_count, int(text), "count")


def _argument(read, value, *field):
    """``value`` read by the core reader ``read``, whose rule the API
    shares; its fault's text, less the field's name, follows the option's
    (``argument --tol: must be a finite number >= 0, got nan``)."""
    try:
        return read(value, *field)
    except InstanceError as exc:
        raise argparse.ArgumentTypeError(str(exc).partition(" ")[2]) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minregret",
        description="Minmax-regret solvers under interval or scenario cost uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--tol", type=tolerance, default=1e-7, help="solver tolerance")

    p = sub.add_parser("solve", help="optimal randomized or deterministic solution")
    p.add_argument("--instance", required=True)
    p.add_argument("--model", choices=("randomized", "deterministic"), required=True)
    p.add_argument(
        "--max-iter",
        type=positive_int,
        default=MAX_CUTS,
        help="iteration budget of the double oracle (spanning trees, DAG paths, explicit families)",
    )
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("approx", help="mean-cost / midpoint / dual-weighted heuristics")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--method",
        choices=("auto", "mean", "midpoint", "dual-weighted"),
        default="auto",
    )
    p.add_argument("--certify", action="store_true", help="also solve the game and report the ratio")
    add_common(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("decompose", help="recover a mixed strategy from a marginal vector")
    p.add_argument("--instance", required=True)
    p.add_argument("--marginal", required=True, help="JSON array of n reals")
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the expected regret")
    p.add_argument("--instance", required=True)
    p.add_argument("--samples", type=positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--strategies", help="JSON file with player and adversary strategies")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=positive_int)
    p.add_argument("--k", type=int)
    p.add_argument("--uncertainty", choices=("interval", "scenarios"), default="interval")
    p.add_argument(
        "--scenarios", type=positive_int, default=2, help="scenario count for scenario uncertainty"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the instance to this path instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run the invariant check suite")
    p.add_argument("--instance")
    p.add_argument("--random-suite", action="store_true")
    p.add_argument("--count", type=positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=tolerance, default=1e-7)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MinregretError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next((code for kind, code in _ERROR_EXITS if isinstance(exc, kind)), EXIT_INPUT)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
