"""Cross-solver invariant checks, runnable on one instance or a random suite.

Each check reports a measured slack (how far inside the inequality the
result landed); a negative slack is a failure.  The checks cover the value
ordering between the randomized and deterministic optima, the k / 2 gap
bounds, agreement with the exhaustive game solve, agreement of the direct
k-selection solvers with the double oracle, duality of the adversary LP, the
approximation guarantees, the midpoint identities, saddle-point
certificates, and the marginal decomposition round trip.

One rule reads a cross-check solver's error.  An
:class:`EnumerationCapError` skips the solver's checks, under their usual
names and with the error as detail, so a report keeps its shape at any n.
Any other solver error (:class:`SolverError`, :class:`IterationLimitError`,
:class:`NotInHullError`) fails them, with detail ``"<type>: <error>"``.  The
double oracle past ``DOUBLE_ORACLE_MAX_N`` items is skipped without running.
An error of ``solve_randomized``, whose answer every check needs, and an
:class:`InstanceError` propagate.  Interval k-selection needs no enumeration
for Z_D, so its value-order and gap-bound checks run at any n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    EnumerationCapError,
    Instance,
    IterationLimitError,
    MAX_CUTS,
    NotInHullError,
    SolverError,
    as_count,
    as_integer,
    expected_regret,
    marginal_of_strategy,
)
from .decompose import decompose_marginal
from .gen import generate_instance
from .nominal import KSelectionOracle, build_oracle
from .regret import max_expected_regret, player_best_response
from .solvers import (
    approx_mean_cost,
    approx_midpoint,
    bruteforce_game_value,
    solve_adversary_lp_discrete,
    solve_deterministic_exact,
    solve_randomized,
    _double_oracle,
)

VALUE_TOL = 1e-6
ORDER_TOL = 1e-9
RECONSTRUCT_TOL = 1e-7
# Past this many items the double oracle's cross-check is skipped, for its
# cost: on interval k-selection it takes about 22 s at n=200 seed 2, and more
# than 90 s at n=500 and n=1000.
DOUBLE_ORACLE_MAX_N = 100


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str = ""
    skipped: bool = False


def _check(name, slack, detail) -> CheckResult:
    return CheckResult(name, bool(slack >= 0.0), float(slack), detail)


def _skipped(name, reason) -> CheckResult:
    return CheckResult(name, True, 0.0, reason, skipped=True)


def run_instance_checks(instance: Instance, tol: float = 1e-7) -> list[CheckResult]:
    """All invariant checks on one instance."""
    oracle = build_oracle(instance)
    game = solve_randomized(instance, tol=tol, oracle=oracle)
    z_r = game.value
    k = 2 if instance.is_interval else instance.uncertainty.k
    factor = float(k)
    results: list[CheckResult] = []

    def run(names, measure):
        """One result per name from ``measure()``'s ``(slack, detail)`` pairs;
        a capped enumeration skips every name, any other solver error fails
        every name."""
        try:
            answers = measure()
        except EnumerationCapError as exc:
            results.extend(_skipped(name, str(exc)) for name in names)
        except (SolverError, IterationLimitError, NotInHullError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
            results.extend(CheckResult(name, False, -np.inf, detail) for name in names)
        else:
            results.extend(
                _check(name, *answer) for name, answer in zip(names, answers, strict=True)
            )

    def value_order():
        _, z_d = solve_deterministic_exact(instance, oracle=oracle)
        return [
            (z_d - z_r + ORDER_TOL, f"Z_R={z_r:.9g} Z_D={z_d:.9g}"),
            (z_r - z_d / factor + ORDER_TOL, f"Z_R={z_r:.9g} bound={z_d / factor:.9g}"),
        ]

    def bruteforce():
        brute, _, _ = bruteforce_game_value(instance, oracle=oracle)
        return [(VALUE_TOL - abs(z_r - brute), f"randomized={z_r:.9g} exhaustive={brute:.9g}")]

    def double_oracle():
        z_do = _double_oracle(instance, tol, MAX_CUTS, oracle).value
        return [(VALUE_TOL - abs(z_r - z_do), f"direct={z_r:.9g} double-oracle={z_do:.9g}")]

    def strong_duality():
        _, z_ar, _ = solve_adversary_lp_discrete(instance, tol=tol, oracle=oracle)
        return [(VALUE_TOL - abs(z_ar - z_r), f"Z_AR={z_ar:.9g}")]

    def approximation():
        # approx_midpoint raises internally if its two identities fail.
        approx, bound = (approx_midpoint, "2") if instance.is_interval else (approx_mean_cost, "k")
        _, rmax = approx(instance, oracle=oracle)
        limit = factor * z_r
        return [(limit + VALUE_TOL - rmax, f"R_max={rmax:.9g} {bound}*Z_R={limit:.9g}")]

    def saddle_player():
        value = max_expected_regret(game.marginal, instance, oracle).value
        return [(z_r + VALUE_TOL - value, f"best response {value:.9g}")]

    def saddle_adversary():
        value = player_best_response(game.adversary, instance, oracle).value
        return [(value - z_r + VALUE_TOL, f"best response {value:.9g}")]

    def equilibrium():
        value = expected_regret(game.player, game.adversary, oracle)
        return [(VALUE_TOL - abs(value - z_r), f"expected={value:.9g}")]

    def round_trip():
        rebuilt = decompose_marginal(game.marginal, oracle, tol=RECONSTRUCT_TOL)
        err = float(np.max(np.abs(marginal_of_strategy(rebuilt).p - game.marginal.p)))
        support = rebuilt.support_size
        return [
            (RECONSTRUCT_TOL - err, f"error={err:.3g}"),
            (float(instance.n + 1 - support), f"support={support}"),
        ]

    run(("value_order Z_R <= Z_D", f"gap_bound Z_R >= Z_D/{k}"), value_order)
    run(("bruteforce_equivalence",), bruteforce)
    if isinstance(oracle, KSelectionOracle):
        if instance.n > DOUBLE_ORACLE_MAX_N:
            reason = f"n={instance.n} is past the double oracle's {DOUBLE_ORACLE_MAX_N}"
            results.append(_skipped("compact_vs_double_oracle", reason))
        else:
            run(("compact_vs_double_oracle",), double_oracle)
    if instance.is_interval:
        run(("approx_midpoint R_max <= 2*Z_R",), approximation)
    else:
        run(("strong_duality Z_AR == Z_R",), strong_duality)
        run(("approx_mean R_max <= k*Z_R",), approximation)
    run(("saddle_player max_exp_regret(marginal) <= Z_R",), saddle_player)
    run(("saddle_adversary best_response(w) >= Z_R",), saddle_adversary)
    run(("equilibrium_value expected_regret(y,w) == Z_R",), equilibrium)
    run(("decompose_roundtrip", "decompose_support <= n+1"), round_trip)
    return results


def run_random_suite(count: int, seed: int, tol: float = 1e-7):
    """Instance checks over a deterministic random suite.

    Cycles through the three generator families and both uncertainty types.
    Returns ``(results, instances_checked)``.
    """
    count, seed = as_count(count, "count"), as_integer(seed, "seed")
    families = ("k-selection", "spanning-tree", "dag-path")
    results: list[CheckResult] = []
    for i in range(count):
        family = families[i % len(families)]
        kind = "interval" if (i // len(families)) % 2 == 0 else "scenarios"
        sub_seed = seed * 100003 + i
        n = 3 + (sub_seed % 6)
        instance = generate_instance(
            family,
            n=n,
            uncertainty=kind,
            n_scenarios=2 + sub_seed % 3,
            seed=sub_seed,
        )
        results += (
            replace(res, name=f"{instance.name}: {res.name}")
            for res in run_instance_checks(instance, tol=tol)
        )
    return results, count
