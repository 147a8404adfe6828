"""Cross-solver invariant checks, runnable on one instance or a random suite.

Each check reports a measured slack (how far inside the inequality the
result landed); a negative slack is a failure.  The checks cover the value
ordering between the randomized and deterministic optima, the k / 2 gap
bounds, agreement with the exhaustive game solve, agreement of the direct
k-selection solvers with the double oracle, duality of the adversary LP, the
approximation guarantees, the midpoint identities, saddle-point
certificates, and the marginal decomposition round trip.

Checks that would need an enumeration past its cap, or a double oracle
beyond ``DOUBLE_ORACLE_MAX_N`` items, are reported as skipped under their
usual names, so a report keeps its shape at any n.  A cross-check solver
(the exhaustive game, the double oracle, the adversary LP, the
decomposition) that raises :class:`SolverError` fails its checks, with the
error as their detail; a ``SolverError`` of ``solve_randomized``, whose
answer every check needs, propagates.  Interval k-selection needs no
enumeration for Z_D, so its value-order and gap-bound checks run at any n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EnumerationCapError,
    Instance,
    InstanceError,
    SolverError,
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
# The double oracle never finished k-selection n=200 seed 2; past this many
# items its cross-check is skipped.
DOUBLE_ORACLE_MAX_N = 100


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str = ""
    skipped: bool = False


def _check(name, slack, detail="") -> CheckResult:
    return CheckResult(name, bool(slack >= 0.0), float(slack), detail)


def _skipped(name, reason) -> CheckResult:
    return CheckResult(name, True, 0.0, reason, skipped=True)


def _failed(name, exc: SolverError) -> CheckResult:
    return CheckResult(name, False, -np.inf, f"SolverError: {exc}")


def run_instance_checks(instance: Instance, tol: float = 1e-7) -> list[CheckResult]:
    """All invariant checks on one instance."""
    oracle = build_oracle(instance)
    results: list[CheckResult] = []

    game = solve_randomized(instance, tol=tol, oracle=oracle)
    z_r = game.value

    if instance.is_interval:
        factor, bound_name = 2.0, "Z_D/2"
    else:
        factor, bound_name = float(instance.uncertainty.k), f"Z_D/{instance.uncertainty.k}"
    order_name, bound_check = "value_order Z_R <= Z_D", f"gap_bound Z_R >= {bound_name}"
    try:
        _, z_d = solve_deterministic_exact(instance, oracle=oracle)
    except EnumerationCapError as exc:
        results += [_skipped(order_name, str(exc)), _skipped(bound_check, str(exc))]
    else:
        results.append(
            _check(order_name, z_d - z_r + ORDER_TOL, f"Z_R={z_r:.9g} Z_D={z_d:.9g}")
        )
        results.append(
            _check(
                bound_check,
                z_r - z_d / factor + ORDER_TOL,
                f"Z_R={z_r:.9g} bound={z_d / factor:.9g}",
            )
        )

    try:
        brute, _, _ = bruteforce_game_value(instance, oracle=oracle)
    except EnumerationCapError as exc:
        results.append(_skipped("bruteforce_equivalence", str(exc)))
    except SolverError as exc:
        results.append(_failed("bruteforce_equivalence", exc))
    else:
        results.append(
            _check(
                "bruteforce_equivalence",
                VALUE_TOL - abs(z_r - brute),
                f"randomized={z_r:.9g} exhaustive={brute:.9g}",
            )
        )

    if isinstance(oracle, KSelectionOracle):
        if instance.n > DOUBLE_ORACLE_MAX_N:
            results.append(
                _skipped(
                    "compact_vs_double_oracle",
                    f"n={instance.n} is past the double oracle's {DOUBLE_ORACLE_MAX_N}",
                )
            )
        else:
            try:
                z_do = _double_oracle(instance, tol, 10000, oracle).value
            except SolverError as exc:
                results.append(_failed("compact_vs_double_oracle", exc))
            else:
                results.append(
                    _check(
                        "compact_vs_double_oracle",
                        VALUE_TOL - abs(z_r - z_do),
                        f"direct={z_r:.9g} double-oracle={z_do:.9g}",
                    )
                )

    if not instance.is_interval:
        try:
            _, z_ar, _ = solve_adversary_lp_discrete(instance, tol=tol, oracle=oracle)
        except SolverError as exc:
            results.append(_failed("strong_duality Z_AR == Z_R", exc))
        else:
            results.append(
                _check(
                    "strong_duality Z_AR == Z_R",
                    VALUE_TOL - abs(z_ar - z_r),
                    f"Z_AR={z_ar:.9g}",
                )
            )
        _, rmax = approx_mean_cost(instance, oracle=oracle)
        results.append(
            _check(
                "approx_mean R_max <= k*Z_R",
                factor * z_r + VALUE_TOL - rmax,
                f"R_max={rmax:.9g} k*Z_R={factor * z_r:.9g}",
            )
        )
    else:
        # approx_midpoint raises internally if its two identities fail.
        _, rmax = approx_midpoint(instance, oracle=oracle)
        results.append(
            _check(
                "approx_midpoint R_max <= 2*Z_R",
                2.0 * z_r + VALUE_TOL - rmax,
                f"R_max={rmax:.9g} 2*Z_R={2.0 * z_r:.9g}",
            )
        )

    adv_value = max_expected_regret(game.marginal, instance, oracle).value
    results.append(
        _check(
            "saddle_player max_exp_regret(marginal) <= Z_R",
            z_r + VALUE_TOL - adv_value,
            f"best response {adv_value:.9g}",
        )
    )
    play_value = player_best_response(game.adversary, instance, oracle).value
    results.append(
        _check(
            "saddle_adversary best_response(w) >= Z_R",
            play_value - z_r + VALUE_TOL,
            f"best response {play_value:.9g}",
        )
    )
    exp = expected_regret(game.player, game.adversary, oracle)
    results.append(
        _check(
            "equilibrium_value expected_regret(y,w) == Z_R",
            VALUE_TOL - abs(exp - z_r),
            f"expected={exp:.9g}",
        )
    )

    try:
        rebuilt = decompose_marginal(game.marginal, oracle, tol=RECONSTRUCT_TOL)
    except SolverError as exc:
        results += [_failed("decompose_roundtrip", exc), _failed("decompose_support <= n+1", exc)]
        return results
    err = float(np.max(np.abs(marginal_of_strategy(rebuilt).p - game.marginal.p)))
    results.append(
        _check("decompose_roundtrip", RECONSTRUCT_TOL - err, f"error={err:.3g}")
    )
    results.append(
        _check(
            "decompose_support <= n+1",
            float(instance.n + 1 - rebuilt.support_size),
            f"support={rebuilt.support_size}",
        )
    )
    return results


def run_random_suite(count: int, seed: int, tol: float = 1e-7):
    """Instance checks over a deterministic random suite.

    Cycles through the three generator families and both uncertainty types.
    Returns ``(results, instances_checked)``.
    """
    if count < 1:
        raise InstanceError("the random suite needs a count of at least 1")
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
        for res in run_instance_checks(instance, tol=tol):
            results.append(
                CheckResult(
                    f"{instance.name}: {res.name}",
                    res.passed,
                    res.slack,
                    res.detail,
                    res.skipped,
                )
            )
    return results, count
