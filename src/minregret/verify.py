"""Cross-solver invariant checks, runnable on one instance or a random suite.

Each check reports a measured slack (how far inside the inequality the
result landed); a negative slack is a failure.  The checks cover the value
ordering between the randomized and deterministic optima, the k / 2 gap
bounds, agreement with the exhaustive game solve, agreement of the compact
k-selection LP with the double oracle (which, unlike the exhaustive solve,
stays cheap as n grows), duality of the adversary LP, the approximation
guarantees, the midpoint identities, saddle-point certificates, and the
marginal decomposition round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EnumerationCapError,
    Instance,
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
IDENTITY_TOL = 1e-9
RECONSTRUCT_TOL = 1e-7


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str = ""
    skipped: bool = False


def _check(name, slack, detail="") -> CheckResult:
    return CheckResult(name, bool(slack >= 0.0), float(slack), detail)


def run_instance_checks(instance: Instance, tol: float = 1e-7) -> list[CheckResult]:
    """All invariant checks on one instance."""
    oracle = build_oracle(instance)
    results: list[CheckResult] = []

    game = solve_randomized(instance, tol=tol, oracle=oracle)
    z_r = game.value
    _, z_d = solve_deterministic_exact(instance, oracle=oracle)

    results.append(
        _check("value_order Z_R <= Z_D", z_d - z_r + ORDER_TOL, f"Z_R={z_r:.9g} Z_D={z_d:.9g}")
    )
    if instance.is_interval:
        factor, bound_name = 2.0, "Z_D/2"
    else:
        factor, bound_name = float(instance.uncertainty.k), f"Z_D/{instance.uncertainty.k}"
    results.append(
        _check(
            f"gap_bound Z_R >= {bound_name}",
            z_r - z_d / factor + ORDER_TOL,
            f"Z_R={z_r:.9g} bound={z_d / factor:.9g}",
        )
    )

    try:
        brute, _, _ = bruteforce_game_value(instance, oracle=oracle)
        results.append(
            _check(
                "bruteforce_equivalence",
                VALUE_TOL - abs(z_r - brute),
                f"randomized={z_r:.9g} exhaustive={brute:.9g}",
            )
        )
    except EnumerationCapError as exc:
        results.append(CheckResult("bruteforce_equivalence", True, 0.0, str(exc), skipped=True))

    if isinstance(oracle, KSelectionOracle):
        z_do = _double_oracle(instance, tol, 10000, oracle).value
        results.append(
            _check(
                "compact_vs_double_oracle",
                VALUE_TOL - abs(z_r - z_do),
                f"compact={z_r:.9g} double-oracle={z_do:.9g}",
            )
        )

    if not instance.is_interval:
        _, z_ar, _ = solve_adversary_lp_discrete(instance, tol=tol, oracle=oracle)
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

    rebuilt = decompose_marginal(game.marginal, oracle, tol=RECONSTRUCT_TOL)
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
