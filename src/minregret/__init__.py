"""Minmax-regret solvers for combinatorial selection under cost uncertainty.

Computes optimal randomized (mixed-strategy) minmax-regret solutions, optimal
adversary cost distributions, exact deterministic minmax regret, and the
mean-cost / midpoint-cost approximations, for selection families with
interval or discrete-scenario item costs.
"""

from .core import (
    AdversaryMixedStrategy,
    CostVector,
    EnumerationCapError,
    FeasibleSet,
    GameSolution,
    Instance,
    InstanceError,
    Intervals,
    IterationLimitError,
    MarginalVector,
    MinregretError,
    NotInHullError,
    PlayerMixedStrategy,
    Scenarios,
    SolverError,
    describe_instance,
    expected_regret,
    marginal_of_strategy,
    regret,
    solution_cost,
    validate_instance,
)
from .nominal import build_oracle
from .lp import LpSolution, kernel_backend, solve_matrix_game
from .regret import (
    extreme_cost_vector,
    max_expected_regret,
    max_regret_det,
    player_best_response,
)
from .solvers import (
    approx_dual_weighted,
    approx_mean_cost,
    approx_midpoint,
    bruteforce_game_value,
    solve_adversary_lp_discrete,
    solve_deterministic_exact,
    solve_randomized,
)
from .decompose import decompose_marginal
from .sim import simulate
from .gen import generate_instance

__version__ = "0.1.0"

__all__ = [
    "AdversaryMixedStrategy",
    "CostVector",
    "EnumerationCapError",
    "FeasibleSet",
    "GameSolution",
    "Instance",
    "InstanceError",
    "Intervals",
    "IterationLimitError",
    "LpSolution",
    "MarginalVector",
    "MinregretError",
    "NotInHullError",
    "PlayerMixedStrategy",
    "Scenarios",
    "SolverError",
    "approx_dual_weighted",
    "approx_mean_cost",
    "approx_midpoint",
    "bruteforce_game_value",
    "build_oracle",
    "decompose_marginal",
    "describe_instance",
    "expected_regret",
    "extreme_cost_vector",
    "generate_instance",
    "kernel_backend",
    "marginal_of_strategy",
    "max_expected_regret",
    "max_regret_det",
    "player_best_response",
    "regret",
    "simulate",
    "solution_cost",
    "solve_adversary_lp_discrete",
    "solve_deterministic_exact",
    "solve_matrix_game",
    "solve_randomized",
    "validate_instance",
]
