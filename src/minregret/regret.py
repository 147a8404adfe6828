"""Regret evaluations and best-response oracles.

Under interval uncertainty the adversary never needs more than the extreme
cost vectors c^A (lower bound on the items of A, upper bound elsewhere):
the worst case for any fixed set, and the separating vector for any marginal,
always has this form.  Under scenarios the adversary picks from the given
finite list.  Both best responses reduce to one nominal solve on a suitably
averaged cost vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AdversaryMixedStrategy,
    CostVector,
    FeasibleSet,
    Instance,
    InstanceError,
    Intervals,
    MarginalVector,
    Scenarios,
)
from .nominal import NominalOracle, build_oracle


@dataclass(frozen=True, eq=False)
class BestResponse:
    """One player's exact best response to the opponent's current object.

    For the adversary, ``chosen_set`` is the generating set of the extreme
    cost vector (interval case) or the argmax set behind a scenario row, and
    ``cost``/``scenario`` identify the pure strategy itself.  For the player,
    ``chosen_set`` is the responding feasible set.
    """

    responder: str  # "player" | "adversary"
    value: float
    chosen_set: FeasibleSet | None = None
    cost: CostVector | None = None
    scenario: int | None = None


def _oracle_for(instance: Instance, oracle: NominalOracle | None) -> NominalOracle:
    return build_oracle(instance) if oracle is None else oracle


def _intervals(instance: Instance) -> Intervals:
    if not isinstance(instance.uncertainty, Intervals):
        raise InstanceError("operation requires interval uncertainty")
    return instance.uncertainty


def _scenarios(instance: Instance) -> Scenarios:
    if not isinstance(instance.uncertainty, Scenarios):
        raise InstanceError("operation requires scenario uncertainty")
    return instance.uncertainty


def extreme_cost_vector(A: FeasibleSet, intervals: Intervals) -> CostVector:
    """c^A: lower bound on items of A, upper bound on everything else."""
    inside = A.indicator.astype(bool)
    return CostVector(np.where(inside, intervals.lower, intervals.upper))


def extreme_costs(sets, intervals: Intervals) -> np.ndarray:
    """The vectors c^A of the sets A in ``sets``, one row each."""
    inside = np.stack([A.indicator for A in sets]).astype(bool)
    return np.where(inside, intervals.lower, intervals.upper)


def scenario_optima(instance: Instance, oracle: NominalOracle | None = None) -> np.ndarray:
    """Nominal optimum of every scenario cost vector, in scenario order."""
    unc = _scenarios(instance)
    oracle = _oracle_for(instance, oracle)
    return oracle.optima(unc.costs)


def max_regret_det_interval(
    T: FeasibleSet, instance: Instance, oracle: NominalOracle | None = None
) -> tuple[float, CostVector]:
    """Worst-case regret of a fixed set under interval uncertainty.

    The maximizing cost vector puts every item of T at its upper bound and
    every other item at its lower bound.
    """
    unc = _intervals(instance)
    oracle = _oracle_for(instance, oracle)
    inside = T.indicator.astype(bool)
    worst = np.where(inside, unc.upper, unc.lower)
    _, best = oracle.solve(worst)
    own = float(worst @ T.indicator)
    return own - best, CostVector(worst)


def max_regret_det_discrete(
    T: FeasibleSet,
    instance: Instance,
    oracle: NominalOracle | None = None,
    optima: np.ndarray | None = None,
) -> tuple[float, int]:
    """Worst-case regret of a fixed set over the scenario list.

    Ties go to the lowest scenario index.  ``optima`` may carry precomputed
    per-scenario nominal optima.
    """
    unc = _scenarios(instance)
    if optima is None:
        optima = scenario_optima(instance, oracle)
    regrets = unc.costs @ T.indicator - optima
    s = int(np.argmax(regrets))
    return float(regrets[s]), s


def max_regret_det(T, instance, oracle=None):
    """Dispatch on the instance's uncertainty type; returns the value only."""
    if instance.is_interval:
        return max_regret_det_interval(T, instance, oracle)[0]
    return max_regret_det_discrete(T, instance, oracle)[0]


def max_expected_regret_interval(
    p: MarginalVector, instance: Instance, oracle: NominalOracle | None = None
) -> BestResponse:
    """Adversary best response to a marginal vector under intervals.

    One nominal solve at d_e = lower_e + p_e (upper_e - lower_e) produces the
    maximizing set T; the best-response cost vector is c^T and the value is
    sum(upper * p) - min-cost at d.
    """
    unc = _intervals(instance)
    oracle = _oracle_for(instance, oracle)
    p_arr = p.p
    d = unc.lower + p_arr * (unc.upper - unc.lower)
    T_d, z_d = oracle.solve(d)
    value = float(unc.upper @ p_arr) - z_d
    return BestResponse(
        responder="adversary",
        value=value,
        chosen_set=T_d,
        cost=extreme_cost_vector(T_d, unc),
    )


def max_expected_regret_discrete(
    p: MarginalVector,
    instance: Instance,
    oracle: NominalOracle | None = None,
    optima: np.ndarray | None = None,
) -> BestResponse:
    """Adversary best response to a marginal vector over scenarios."""
    unc = _scenarios(instance)
    if optima is None:
        optima = scenario_optima(instance, oracle)
    values = unc.costs @ p.p - optima
    s = int(np.argmax(values))
    return BestResponse(
        responder="adversary",
        value=float(values[s]),
        cost=CostVector(unc.costs[s]),
        scenario=s,
    )


def max_expected_regret(p, instance, oracle=None):
    if instance.is_interval:
        return max_expected_regret_interval(p, instance, oracle)
    return max_expected_regret_discrete(p, instance, oracle)


def player_best_response(
    w: AdversaryMixedStrategy,
    instance: Instance,
    oracle: NominalOracle | None = None,
) -> BestResponse:
    """Feasible set minimizing expected regret against a cost distribution.

    Solving the nominal problem at the probability-weighted average costs
    gives the minimizer; subtracting the averaged per-support optima gives
    its expected regret.
    """
    oracle = _oracle_for(instance, oracle)
    costs = np.stack([c.values for c in w.support])
    T, value = weighted_player_response(w.probs, costs, oracle.optima(costs), oracle)
    return BestResponse(responder="player", value=value, chosen_set=T)


def weighted_player_response(
    weights: np.ndarray, costs: np.ndarray, optima: np.ndarray, oracle: NominalOracle
) -> tuple[FeasibleSet, float]:
    """Player best response to raw weights over the rows of ``costs``, and
    its expected regret.

    One nominal solve at ``weights @ costs``; ``optima`` holds each row's
    nominal optimum.  The rows need not be distinct cost vectors.
    """
    T, value_at_d = oracle.solve(weights @ costs)
    return T, value_at_d - float(weights @ optima)
