"""Regret evaluations and best responses: the adversary's side of the game.

Each uncertainty type owns one side, built by :func:`adversary_side` from the
instance and its oracle.  Under intervals the adversary's pure strategies are
the extreme cost vectors c^A (lower bound on the items of A, upper bound
elsewhere), labelled by A: the worst case of a fixed set and the best
response to a marginal both have this form.  Under scenarios they are the
scenario rows, labelled by index, whose optima the side solves once, on
first use.  Either way a best response is one nominal solve at most.  The
side alone turns labels into the adversary's cost rows (``costs_of``) and
mixes (``mix``): every solver builds its adversary mix there.

:func:`player_best_response` solves the optimum of every support vector, so
it is exact for any mix; the solvers' own certificates take the optima from
the side instead, and this function stays their outside check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    AdversaryMixedStrategy,
    CostVector,
    FeasibleSet,
    Instance,
    Intervals,
    MarginalVector,
    Scenarios,
)
from .nominal import NominalOracle, build_oracle


@dataclass(frozen=True, eq=False)
class BestResponse:
    """One player's exact best response to the opponent's current object.

    For the adversary, ``chosen_set`` is the generating set of the extreme
    cost vector (interval case), and ``cost``/``scenario`` identify the pure
    strategy itself.  For the player, ``chosen_set`` is the responding set.
    """

    value: float
    chosen_set: FeasibleSet | None = None
    cost: CostVector | None = None
    scenario: int | None = None


def extreme_cost_vector(A: FeasibleSet, intervals: Intervals) -> CostVector:
    """c^A: lower bound on items of A, upper bound on everything else."""
    inside = A.indicator.astype(bool)
    return CostVector(np.where(inside, intervals.lower, intervals.upper))


class IntervalSide:
    """The adversary's side under intervals."""

    response_field = "chosen_set"

    def __init__(self, intervals: Intervals, oracle: NominalOracle):
        self.lower, self.upper, self.oracle = intervals.lower, intervals.upper, oracle
        self.seed_costs = (self.lower + self.upper) / 2.0

    def worst_case(self, T: FeasibleSet) -> tuple[float, CostVector]:
        """The max regret of T and its worst costs: upper bounds on T, lower
        bounds elsewhere."""
        worst = np.where(T.indicator.astype(bool), self.upper, self.lower)
        _, best = self.oracle.solve(worst)
        return float(worst @ T.indicator) - best, CostVector(worst)

    def respond(self, p: np.ndarray):
        """The best response to the marginal p, ``u.p`` minus the optimum at
        ``l + d*p``, and the column of the minimizer A there."""
        p = MarginalVector(p).p
        A, z = self.oracle.solve(self.lower + p * (self.upper - self.lower))
        return float(self.upper @ p) - z, self.column(A)

    def column(self, A: FeasibleSet):
        """c^A as ``(key, cost, optimum, A)``.  For a best response A no set
        beats A at c^A (it would out-regret A), so the optimum is ``l(A)``,
        summed in ascending order.  That is the order in which Kruskal's rule
        sums a spanning tree; the k-selection, DAG-path and explicit oracles
        sum in index, path and set order, so theirs may differ from it by
        round-off.  The key is c^A itself: distinct sets give one c^A where
        bounds are degenerate."""
        inside = A.indicator.astype(bool)
        cost = np.where(inside, self.lower, self.upper)
        return cost.tobytes(), cost, np.sort(self.lower[inside]).sum(), A

    def costs_of(self, sets) -> np.ndarray:
        """The vectors c^A of the sets A in ``sets``, one row each."""
        inside = np.array([A.indicator for A in sets], dtype=bool)
        return np.where(inside, self.lower, self.upper)

    def mix(self, sets, weights) -> AdversaryMixedStrategy:
        """The adversary mix playing each c^A with its weight, cleaned."""
        sets = tuple(sets)
        support = CostVector.from_rows(self.costs_of(sets))
        return AdversaryMixedStrategy.cleaned(support, weights, generators=sets)

    def optima(self, mix: AdversaryMixedStrategy) -> np.ndarray:
        """``l(A)`` for each generator A: at least the optimum at c^A, since
        c^A(A) = l(A), and equal to it for a best response."""
        return np.stack([A.indicator for A in mix.generators]) @ self.lower


class ScenarioSide:
    """The adversary's side under scenarios."""

    response_field = "scenario"

    def __init__(self, scenarios: Scenarios, oracle: NominalOracle):
        self.costs, self.oracle = scenarios.costs, oracle
        self.seed_costs = self.costs.mean(axis=0)

    @cached_property
    def opt(self) -> np.ndarray:
        """opt_s, in scenario order, solved on first use."""
        return self.oracle.optima(self.costs)

    def worst_case(self, T: FeasibleSet) -> tuple[float, int]:
        """The max regret of T and its scenario, the lowest index of a tie."""
        regrets = self.costs @ T.indicator - self.opt
        s = int(np.argmax(regrets))
        return float(regrets[s]), s

    def respond(self, p: np.ndarray):
        """The best response to the marginal p and its column; ties go to
        the lowest index."""
        values = self.costs @ MarginalVector(p).p - self.opt
        s = int(np.argmax(values))
        return float(values[s]), self.column(s)

    def column(self, s: int):
        return s, self.costs[s], self.opt[s], s

    def costs_of(self, indices) -> np.ndarray:
        """The scenario rows at ``indices``, one row each."""
        return self.costs[list(indices)]

    def mix(self, indices, weights) -> AdversaryMixedStrategy:
        """The adversary mix playing each scenario with its weight, cleaned."""
        indices = tuple(indices)
        support = CostVector.from_rows(self.costs_of(indices))
        return AdversaryMixedStrategy.cleaned(support, weights, scenario_indices=indices)

    def optima(self, mix: AdversaryMixedStrategy) -> np.ndarray:
        return self.opt[list(mix.scenario_indices)]


def adversary_side(instance: Instance, oracle: NominalOracle | None = None):
    """The adversary's side of ``instance``, answered with ``oracle``."""
    oracle = build_oracle(instance) if oracle is None else oracle
    if instance.is_interval:
        return IntervalSide(instance.uncertainty, oracle)
    return ScenarioSide(instance.uncertainty, oracle)


def max_regret_det(T, instance, oracle=None) -> float:
    """Worst-case regret of a fixed set T."""
    return adversary_side(instance, oracle).worst_case(T)[0]


def max_expected_regret(p, instance, oracle=None) -> BestResponse:
    """The adversary's best response to a marginal vector p."""
    side = adversary_side(instance, oracle)
    value, (_, cost, _, label) = side.respond(p.p)
    return BestResponse(value, cost=CostVector(cost), **{side.response_field: label})


def player_best_response(
    w: AdversaryMixedStrategy,
    instance: Instance,
    oracle: NominalOracle | None = None,
) -> BestResponse:
    """Feasible set minimizing expected regret against a cost distribution.

    Solving the nominal problem at the probability-weighted average costs
    gives the minimizer; subtracting the averaged per-support optima, each
    solved here, gives its expected regret.
    """
    oracle = build_oracle(instance) if oracle is None else oracle
    costs = np.stack([c.values for c in w.support])
    T, value = weighted_player_response(w.probs, costs, oracle.optima(costs), oracle)
    return BestResponse(value=value, chosen_set=T)


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
