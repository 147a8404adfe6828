"""Domain model for minmax-regret games over combinatorial ground sets.

An :class:`Instance` couples a ground set of ``n`` items with (a) the nominal
oracle of a combinatorial family, which says which subsets may be selected
and is the family's only description (see :mod:`minregret.nominal`), and (b)
a cost uncertainty description, either per-item intervals or a finite list
of cost scenarios.  The selecting player commits to a distribution over feasible
sets; the adversary answers with a distribution over cost vectors drawn from
the uncertainty set.  This module holds the value types shared by every
solver plus the elementary regret arithmetic; oracles, LPs, game solvers
and the file formats (:mod:`minregret.io`) live in the sibling modules.

All types are immutable after construction and safe to share across threads;
the operations here are pure functions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Union

import numpy as np

if TYPE_CHECKING:
    from .nominal import NominalOracle

# Mixed-strategy probabilities must sum to one within this tolerance.
PROB_SUM_TOL = 1e-9
# Probabilities below this are dropped and the remainder renormalized; they
# are round-off ghosts from LP basic solutions, not genuine support.
PROB_DROP = 1e-12
# A cost vector within this of the uncertainty set counts as inside it.
COST_TOL = 1e-9
# Rows a cutting-plane loop may generate before it gives up.
MAX_CUTS = 10_000


class MinregretError(Exception):
    """Base class for all package errors."""


class InstanceError(MinregretError):
    """An instance description violates a structural invariant."""


class EnumerationCapError(MinregretError):
    """Enumerating the feasible family would exceed the configured cap."""


class SolverError(MinregretError):
    """A solver failed in a way that indicates a numerical breakdown."""


class IterationLimitError(MinregretError):
    """An iterative solver hit its iteration/cut budget before converging.

    Carries the bracketing interval reached so far so callers can still
    report anytime bounds.
    """

    def __init__(self, message, lower=None, upper=None, iterations=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.iterations = iterations


class NotInHullError(MinregretError):
    """A marginal vector is not a convex combination of feasible sets.

    ``u`` and ``w`` form a separating certificate: ``w - sum(u[e] for e in T)
    <= 0`` for every feasible set ``T`` generated, yet ``w - p @ u > 0``.
    """

    def __init__(self, message, u, w):
        super().__init__(message)
        self.u = np.asarray(u, dtype=float)
        self.w = float(w)


def _freeze(arr: np.ndarray) -> np.ndarray:
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _wrap(cls, field: str, value: np.ndarray):
    """An instance of the frozen dataclass ``cls`` holding ``value``, which
    its caller has already checked and frozen."""
    obj = object.__new__(cls)
    object.__setattr__(obj, field, value)
    return obj


def check_finite_costs(values: np.ndarray) -> None:
    """Reject a cost array, of any shape, with a NaN or infinite entry."""
    if not np.isfinite(values).all():
        raise InstanceError("cost vector entries must be finite")


def as_integer(value, field: str) -> int:
    """An integer field of a description as an int.  Integral numbers pass,
    numpy integers and floats such as 4.0 among them; a fraction, a boolean
    or a non-number raises :class:`InstanceError` naming ``field``."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise InstanceError(f"{field} must be an integer, got {value!r}")


def as_costs(c, n: int | None = None) -> np.ndarray:
    """Coerce a cost argument (CostVector or array-like) to a float64 array."""
    values = c.values if isinstance(c, CostVector) else np.asarray(c, dtype=float)
    if values.ndim != 1:
        raise InstanceError("cost vector must be one-dimensional")
    check_finite_costs(values)
    if n is not None and values.shape[0] != n:
        raise InstanceError(f"cost vector has length {values.shape[0]}, expected {n}")
    return values


# ---------------------------------------------------------------------------
# Uncertainty descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Intervals:
    """Independent per-item cost intervals [lower_e, upper_e]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or upper.shape != lower.shape:
            raise InstanceError("interval bounds must be equal-length vectors")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise InstanceError("interval bounds must be finite")
        bad = np.nonzero(lower > upper)[0]
        if bad.size:
            raise InstanceError(f"lower > upper for item {int(bad[0])}")
        object.__setattr__(self, "lower", _freeze(lower))
        object.__setattr__(self, "upper", _freeze(upper))

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def contains(self, costs: np.ndarray) -> bool:
        return bool(
            np.all(costs >= self.lower - COST_TOL)
            and np.all(costs <= self.upper + COST_TOL)
        )


@dataclass(frozen=True, eq=False)
class Scenarios:
    """Finite scenario set: row s of ``costs`` is the cost vector c^s."""

    costs: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 2 or costs.shape[0] < 1:
            raise InstanceError("scenario costs must be a nonempty k x n matrix")
        if not np.all(np.isfinite(costs)):
            raise InstanceError("scenario costs must be finite")
        object.__setattr__(self, "costs", _freeze(costs))

    @property
    def k(self) -> int:
        return self.costs.shape[0]

    @property
    def n(self) -> int:
        return self.costs.shape[1]

    def contains(self, costs: np.ndarray) -> bool:
        return bool(np.any(np.all(np.abs(self.costs - costs) <= COST_TOL, axis=1)))


UncertaintySpec = Union[Intervals, Scenarios]


@dataclass(frozen=True, eq=False)
class Instance:
    """A named robust-selection problem: items, feasible family, uncertainty.

    ``nominal`` is the family's oracle, which checked the family when built.
    """

    name: str
    n: int
    nominal: NominalOracle
    uncertainty: UncertaintySpec

    def __post_init__(self):
        if self.n < 1:
            raise InstanceError("instance needs at least one item")
        if self.uncertainty.n != self.n:
            raise InstanceError(
                f"uncertainty describes {self.uncertainty.n} items, instance has {self.n}"
            )
        if self.nominal.n != self.n:
            raise InstanceError(
                f"nominal family describes {self.nominal.n} items, instance has {self.n}"
            )

    @property
    def is_interval(self) -> bool:
        return isinstance(self.uncertainty, Intervals)


# ---------------------------------------------------------------------------
# Vectors and strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CostVector:
    """A finite real cost per item."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(as_costs(self.values)))

    @classmethod
    def from_rows(cls, rows) -> tuple["CostVector", ...]:
        """One cost vector per row of ``rows``, whose entries are checked
        once, as a matrix, by the rule of the constructor."""
        values = np.asarray(rows, dtype=float)
        if values.ndim != 2:
            raise InstanceError("cost rows must form a matrix")
        check_finite_costs(values)
        return tuple(_wrap(cls, "values", row) for row in _freeze(values))

    def __eq__(self, other):
        return isinstance(other, CostVector) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self):
        return hash(self.values.tobytes())

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """A subset of items as a 0/1 indicator vector."""

    indicator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indicator", _freeze(_indicators(self.indicator, 1)))

    @classmethod
    def from_rows(cls, rows) -> tuple["FeasibleSet", ...]:
        """One set per row of the 0/1 matrix ``rows``, whose entries are
        checked once, as a matrix, by the rule of the constructor."""
        return tuple(_wrap(cls, "indicator", row) for row in _freeze(_indicators(rows, 2)))

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "FeasibleSet":
        ind = np.zeros(n, dtype=np.int8)
        idx = np.asarray(list(indices))
        if idx.ndim != 1:
            raise TypeError("item indices must be a flat sequence")
        if idx.size:
            bad = (idx < 0) | (idx >= n)
            if bad.any():
                raise InstanceError(f"item index {idx[bad][0]} out of range 0..{n - 1}")
            ind[idx] = 1
        return cls(ind)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.indicator).tolist())

    @property
    def size(self) -> int:
        return int(self.indicator.sum())

    def __eq__(self, other):
        return isinstance(other, FeasibleSet) and np.array_equal(
            self.indicator, other.indicator
        )

    def __hash__(self):
        return hash(self.indicator.tobytes())

    def __contains__(self, item: int) -> bool:
        return bool(self.indicator[item])

    def __len__(self):
        return self.indicator.shape[0]


def _indicators(values, ndim: int) -> np.ndarray:
    """``values`` as a new int8 array with ``ndim`` axes and 0/1 entries."""
    ind = np.asarray(values)
    if ind.ndim != ndim:
        shape = "one-dimensional" if ndim == 1 else "a matrix of rows"
        raise InstanceError(f"indicator must be {shape}")
    if ind.dtype == np.int8:  # -1 reads as 255
        zero_one = ind.view(np.uint8).max(initial=0) <= 1
    else:
        zero_one = ind.dtype == bool or ((ind == 0) | (ind == 1)).all()
    if not zero_one:
        raise InstanceError("indicator entries must be 0 or 1")
    return ind.astype(np.int8)


def _clean_distribution(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise InstanceError("a mixed strategy needs a nonempty probability vector")
    least = probs.min()  # NaN if any entry is NaN
    if not least >= -PROB_SUM_TOL:
        if math.isnan(least):
            raise InstanceError("probabilities must be finite")
        raise InstanceError("probabilities must be nonnegative")
    total = float(probs.sum())
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise InstanceError(f"probabilities sum to {total!r}, not 1")
    return probs


@dataclass(frozen=True, eq=False)
class PlayerMixedStrategy:
    """Finite-support distribution over feasible sets."""

    support: tuple[FeasibleSet, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = _clean_distribution(self.probs)
        if len(self.support) != probs.size:
            raise InstanceError("support and probability lengths differ")
        if len(set(self.support)) != len(self.support):
            raise InstanceError("support sets must be pairwise distinct")
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "probs", _freeze(probs))

    @classmethod
    def cleaned(cls, support, probs) -> "PlayerMixedStrategy":
        """Merge duplicates, drop sub-``PROB_DROP`` weights, renormalize."""
        if not np.isfinite(probs).all():
            raise InstanceError("probabilities must be finite")
        merged: dict[FeasibleSet, float] = {}
        for s, p in zip(support, probs):
            merged[s] = merged.get(s, 0.0) + float(p)
        kept = [(s, p) for s, p in merged.items() if p > PROB_DROP]
        if not kept:
            raise InstanceError("strategy support vanished after cleaning")
        sets, weights = zip(*kept)
        weights = np.asarray(weights, dtype=float)
        return cls(tuple(sets), weights / weights.sum())

    @property
    def support_size(self) -> int:
        return len(self.support)


@dataclass(frozen=True, eq=False)
class AdversaryMixedStrategy:
    """Finite-support distribution over cost vectors.

    ``scenario_indices`` labels support points with scenario numbers for
    discrete uncertainty; ``generators`` records, for interval uncertainty,
    the set A whose items sit at their lower bound in each support vector.
    """

    support: tuple[CostVector, ...]
    probs: np.ndarray
    scenario_indices: tuple[int, ...] | None = None
    generators: tuple[FeasibleSet, ...] | None = None

    def __post_init__(self):
        probs = _clean_distribution(self.probs)
        if len(self.support) != probs.size:
            raise InstanceError("support and probability lengths differ")
        if len(set(self.support)) != len(self.support):
            raise InstanceError("support cost vectors must be pairwise distinct")
        for extra in (self.scenario_indices, self.generators):
            if extra is not None and len(extra) != len(self.support):
                raise InstanceError("support labels must match support length")
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "probs", _freeze(probs))

    @classmethod
    def cleaned(
        cls, support, probs, scenario_indices=None, generators=None
    ) -> "AdversaryMixedStrategy":
        if not np.isfinite(probs).all():
            raise InstanceError("probabilities must be finite")
        entries: dict[CostVector, list] = {}
        for i, (c, p) in enumerate(zip(support, probs)):
            if c in entries:
                entries[c][0] += float(p)
            else:
                entries[c] = [
                    float(p),
                    None if scenario_indices is None else scenario_indices[i],
                    None if generators is None else generators[i],
                ]
        kept = [(c, rec) for c, rec in entries.items() if rec[0] > PROB_DROP]
        if not kept:
            raise InstanceError("strategy support vanished after cleaning")
        costs = tuple(c for c, _ in kept)
        weights = np.asarray([rec[0] for _, rec in kept], dtype=float)
        scen = tuple(rec[1] for _, rec in kept) if scenario_indices is not None else None
        gens = tuple(rec[2] for _, rec in kept) if generators is not None else None
        return cls(costs, weights / weights.sum(), scen, gens)

    def validate_for(self, instance: Instance) -> None:
        """Check every support vector lies in the instance's uncertainty set,
        and that each scenario label is the index of a scenario whose row
        equals its vector within ``COST_TOL``."""
        for c in self.support:
            if len(c) != instance.n:
                raise InstanceError("cost vector length differs from instance n")
            if not instance.uncertainty.contains(c.values):
                raise InstanceError(
                    "adversary support vector outside the uncertainty set"
                )
        if self.scenario_indices is None:
            return
        if instance.is_interval:
            raise InstanceError("scenario labels on an interval instance")
        costs = instance.uncertainty.costs
        for label, c in zip(self.scenario_indices, self.support):
            s = as_integer(label, "scenario label")
            if not (0 <= s < len(costs) and np.all(np.abs(costs[s] - c.values) <= COST_TOL)):
                raise InstanceError(f"support vector labelled {s} is not scenario row {s}")

    @property
    def support_size(self) -> int:
        return len(self.support)

    def mean_costs(self) -> np.ndarray:
        stacked = np.stack([c.values for c in self.support])
        return self.probs @ stacked


@dataclass(frozen=True, eq=False)
class MarginalVector:
    """Per-item selection probabilities induced by a player strategy."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1:
            raise InstanceError("marginal vector must be one-dimensional")
        # the extremes are NaN if any entry is
        lo, hi = float(p.min(initial=0.0)), float(p.max(initial=0.0))
        if not (lo >= -PROB_SUM_TOL and hi <= 1.0 + PROB_SUM_TOL):
            if not math.isfinite(lo + hi):
                raise InstanceError("marginal entries must be finite")
            raise InstanceError("marginal entries must lie in [0, 1]")
        # np.clip leaves entries inside [0, 1] as they are, -0.0 included
        p = p.copy() if lo >= 0.0 and hi <= 1.0 else np.clip(p, 0.0, 1.0)
        object.__setattr__(self, "p", _freeze(p))

    def __len__(self):
        return self.p.shape[0]


@dataclass(frozen=True, eq=False)
class GameSolution:
    """Solved randomized minmax-regret game.

    ``value`` is the game value; ``certified_gap`` is the final distance
    between the adversary's and player's best-response values, so the true
    value lies within ``certified_gap`` of ``value``.
    """

    value: float
    player: PlayerMixedStrategy
    marginal: MarginalVector
    adversary: AdversaryMixedStrategy
    iterations: int
    certified_gap: float


# ---------------------------------------------------------------------------
# Elementary regret arithmetic
# ---------------------------------------------------------------------------


def solution_cost(T: FeasibleSet, c) -> float:
    """Total cost of the selected items under cost vector ``c``."""
    costs = as_costs(c, len(T))
    return float(costs @ T.indicator)


def regret(T: FeasibleSet, c, nominal) -> float:
    """Cost of ``T`` at ``c`` minus the optimal cost at ``c``."""
    if not nominal.is_feasible(T):
        raise InstanceError("regret is defined only for feasible sets")
    costs = as_costs(c, len(T))
    _, best = nominal.solve(costs)
    return solution_cost(T, costs) - best


def expected_regret(
    y: PlayerMixedStrategy, w: AdversaryMixedStrategy, nominal
) -> float:
    """Expected regret when sets and costs are drawn independently from y, w.

    Regret is linear in the set and in the cost vector apart from the
    optimum, so ``E = p·c̄ - sum over c of w_c·opt(c)``, with p the marginal
    of y, c̄ the mean cost of w, and one batched nominal solve per support
    vector of w (``nominal.optima``).
    """
    costs = np.stack([c.values for c in w.support])
    p = marginal_of_strategy(y).p
    return float(p @ (w.probs @ costs) - w.probs @ nominal.optima(costs))


def marginal_of_strategy(y: PlayerMixedStrategy) -> MarginalVector:
    """Per-item probability of being selected: p_e = sum of y over sets with e."""
    stacked = np.stack([T.indicator for T in y.support]).astype(float)
    return MarginalVector(y.probs @ stacked)

