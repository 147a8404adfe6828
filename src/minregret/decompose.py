"""Recover an explicit mixed strategy from a marginal probability vector.

A marginal p lies in the convex hull of the feasible indicator vectors iff
the deviation LP

    minimize  sum_e (lam_plus_e + lam_minus_e)
    subject to  sum over generated T containing e of y_T
                  + lam_plus_e - lam_minus_e = p_e          for every item e,
                sum_T y_T = 1,   y, lam >= 0

reaches zero.  It is solved in its dual form

    maximize  p @ u + w
    subject to  sum(u over T) + w <= 0     for every generated T,
                -1 <= u <= 1,   w free,

whose rows all have a nonnegative right-hand side |T| once u is shifted to
its lower bound, so the simplex starts from the feasible slack basis and
never runs phase 1.  Rows are generated on demand: the most violated one is
found by one nominal solve at costs -u.  The row duals are the weights y_T
of the strategy (at most n+1 of them are nonzero at a basic optimum), the
objective is the L1 deviation, and a strictly positive optimum yields a
separating certificate in the normalized form ``w' - sum(u' over T) <= 0
for all feasible T`` yet ``w' - p @ u' > 0``.  The box on u keeps the LP
bounded, so an out-of-hull p degrades to a certified rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FeasibleSet,
    IterationLimitError,
    MarginalVector,
    NotInHullError,
    PlayerMixedStrategy,
    SolverError,
    marginal_of_strategy,
)
from .lp import LESS, LinearProgram, solve_lp
from .nominal import NominalOracle


@dataclass(frozen=True, eq=False)
class HullCertificate:
    """Separating prices: w - sum(u[e] for e in T) <= 0 for all feasible T,
    while w - p @ u > 0."""

    u: np.ndarray
    w: float


def decompose_marginal(
    p: MarginalVector,
    oracle: NominalOracle,
    tol: float = 1e-7,
    max_cuts: int = 10000,
) -> PlayerMixedStrategy:
    """Mixed strategy whose marginal reproduces ``p`` within ``tol``.

    Raises :class:`NotInHullError` with a separating certificate when no such
    strategy exists.  The support of the returned strategy never exceeds
    n + 1 sets (one per basic u or w variable at a basic optimum).
    """
    n = len(p)
    if oracle.n != n:
        raise SolverError("marginal length differs from the oracle's item count")
    p_arr = p.p
    sep_tol = tol / 10.0  # inner column-pricing margin, decoupled from tol

    columns: list[FeasibleSet] = [oracle.solve(np.zeros(n))[0]]
    seen = {columns[0]}

    lower = np.concatenate([-np.ones(n), [-np.inf]])
    upper = np.concatenate([np.ones(n), [np.inf]])
    objective = np.concatenate([p_arr, [1.0]])
    for _ in range(max_cuts):
        # variables: u (n) then w; one row u(T) + w <= 0 per generated T
        mu = len(columns)
        lhs = np.ones((mu, n + 1))
        lhs[:, :n] = np.stack([T.indicator for T in columns])
        lp = LinearProgram(
            objective, lhs, (LESS,) * mu, np.zeros(mu),
            lower=lower, upper=upper, sense="max",
        )
        sol = solve_lp(lp)
        if not sol.is_optimal:
            raise SolverError(f"decomposition LP ended with status {sol.status}")

        u = sol.x[:n]
        w = float(sol.x[n])
        # Most violated row over all feasible sets: maximize sum(u over T),
        # i.e. one nominal solve at costs -u.
        T_new, neg_val = oracle.solve(-u)
        violation = (-neg_val) + w  # = max_T sum(u over T) + w
        if violation > sep_tol and T_new not in seen:
            seen.add(T_new)
            columns.append(T_new)
            continue

        deviation = float(sol.objective)
        if deviation > tol:
            # Certificate in the standard orientation (see module docstring).
            raise NotInHullError(
                f"marginal is outside the feasible hull (L1 deviation {deviation:.3g})",
                u=-u,
                w=w,
            )
        # row duals are the weights; cleaning drops round-off below PROB_DROP
        strategy = PlayerMixedStrategy.cleaned(columns, sol.duals)
        err = np.max(np.abs(marginal_of_strategy(strategy).p - p_arr))
        if err > tol:
            raise SolverError(
                f"decomposition reconstruction error {err:.3g} exceeds tol {tol:.3g}"
            )
        return strategy

    raise IterationLimitError(
        f"decomposition exceeded {max_cuts} generated columns", iterations=max_cuts
    )


def certify_in_hull(
    p: MarginalVector, oracle: NominalOracle, tol: float = 1e-7
) -> tuple[bool, PlayerMixedStrategy | HullCertificate]:
    """Membership verdict for p in the hull of feasible indicators.

    Returns ``(True, strategy)`` or ``(False, certificate)``.
    """
    try:
        return True, decompose_marginal(p, oracle, tol=tol)
    except NotInHullError as exc:
        return False, HullCertificate(u=exc.u, w=exc.w)
