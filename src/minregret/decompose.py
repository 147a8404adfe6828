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

written for a :class:`~minregret.lp.WarmLP` with ``t = u + 1`` in [0, 2]
and ``w = w_plus - w_minus``: maximize ``p @ t + w_plus - w_minus`` (the
deviation plus ``sum(p)``) subject to ``t <= 2`` (n rows) and
``t(T) + w_plus - w_minus <= |T|`` per generated T.  Every right-hand side
is nonnegative, so the first solve starts from the feasible slack basis and
no solve runs phase 1.  Rows are generated on demand: the most violated one
is found by one nominal solve at costs -u.  Each generated T appends one
row, whose slack joins the kept optimal basis; the dual pass restores
feasibility from there instead of re-solving the grown LP cold.  The
duals of the set rows are the weights y_T of the strategy (at most n+1 of
them are nonzero at a basic optimum), the objective minus ``sum(p)`` is the
L1 deviation, and a strictly positive optimum yields a separating
certificate in the normalized form ``w' - sum(u' over T) <= 0 for all
feasible T`` yet ``w' - p @ u' > 0``.  The box on u keeps the LP bounded,
so an out-of-hull p degrades to a certified rejection.
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
from .lp import WarmLP
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

    def set_row(T: FeasibleSet) -> np.ndarray:
        row = np.ones(n + 2)
        row[:n] = T.indicator
        row[n + 1] = -1.0
        return row

    # variables t (n), w_plus, w_minus; rows t <= 2, then one per generated T
    lp = WarmLP(
        np.concatenate([p_arr, [1.0, -1.0]]),
        np.vstack([np.eye(n, n + 2), set_row(columns[0])]),
        np.concatenate([np.full(n, 2.0), [columns[0].size]]),
    )
    for _ in range(max_cuts):
        sol = lp.solve()
        if not sol.is_optimal:
            raise SolverError(f"decomposition LP ended with status {sol.status_text}")

        u = sol.x[:n] - 1.0
        w = float(sol.x[n] - sol.x[n + 1])
        # Most violated row over all feasible sets: maximize sum(u over T),
        # i.e. one nominal solve at costs -u.
        T_new, neg_val = oracle.solve(-u)
        violation = (-neg_val) + w  # = max_T sum(u over T) + w
        if violation > sep_tol and T_new not in seen:
            seen.add(T_new)
            columns.append(T_new)
            lp.add_rows(set_row(T_new)[None, :], [T_new.size])
            continue

        deviation = float(p_arr @ u + w)
        if deviation > tol:
            # Certificate in the standard orientation (see module docstring).
            raise NotInHullError(
                f"marginal is outside the feasible hull (L1 deviation {deviation:.3g})",
                u=-u,
                w=w,
            )
        # row duals are the weights; cleaning drops round-off below PROB_DROP
        strategy = PlayerMixedStrategy.cleaned(columns, sol.duals[n:])
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
