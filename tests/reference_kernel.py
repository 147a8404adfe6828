"""Frozen reference copy of the simplex pivot kernel, before it cut its numpy
calls per pivot.

This version carries candidate columns as boolean masks and gathers the
bounds of the basic variables at every dual iteration.  It holds exactly the
kernel's pivot rules, no more and no fewer.  ``tests/test_lp.py`` runs it
side by side with ``minregret.lp._kernel`` and requires the same statuses,
pivot counts, bases, flips and bitwise-equal tableaux.  Do not edit it to
follow the kernel: it is the fixed point the kernel is compared with, and a
change of pivot rule lands in both files.  ``run_simplex`` returns
``(status, pivots)``.
"""

from __future__ import annotations

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_PIVOT_LIMIT = 2
STATUS_INFEASIBLE = 3

DUAL_STALL_PIVOTS = 50


def _lowest_variable(candidates, nonbasic):
    """Column among the ``candidates`` positions whose variable index is lowest."""
    if candidates.size == 1:
        return int(candidates[0])
    return int(candidates[np.argmin(nonbasic[candidates])])


def complement_row(tableau, row, bound):
    """The basic variable ``x`` of ``row`` becomes ``bound - x``."""
    tableau[row, :-1] *= -1.0
    tableau[row, -1] = bound - tableau[row, -1]


def flip_column(tableau, col, bound):
    """The nonbasic variable ``x`` of ``col`` becomes ``bound - x``: it moves
    to its other bound, and the right-hand sides and objective follow."""
    tableau[:, -1] -= tableau[:, col] * bound
    tableau[:, col] *= -1.0


def run_simplex(
    tableau, basis, nonbasic, max_pivots, tol, upper=None, flipped=None, dantzig=False,
):
    """Pivot ``tableau`` in place until it is primal and dual feasible.

    tableau : (m+1, k+1) float64, C-contiguous, ``B⁻¹[A_N | b]`` over the k
        nonbasic variables (complemented where flipped).  Rows 0..m-1 are
        constraint rows with the right-hand side in the last column; row m
        holds the reduced costs and, in its last cell, minus the current
        objective.
    basis : (m,) intp, basic variable of each row.
    nonbasic : (k,) intp, nonbasic variable of each column.
    upper : float64 per variable, the upper bounds (``inf`` for none), or
        None when no variable has one.
    flipped : uint8 per variable, the nonbasic variables at their upper
        bound; updated in place.  Needed only with a finite bound.
    dantzig : enter the primal pass by the most negative reduced cost.
    Returns ``(status, pivots_used)``.
    """
    m = tableau.shape[0] - 1
    obj = tableau[m, :-1]
    rhs = tableau[:m, -1]
    pivots = 0
    bounded = upper is not None and bool(np.isfinite(upper).any())

    def pivot(leave, enter, at_upper=False):
        # ``at_upper``: row ``leave`` is complemented, its variable leaves flipped
        entering, leaving = nonbasic[enter], basis[leave]
        pivot_inplace(tableau, basis, nonbasic, leave, enter)
        if bounded:
            flipped[leaving] = at_upper
            if flipped[entering]:
                flipped[entering] = 0
                complement_row(tableau, leave, upper[entering])

    stalled = 0  # consecutive degenerate dual pivots
    while True:
        if bounded:
            ub = upper[basis]
            violation = np.maximum(-rhs, rhs - ub)
            infeasible = np.nonzero(violation > tol)[0]
        else:
            infeasible = np.nonzero(rhs < -tol)[0]
        if not infeasible.size:
            break
        if pivots >= max_pivots:
            return STATUS_PIVOT_LIMIT, pivots
        bland = stalled >= DUAL_STALL_PIVOTS
        if bland:
            # Dual Bland's leaving rule: lowest basis index among infeasible rows.
            leave = int(infeasible[np.argmin(basis[infeasible])])
        elif bounded:
            leave = int(infeasible[np.argmax(violation[infeasible])])  # first of ties
        else:
            leave = int(infeasible[np.argmin(rhs[infeasible])])  # first of ties
        above = bounded and rhs[leave] > ub[leave]
        if above:
            complement_row(tableau, leave, ub[leave])
        row = tableau[leave, :-1]
        neg = row < -tol
        if not neg.any():
            if above:
                complement_row(tableau, leave, ub[leave])  # back to rest
            return STATUS_INFEASIBLE, pivots
        # Dual feasible columns go first: a column appended with a negative
        # reduced cost waits for the primal pass.
        feasible = neg & (obj >= -tol)
        if feasible.any():
            neg = feasible
        enter, step = _dual_entering(tableau, leave, neg, nonbasic, bland, tol)
        stalled = stalled + 1 if step <= tol else 0
        pivot(leave, enter, above)
        pivots += 1

    top = len(basis) + len(nonbasic)  # above every variable index
    degenerate = 0  # consecutive degenerate primal steps
    while True:
        eligible = obj < -tol
        if not eligible.any():
            return STATUS_OPTIMAL, pivots
        if pivots >= max_pivots:
            return STATUS_PIVOT_LIMIT, pivots
        if dantzig and degenerate < DUAL_STALL_PIVOTS:
            # Dantzig's rule: most negative reduced cost, lowest index among ties.
            scores = np.where(eligible, obj, np.inf)
            enter = _lowest_variable(np.nonzero(scores == scores.min())[0], nonbasic)
        else:
            # Bland's entering rule: lowest-index eligible variable.
            enter = int(np.argmin(np.where(eligible, nonbasic, top)))

        col = tableau[:m, enter]
        if bounded:
            ub = upper[basis]
            pos = col > tol
            # a basic variable falling to 0, or rising to its upper bound
            rising = (col < -tol) & (ub < np.inf)
            ratios = np.full(m, np.inf)
            ratios[pos] = rhs[pos] / col[pos]
            ratios[rising] = (ub[rising] - rhs[rising]) / -col[rising]
            best = ratios.min()
            width = upper[nonbasic[enter]]
            if width <= best:
                if width == np.inf:
                    return STATUS_UNBOUNDED, pivots
                # the entering variable reaches its own bound first
                flip_column(tableau, enter, width)
                flipped[nonbasic[enter]] ^= 1
                degenerate = degenerate + 1 if width <= tol else 0
                pivots += 1
                continue
        else:
            pos = col > tol
            if not pos.any():
                return STATUS_UNBOUNDED, pivots
            ratios = np.full(m, np.inf)
            ratios[pos] = rhs[pos] / col[pos]
            best = ratios.min()
        ties = np.nonzero(ratios == best)[0]
        # Bland's leaving rule: among minimum ratios, lowest basis index.
        leave = int(ties[np.argmin(basis[ties])]) if ties.size > 1 else int(ties[0])
        above = bounded and rising[leave]
        if above:
            complement_row(tableau, leave, ub[leave])
        degenerate = degenerate + 1 if best <= tol else 0
        pivot(leave, enter, above)
        pivots += 1


def _dual_entering(tableau, leave, candidates, nonbasic, bland, tol):
    """Entering column of the dual pivot on the infeasible row ``leave``, and
    its ratio, among the ``candidates`` columns (a mask).

    The ratios are computed on the candidate columns only.  ``bland`` takes
    the lowest variable index among the minimum ratios.  Otherwise the
    column with the largest pivot element among the ratios within ``tol``
    of the minimum enters.
    """
    cols = np.flatnonzero(candidates)
    row = tableau[leave, cols]
    # Clip negative reduced costs to zero so that no ratio is negative.
    ratios = np.maximum(tableau[-1, cols], 0.0) / -row
    best = ratios.min()
    if bland:
        # Dual Bland's entering rule: lowest variable index among minimum ratios.
        return _lowest_variable(cols[ratios == best], nonbasic), best
    near = np.flatnonzero(ratios <= best + tol)
    if near.size > 1:
        size = -row[near]
        near = near[size == size.max()]
    return _lowest_variable(cols[near], nonbasic), best


def pivot_inplace(tableau, basis, nonbasic, row, col):
    """One basis exchange: ``nonbasic[col]`` enters in ``row``, ``basis[row]``
    takes over column ``col``.

    The pivot row is scaled and the entering column eliminated elsewhere; the
    leaving variable's new column is ``-col / piv`` with ``1 / piv`` in the
    pivot row.
    """
    piv = tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau[row] /= piv
    tableau -= column[:, None] * tableau[row]
    tableau[:, col] = -column / piv
    tableau[row, col] = 1.0 / piv
    basis[row], nonbasic[col] = nonbasic[col], basis[row]