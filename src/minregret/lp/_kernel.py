"""Simplex pivot kernel: the dense numpy pivot loop behind every LP solve.

The kernel works on a condensed tableau: one column per nonbasic variable
(``nonbasic`` names them) and none for the basic ones, whose columns are unit
vectors that no rule reads.  A pivot is a basis exchange: the entering
variable's column becomes the leaving variable's, and every choice below that
breaks a tie by index uses the variable index, not the column position.

One call runs a dual pass, then a primal pass.

The dual pass runs while some right-hand side is below ``-tol``, which
happens when a row is appended to an optimal tableau: the basis is then
still dual feasible.  Columns with a nonnegative reduced cost (within
``tol``) enter first, so a column appended in the same step with a negative
reduced cost waits for the primal pass; only when no such column can repair
the row does any unlocked column enter.  The leaving row is the most
infeasible one; the entering column has the largest pivot element among
the columns whose ratio is within ``tol`` of the minimum ratio, which keeps
reduced costs nonnegative within ``tol``.  After ``DUAL_STALL_PIVOTS``
consecutive degenerate pivots the pass switches to dual Bland's rule
(leaving row: the lowest basis index among infeasible rows; entering
column: the lowest variable index among minimum ratios) until a pivot moves
the dual objective again.  Pure dual Bland took about ten times as many
pivots on the double oracle's restricted games.

That makes the dual pass finite only while every entering column is dual
feasible.  When no such column can repair the row, a column with a
negative reduced cost enters: its ratio is clipped to zero, but the pivot
lowers the reduced cost of every column with a positive entry in the
leaving row, so the tableau loses dual feasibility, the dual objective is
no longer monotone, and from then on only ``max_pivots`` (the caller's
budget) bounds the pass.

The primal pass uses Bland's rule: the entering column is the lowest
eligible variable index, the leaving row the lowest basis index among
minimum ratios.  Every choice breaks its ties by index, so the pivot
sequence, and with it every result, is deterministic.
"""

from __future__ import annotations

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_PIVOT_LIMIT = 2
# The dual pass found a negative right-hand side that no unlocked column
# can repair.
STATUS_INFEASIBLE = 3

# Degenerate dual pivots in a row before the dual pass falls back to dual
# Bland's rule.
DUAL_STALL_PIVOTS = 50


def _lowest_variable(candidates, nonbasic):
    """Column among the ``candidates`` positions whose variable index is lowest."""
    if candidates.size == 1:
        return int(candidates[0])
    return int(candidates[np.argmin(nonbasic[candidates])])


def run_simplex(tableau, basis, nonbasic, locked, max_pivots, tol):
    """Pivot ``tableau`` in place until it is primal and dual feasible.

    tableau : (m+1, k+1) float64, C-contiguous, ``B⁻¹[A_N | b]`` over the k
        nonbasic variables.  Rows 0..m-1 are constraint rows with the
        right-hand side in the last column; row m holds the reduced costs
        and, in its last cell, minus the current objective.
    basis : (m,) intp, basic variable of each row.
    nonbasic : (k,) intp, nonbasic variable of each column.
    locked : uint8 per variable, the variables that may never enter.
    Returns ``(status, pivots_used)``.
    """
    m = tableau.shape[0] - 1
    obj = tableau[m, :-1]
    rhs = tableau[:m, -1]
    pivots = 0
    unlocked = locked[nonbasic] == 0

    def pivot(leave, enter):
        pivot_inplace(tableau, basis, nonbasic, leave, enter)
        unlocked[enter] = locked[nonbasic[enter]] == 0

    stalled = 0  # consecutive degenerate dual pivots
    while True:
        infeasible = np.nonzero(rhs < -tol)[0]
        if not infeasible.size:
            break
        if pivots >= max_pivots:
            return STATUS_PIVOT_LIMIT, pivots
        bland = stalled >= DUAL_STALL_PIVOTS
        if bland:
            # Dual Bland's leaving rule: lowest basis index among infeasible rows.
            leave = int(infeasible[np.argmin(basis[infeasible])])
        else:
            leave = int(infeasible[np.argmin(rhs[infeasible])])  # first of ties
        row = tableau[leave, :-1]
        neg = unlocked & (row < -tol)
        if not neg.any():
            return STATUS_INFEASIBLE, pivots
        # Dual feasible columns go first: a column appended with a negative
        # reduced cost waits for the primal pass.
        feasible = neg & (obj >= -tol)
        if feasible.any():
            neg = feasible
        # Clip negative reduced costs to zero so that no ratio is negative.
        ratios = np.full(row.shape, np.inf)
        ratios[neg] = np.maximum(obj[neg], 0.0) / -row[neg]
        best = ratios.min()
        if bland:
            # Dual Bland's entering rule: lowest variable index among minimum ratios.
            enter = _lowest_variable(np.nonzero(ratios == best)[0], nonbasic)
        else:
            near = np.nonzero(ratios <= best + tol)[0]
            if near.size > 1:
                size = -row[near]
                near = near[size == size.max()]
            enter = _lowest_variable(near, nonbasic)
        stalled = stalled + 1 if best <= tol else 0
        pivot(leave, enter)
        pivots += 1

    top = len(locked)  # above every variable index
    while True:
        # Bland's entering rule: lowest-index eligible variable.
        eligible = unlocked & (obj < -tol)
        if not eligible.any():
            return STATUS_OPTIMAL, pivots
        if pivots >= max_pivots:
            return STATUS_PIVOT_LIMIT, pivots
        enter = int(np.argmin(np.where(eligible, nonbasic, top)))

        col = tableau[:m, enter]
        pos = col > tol
        if not pos.any():
            return STATUS_UNBOUNDED, pivots
        ratios = np.full(m, np.inf)
        ratios[pos] = rhs[pos] / col[pos]
        best = ratios.min()
        ties = np.nonzero(ratios == best)[0]
        # Bland's leaving rule: among minimum ratios, lowest basis index.
        leave = int(ties[np.argmin(basis[ties])]) if ties.size > 1 else int(ties[0])

        pivot(leave, enter)
        pivots += 1


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
