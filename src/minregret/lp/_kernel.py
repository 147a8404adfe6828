"""Simplex pivot kernel: the dense numpy pivot loop behind ``solve_lp``.

Bland's rule picks both the entering column (lowest eligible index) and the
leaving row (lowest basis index among minimum ratios), so the pivot sequence,
and with it every result, is deterministic.
"""

from __future__ import annotations

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_PIVOT_LIMIT = 2


def run_simplex(tableau, basis, locked, max_pivots, tol):
    """Pivot ``tableau`` in place until the reduced-cost row is nonnegative.

    tableau : (m+1, w) float64, C-contiguous.  Rows 0..m-1 are constraint
        rows with the right-hand side in the last column; row m holds the
        reduced costs and, in its last cell, minus the current objective.
    basis : (m,) intp, basic column of each row.
    locked : (w-1,) uint8, columns that may never enter the basis.
    Returns ``(status, pivots_used)``.
    """
    m = tableau.shape[0] - 1
    obj = tableau[m]
    pivots = 0
    unlocked = locked == 0
    while True:
        # Bland's entering rule: lowest-index eligible column.
        eligible = unlocked & (obj[:-1] < -tol)
        if not eligible.any():
            return STATUS_OPTIMAL, pivots
        if pivots >= max_pivots:
            return STATUS_PIVOT_LIMIT, pivots
        enter = int(eligible.argmax())

        col = tableau[:m, enter]
        pos = col > tol
        if not pos.any():
            return STATUS_UNBOUNDED, pivots
        ratios = np.full(m, np.inf)
        ratios[pos] = tableau[:m, -1][pos] / col[pos]
        best = ratios.min()
        ties = np.nonzero(ratios == best)[0]
        # Bland's leaving rule: among minimum ratios, lowest basis index.
        leave = int(ties[np.argmin(basis[ties])]) if ties.size > 1 else int(ties[0])

        pivot_inplace(tableau, basis, leave, enter)
        pivots += 1


def pivot_inplace(tableau, basis, row, col):
    """One pivot: scale the pivot row, eliminate the column elsewhere."""
    piv = tableau[row, col]
    tableau[row] /= piv
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # Stamp the exact unit column to stop round-off drift.
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col
