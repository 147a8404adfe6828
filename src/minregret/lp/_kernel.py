"""Simplex pivot kernel: the dense numpy pivot loop behind every LP solve.

The kernel works on a condensed tableau: one column per nonbasic variable
(``nonbasic`` names them) and none for the basic ones, whose columns are unit
vectors that no rule reads.  A pivot is a basis exchange: the entering
variable's column becomes the leaving variable's, and every entering choice
below that breaks a tie by index uses the variable index, not the column
position; a leaving choice among tied rows takes the first row.

Every variable is ``0 <= x <= u`` with ``u`` finite or not (``upper``, one
entry per variable; None means no finite bound).  A nonbasic variable sits
at 0 or, flagged in ``flipped``, at its upper bound, where it is stored
complemented: the tableau holds ``x' = u - x``, whose column and reduced
cost are negated and whose bound has moved into the right-hand side.  Basic
variables are never complemented between pivots.  So every nonbasic
variable is at 0 in the variable its column describes, and the optimality
test and the plain ratio tests read the tableau as if no variable had an
upper bound.  Moving a nonbasic variable to its other bound
(:func:`flip_column`) is its own kind of step, which changes no basis.  With
no finite bound, every pivot skips the bound work; it hangs on one flag set
once per call.

Each pivot makes as few numpy calls as it can, since on these small
tableaux a call's fixed cost, not its arithmetic, is most of a pivot's
time.  Candidates (infeasible rows, entering columns, leaving rows) are
index arrays (``x.nonzero()[0]``), a minimum or maximum is read at
``x.argmin()`` or ``x.argmax()``, whose first hit is the lowest position,
and the bound of each basic variable is kept per row and updated at each
pivot instead of gathered.

One call runs a dual pass, then a primal pass.

The dual pass runs while some basic variable is out of its bounds, which
happens when a row is appended to an optimal tableau: the basis is then
still dual feasible.  A basic variable above its upper bound (round-off
after a refresh can put one there) is infeasible by ``rhs - u``; its row is
complemented (:func:`complement_row`), which makes it the usual negative
right-hand side, and it leaves at that bound.  The leaving row is chosen by
dual steepest edge on the condensed rows (Forrest & Goldfarb 1992): among
the infeasible rows, the one with the largest ``violation² / (1 + ‖T[i,
:-1]‖²)``, the first of ties; with one infeasible row no norm is computed.
The norm is that of the row of the condensed tableau, plus one for the
basic variable's own unit entry, so it needs nothing beyond the tableau; it
is recomputed on every dual pivot, with no update formula.  On the double
oracle's larger restricted games it took 1.3 to 10 times fewer pivots than
taking the most infeasible row.  The candidate
columns are the ones with a negative entry in that row, and the dual
feasible ones among them (reduced cost nonnegative within ``tol``) go
first, so a column appended in the same step with a negative reduced cost
waits for the primal pass; only when no such column can repair the row does
any other candidate enter.  The ratios are computed on the candidates only
(:func:`_dual_entering`), never over the full row, and one entering rule
serves every LP, bounded or not: the column with the largest pivot element
among the columns whose ratio is within ``tol`` of the minimum ratio, which
keeps reduced costs nonnegative within ``tol``.

No anti-cycling rule guards the dual pass.  While every entering column is
dual feasible the dual objective never falls, but a degenerate pivot (ratio
0) leaves it where it is.  When no such column can repair the row, a column
with a negative reduced cost enters: its ratio is clipped to zero, but the
pivot lowers the reduced cost of every column with a positive entry in the
leaving row, so the tableau loses dual feasibility and the dual objective is
no longer monotone.  Either way ``max_pivots`` (the caller's budget) is what
bounds the pass; it ends there as ``STATUS_PIVOT_LIMIT``.

The primal pass enters by Dantzig's rule on every solve, first or warm:
the most negative reduced cost, ties by the lowest variable index.  Pure
Bland pricing on warm re-solves took 3.8 to 4.5 times as many pivots on the
64-scenario adversary LPs, whose re-solves are primal only.  The ratio test
counts a basic variable reaching 0, a basic variable reaching its upper
bound (its row is complemented and it leaves flipped) and the entering
variable reaching its own bound, which flips its column without a basis
change and wins ties; among rows, the first of the least ratios leaves.  An
entering variable that was flipped has its row un-complemented after the
pivot.  The pass stops once no reduced cost is below ``-OPTIMAL_TOL``, at
round-off, on every solve, first, warm or iterate; ``tol`` serves every
other test: pivot elements, feasibility, dual feasibility, ratio ties and
the lift's trigger.  A matrix game's row whose reduced cost sits at
``-tol`` concedes about ``tol`` times the payoff scale, which on scenario
k-selection n=2000 with 16 scenarios misses the double oracle's bracket.

No pricing rule guards the primal pass against cycling; a one-time
perturbation of the right-hand sides does (Wolfe 1963), with ``max_pivots``
as the backstop, as in the dual pass.  At the first degenerate basis
exchange of a call (least ratio at most ``tol``), every right-hand side
below ``LIFT`` rises once, row ``i`` by ``LIFT·(0.5 + 0.5·frac(0.618…·(i +
1)))``, but never past its basic variable's upper bound, and the ratio test
is redone.  The amounts are fixed, so the pivot sequence, and with it every
result, is deterministic.  The lifted rows then differ from the LP's, so a
call that lifted and reaches optimality returns ``STATUS_LIFTED``, not
``STATUS_OPTIMAL``: its basis is a candidate that only an exact refresh of
the unlifted data, and a run that confirms it without pivoting, can accept.
The lift ends Beale's (1955) cycling example in two pivots, and let the
double oracle on interval k-selection n=200 seed 2 finish, which stalled
under the Bland fallback it replaces.

The pivot counts returned cover basis exchanges and primal bound flips.
"""

from __future__ import annotations

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_PIVOT_LIMIT = 2
# The dual pass found a violated row that no column can repair.
STATUS_INFEASIBLE = 3

# The primal pass lifted its right-hand sides, so its optimum is the
# perturbed LP's.
STATUS_LIFTED = 4

# How far a degenerate primal step lifts the right-hand sides below it.
LIFT = 1e-7

# How far below zero a reduced cost may sit when the primal pass stops.
OPTIMAL_TOL = 1e-12


def _lowest_variable(candidates, nonbasic):
    """Position among ``candidates`` whose variable index in ``nonbasic`` is
    lowest."""
    if candidates.size == 1:
        return int(candidates[0])
    return int(candidates[nonbasic[candidates].argmin()])


def complement_row(tableau, row, bound):
    """The basic variable ``x`` of ``row`` becomes ``bound - x``."""
    tableau[row, :-1] *= -1.0
    tableau[row, -1] = bound - tableau[row, -1]


def flip_column(tableau, col, bound):
    """The nonbasic variable ``x`` of ``col`` becomes ``bound - x``: it moves
    to its other bound, and the right-hand sides and objective follow."""
    tableau[:, -1] -= tableau[:, col] * bound
    tableau[:, col] *= -1.0


def run_simplex(tableau, basis, nonbasic, max_pivots, tol, upper=None, flipped=None):
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
    Returns ``(status, pivots, dual_pivots)``: the pivots of both passes,
    and how many of them the dual pass made.
    """
    m = tableau.shape[0] - 1
    obj = tableau[m, :-1]
    rhs = tableau[:m, -1]
    below = -tol
    pivots = 0
    bounded = upper is not None and bool(np.isfinite(upper).any())
    ub = upper[basis] if bounded else None  # the bound of each row's basic variable

    def pivot(leave, enter, at_upper=False):
        # ``at_upper``: row ``leave`` is complemented, its variable leaves flipped
        entering, leaving = nonbasic[enter], basis[leave]
        pivot_inplace(tableau, basis, nonbasic, leave, enter)
        if bounded:
            flipped[leaving] = at_upper
            ub[leave] = upper[entering]
            if flipped[entering]:
                flipped[entering] = 0
                complement_row(tableau, leave, ub[leave])

    while m:  # a tableau without rows has no row to repair
        violation = np.maximum(-rhs, rhs - ub) if bounded else -rhs
        infeasible = (violation > tol).nonzero()[0]
        if not infeasible.size:
            break
        if pivots >= max_pivots:
            return STATUS_PIVOT_LIMIT, pivots, pivots
        leave = int(infeasible[0])
        if infeasible.size > 1:
            # Dual steepest edge on the condensed rows, the first of ties.
            rows = tableau[infeasible, :-1]
            weights = violation[infeasible] ** 2 / (1.0 + np.einsum("ij,ij->i", rows, rows))
            leave = int(infeasible[weights.argmax()])
        above = bounded and rhs[leave] > ub[leave]
        if above:
            complement_row(tableau, leave, ub[leave])
        candidates = (tableau[leave, :-1] < below).nonzero()[0]
        if not candidates.size:
            if above:
                complement_row(tableau, leave, ub[leave])  # back to rest
            return STATUS_INFEASIBLE, pivots, pivots
        pivot(leave, _dual_entering(tableau, leave, candidates, nonbasic, tol), above)
        pivots += 1
    dual = pivots

    lifted = False
    while True:
        eligible = (obj < -OPTIMAL_TOL).nonzero()[0]
        if not eligible.size:
            return STATUS_LIFTED if lifted else STATUS_OPTIMAL, pivots, dual
        if pivots >= max_pivots:
            return STATUS_PIVOT_LIMIT, pivots, dual
        if eligible.size > 1:
            # Dantzig's rule: most negative reduced cost, lowest index among ties.
            scores = obj[eligible]
            eligible = eligible[scores == scores[scores.argmin()]]
        enter = _lowest_variable(eligible, nonbasic)

        # Leaving rows: a basic variable falling to 0, then (with bounds) one
        # rising to its upper bound, whose ratio is inf when it has none.
        col = tableau[:m, enter]
        rows = (col > tol).nonzero()[0]
        ratios = rhs[rows] / col[rows]
        falling = rows.size
        width = np.inf
        if bounded:
            rising = (col < below).nonzero()[0]
            rows = np.concatenate((rows, rising))
            ratios = np.concatenate((ratios, (ub[rising] - rhs[rising]) / -col[rising]))
            width = upper[nonbasic[enter]]
        at = int(ratios.argmin()) if rows.size else -1
        best = ratios[at] if rows.size else np.inf
        if width <= best:
            if width == np.inf:
                return STATUS_UNBOUNDED, pivots, dual
            # the entering variable reaches its own bound first
            flip_column(tableau, enter, width)
            flipped[nonbasic[enter]] ^= 1
            pivots += 1
            continue
        if best <= tol and not lifted:
            # The first degenerate exchange lifts the low right-hand sides
            # once, by fixed amounts in [LIFT / 2, LIFT) but never past a
            # row's bound, and redoes the step.
            low = (rhs < LIFT).nonzero()[0]
            lift = rhs[low] + LIFT * (0.5 + 0.5 * (0.6180339887 * (low + 1.0) % 1.0))
            rhs[low] = np.minimum(lift, ub[low]) if bounded else lift
            lifted = True
            continue
        leave = int(rows[at])
        above = at >= falling
        if above:
            complement_row(tableau, leave, ub[leave])
        pivot(leave, enter, above)
        pivots += 1


def _dual_entering(tableau, leave, candidates, nonbasic, tol):
    """Entering column of the dual pivot on the infeasible row ``leave``
    among the ``candidates`` columns (an index array).

    The dual feasible candidates go first when there are any; of those
    left, the column with the largest pivot element among the ratios within
    ``tol`` of the minimum enters, ties by variable index.
    """
    costs = tableau[-1, candidates]
    if costs[costs.argmin()] < -tol:
        feasible = (costs >= -tol).nonzero()[0]
        if feasible.size:
            candidates, costs = candidates[feasible], costs[feasible]
    size = -tableau[leave, candidates]  # the pivot elements, negated
    # Clip negative reduced costs to zero so that no ratio is negative.
    ratios = np.maximum(costs, 0.0) / size
    near = (ratios <= ratios[ratios.argmin()] + tol).nonzero()[0]
    if near.size > 1:
        size = size[near]
        near = near[size == size[size.argmax()]]
    return _lowest_variable(candidates[near], nonbasic)


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
    pivot_row = tableau[row]
    pivot_row /= piv
    tableau -= column[:, None] * pivot_row
    column /= -piv
    column[row] = 1.0 / piv
    tableau[:, col] = column
    basis[row], nonbasic[col] = nonbasic[col], basis[row]
