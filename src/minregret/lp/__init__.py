"""Dense simplex with dual extraction, a warm-startable LP and matrix games.

The solver runs on a condensed tableau, ``B⁻¹[A_N | b]`` over the nonbasic
columns only, with their reduced costs, next to a ``nonbasic`` index array;
pivot tolerance is 1e-9, the optimality test reads reduced costs down to
round-off (-1e-12), and infinities are explicit bound markers.  Upper
bounds ``0 <= x <= u`` are native: a nonbasic variable sits at 0 or at its
bound, where it is stored complemented (``x' = u - x``: its column and
reduced cost negated, the bound folded into the right-hand side, flagged in
a per-variable ``flipped`` array), so no bound is a row.  Bounds serve an LP
solved once from the slack basis (the compact scenario k-selection LP's box
``0 <= z <= 1``), and a bounded LP does not grow.  The pivot loop is the
package's hot kernel and lives in ``_kernel``, a dense numpy basis exchange
per pivot: a dual pass while some basic variable is out of its bounds (the
leaving row by dual steepest edge on the condensed rows, dual feasible
columns first), then a primal pass priced by Dantzig's rule whose ratio test
includes the entering variable's own bound flip, and whose first degenerate
step lifts the low right-hand sides once; both enter ties by variable index
and leave the first of tied rows.  The LP here runs it in bursts of at
most ``BURST_PIVOTS`` pivots between exact refreshes (``_refresh``).  A solve accepts a claim only after a refresh and
a kernel run that confirms it without pivoting; an iterate solve, which the
double oracle uses between its answers, returns the kernel's optimal claim
unrefreshed until the pivots since the last refresh reach the burst limit.  Every row has one
slack; the refresh drops the basic ones and factors only the square block of
the basis that is left.

:class:`WarmLP` is the package's only LP solver: ``max c·x s.t. A x <= b,
0 <= x <= u`` with ``b >= 0``.  Its first solve starts from the feasible
slack basis, whose tableau is the data itself, so no LP has a phase 1.  It
keeps the tableau of each optimal solve and, when it has no finite bound,
re-optimises from it after ``grow``, its one growth step: new rows first
(their slacks join the basis, which stays dual feasible, so the dual pass
restores primal feasibility), then new columns over every row (the new
variables start at zero, the basis stays primal feasible, and the primal
pass lets them enter).  Growth extends the kept tableau in place of a
refresh, so a warm solve that ends within one burst refreshes once, and an
iterate within the burst limit not at all.  :class:`MatrixGame` is a
zero-sum game that grows by strategies in one ``grow`` as well, solved on
one WarmLP; the double oracle's loop in ``solvers`` (which is also the
adversary cutting-plane LP) keeps one, and ``solvers`` solves the compact
scenario k-selection LP as one bounded WarmLP, written around an anchor set
so that its origin is feasible.  ``solve_matrix_game`` is a MatrixGame
solved once.  This module holds the LP and the matrix game only; the loop
that grows a game lives in ``solvers``.

Row duals are the multipliers of the ``<=`` rows of the ``max`` LP, so they
are nonnegative, and the dual objective (rhs times duals plus the bound
terms) equals the primal objective at optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import SolverError

from . import _kernel

PIVOT_TOL = 1e-9
# Pivots per kernel burst between exact tableau refreshes; bounds how far
# round-off can compound before being wiped.
BURST_PIVOTS = 1024


def kernel_backend() -> str:
    """Name of the pivot kernel, recorded in benchmark stamps: always "python"."""
    return "python"


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Result of one solve; ``duals`` has one multiplier per row.

    ``reason`` names the cause of a ``breakdown`` and is None otherwise:
    "budget" (the pivot budget ran out), "singular-basis" (an exact refresh
    found the basis numerically singular) or "dual-infeasible" (the dual
    pass met a violated row that no column can repair).  ``dual_pivots``
    counts the pivots of the kernel's dual passes and ``primal_pivots``
    those of its primal passes; their sum is ``pivots``.  A pivot is a basis
    exchange or a primal bound flip (a nonbasic variable moving to its other
    bound without a basis change).  ``refreshes`` counts the exact
    tableau refreshes the solve ran, on every outcome; an optimal solution
    with none is an unconfirmed iterate (see :meth:`WarmLP.solve`).
    """

    status: str  # optimal | unbounded | breakdown
    x: np.ndarray | None
    duals: np.ndarray | None
    objective: float | None
    dual_pivots: int
    primal_pivots: int
    reason: str | None = None
    refreshes: int = 0

    @property
    def pivots(self) -> int:
        return self.dual_pivots + self.primal_pivots

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def confirmed(self) -> bool:
        """Whether an exact refresh and a pivot-free kernel run confirmed it."""
        return self.refreshes > 0

    @property
    def status_text(self) -> str:
        """The status, followed by the breakdown reason in parentheses."""
        return self.status if self.reason is None else f"{self.status} ({self.reason})"


def _refresh(T, basis, nonbasic, A, b, costs, upper=None, flipped=None):
    """Recompute the tableau exactly from original data at the current basis.

    Long pivot runs accumulate round-off in the tableau (a single near-tol
    pivot element amplifies it); refreshing before trusting any optimality or
    unboundedness claim makes every accepted answer exact at its basis.

    Variables ``0..g-1`` have the columns of ``A`` (m × g); variable ``g + k``
    is the slack of row ``k``.  The basic slacks and their rows drop out of
    the basis matrix, so only the square block ``A[rows whose slack is
    nonbasic, basic variables below g]`` is factored.  The rows of the basic
    slacks follow from the same solve, and the reduced costs
    ``c_N - c_B B⁻¹A_N`` from the refreshed rows, so a row's dual, the
    reduced cost of its slack, comes from the same block too.  The nonbasic
    variables that ``flipped`` marks sit at their ``upper`` bound and are
    stored complemented: their columns and costs are negated, the
    right-hand side is ``b - A_U u_U`` and the objective has the constant
    ``c_U u_U``.  Returns False when that block is numerically singular.
    """
    m, g = A.shape
    unit = basis >= g
    unit_rows = basis[unit] - g  # rows of the basic slacks
    structural = basis[~unit]
    rest = np.ones(m, dtype=bool)  # as many rows as structural basics
    rest[unit_rows] = False
    # [A_N | b] in row space: a nonbasic slack is e of its row
    data = np.zeros((m, len(nonbasic) + 1))
    general = nonbasic < g
    columns = general.nonzero()[0]
    data[:, columns] = A[:, nonbasic[columns]]
    columns = (~general).nonzero()[0]
    data[nonbasic[columns] - g, columns] = 1.0
    data[:, -1] = b
    at_upper = np.empty(0, np.intp) if flipped is None else flipped[nonbasic].nonzero()[0]
    if at_upper.size:
        data[:, -1] -= data[:, at_upper] @ upper[nonbasic[at_upper]]
        data[:, at_upper] *= -1.0
    try:
        body = np.linalg.solve(A[rest][:, structural], data[rest])
    except np.linalg.LinAlgError:
        return False
    rows = T[:m]
    rows[~unit] = body
    rows[unit] = data[unit_rows] - A[unit_rows][:, structural] @ body
    rhs = rows[:, -1]
    rhs[np.abs(rhs) < 1e-11] = 0.0
    cost_n = costs[nonbasic]
    if at_upper.size:
        cost_n[at_upper] *= -1.0
    T[m] = np.append(cost_n, 0.0) - costs[basis] @ rows
    if at_upper.size:
        T[m, -1] -= costs[nonbasic[at_upper]] @ upper[nonbasic[at_upper]]
    return True


# Kernel status -> (status, reason) of a claim confirmed on fresh data.
_CLAIMS = {
    _kernel.STATUS_OPTIMAL: ("optimal", None),
    _kernel.STATUS_UNBOUNDED: ("unbounded", None),
    _kernel.STATUS_INFEASIBLE: ("breakdown", "dual-infeasible"),
}


def _run_bursts(T, basis, nonbasic, problem, budget, flipped=None, since=0, iterate=False):
    """Kernel bursts interleaved with exact refreshes until a claim survives.

    ``problem`` is ``(A, b, costs, upper)`` as :func:`_refresh` takes it,
    and ``flipped`` the nonbasic variables at their upper bound; ``T`` is
    only a starting point, ``since`` pivots past its last exact refresh.
    The kernel runs at most ``BURST_PIVOTS`` pivots between refreshes (the
    first burst is ``since`` shorter) and the tableau is refreshed after
    every burst; a claim is accepted only when the kernel confirms it on a
    refreshed tableau without pivoting.  So a solve that ends within one
    burst refreshes once.  With ``iterate``, an optimal claim of the first
    burst is returned as it stands, unrefreshed; any other outcome of that
    burst goes on as above.  A lifted claim (``_kernel.STATUS_LIFTED``) is
    refreshed like any other: the run that lifted made a pivot, so it
    confirms nothing, and its status is not an iterate's; a confirming run
    makes no pivot, so it never lifts, and the kept tableau carries no
    lift.  Returns ``(status, reason, dual_pivots, primal_pivots,
    refreshes)``; see :class:`LpSolution` for the breakdown reasons.
    """
    upper = problem[3]
    dual = primal = refreshes = 0
    fresh = False
    while True:
        remaining = budget - dual - primal
        if remaining <= 0:
            return "breakdown", "budget", dual, primal, refreshes
        status, used, dual_used = _kernel.run_simplex(
            T, basis, nonbasic, min(remaining, BURST_PIVOTS - since), PIVOT_TOL,
            upper=upper, flipped=flipped,
        )
        dual += dual_used
        primal += used - dual_used
        if fresh and used == 0 and status != _kernel.STATUS_PIVOT_LIMIT:
            return _CLAIMS[status] + (dual, primal, refreshes)
        if iterate and status == _kernel.STATUS_OPTIMAL:
            return "optimal", None, dual, primal, refreshes
        iterate = False
        refreshes += 1
        if not _refresh(T, basis, nonbasic, *problem, flipped=flipped):
            return "breakdown", "singular-basis", dual, primal, refreshes
        fresh = True
        since = 0


def _finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("LP coefficients must be finite")


def _block(block, shape, name, vector):
    """``(lhs, vector)`` of :meth:`WarmLP.grow` as checked float arrays, with
    ``lhs`` of ``shape(len(vector))``; None stays None."""
    if block is None:
        return None
    lhs, v = block
    v, lhs = np.asarray(v, dtype=float), np.asarray(lhs, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"WarmLP {name}: the {vector} must be 1-D, got shape {v.shape}")
    if lhs.shape != shape(len(v)):
        raise ValueError(f"WarmLP {name}: lhs has shape {lhs.shape}, expected {shape(len(v))}")
    _finite(lhs, v)
    return lhs, v


class WarmLP:
    """``max c·x s.t. A x <= b, 0 <= x <= u`` with ``b >= 0``, re-solved warm.

    ``x = 0`` is always feasible, so the LP is never infeasible.  The upper
    bounds ``u`` (``upper``, a scalar or one per variable, ``inf`` for none)
    are native: a nonbasic variable sits at 0 or, complemented, at its bound
    (``flipped``), and no bound is a row.  An LP without a finite bound
    keeps neither array (both are None), so its solves do no bound work.
    Bounds are fixed at construction: a bounded LP is solved from its slack
    basis and does not grow, so ``grow`` raises ``ValueError`` on it.  The
    LP keeps a condensed tableau, ``B⁻¹[A_N | b - A_U u_U]`` over its
    ``nonbasic`` variables with their reduced costs, for its ``basis``.  At
    creation that is the slack-basis tableau, built straight from the data
    by growing an empty LP by its rows; after every optimal solve it is the
    tableau that solve ended at: the refreshed one it confirmed, or an
    iterate's, which has taken at most ``BURST_PIVOTS`` pivots since its
    last exact refresh.  The next solve starts from it, after ``grow``:

    * its ``rows`` are constraints whose slacks join the basis; their
      tableau rows are ``[a_N | b] - a_B·T``.  The basis stays dual
      feasible, so the kernel's dual pass restores primal feasibility.
    * its ``columns`` are variables at zero, with tableau column ``B⁻¹a``
      and reduced cost ``-c - y·a``, both read off the columns of the
      nonbasic slacks of the tableau that already holds the new rows.  The
      basis stays primal feasible and the primal pass lets them enter; the
      dual pass, which prefers dual feasible columns, leaves them out
      until then.

    The kept tableau is only a starting point: a confirmed answer is
    accepted only after an exact refresh at its final basis and a kernel run
    that confirms it without pivoting, so a solve that ends within one burst
    of pivots refreshes once.  An iterate (``solve(iterate=True)``) is the
    kernel's optimal claim from the kept tableau, unrefreshed, while the
    pivots since the last refresh stay within the burst; a loop moves on
    from it but answers only from a confirmed solve.  Every solve, first or
    warm, prices the primal pass by Dantzig's rule, against Bland's: from
    the slack basis Bland's rule took 7 to 28 times as many pivots on the
    scenario k-selection LP (n = 300 to 2000), and on warm re-solves 3 to 5
    times as many on the 64-scenario adversary LPs.  Every solve stops at
    one optimality test, reduced costs down to ``-_kernel.OPTIMAL_TOL``
    (round-off), while pivot elements read ``PIVOT_TOL``.  A kernel run that
    lifted its right-hand sides against a stall is never an iterate: its
    claim is refreshed from the unlifted data and confirmed.
    ``basis``, ``nonbasic`` and ``flipped`` index the layout
    ``[variables | slacks]``, one slack per row.
    """

    def __init__(self, objective, lhs, rhs, upper=None):
        self._c = np.asarray(objective, dtype=float)
        _finite(self._c)
        n = len(self._c)
        if upper is not None:
            upper = np.array(np.broadcast_to(np.asarray(upper, dtype=float), (n,)))
            if np.any(np.isnan(upper)) or np.any(upper < 0.0):
                raise ValueError("WarmLP upper bounds must be nonnegative")
        self._upper = self.flipped = None
        self._A = np.empty((0, n))
        self._b = np.empty(0)
        self.basis = np.empty(0, dtype=np.intp)
        self.nonbasic = np.arange(n, dtype=np.intp)
        self._T = np.append(-self._c, 0.0)[None, :]
        self._since = 0  # pivots the kept tableau took since its last refresh
        self.grow(rows=(lhs, rhs))  # the slack basis
        if upper is not None and np.isfinite(upper).any():  # the slacks are unbounded
            self._upper = np.append(upper, np.full(len(self._b), np.inf))
            self.flipped = np.zeros(len(self._upper), dtype=np.uint8)

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, variables)``."""
        return self._A.shape

    def _problem(self):
        """``(A, b, costs, upper)`` for :func:`_refresh`, with ``costs`` the
        ``[-c | 0]`` over ``[variables | slacks]`` that the kernel minimizes;
        ``upper`` is None without a finite bound."""
        costs = np.concatenate([-self._c, np.zeros(len(self._b))])
        return self._A, self._b, costs, self._upper

    def grow(self, rows=None, columns=None) -> None:
        """Append constraints ``rows = (lhs, rhs)``, whose slacks join the
        basis, then variables ``columns = (lhs, objective)`` at zero, whose
        ``lhs`` covers the old rows and the new ones.

        Everything is checked before the LP changes, so a rejected call
        leaves it as it was: each block's shape, that it is finite, and that
        ``rhs >= 0``.  :class:`MatrixGame` checks its own blocks (shape and
        finite on the payoffs, positive once shifted) and grows its LP
        through ``_grow``, which checks nothing, so each block is checked
        once, by the class that made it.

        The tableau is allocated once.  The new rows are ``[a_N | b] -
        a_B·T``.  The new columns come from the slack block of the tableau
        that holds the new rows, ``(m + k + 1) × (m + k)`` over every row
        and every slack: a nonbasic slack's column is copied from ``T`` and
        a basic slack's is e of its row, so the block is ``B⁻¹`` over
        ``-y``, and one product with the new ``lhs`` gives their ``B⁻¹a``
        and ``-y·a``; no scratch array spans the whole variable layout.
        One call gives the bits of ``grow(rows)`` followed by
        ``grow(columns=...)``.
        """
        if self._upper is not None:
            raise ValueError("a WarmLP with upper bounds does not grow")
        m, n = self._A.shape
        rows = _block(rows, lambda k: (k, n), "rows", "rhs")
        if rows is not None and (rows[1] < 0.0).any():
            raise ValueError("WarmLP right-hand sides must be nonnegative")
        k = 0 if rows is None else len(rows[1])
        self._grow(rows, _block(columns, lambda j: (m + k, j), "columns", "objective"))

    def _grow(self, rows, columns) -> None:
        """:meth:`grow` on checked blocks: ``(lhs, vector)`` float arrays of
        the right shapes, or None."""
        m, n = self._A.shape
        k = 0 if rows is None else len(rows[1])
        j = 0 if columns is None else len(columns[1])
        old, basis, nonbasic, N = self._T, self.basis, self.nonbasic, len(self.nonbasic)
        A, b, c = self._A, self._b, self._c
        # the old rows, the new ones, then the cost row; the new columns go
        # before the right-hand side
        T = np.empty((m + k + 1, N + j + 1))
        T[:m, :N], T[:m, -1] = old[:m, :-1], old[:m, -1]
        T[-1, :N], T[-1, -1] = old[m, :-1], old[m, -1]
        if k:
            A_rows, rhs = rows
            a = np.zeros((k, n + m))  # the old slacks are absent
            a[:, :n] = A_rows
            a_BT = a[:, basis] @ old[:m]
            T[m:-1, :N], T[m:-1, -1] = a[:, nonbasic] - a_BT[:, :-1], rhs - a_BT[:, -1]
            basis = np.concatenate([basis, np.arange(n + m, n + m + k)])
            A, b = np.concatenate([A, A_rows]), np.concatenate([b, rhs])
        if j:
            A_cols, cost = columns
            slack = np.zeros((m + k + 1, m + k))
            at = (nonbasic >= n).nonzero()[0]
            slack[:, nonbasic[at] - n] = T[:, at]
            unit = basis >= n
            units = unit.nonzero()[0]
            slack[units, basis[units] - n] = 1.0
            cols = slack @ A_cols
            cols[-1] -= cost
            T[:, N:-1] = cols
            basis = np.where(unit, basis + j, basis)
            nonbasic = np.concatenate([nonbasic, np.arange(n, n + j)])
            nonbasic[at] += j
            A, c = np.concatenate([A, A_cols], axis=1), np.concatenate([c, cost])
        # every field at once, so a block that raises leaves the LP as it was
        self._A, self._b, self._c = A, b, c
        self._T, self.basis, self.nonbasic = T, basis, nonbasic

    def solve(self, iterate: bool = False) -> LpSolution:
        """Re-optimise from the kept tableau; row duals are nonnegative.

        The answer is confirmed: an exact refresh at its final basis and a
        kernel run without pivots accepted it.  With ``iterate``, the kernel
        runs once from the kept tableau, and its optimal claim is returned
        unrefreshed (``refreshes == 0``) as long as the pivots since the
        tableau's last exact refresh stay within ``BURST_PIVOTS``; reaching
        that limit, or any other status, takes the confirmed path from
        where the kernel stopped.  A loop that grows the LP may move on from
        an iterate, but takes its answer only from a confirmed solve, as
        the double oracle (``solvers._double_oracle``) does.
        """
        m, n = self._A.shape
        T, basis, nonbasic = self._T.copy(), self.basis.copy(), self.nonbasic.copy()
        flipped = None if self.flipped is None else self.flipped.copy()
        budget = 10 * (2 * m + n) ** 2
        status, reason, dual, primal, refreshes = _run_bursts(
            T, basis, nonbasic, self._problem(), budget, flipped=flipped, since=self._since,
            iterate=iterate,
        )
        if status != "optimal":
            return LpSolution(status, None, None, None, dual, primal, reason, refreshes)
        self._T, self.basis, self.nonbasic, self.flipped = T, basis, nonbasic, flipped
        self._since = self._since + dual + primal if refreshes == 0 else 0
        x = np.zeros(n + m)
        x[basis] = T[:m, -1]
        if flipped is not None:
            at_upper = flipped != 0
            x[at_upper] = self._upper[at_upper]
        # a row's dual is the reduced cost of its slack, 0 while that is basic
        duals = np.zeros(m)
        slacks = nonbasic >= n
        duals[nonbasic[slacks] - n] = T[m, :-1][slacks]
        return LpSolution(
            "optimal", x[:n], duals, float(self._c @ x[:n]), dual, primal, refreshes=refreshes
        )


def _payoff(payoff, rows=None, columns=None) -> np.ndarray:
    """A nonempty finite payoff matrix, of ``rows`` or ``columns`` if given."""
    P = np.asarray(payoff, dtype=float)
    if P.ndim != 2 or P.size == 0:
        raise ValueError("payoff must be a nonempty 2-D matrix")
    if (rows or P.shape[0], columns or P.shape[1]) != P.shape:
        raise ValueError(
            f"payoff block has shape {P.shape}, expected ({rows or '*'}, {columns or '*'})"
        )
    if not np.isfinite(P).all():
        raise ValueError("payoff entries must be finite")
    return P


def _shifted(P, scale) -> np.ndarray:
    """``Q = 1 + P / scale``, which the game LP needs positive and finite.
    ``P`` is finite, so ``P / scale`` can overflow only when ``scale < 1``."""
    Q = 1.0 + P / scale
    if not (Q > 0.0).all():
        raise SolverError(
            f"matrix-game payoff {P.min():.12g} is at or below -scale = "
            f"{-scale:.12g}, so the shifted game 1 + P/scale is not positive"
        )
    if scale < 1.0:
        _finite(Q)
    return Q


def _equilibrium(P, scale, span, sol: LpSolution):
    """``(row_mix, col_mix, value)`` from the game LP, checked to bracket
    within ``1e-9 * max(span, 1)``, ``span`` the payoff's range."""
    if not sol.is_optimal:
        raise SolverError(f"matrix-game LP ended with status {sol.status_text}")
    # sum(t) = sum(duals) = 1 / value(Q) at the optimum
    t = np.maximum(sol.x, 0.0)
    z = np.maximum(sol.duals, 0.0)
    row_mix = t / t.sum()
    col_mix = z / z.sum()
    value = scale * (1.0 / t.sum() - 1.0)
    tol = 1e-9 * max(span, 1.0)
    row_worst = float((row_mix @ P).max())
    col_worst = float((P @ col_mix).min())
    if not (abs(row_worst - value) <= tol and abs(col_worst - value) <= tol):  # NaN fails
        raise SolverError(
            f"matrix-game mixes do not bracket the value {value:.12g}: "
            f"row mix concedes {row_worst:.12g}, column mix secures {col_worst:.12g}"
        )
    return row_mix, col_mix, float(value)


class MatrixGame:
    """Finite zero-sum game that grows by strategies and is re-solved warm.

    The row player picks a row to minimize the payoff; the column player
    picks a column to maximize it.  The game is the row player's LP
    ``max 1·t s.t. Qᵀ t <= 1, t >= 0`` over the positive matrix
    ``Q = 1 + P / scale``, held in one :class:`WarmLP` with a variable per
    row and a constraint per column.  So ``grow``'s new columns are LP rows
    (dual pass) and its new rows LP columns (primal pass), in the order the
    LP grows.  The payoffs are regrets, which are nonnegative, so Q stays
    positive; ``scale`` is the largest initial payoff (1 if none is
    positive), fixed here, and an appended entry at or below ``-scale``
    raises :class:`SolverError`.  Each answer reads the bracket tolerance
    ``1e-9 * span`` off the payoff it holds.
    """

    def __init__(self, payoff):
        P = _payoff(payoff)
        high = float(P.max())
        self.scale = high if high > 0.0 else 1.0
        self.payoff = P
        self.confirmed = False  # whether the last solve was confirmed
        r, s = P.shape
        self._lp = WarmLP(np.ones(r), _shifted(P, self.scale).T, np.ones(s))

    def grow(self, columns=None, rows=None) -> None:
        """Append column strategies, one payoff column each over the current
        rows, then row strategies, one payoff row each over every column.

        Both blocks are checked (shape, finite) and shifted (positive) here,
        before the game changes, so a rejected call leaves it as it was.
        The LP grows by the shifted blocks through :meth:`WarmLP._grow`,
        which does not check them again.
        """
        r, s = self.payoff.shape
        columns = np.empty((r, 0)) if columns is None else _payoff(columns, rows=r)
        width = s + columns.shape[1]
        rows = np.empty((0, width)) if rows is None else _payoff(rows, columns=width)
        self._lp._grow(
            (_shifted(columns, self.scale).T, np.ones(width - s)) if width > s else None,
            (_shifted(rows, self.scale).T, np.ones(len(rows))) if len(rows) else None,
        )
        P = np.empty((r + len(rows), width))
        P[:r, :s], P[:r, s:], P[r:] = self.payoff, columns, rows
        self.payoff = P

    def solve(self, iterate: bool = False) -> tuple[np.ndarray, np.ndarray, float]:
        """``(row_mix, col_mix, value)``, as :func:`solve_matrix_game` returns.

        ``iterate`` solves the LP as an iterate (:meth:`WarmLP.solve`), and
        ``confirmed`` tells afterwards whether the answer is confirmed.  An
        iterate whose mixes miss the bracket is solved again, confirmed, so
        the error, if any, comes from a confirmed solve.  A confirmed
        optimum that misses raises :class:`SolverError`: the kernel stops
        at reduced costs down to round-off, so a player row concedes about
        ``_kernel.OPTIMAL_TOL * (scale + value)`` in payoff units.
        """
        sol = self._lp.solve(iterate=iterate)
        self.confirmed = sol.confirmed
        if not self.confirmed:
            try:
                return self._answer(sol)
            except SolverError:
                self.confirmed = True
                sol = self._lp.solve()
        return self._answer(sol)

    def _answer(self, sol: LpSolution) -> tuple[np.ndarray, np.ndarray, float]:
        P = self.payoff
        return _equilibrium(P, self.scale, float(P.max()) - float(P.min()), sol)


def solve_matrix_game(payoff) -> tuple[np.ndarray, np.ndarray, float]:
    """Value and optimal mixes of a finite zero-sum game.

    The row player picks ``i`` to minimize ``payoff[i, j]``; the column
    player picks ``j`` to maximize it.  Returns ``(row_mix, col_mix, value)``
    with ``value = min_y max_j y @ payoff[:, j]``.

    This is a :class:`MatrixGame` over ``P - lo`` with ``lo = min P``, solved
    once and with ``lo`` added back to its value.  Its entries are
    nonnegative, so the game LP is over ``Q = 1 + (P - lo) / span`` with
    entries in [1, 2], and its first solve starts from the feasible slack
    basis.  The row mix is ``t / sum(t)``, the column mix the normalised row
    duals, and the value ``lo + span * (1 / sum(t) - 1)``.  The answer
    certifies itself: both mixes must bracket the value within
    ``1e-9 * max(span, 1)``, else :class:`SolverError` is raised.
    """
    P = _payoff(payoff)
    lo = float(P.min())
    row_mix, col_mix, value = MatrixGame(P - lo).solve()
    return row_mix, col_mix, value + lo
