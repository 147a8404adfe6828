"""Dense simplex with dual extraction, a warm-startable LP and matrix games.

The solver runs on a condensed tableau, ``B⁻¹[A_N | b]`` over the nonbasic
columns only, with their reduced costs, next to a ``nonbasic`` index array;
pivot tolerance is 1e-9 and infinities are explicit bound markers.  Upper
bounds ``0 <= x <= u`` are native: a nonbasic variable sits at 0 or at its
bound, where it is stored complemented (``x' = u - x``: its column and
reduced cost negated, the bound folded into the right-hand side, flagged in
a per-variable ``flipped`` array), so no bound is a row.  The pivot loop is
the package's hot kernel and lives in ``_kernel``, a dense numpy basis
exchange per pivot: a dual pass while some basic variable is out of its
bounds (dual feasible columns first, largest infeasibility first, a
bound-flipping ratio test, dual Bland's rule once it stalls), then a primal
pass whose ratio test includes the entering variable's own bound flip; both
break ties by variable index.  The primal pass enters by Bland's rule on
warm solves (generated cutting-plane rows are often degenerate) and by
Dantzig's rule, with Bland's as its anti-stall fallback, on the cold solves
of ``solve_lp``.  The solvers here run it in bursts and accept a claim only
after an exact refresh (``_refresh``) and a kernel run that confirms it
without pivoting.  Every row has one unit column (a slack or an
artificial); the refresh drops the basic ones and factors only the square
block of the basis that is left.

:class:`WarmLP` is ``max c·x s.t. A x <= b, 0 <= x <= u`` with ``b >= 0``.
Its first solve starts from the feasible slack basis, whose tableau is the
data itself.  It keeps each confirmed tableau and re-optimises from it after
``add_rows`` (the new slacks join the basis, which stays dual feasible, so
the dual pass restores primal feasibility) or ``add_columns`` (the new
variables start at zero, the basis stays primal feasible, and the primal
pass lets them enter); both extend the kept tableau in place of a refresh,
so a warm solve that ends within one burst refreshes once.
:class:`MatrixGame` is a zero-sum game that grows by strategies, solved on
one WarmLP; the double oracle and the adversary cutting-plane LP each keep
one, and ``decompose`` keeps a WarmLP, with ``t <= 2`` as bounds, for its
dual deviation LP (spanning trees and explicit families).
``solve_lp`` is the two-phase solver for general callers (among them the
compact k-selection LP of ``solvers``, whose box ``0 <= p <= 1`` is n
bounds), on the same kernel and refresh.  It shifts every variable onto
``[0, u]`` and splits a free variable into its positive and negative parts
(the compact LP has one free column, so a third nonbasic state in every
ratio test would not pay).  Phase 1 runs only when some row is ``=`` or
``>=`` after the rhs is made nonnegative, so the one-shot game LP of
``solve_matrix_game``, whose rows are all ``<=`` with rhs 1, starts from its
feasible slack basis.  Artificials stay locked in phase 2, and a row's dual
is read off the reduced cost of its unit column (0 while that is basic).

Dual sign convention, for ``sense="min"``: multipliers of ``<=`` rows are
nonpositive, ``>=`` rows nonnegative, ``=`` rows free, and the dual
objective (rhs times duals plus bound terms) equals the primal objective at
optimality.  For ``sense="max"`` all multipliers flip sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import SolverError

from . import _kernel

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
# Pivots per kernel burst between exact tableau refreshes; bounds how far
# round-off can compound before being wiped.
BURST_PIVOTS = 1024

LESS, EQUAL, GREATER = "<=", "=", ">="
_RELATIONS = (LESS, EQUAL, GREATER)


def kernel_backend() -> str:
    """Name of the pivot kernel, recorded in benchmark stamps: always "python"."""
    return "python"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Dense LP: optimize ``objective @ x`` subject to rows and bounds.

    ``lower``/``upper`` default to 0 and +inf; use ``-np.inf``/``np.inf``
    explicitly for free or one-sided variables.
    """

    objective: np.ndarray
    lhs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    sense: str = "min"

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.asarray(self.lhs, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        if A.ndim != 2:
            A = A.reshape(len(b), -1)
        m, n = A.shape
        if c.shape != (n,) or b.shape != (m,) or len(self.relations) != m:
            raise ValueError("inconsistent LP dimensions")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("LP coefficients must be finite")
        if any(r not in _RELATIONS for r in self.relations):
            raise ValueError("relations must be one of <=, =, >=")
        lo = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float)
        hi = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("bound vectors must match the variable count")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
            raise ValueError("bounds must satisfy lower <= upper")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValueError("bounds may be infinite only outward")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", A)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n_rows(self) -> int:
        return self.lhs.shape[0]

    @property
    def n_vars(self) -> int:
        return self.lhs.shape[1]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Result of one solve; ``duals`` has one multiplier per original row.

    ``reason`` names the cause of a ``breakdown`` and is None otherwise:
    "budget" (the pivot budget ran out), "singular-basis" (an exact refresh
    found the basis numerically singular), "dual-infeasible" (the dual pass
    met a violated row that no column can repair) or "phase-1-unbounded"
    (phase 1 claimed an unbounded ray, which exact arithmetic rules out).
    ``dual_pivots`` counts the pivots of the kernel's dual passes and
    ``primal_pivots`` those of its primal passes, with ``solve_lp``'s
    pivots that drive zero-valued artificials out of the basis; their sum is
    ``pivots``.  A pivot is a basis exchange or a primal bound flip (a
    nonbasic variable moving to its other bound without a basis change);
    the flips of a bound-flipping dual ratio test are part of their dual
    pivot.  ``refreshes`` counts the exact tableau refreshes the solve ran,
    on every outcome.
    """

    status: str  # optimal | infeasible | unbounded | breakdown
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
    def status_text(self) -> str:
        """The status, followed by the breakdown reason in parentheses."""
        return self.status if self.reason is None else f"{self.status} ({self.reason})"


def _refresh(T, basis, nonbasic, A, b, costs, unit_row, upper=None, flipped=None):
    """Recompute the tableau exactly from original data at the current basis.

    Long pivot runs accumulate round-off in the tableau (a single near-tol
    pivot element amplifies it); refreshing before trusting any optimality or
    unboundedness claim makes every accepted answer exact at its basis.

    Variables ``0..g-1`` have the columns of ``A`` (m × g); variable ``g + k``
    is the unit column of row ``unit_row[k]``, and every row has exactly one.
    The basic unit columns and their rows drop out of the basis matrix, so
    only the square block ``A[rows whose unit column is nonbasic, basic
    variables below g]`` is factored.  The rows of the basic unit columns
    follow from the same solve, and the reduced costs ``c_N - c_B B⁻¹A_N``
    from the refreshed rows, so a row's dual, the reduced cost of its unit
    column, comes from the same block too.  The nonbasic variables that
    ``flipped`` marks sit at their ``upper`` bound and are stored
    complemented: their columns are negated and the right-hand side is
    ``b - A_U u_U``.  Returns False when that block is numerically singular.
    """
    m, g = A.shape
    unit = basis >= g
    unit_rows = unit_row[basis[unit] - g]  # rows of the basic unit columns
    structural = basis[~unit]
    rest = np.ones(m, dtype=bool)  # as many rows as structural basics
    rest[unit_rows] = False
    # [A_N | b] in row space: a nonbasic unit column is e of its row
    data = np.zeros((m, len(nonbasic) + 1))
    general = nonbasic < g
    columns = general.nonzero()[0]
    data[:, columns] = A[:, nonbasic[columns]]
    columns = (~general).nonzero()[0]
    data[unit_row[nonbasic[columns] - g], columns] = 1.0
    data[:, -1] = b
    at_upper = _at_upper(nonbasic, flipped)
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
    _price(T, basis, nonbasic, costs, upper, flipped)
    return True


def _at_upper(nonbasic, flipped):
    """Columns of the nonbasic variables at their upper bound."""
    if flipped is None:
        return np.empty(0, dtype=np.intp)
    return flipped[nonbasic].nonzero()[0]


def _price(T, basis, nonbasic, costs, upper=None, flipped=None):
    """Fill the objective row of ``T`` from its constraint rows and ``costs``;
    a flipped column's cost is negated and its bound's cost is a constant."""
    m = len(basis)
    cost_n = costs[nonbasic]
    at_upper = _at_upper(nonbasic, flipped)
    if at_upper.size:
        cost_n[at_upper] *= -1.0
    T[m] = np.append(cost_n, 0.0) - costs[basis] @ T[:m]
    if at_upper.size:
        T[m, -1] -= costs[nonbasic[at_upper]] @ upper[nonbasic[at_upper]]


# Kernel status -> (status, reason) of a claim confirmed on fresh data.
_CLAIMS = {
    _kernel.STATUS_OPTIMAL: ("optimal", None),
    _kernel.STATUS_UNBOUNDED: ("unbounded", None),
    _kernel.STATUS_INFEASIBLE: ("breakdown", "dual-infeasible"),
}


def _run_phase(T, basis, nonbasic, locked, problem, budget, flipped=None, dantzig=False):
    """Kernel bursts interleaved with exact refreshes until a claim survives.

    ``problem`` is ``(A, b, costs, unit_row, upper)`` as :func:`_refresh`
    takes it, and ``flipped`` the nonbasic variables at their upper bound;
    ``T`` is only a starting point.  The kernel runs at most
    ``BURST_PIVOTS`` pivots at a time and the tableau is refreshed after
    every burst; a claim is accepted only when the kernel confirms it on a
    refreshed tableau without pivoting.  So a phase that ends within one
    burst refreshes once.  ``dantzig`` selects the kernel's primal pricing.
    Returns ``(status, reason, dual_pivots, primal_pivots, refreshes)``; see
    :class:`LpSolution` for the breakdown reasons.
    """
    upper = problem[4]
    dual = primal = refreshes = 0
    fresh = False
    while True:
        remaining = budget - dual - primal
        if remaining <= 0:
            return "breakdown", "budget", dual, primal, refreshes
        status, used, dual_used = _kernel.run_simplex(
            T, basis, nonbasic, locked, min(remaining, BURST_PIVOTS), PIVOT_TOL,
            upper=upper, flipped=flipped, dantzig=dantzig,
        )
        dual += dual_used
        primal += used - dual_used
        if fresh and used == 0 and status != _kernel.STATUS_PIVOT_LIMIT:
            return _CLAIMS[status] + (dual, primal, refreshes)
        refreshes += 1
        if not _refresh(T, basis, nonbasic, *problem, flipped=flipped):
            return "breakdown", "singular-basis", dual, primal, refreshes
        fresh = True


def _finite(*arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("LP coefficients must be finite")


class WarmLP:
    """``max c·x s.t. A x <= b, 0 <= x <= u`` with ``b >= 0``, re-solved warm.

    ``x = 0`` is always feasible, so the LP is never infeasible.  The upper
    bounds ``u`` (``upper``, a scalar or one per variable, ``inf`` for none)
    are native: a nonbasic variable sits at 0 or, complemented, at its bound
    (``flipped``), and no bound is a row.  An LP without a finite bound
    keeps neither array (both are None), so its solves do no bound work.  The LP keeps a condensed tableau,
    ``B⁻¹[A_N | b - A_U u_U]`` over its ``nonbasic`` variables with their
    reduced costs, for its ``basis``.  At creation that is the slack-basis
    tableau, built straight from the data; after every optimal solve it is
    the refreshed tableau that solve confirmed.  The next solve starts from
    it:

    * ``add_rows`` appends constraints whose slacks join the basis; their
      tableau rows are ``[a_N | b - a_U u_U] - a_B·T``.  The basis stays
      dual feasible, so the kernel's dual pass restores primal feasibility.
    * ``add_columns`` appends variables at zero, with no upper bound, with
      tableau column ``B⁻¹a`` and reduced cost ``-c - y·a``, both read off
      the columns of the nonbasic slacks.  The basis stays primal feasible
      and the primal pass lets them enter; the dual pass, which prefers dual
      feasible columns, leaves them out until then.

    The kept tableau is only a starting point: each answer is accepted only
    after an exact refresh at its final basis and a kernel run that confirms
    it without pivoting, so a solve that ends within one burst of pivots
    refreshes once.  The primal pass keeps Bland's rule: on these warm,
    degenerate LPs Dantzig pricing took more time.  ``basis``, ``nonbasic``
    and ``flipped`` index the layout ``[variables | slacks]``, one slack per
    row.
    """

    def __init__(self, objective, lhs, rhs, upper=None):
        self._c = np.asarray(objective, dtype=float)
        _finite(self._c)
        n = len(self._c)
        self._upper = self.flipped = None
        if upper is not None:
            u = np.array(np.broadcast_to(np.asarray(upper, dtype=float), (n,)))
            if np.any(np.isnan(u)) or np.any(u < 0.0):
                raise ValueError("WarmLP upper bounds must be nonnegative")
            if np.isfinite(u).any():
                self._upper, self.flipped = u, np.zeros(n, dtype=np.uint8)
        self._A = np.empty((0, n))
        self._b = np.empty(0)
        self.basis = np.empty(0, dtype=np.intp)
        self.nonbasic = np.arange(n, dtype=np.intp)
        self._T = np.append(-self._c, 0.0)[None, :]  # the kernel minimizes
        self.add_rows(lhs, rhs)  # the slack basis

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, variables)``."""
        return self._A.shape

    def _problem(self):
        """``(A, b, costs, unit_row, upper)`` for :func:`_refresh`: the
        slacks are units, and ``upper`` is None without a finite bound."""
        m = len(self._b)
        return (
            self._A, self._b, np.concatenate([-self._c, np.zeros(m)]), np.arange(m), self._upper
        )

    def add_rows(self, lhs, rhs) -> None:
        """Append constraints ``lhs @ x <= rhs``; their slacks enter the basis."""
        m, n = self._A.shape
        b = np.asarray(rhs, dtype=float)
        A = np.asarray(lhs, dtype=float).reshape(len(b), n)
        _finite(A, b)
        if np.any(b < 0.0):
            raise ValueError("WarmLP right-hand sides must be nonnegative")
        a = np.zeros((len(b), n + m))  # the old slacks are absent
        a[:, :n] = A
        rows = np.concatenate([a[:, self.nonbasic], b[:, None]], axis=1)
        at_upper = _at_upper(self.nonbasic, self.flipped)
        if at_upper.size:  # as _refresh lays out the flipped columns
            rows[:, -1] -= rows[:, at_upper] @ self._upper[self.nonbasic[at_upper]]
            rows[:, at_upper] *= -1.0
        rows -= a[:, self.basis] @ self._T[:m]
        self._T = np.concatenate([self._T[:m], rows, self._T[m:]])
        self._A = np.concatenate([self._A, A])
        self._b = np.concatenate([self._b, b])
        self.basis = np.concatenate([self.basis, n + m + np.arange(len(b))])
        if self._upper is not None:  # the new slacks are unbounded
            self._upper = np.concatenate([self._upper, np.full(len(b), np.inf)])
            self.flipped = np.concatenate([self.flipped, np.zeros(len(b), dtype=np.uint8)])

    def add_columns(self, lhs, objective) -> None:
        """Append variables with constraint columns ``lhs``, starting at zero."""
        m, n = self._A.shape
        c = np.asarray(objective, dtype=float)
        A = np.asarray(lhs, dtype=float).reshape(m, len(c))
        _finite(A, c)
        # The slack columns of the full tableau are B⁻¹ over -y (a basic
        # slack's column is e of its row, and no slack is flipped): B⁻¹a and
        # -y·a read off them.
        full = np.zeros((m + 1, n + m))
        full[:, self.nonbasic] = self._T[:, :-1]
        full[np.arange(m), self.basis] = 1.0
        cols = full[:, n:] @ A
        cols[m] -= c
        shift = len(c)
        self.basis = np.where(self.basis >= n, self.basis + shift, self.basis)
        self.nonbasic = np.concatenate([
            np.where(self.nonbasic >= n, self.nonbasic + shift, self.nonbasic),
            n + np.arange(shift),
        ])
        if self._upper is not None:  # the new variables are unbounded
            self._upper = np.concatenate(
                [self._upper[:n], np.full(shift, np.inf), self._upper[n:]]
            )
            self.flipped = np.concatenate(
                [self.flipped[:n], np.zeros(shift, dtype=np.uint8), self.flipped[n:]]
            )
        self._T = np.concatenate([self._T[:, :-1], cols, self._T[:, -1:]], axis=1)
        self._A = np.concatenate([self._A, A], axis=1)
        self._c = np.concatenate([self._c, c])

    def solve(self) -> LpSolution:
        """Re-optimise from the kept tableau; row duals are nonnegative."""
        m, n = self._A.shape
        T, basis, nonbasic = self._T.copy(), self.basis.copy(), self.nonbasic.copy()
        flipped = None if self.flipped is None else self.flipped.copy()
        budget = 10 * (2 * m + n) ** 2
        status, reason, dual, primal, refreshes = _run_phase(
            T, basis, nonbasic, None, self._problem(), budget, flipped=flipped
        )
        if status != "optimal":
            return LpSolution(status, None, None, None, dual, primal, reason, refreshes)
        self._T, self.basis, self.nonbasic, self.flipped = T, basis, nonbasic, flipped
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


def solve_lp(lp: LinearProgram, max_pivots: int | None = None) -> LpSolution:
    """Two-phase dense simplex returning primal and dual solutions.

    Both phases start from the slack/artificial basis and price the primal
    pass by Dantzig's rule (see :mod:`._kernel`).  Finite upper bounds are
    native; a free variable is split into its positive and negative parts.
    """
    minimize = lp.sense == "min"
    c = lp.objective if minimize else -lp.objective

    # --- variable transform: internal variables get bounds [0, width] ---
    n = lp.n_vars
    cols = []  # internal column vectors of the original rows
    costs = []
    widths = []  # upper bound of each internal column
    recover = []  # (kind, original index, data...) per internal column
    b_shift = np.zeros(lp.n_rows)
    for j in range(n):
        lo, hi = lp.lower[j], lp.upper[j]
        aj = lp.lhs[:, j]
        if lo == -np.inf and hi == np.inf:
            cols += [aj, -aj]
            costs += [c[j], -c[j]]
            widths += [np.inf, np.inf]
            recover += [("pos", j), ("negpart", j)]
        elif lo == -np.inf:  # x = hi - t
            cols.append(-aj)
            costs.append(-c[j])
            widths.append(np.inf)
            recover.append(("from_upper", j, hi))
            b_shift += aj * hi
        else:  # x = lo + t, t <= hi - lo
            cols.append(aj)
            costs.append(c[j])
            widths.append(hi - lo)
            recover.append(("from_lower", j, lo))
            if lo != 0.0:
                b_shift += aj * lo

    nt = len(cols)
    m = lp.n_rows
    A = np.zeros((m, nt))
    if nt:
        A[:] = np.column_stack(cols)
    b = lp.rhs - b_shift
    rels = list(lp.relations)
    c_int = np.asarray(costs, dtype=float)

    # --- row normalization: nonnegative rhs, remember the sign flips ---
    flips = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] = -b[i]
            flips[i] = -1.0
            if rels[i] != EQUAL:
                rels[i] = LESS if rels[i] == GREATER else GREATER

    # --- layout: [structural | surplus | slack | artificial] ---
    # Each row has one unit column, its slack or its artificial; it starts
    # basic, and it is the row's marker: the row's dual is minus its final
    # reduced cost (0 while it is basic).
    surplus_rows = [i for i in range(m) if rels[i] == GREATER]
    slack_rows = [i for i in range(m) if rels[i] == LESS]
    art_rows = [i for i in range(m) if rels[i] != LESS]
    g = nt + len(surplus_rows)
    A_gen = np.zeros((m, g))
    A_gen[:, :nt] = A
    A_gen[surplus_rows, nt + np.arange(len(surplus_rows))] = -1.0
    unit_row = np.array(slack_rows + art_rows, dtype=np.intp)
    art_base = g + len(slack_rows)
    width = g + m  # variables
    upper = np.full(width, np.inf)
    upper[:nt] = widths
    flipped = np.zeros(width, dtype=np.uint8)
    markers = np.empty(m, dtype=np.intp)
    markers[unit_row] = g + np.arange(m)
    basis = markers.copy()
    nonbasic = np.arange(g, dtype=np.intp)
    T = np.zeros((m + 1, g + 1))
    T[:m, :-1] = A_gen
    T[:m, -1] = b

    budget = 10 * (m + width) ** 2 if max_pivots is None else max_pivots
    dual = primal = refreshes = 0

    # --- phase 1: minimize the artificial sum ---
    if art_rows:
        costs_one = np.zeros(width)
        costs_one[art_base:] = 1.0
        _price(T, basis, nonbasic, costs_one)
        status, reason, dual, primal, refreshes = _run_phase(
            T, basis, nonbasic, None,
            (A_gen, b, costs_one, unit_row, upper), budget, flipped=flipped, dantzig=True,
        )
        if status == "unbounded":  # a verified-unbounded phase 1 cannot happen
            return LpSolution(
                "breakdown", None, None, None, dual, primal, "phase-1-unbounded", refreshes
            )
        if status != "optimal":
            return LpSolution(status, None, None, None, dual, primal, reason, refreshes)
        if -T[m, -1] > FEAS_TOL:
            return LpSolution("infeasible", None, None, None, dual, primal, refreshes=refreshes)
        # Pivot zero-valued artificials out wherever the row allows it; rows
        # that stay all-zero over the other columns are redundant and inert.
        for i in range(m):
            if basis[i] >= art_base:
                nz = np.flatnonzero((nonbasic < art_base) & (np.abs(T[i, :-1]) > PIVOT_TOL))
                if nz.size:
                    enter = int(nz[np.argmin(nonbasic[nz])])
                    var = nonbasic[enter]
                    _kernel.pivot_inplace(T, basis, nonbasic, i, enter)
                    if flipped[var]:  # basic variables are never complemented
                        flipped[var] = 0
                        _kernel.complement_row(T, i, upper[var])
                    primal += 1

    # --- phase 2: the artificials stay locked ---
    costs_two = np.zeros(width)
    costs_two[:nt] = c_int
    _price(T, basis, nonbasic, costs_two, upper, flipped)
    locked = np.zeros(width, dtype=np.uint8)
    locked[art_base:] = 1
    status, reason, dual_two, primal_two, more = _run_phase(
        T, basis, nonbasic, locked, (A_gen, b, costs_two, unit_row, upper),
        budget - dual - primal, flipped=flipped, dantzig=True,
    )
    dual += dual_two
    primal += primal_two
    refreshes += more
    if status != "optimal":
        return LpSolution(status, None, None, None, dual, primal, reason, refreshes)

    # --- recover primal, duals, objective in the original variable space ---
    x_int = np.zeros(width)
    x_int[basis] = T[:m, -1]
    at_upper = flipped != 0
    x_int[at_upper] = upper[at_upper]
    x = np.zeros(n)
    for col_idx, rec in enumerate(recover):
        kind, j = rec[0], rec[1]
        if kind == "pos":
            x[j] += x_int[col_idx]
        elif kind == "negpart":
            x[j] -= x_int[col_idx]
        elif kind == "from_upper":
            x[j] = rec[2] - x_int[col_idx]
        else:  # from_lower
            x[j] = rec[2] + x_int[col_idx]

    reduced = np.zeros(width)
    reduced[nonbasic] = T[m, :-1]
    duals = -flips * reduced[markers]
    objective = float(lp.objective @ x)
    if not minimize:
        duals = -duals
    return LpSolution("optimal", x, duals, objective, dual, primal, refreshes=refreshes)


def _payoff(payoff) -> np.ndarray:
    P = np.asarray(payoff, dtype=float)
    if P.ndim != 2 or P.size == 0:
        raise ValueError("payoff must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(P)):
        raise ValueError("payoff entries must be finite")
    return P


def _shifted(P, lo, scale) -> np.ndarray:
    """``Q = 1 + (P - lo) / scale``, which the game LP needs positive."""
    Q = 1.0 + (P - lo) / scale
    if not np.all(Q > 0.0):
        raise SolverError(
            f"matrix-game payoff {P.min():.12g} is at or below lo - scale = "
            f"{lo - scale:.12g}, so the shifted game 1 + (P - lo)/scale is not positive"
        )
    return Q


def _equilibrium(P, lo, scale, sol: LpSolution):
    """``(row_mix, col_mix, value)`` from the game LP, checked to bracket."""
    if not sol.is_optimal:
        raise SolverError(f"matrix-game LP ended with status {sol.status_text}")
    # sum(t) = sum(duals) = 1 / value(Q) at the optimum
    t = np.clip(sol.x, 0.0, None)
    z = np.clip(sol.duals, 0.0, None)
    row_mix = t / t.sum()
    col_mix = z / z.sum()
    value = lo + scale * (1.0 / t.sum() - 1.0)
    tol = 1e-9 * max(float(P.max() - P.min()), 1.0)
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
    row and a constraint per column.  So ``add_rows`` appends LP columns
    (primal pass) and ``add_columns`` appends LP rows (dual pass).  The
    payoffs are regrets, which are nonnegative, so Q stays positive;
    ``scale`` is the largest initial payoff (1 if none is positive), fixed
    here, and an appended entry at or below ``-scale`` raises
    :class:`SolverError`.
    """

    def __init__(self, payoff):
        P = _payoff(payoff)
        top = float(P.max())
        self.scale = top if top > 0.0 else 1.0
        self.payoff = P
        r, s = P.shape
        self._lp = WarmLP(np.ones(r), _shifted(P, 0.0, self.scale).T, np.ones(s))

    def add_rows(self, rows) -> None:
        """Append row strategies, one payoff row each over the current columns."""
        rows = _payoff(rows)
        self._lp.add_columns(_shifted(rows, 0.0, self.scale).T, np.ones(len(rows)))
        self.payoff = np.vstack([self.payoff, rows])

    def add_columns(self, columns) -> None:
        """Append column strategies, one payoff column each over the current rows."""
        columns = _payoff(columns)
        self._lp.add_rows(_shifted(columns, 0.0, self.scale).T, np.ones(columns.shape[1]))
        self.payoff = np.hstack([self.payoff, columns])

    def solve(self) -> tuple[np.ndarray, np.ndarray, float]:
        """``(row_mix, col_mix, value)``, as :func:`solve_matrix_game` returns."""
        return _equilibrium(self.payoff, 0.0, self.scale, self._lp.solve())


def solve_matrix_game(payoff) -> tuple[np.ndarray, np.ndarray, float]:
    """Value and optimal mixes of a finite zero-sum game.

    The row player picks ``i`` to minimize ``payoff[i, j]``; the column
    player picks ``j`` to maximize it.  Returns ``(row_mix, col_mix, value)``
    with ``value = min_y max_j y @ payoff[:, j]``.

    This is :class:`MatrixGame`'s LP solved once, over
    ``Q = 1 + (P - lo) / span`` with ``lo = min P``, so ``Q`` has entries in
    [1, 2]: ``max 1·t s.t. Qᵀ t <= 1`` has only ``<=`` rows with rhs 1, so
    ``solve_lp`` starts it from its feasible slack basis and runs no
    phase 1.  The row mix is ``t / sum(t)``, the column mix the normalised
    row duals, and the value ``lo + span * (1 / sum(t) - 1)``.  The answer
    certifies itself: both mixes must bracket the value within
    ``1e-9 * max(span, 1)``, else :class:`SolverError` is raised.
    """
    P = _payoff(payoff)
    lo = float(P.min())
    span = float(P.max()) - lo or 1.0
    r, s = P.shape
    lp = LinearProgram(
        np.ones(r), _shifted(P, lo, span).T, (LESS,) * s, np.ones(s), sense="max"
    )
    return _equilibrium(P, lo, span, solve_lp(lp))
