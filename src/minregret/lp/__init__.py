"""Dense simplex with dual extraction, a warm-startable LP and matrix games.

The solver runs on a dense tableau with pivot tolerance 1e-9 and
infinities as explicit bound markers.  The pivot loop is the package's hot
kernel and lives in ``_kernel``, a dense numpy rank-one update per pivot: a
dual pass while some right-hand side is negative (dual feasible columns
first, largest infeasibility first, dual Bland's rule once it stalls), then a
primal pass with Bland's rule engaged permanently (generated cutting-plane
rows are often degenerate).  The solvers here run it in bursts between exact
tableau refreshes.

:class:`WarmLP` is ``max c·x s.t. A x <= b, x >= 0`` with ``b >= 0``.  Its
first solve starts from the feasible slack basis.  It keeps each optimal
basis and re-optimises from it after ``add_rows`` (the new slacks join the
basis, which stays dual feasible, so the dual pass restores primal
feasibility) or ``add_columns`` (the new variables start at zero, the basis
stays primal feasible, and the primal pass lets them enter).
:class:`MatrixGame` is a zero-sum game that grows by strategies, solved on
one WarmLP; the double oracle and the adversary cutting-plane LP each keep
one, and ``decompose`` keeps a WarmLP for its dual deviation LP.
``solve_lp`` is the two-phase solver for general callers; phase 1 runs only
when some row is ``=`` or ``>=`` after the rhs is made nonnegative, so the
one-shot game LP of ``solve_matrix_game``, whose rows are all ``<=`` with
rhs 1, starts from its feasible slack basis.

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
    """

    status: str  # optimal | infeasible | unbounded | breakdown
    x: np.ndarray | None
    duals: np.ndarray | None
    objective: float | None
    pivots: int
    reason: str | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def status_text(self) -> str:
        """The status, followed by the breakdown reason in parentheses."""
        return self.status if self.reason is None else f"{self.status} ({self.reason})"


def _refresh(T, basis, A_full, b_full, costs):
    """Recompute the tableau exactly from original data at the current basis.

    Long pivot runs accumulate round-off in the tableau (a single near-tol
    pivot element amplifies it); refreshing before trusting any optimality or
    unboundedness claim makes every accepted answer exact at its basis.
    Returns False when the basis matrix is numerically singular.
    """
    m = len(basis)
    if m == 0:
        T[0, :-1] = costs
        T[0, -1] = 0.0
        return True
    B = A_full[:, basis]
    try:
        body = np.linalg.solve(B, np.column_stack([A_full, b_full]))
        y = np.linalg.solve(B.T, costs[basis])
    except np.linalg.LinAlgError:
        return False
    T[:m, :-1] = body[:, :-1]
    T[:m, -1] = np.where(np.abs(body[:, -1]) < 1e-11, 0.0, body[:, -1])
    T[m, :-1] = costs - A_full.T @ y
    T[m, -1] = -float(costs[basis] @ T[:m, -1])
    # basic columns are exactly unit
    T[:, basis] = 0.0
    T[m, basis] = 0.0
    for i, col in enumerate(basis):
        T[i, col] = 1.0
    return True


# Kernel status -> (status, reason) of a claim confirmed on fresh data.
_CLAIMS = {
    _kernel.STATUS_OPTIMAL: ("optimal", None),
    _kernel.STATUS_UNBOUNDED: ("unbounded", None),
    _kernel.STATUS_INFEASIBLE: ("breakdown", "dual-infeasible"),
}


def _run_phase(T, basis, locked, A_full, b_full, costs, budget, pivots_so_far):
    """Kernel bursts interleaved with exact refreshes until a claim survives.

    The kernel runs at most ``BURST_PIVOTS`` pivots at a time; each burst
    starts from an exactly recomputed tableau, and a claim is accepted only
    when the kernel confirms it on fresh data without pivoting.  Returns
    ``(status, reason, total_pivots)``; see :class:`LpSolution` for the
    breakdown reasons.
    """
    total = pivots_so_far
    while True:
        if not _refresh(T, basis, A_full, b_full, costs):
            return "breakdown", "singular-basis", total
        remaining = budget - total
        if remaining <= 0:
            return "breakdown", "budget", total
        status, used = _kernel.run_simplex(
            T, basis, locked, min(remaining, BURST_PIVOTS), PIVOT_TOL
        )
        total += used
        if status == _kernel.STATUS_PIVOT_LIMIT:
            continue  # burst exhausted; refresh and resume
        if used == 0:
            return _CLAIMS[status] + (total,)


def _finite(*arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("LP coefficients must be finite")


class WarmLP:
    """``max c·x s.t. A x <= b, x >= 0`` with ``b >= 0``, re-solved warm.

    ``x = 0`` is always feasible, so the LP is never infeasible.  The first
    solve starts from the slack basis; every optimal solve keeps its basis,
    and the next solve starts from it:

    * ``add_rows`` appends constraints whose slacks join the basis.  The
      basis stays dual feasible, so the kernel's dual pass restores primal
      feasibility.
    * ``add_columns`` appends variables at zero.  The basis stays primal
      feasible and the primal pass lets them enter; the dual pass, which
      prefers dual feasible columns, leaves them out until then.

    Each answer is accepted only after an exact refresh at its final basis
    and a kernel run that confirms it without pivoting.  ``basis`` indexes
    the layout ``[variables | slacks]``, one slack per row.
    """

    def __init__(self, objective, lhs, rhs):
        self._c = np.asarray(objective, dtype=float)
        _finite(self._c)
        self._A = np.empty((0, len(self._c)))
        self._b = np.empty(0)
        self.basis = np.empty(0, dtype=np.intp)
        self.add_rows(lhs, rhs)  # the slack basis

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, variables)``."""
        return self._A.shape

    def add_rows(self, lhs, rhs) -> None:
        """Append constraints ``lhs @ x <= rhs``; their slacks enter the basis."""
        m, n = self._A.shape
        b = np.asarray(rhs, dtype=float)
        A = np.asarray(lhs, dtype=float).reshape(len(b), n)
        _finite(A, b)
        if np.any(b < 0.0):
            raise ValueError("WarmLP right-hand sides must be nonnegative")
        self._A = np.vstack([self._A, A])
        self._b = np.concatenate([self._b, b])
        self.basis = np.concatenate([self.basis, n + m + np.arange(len(b))])

    def add_columns(self, lhs, objective) -> None:
        """Append variables with constraint columns ``lhs``, starting at zero."""
        m, n = self._A.shape
        c = np.asarray(objective, dtype=float)
        A = np.asarray(lhs, dtype=float).reshape(m, len(c))
        _finite(A, c)
        self._A = np.hstack([self._A, A])
        self._c = np.concatenate([self._c, c])
        self.basis = np.where(self.basis >= n, self.basis + len(c), self.basis)

    def solve(self) -> LpSolution:
        """Re-optimise from the kept basis; row duals are nonnegative."""
        m, n = self._A.shape
        A_full = np.hstack([self._A, np.eye(m)])
        costs = np.concatenate([-self._c, np.zeros(m)])  # the kernel minimizes
        T = np.empty((m + 1, n + m + 1))
        basis = self.basis.copy()
        budget = 10 * (2 * m + n) ** 2
        status, reason, pivots = _run_phase(
            T, basis, np.zeros(n + m, dtype=np.uint8), A_full, self._b, costs, budget, 0
        )
        if status != "optimal":
            return LpSolution(status, None, None, None, pivots, reason)
        self.basis = basis
        x = np.zeros(n + m)
        x[basis] = T[:m, -1]
        return LpSolution(
            "optimal", x[:n], T[m, n : n + m].copy(), float(self._c @ x[:n]), pivots
        )


def solve_lp(lp: LinearProgram, max_pivots: int | None = None) -> LpSolution:
    """Two-phase dense simplex returning primal and dual solutions."""
    minimize = lp.sense == "min"
    c = lp.objective if minimize else -lp.objective

    # --- variable transform: all internal variables get bounds [0, inf) ---
    n = lp.n_vars
    cols = []  # internal column vectors of the original rows
    costs = []
    recover = []  # (kind, original index, data...) per internal column
    bound_rows = []  # (internal column, width of the box) for two-sided vars
    b_shift = np.zeros(lp.n_rows)
    for j in range(n):
        lo, hi = lp.lower[j], lp.upper[j]
        aj = lp.lhs[:, j]
        if lo == -np.inf and hi == np.inf:
            cols.append(aj)
            costs.append(c[j])
            recover.append(("pos", j))
            cols.append(-aj)
            costs.append(-c[j])
            recover.append(("negpart", j))
        elif lo == -np.inf:  # x = hi - t
            cols.append(-aj)
            costs.append(-c[j])
            recover.append(("from_upper", j, hi))
            b_shift += aj * hi
        else:  # x = lo + t, optionally boxed above
            cols.append(aj)
            costs.append(c[j])
            recover.append(("from_lower", j, lo))
            if lo != 0.0:
                b_shift += aj * lo
            if hi != np.inf:
                bound_rows.append((len(cols) - 1, hi - lo))

    nt = len(cols)
    m_orig = lp.n_rows
    m = m_orig + len(bound_rows)
    A = np.zeros((m, nt))
    if nt:
        A[:m_orig] = np.column_stack(cols)
    b = np.concatenate([lp.rhs - b_shift, [wd for _, wd in bound_rows]])
    rels = list(lp.relations) + [LESS] * len(bound_rows)
    for r, (col_idx, _) in enumerate(bound_rows):
        A[m_orig + r, col_idx] = 1.0
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

    # --- tableau layout: [structural | slack | surplus | artificial | rhs] ---
    slack_rows = [i for i in range(m) if rels[i] == LESS]
    surplus_rows = [i for i in range(m) if rels[i] == GREATER]
    art_rows = [i for i in range(m) if rels[i] != LESS]
    slack_at = {i: nt + p for p, i in enumerate(slack_rows)}
    surplus_base = nt + len(slack_rows)
    surplus_at = {i: surplus_base + p for p, i in enumerate(surplus_rows)}
    art_base = surplus_base + len(surplus_rows)
    art_at = {i: art_base + p for p, i in enumerate(art_rows)}
    width = art_base + len(art_rows) + 1

    T = np.zeros((m + 1, width))
    T[:m, :nt] = A
    T[:m, -1] = b
    basis = np.empty(m, dtype=np.intp)
    for i in range(m):
        if i in slack_at:
            T[i, slack_at[i]] = 1.0
            basis[i] = slack_at[i]
        else:
            if i in surplus_at:
                T[i, surplus_at[i]] = -1.0
            T[i, art_at[i]] = 1.0
            basis[i] = art_at[i]
    # marker column of each row: unit +e_i with zero phase-2 cost, kept in the
    # tableau, so the row's dual is minus its final reduced cost.
    markers = [slack_at.get(i, art_at.get(i)) for i in range(m)]

    budget = 10 * (m + width - 1) ** 2 if max_pivots is None else max_pivots
    pivots_total = 0
    A_full = T[:m, :-1].copy()
    b_full = T[:m, -1].copy()

    # --- phase 1: minimize the artificial sum ---
    if art_rows:
        costs_one = np.zeros(width - 1)
        costs_one[art_base:] = 1.0
        unlocked = np.zeros(width - 1, dtype=np.uint8)
        status, reason, pivots_total = _run_phase(
            T, basis, unlocked, A_full, b_full, costs_one, budget, pivots_total
        )
        if status == "unbounded":  # a verified-unbounded phase 1 cannot happen
            return LpSolution("breakdown", None, None, None, pivots_total, "phase-1-unbounded")
        if status != "optimal":
            return LpSolution(status, None, None, None, pivots_total, reason)
        if -T[m, -1] > FEAS_TOL:
            return LpSolution("infeasible", None, None, None, pivots_total)
        # Pivot zero-valued artificials out wherever the row allows it; rows
        # that stay all-zero over structural columns are redundant and inert.
        for i in range(m):
            if basis[i] >= art_base:
                row = T[i, :art_base]
                nz = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
                if nz.size:
                    _kernel.pivot_inplace(T, basis, i, int(nz[0]))
                    pivots_total += 1

    # --- phase 2 ---
    costs_two = np.zeros(width - 1)
    costs_two[:nt] = c_int
    locked = np.zeros(width - 1, dtype=np.uint8)
    locked[art_base:] = 1
    status, reason, pivots_total = _run_phase(
        T, basis, locked, A_full, b_full, costs_two, budget, pivots_total
    )
    if status != "optimal":
        return LpSolution(status, None, None, None, pivots_total, reason)

    # --- recover primal, duals, objective in the original variable space ---
    x_int = np.zeros(width - 1)
    x_int[basis] = T[:m, -1]
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

    duals_int = np.array([-T[m, markers[i]] for i in range(m)])
    duals = (flips * duals_int)[:m_orig]
    objective = float(lp.objective @ x)
    if not minimize:
        duals = -duals
    return LpSolution("optimal", x, duals, objective, pivots_total)


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
