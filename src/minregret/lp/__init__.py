"""Dense two-phase simplex with dual extraction, plus a matrix-game solver.

The solver runs on a dense tableau with Bland's rule engaged permanently
(generated cutting-plane rows are often degenerate), pivot tolerance 1e-9,
and infinities as explicit bound markers.  The pivot loop is the package's
hot kernel and lives in ``_kernel``, a dense numpy rank-one update per pivot;
``solve_lp`` drives it in bursts between exact tableau refreshes.

Phase 1 runs only when some row is ``=`` or ``>=`` after the rhs is made
nonnegative.  The package's own LPs (``solve_matrix_game``, which also
serves the adversary cutting-plane LP, and the dual deviation LP of
``decompose``) are written with ``<=`` rows and nonnegative right-hand sides,
so they start from their feasible slack basis and skip it; phase 1 remains
for general ``solve_lp`` callers.

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
    """Result of one solve; ``duals`` has one multiplier per original row."""

    status: str  # optimal | infeasible | unbounded | breakdown
    x: np.ndarray | None
    duals: np.ndarray | None
    objective: float | None
    pivots: int

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


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


def _run_phase(T, basis, locked, A_full, b_full, costs, budget, pivots_so_far):
    """Kernel bursts interleaved with exact refreshes until a claim survives.

    The kernel runs at most ``BURST_PIVOTS`` pivots at a time; each burst
    starts from an exactly recomputed tableau, and a claim (optimal or
    unbounded) is accepted only when the kernel confirms it on fresh data
    without pivoting.  Returns ``(status, total_pivots)`` where status may
    be "breakdown" (budget exhausted or numerically singular basis).
    """
    total = pivots_so_far
    while True:
        if not _refresh(T, basis, A_full, b_full, costs):
            return "breakdown", total
        remaining = budget - total
        if remaining <= 0:
            return "breakdown", total
        status, used = _kernel.run_simplex(
            T, basis, locked, min(remaining, BURST_PIVOTS), PIVOT_TOL
        )
        total += used
        if status == _kernel.STATUS_PIVOT_LIMIT:
            continue  # burst exhausted; refresh and resume
        if used == 0:
            return ("optimal" if status == _kernel.STATUS_OPTIMAL else "unbounded"), total


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
        status, pivots_total = _run_phase(
            T, basis, unlocked, A_full, b_full, costs_one, budget, pivots_total
        )
        if status != "optimal":  # a verified-unbounded phase 1 cannot happen
            return LpSolution("breakdown", None, None, None, pivots_total)
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
    status, pivots_total = _run_phase(
        T, basis, locked, A_full, b_full, costs_two, budget, pivots_total
    )
    if status == "breakdown":
        return LpSolution("breakdown", None, None, None, pivots_total)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, None, pivots_total)

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


def solve_matrix_game(payoff) -> tuple[np.ndarray, np.ndarray, float]:
    """Value and optimal mixes of a finite zero-sum game.

    The row player picks ``i`` to minimize ``payoff[i, j]``; the column
    player picks ``j`` to maximize it.  Returns ``(row_mix, col_mix, value)``
    with ``value = min_y max_j y @ payoff[:, j]``.

    The payoff is mapped onto ``M = 1 + (hi - P) / span`` with entries in
    [1, 2], and the column player's LP ``max 1·z s.t. M z <= 1, z >= 0``
    starts from its feasible slack basis, so no phase 1 runs.  The answer
    certifies itself: both mixes must bracket the value within
    ``1e-9 * max(span, 1)``, else :class:`SolverError` is raised.
    """
    P = np.asarray(payoff, dtype=float)
    if P.ndim != 2 or P.size == 0:
        raise ValueError("payoff must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(P)):
        raise ValueError("payoff entries must be finite")
    r, s = P.shape
    hi = float(P.max())
    span = hi - float(P.min())
    if span <= 0.0:
        span = 1.0
    M = 1.0 + (hi - P) / span
    lp = LinearProgram(np.ones(s), M, (LESS,) * r, np.ones(r), sense="max")
    sol = solve_lp(lp)
    if not sol.is_optimal:
        raise SolverError(f"matrix-game LP ended with status {sol.status}")
    # sum(z) = sum(y) = 1 / value(M) >= 1/2 at the optimum
    z = np.clip(sol.x, 0.0, None)
    y = np.clip(sol.duals, 0.0, None)
    col_mix = z / z.sum()
    row_mix = y / y.sum()
    value = hi - span * (1.0 / z.sum() - 1.0)
    tol = 1e-9 * max(span, 1.0)
    row_worst = float((row_mix @ P).max())
    col_worst = float((P @ col_mix).min())
    if not (abs(row_worst - value) <= tol and abs(col_worst - value) <= tol):  # NaN fails
        raise SolverError(
            f"matrix-game mixes do not bracket the value {value:.12g}: "
            f"row mix concedes {row_worst:.12g}, column mix secures {col_worst:.12g}"
        )
    return row_mix, col_mix, float(value)
