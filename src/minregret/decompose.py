"""Recover an explicit mixed strategy from a marginal probability vector.

A marginal p is a strategy once it is written as a convex combination of
feasible indicator vectors.  Where the hull of the family has a compact
description, membership is a check of that description and the
decomposition is exact and near-linear:

* k-selection: the hull is the box [0, 1]^n (which every
  :class:`~minregret.core.MarginalVector` satisfies) cut by the row
  ``sum(p) = k``.  Systematic sampling (Madow 1949) lays p end to end on
  [0, k); an offset t in [0, 1) selects the items that cover t, t + 1, ...,
  t + k - 1.  The fractional parts of the cumulative sums cut [0, 1) into at
  most n intervals, each one set, with the interval's length as its
  probability.
* DAG path: the hull is the s-t flow polytope: flow balance at every node
  other than s and t, and unit net outflow at s.  Flow peeling (Ahuja,
  Magnanti & Orlin 1993, section 3.5) walks an s-t path along positive-flow
  arcs and subtracts its bottleneck.  Each peel zeroes at least one arc, so
  the support is at most n paths.

A row violated by more than ``tol`` rejects p, and the certificate is read
off that row: ``u = +-1`` and ``w = +-k`` for the cardinality row, and for a
flow row a node potential pi of +-1 on the violated node, with
``u[a] = pi(head) - pi(tail)`` and ``w = pi(t) - pi(s)``.

Every other family (spanning trees, explicit families) goes through a
cutting-plane LP.  The marginal p lies in the hull iff the deviation LP

    minimize  sum_e (lam_plus_e + lam_minus_e)
    subject to  sum over generated T containing e of y_T
                  + lam_plus_e - lam_minus_e = p_e          for every item e,
                sum_T y_T = 1,   y, lam >= 0

reaches zero.  It is solved in its dual form

    maximize  p @ u + w
    subject to  sum(u over T) + w <= 0     for every generated T,
                -1 <= u <= 1,   w free,

written for a :class:`~minregret.lp.WarmLP` with ``t = u + 1`` in [0, 2].
Only the fractional items F get a column.  An item with ``p <= PROB_DROP``
is fixed at ``u = -1`` (``t = 0``) and one with ``p >= 1 - PROB_DROP`` at
``u = +1`` (``t = 2``); O is the set of the items at 1.  With
``w' = w + 2|O| = w_plus - w_minus`` the LP is: maximize
``p_F @ t_F + w_plus - w_minus`` (the deviation plus a constant) subject to
``t_F(T) + w_plus - w_minus <= |T| + 2|O minus T|`` per generated T.  The box
``t_F <= 2`` is a native upper bound of the engine, not rows, so the LP has
one row per generated set.  Every right-hand side is nonnegative, so the
first solve starts from the feasible slack basis and no solve runs phase 1.

The LP starts from seed rows peeled greedily off p (a primal heuristic, as
column generation seeds its restricted master; Lübbecke & Desrosiers 2005):
from r = p, take the set T of most mass under r, one nominal solve at costs
-r, and its lightest item's mass lam = min of r over T, subtract lam from r
on T, and repeat, at most n times, until lam is at most ``PROB_DROP``.  Every
distinct T becomes a row, all in one ``add_rows``.  On a p in the hull these
sets carry most of its mass, so the cut loop starts from a mix that nearly
reproduces p instead of from one set.  Further rows are generated on
demand, one per solve:

* At an iterate (see :meth:`~minregret.lp.WarmLP.solve`), a leaning
  separation at costs ``-u - LEAN * p`` proposes, among the most violated
  sets, the one with the most marginal mass, which is likelier to end in
  the support.  It is a cut only if it is new and its own violation
  ``u(T) + w`` exceeds a tenth of ``tol``.
* Otherwise, and always at a confirmed solve, the exact separation decides:
  the most violated set, one nominal solve at costs -u over all n items,
  fixed ones included.  A new set violated by more than a tenth of ``tol``
  is the cut; else the loop stops.

Each cut appends one row, whose slack joins the kept optimal basis; the
dual pass restores feasibility from there instead of re-solving the grown
LP cold.  The loop runs on :func:`minregret.lp._generate`, which decides at
confirmed solves only, so the proposal only picks cuts; the stopping test,
the certificate and the errors never depend on it.

Fixing is sound on both sides of the hull.  The stopping test runs at the
full ``(u, w)``, so that pair is dual feasible for every feasible set, and
a ``p @ u + w`` above ``tol`` is a separating certificate in the normalized
form ``w - sum(u' over T) <= 0`` for all feasible T yet ``w - p @ u' > 0``,
with ``u' = -u``.  In the other direction, fixing u only restricts the dual.
Its primal keeps the rows of the fractional items and relaxes those of the
fixed ones: weight on a set that holds an item at 0, or misses an item at
1, costs 1 per unit instead of being ruled out.  A decomposition of p puts
at most PROB_DROP of weight per fixed item on such sets, so for a p in the
hull the restricted optimum is at most zero and p is never rejected.  The
duals of the set rows are the weights y_T of the strategy (at most n+1 of
them are nonzero at a basic optimum), and an in-hull verdict stands only
once they reproduce p within ``tol``.  The box on u keeps the LP bounded,
so an out-of-hull p degrades to a certified rejection.  A most violated set
that is already a row means the LP optimum disagrees with its own rows;
that raises :class:`SolverError` instead of a verdict.

Whatever the path, the strategy is accepted only if its marginal reproduces
p within ``tol``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    MAX_CUTS,
    PROB_DROP,
    FeasibleSet,
    MarginalVector,
    NotInHullError,
    PlayerMixedStrategy,
    SolverError,
    marginal_of_strategy,
)
from .lp import WarmLP, _generate
from .nominal import DagPathOracle, KSelectionOracle, NominalOracle


# Marginals within this of 1 count as 1 in systematic sampling; it exceeds
# the largest shift (2 * PROB_DROP) that cut merging applies to an item.
_FULL_MARGIN = 4 * PROB_DROP

# Weight of p in the decomposition LP's proposed cuts (costs -u - LEAN * p):
# small enough that it only breaks ties among the most violated sets.
LEAN = 1e-6


def decompose_marginal(
    p: MarginalVector, oracle: NominalOracle, tol: float = 1e-7
) -> PlayerMixedStrategy:
    """Mixed strategy whose marginal reproduces ``p`` within ``tol``.

    Raises :class:`NotInHullError` with a separating certificate when no such
    strategy exists.  The support never exceeds n + 1 sets: at most n for
    k-selection (one per interval of [0, 1)) and for DAG paths (one per
    zeroed arc), and at most n + 1 on the LP path (one per basic u or w
    variable at a basic optimum).  The LP path cuts at most ``MAX_CUTS``
    rows beyond its at most n seed rows, else raises
    :class:`IterationLimitError`.
    """
    if oracle.n != len(p):
        raise SolverError("marginal length differs from the oracle's item count")
    if isinstance(oracle, KSelectionOracle):
        return _systematic_sampling(p, oracle, tol)
    if isinstance(oracle, DagPathOracle):
        return _peel_paths(p, oracle, tol)
    return _decompose_by_rows(p, oracle, tol)


def _reconstructed(
    sets: list[FeasibleSet], weights, p: np.ndarray, tol: float
) -> PlayerMixedStrategy:
    """The strategy of ``sets`` at ``weights``, if it reproduces p within tol."""
    # cleaning drops round-off below PROB_DROP and renormalizes
    strategy = PlayerMixedStrategy.cleaned(sets, weights)
    err = np.max(np.abs(marginal_of_strategy(strategy).p - p))
    if err > tol:
        raise SolverError(
            f"decomposition reconstruction error {err:.3g} exceeds tol {tol:.3g}"
        )
    return strategy


def _offset_intervals(q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Systematic sampling of ``q`` (each below 1, summing to at least k up
    to round-off): one indicator row per interval of offsets in [0, 1), with
    exactly k ones, and the interval lengths, each above ``PROB_DROP``.
    """
    if k == 0:
        return np.zeros((1, len(q)), dtype=np.int8), np.ones(1)
    S = np.cumsum(q)
    S *= k / S[-1]  # shrinks every item, so none grows past one unit
    S[-1] = k  # item i covers [S[i-1], S[i]) of [0, k)
    F = np.floor(S)
    f = S - F  # exact: the fractional bits of S
    # A fraction within round-off of 1 wraps to 0 of the next unit.
    wrap = f > 1.0 - PROB_DROP
    F[wrap] += 1.0
    f[wrap] = 0.0
    # Fractions within PROB_DROP above a cut move down onto it, so no
    # interval is a round-off sliver.  The move keeps S nondecreasing, and
    # each item shorter than one unit, since every q is more than
    # _FULL_MARGIN below 1.
    cuts = [0.0]
    for c in np.sort(f):
        if c - cuts[-1] > PROB_DROP:
            cuts.append(float(c))
    cuts = np.array(cuts)
    f = cuts[np.searchsorted(cuts, f, side="right") - 1]
    # For offsets in [c, next cut), G[r, i] counts the points c + j
    # (j = 0, 1, ...) below S[i]: j < F[i], or j == F[i] and c < f[i].
    G = F.astype(np.int32) + (f[None, :] > cuts[:, None])
    rows = np.diff(G, axis=1, prepend=0).astype(np.int8)
    return rows, np.diff(np.append(cuts, 1.0))


def _systematic_sampling(
    p: MarginalVector, oracle: KSelectionOracle, tol: float
) -> PlayerMixedStrategy:
    p_arr, k = p.p, oracle.k
    total = float(p_arr.sum())
    gap = k - total
    if abs(gap) > tol:
        sign = 1.0 if gap > 0 else -1.0
        raise NotInHullError(
            f"marginal is outside the feasible hull (sum {total:.9g} differs from k={k})",
            u=np.full(len(p_arr), sign),
            w=sign * k,
        )
    # Raise a short sum onto k inside the box: every coordinate moves toward
    # 1 by at most gap <= tol.  Sampling scales a long sum down.
    q = p_arr
    if gap > 0:
        q = p_arr + gap * (1.0 - p_arr) / (len(p_arr) - total)
    # Items at 1 are in every set; sampling the rest keeps each item's
    # stretch of [0, k) shorter than one unit, so no offset picks it twice.
    full = q > 1.0 - _FULL_MARGIN
    rest, lengths = _offset_intervals(q[~full], k - int(full.sum()))
    rows = np.ones((len(lengths), len(p_arr)), dtype=np.int8)
    rows[:, ~full] = rest
    return _reconstructed([FeasibleSet(row) for row in rows], lengths, p_arr, tol)


def _peel_paths(
    p: MarginalVector, oracle: DagPathOracle, tol: float
) -> PlayerMixedStrategy:
    p_arr = p.p
    s, t = oracle.source, oracle.target
    tails, heads = np.array(oracle.arcs).T
    # excess[v] = net outflow minus its target: 1 at s, 0 at inner nodes;
    # the row of t is implied by the others.
    excess = np.bincount(tails, p_arr, oracle.vertices) - np.bincount(
        heads, p_arr, oracle.vertices
    )
    excess[s] -= 1.0
    excess[t] = 0.0
    v = int(np.argmax(np.abs(excess)))
    if abs(excess[v]) > tol:
        pi = np.zeros(oracle.vertices)
        pi[v] = np.sign(excess[v])
        raise NotInHullError(
            f"marginal is outside the feasible hull (flow balance off by "
            f"{excess[v]:.3g} at node {v})",
            u=pi[heads] - pi[tails],
            w=pi[t] - pi[s],
        )

    # Only arcs whose head reaches t, so that a walk never enters a dead end
    # (which flow within tol of balance may lead into).
    to_t = [False] * oracle.vertices
    to_t[t] = True
    for node in reversed(oracle.topo):
        if any(to_t[head] for _, head in oracle.out[node]):
            to_t[node] = True
    onward = [
        [idx for idx, head in oracle.out[node] if to_t[head]]
        for node in range(oracle.vertices)
    ]

    flow = p_arr.tolist()
    head_of = heads.tolist()
    paths, weights = [], []
    for _ in range(oracle.n):
        path, node = [], s
        while node != t:
            # the fullest arc onward; the first (lowest index) among ties
            idx = max(onward[node], key=flow.__getitem__)
            path.append(idx)
            node = head_of[idx]
        neck = min(path, key=flow.__getitem__)
        weight = flow[neck]
        if weight <= 0.0:
            break
        for idx in path:
            flow[idx] -= weight  # exactly 0 at the neck
        paths.append(FeasibleSet.from_indices(oracle.n, path))
        weights.append(weight)
    return _reconstructed(paths, weights, p_arr, tol)


def _decompose_by_rows(
    p: MarginalVector, oracle: NominalOracle, tol: float = 1e-7
) -> PlayerMixedStrategy:
    """The cutting-plane LP of the module docstring, for any family: seed
    rows peeled off p, leaning proposals at iterates, and every verdict from
    the exact separation at a confirmed solve."""
    p_arr = p.p
    sep_tol = tol / 10.0  # inner column-pricing margin, decoupled from tol

    # Items within PROB_DROP of 0 keep u = -1 (t = 0) and those within
    # PROB_DROP of 1 keep u = +1 (t = 2); only the fractional items F are LP
    # columns, and w' = w + 2|O| over the items O at 1 keeps every rhs >= 0.
    one = p_arr >= 1.0 - PROB_DROP
    frac = np.flatnonzero(~one & (p_arr > PROB_DROP))
    u = np.where(one, 1.0, -1.0)  # the LP sets u on F
    shift = 2.0 * float(one.sum())

    # variables t_F in [0, 2], w'+, w'-; one row per generated T
    lp = WarmLP(
        np.concatenate([p_arr[frac], [1.0, -1.0]]),
        np.empty((0, len(frac) + 2)),
        [],
        upper=np.concatenate([np.full(len(frac), 2.0), [np.inf, np.inf]]),
    )
    columns: list[FeasibleSet] = []

    def extend(sets: list[FeasibleSet]) -> None:
        """Append the row ``t_F(T) + w'+ - w'- <= |T| + 2|O minus T|`` of
        every T in ``sets``."""
        columns.extend(sets)
        X = np.array([T.indicator for T in sets])
        rows = np.ones((len(sets), len(frac) + 2))
        rows[:, :-2] = X[:, frac]
        rows[:, -1] = -1.0
        rhs = X.sum(axis=1) + 2 * np.count_nonzero(one & (X == 0), axis=1)
        lp.add_rows(rows, rhs)

    # Seed rows: sets peeled greedily off p, each the heaviest set under
    # what is left of p and taken out at its lightest item.
    peeled: dict[FeasibleSet, None] = {}  # distinct sets, in peeling order
    rest = p_arr.copy()
    for _ in range(oracle.n):
        T = oracle.solve(-rest)[0]
        peeled[T] = None
        members = T.indicator.astype(bool)
        lam = float(rest[members].min()) if members.any() else 0.0
        if lam <= PROB_DROP:
            break
        rest[members] -= lam
    extend(list(peeled))

    def step(iterate, seen):
        sol = lp.solve(iterate=iterate)
        if not sol.is_optimal:
            raise SolverError(f"decomposition LP ended with status {sol.status_text}")
        u[frac] = sol.x[:-2] - 1.0
        w = float(sol.x[-2] - sol.x[-1]) - shift
        if not sol.confirmed:
            # A proposal: among the most violated sets, the one with the most
            # marginal mass.  It is a cut only if it is new and its own
            # violation u(T) + w clears sep_tol.
            T_new = oracle.solve(-u - LEAN * p_arr)[0]
            if float(u @ T_new.indicator) + w > sep_tol and T_new not in seen:
                return False, [(T_new, T_new)], None, None, None
        # Most violated row over all feasible sets, at the full u: maximize
        # sum(u over T), i.e. one nominal solve at costs -u.
        T_new, neg_val = oracle.solve(-u)
        violation = (-neg_val) + w  # = max_T sum(u over T) + w
        if violation > sep_tol:
            stall = (
                f"decomposition LP re-generated a set it already holds, "
                f"violated by {violation:.3g}"
            )
            return sol.confirmed, [(T_new, T_new)], None, stall, None
        return sol.confirmed, [], (w, sol.duals), None, None

    exceeded = f"decomposition exceeded {MAX_CUTS} generated columns"
    (w, duals), _ = _generate(step, extend, set(columns), MAX_CUTS, exceeded)
    deviation = float(p_arr @ u + w)
    if deviation > tol:
        # Certificate in the standard orientation (see module docstring).
        raise NotInHullError(
            f"marginal is outside the feasible hull (L1 deviation {deviation:.3g})",
            u=-u,
            w=w,
        )
    # the row duals are the weights
    return _reconstructed(columns, duals, p_arr, tol)
