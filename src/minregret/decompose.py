"""Recover an explicit mixed strategy from a marginal probability vector.

A marginal p is a strategy once it is written as a convex combination of
feasible indicator vectors.  Where every feasible set has the same size k
(the oracle's ``set_size``: k for k-selection, ``V - 1`` for spanning trees,
where the hull is the graphic matroid's base polytope with ``x(E) = V - 1``,
Edmonds 1971), the hull lies on the row ``sum(p) = k``, and that row is
checked first, for every such family.  Where the hull of the family has a
compact description, membership is a check of that description and the
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
off that row: ``u = +-1`` and ``w = +-k`` for the set-size row, and for a
flow row a node potential pi of +-1 on the violated node, with
``u[a] = pi(head) - pi(tail)`` and ``w = pi(t) - pi(s)``.

Every other marginal (spanning trees on the set-size row, explicit
families) goes through Wolfe's
minimum-norm-point algorithm (Wolfe 1976, "Finding the nearest point in a
polytope") over ``conv(X) - p``, with the nominal oracle as its only access
to the family X: p is in the hull iff that polytope's point nearest the
origin is the origin.  A corral of affinely independent sets T, with
positive weights lam_T summing to 1, stands for ``x = sum_T lam_T (T - p)``.
A major step makes one nominal solve at costs x, and the set it returns
joins the corral.  Minor steps then move the weights toward the corral's
affine minimizer, read off the Gram matrix of the rows ``(1, T - p)``, and a
set whose weight reaches 0 on the way leaves.  ``max |x| <= tol`` ends the
run with the corral as the strategy, at most n + 1 sets.

A solve at costs u gives ``w = min_T u(T)``.  Where ``w - p @ u`` exceeds
the round-off of its dot products, ``(u, w)`` is the certificate; near the
nearest point x* of a p outside the hull one exists, since ``x* @ (T - p)
>= |x*|^2 > 0`` for every T.  Items with ``p <= PROB_DROP`` get ``2n + 1``
added to the costs, and items with ``p >= 1 - PROB_DROP`` get ``-(2n + 1)``.
As ``|x @ (T - T')| <= n``, the oracle then returns sets of p's face (off
the items at 0, on those at 1) while the face has one, which keeps the
corral small on sparse marginals; u is x plus that penalty.  A
decomposition of p puts at most PROB_DROP per such item off the face.  When
the face can neither decompose nor certify p, the run goes on over the
whole family.  A corral that re-generates a set it holds, without a
verdict, raises :class:`SolverError` (in exact arithmetic each new set
lowers ``|x|``); more than ``MAX_CUTS`` major steps raise
:class:`IterationLimitError`.

Whatever the path, the strategy is accepted only if its marginal reproduces
p within ``tol``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    MAX_CUTS,
    PROB_DROP,
    FeasibleSet,
    InstanceError,
    IterationLimitError,
    MarginalVector,
    NotInHullError,
    PlayerMixedStrategy,
    SolverError,
    as_tolerance,
    marginal_of_strategy,
)
from .nominal import DagPathOracle, KSelectionOracle, NominalOracle


# Marginals within this of 1 count as 1 in systematic sampling; it exceeds
# the largest shift (2 * PROB_DROP) that cut merging applies to an item.
_FULL_MARGIN = 4 * PROB_DROP

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def decompose_marginal(
    p: MarginalVector, oracle: NominalOracle, tol: float = 1e-7
) -> PlayerMixedStrategy:
    """Mixed strategy whose marginal reproduces ``p`` within ``tol``.

    Raises :class:`NotInHullError` with a separating certificate when no such
    strategy exists.  The support never exceeds n + 1 sets: at most n for
    k-selection (one per interval of [0, 1)) and for DAG paths (one per
    zeroed arc), and at most n + 1 on the minimum-norm-point path (spanning
    trees and explicit families), whose sets are affinely independent.  That
    path makes at most ``MAX_CUTS`` major steps, else raises
    :class:`IterationLimitError`.  A ``tol`` that is not a finite number at
    least 0 raises :class:`InstanceError`.
    """
    tol = as_tolerance(tol)
    if oracle.n != len(p):
        raise InstanceError("marginal length differs from the oracle's item count")
    if oracle.set_size is not None:
        _check_set_size(p.p, oracle.set_size, tol)
    if isinstance(oracle, KSelectionOracle):
        return _systematic_sampling(p, oracle, tol)
    if isinstance(oracle, DagPathOracle):
        return _peel_paths(p, oracle, tol)
    return _decompose_by_min_norm(p, oracle, tol)


def _check_set_size(p: np.ndarray, k: int, tol: float) -> None:
    """Reject p off the row ``sum(p) = k`` that every set of size k lies on."""
    total = float(p.sum())
    gap = k - total
    if abs(gap) > tol:
        sign = 1.0 if gap > 0 else -1.0
        raise NotInHullError(
            f"marginal is outside the feasible hull (sum {total:.9g} differs from k={k})",
            u=np.full(len(p), sign),
            w=sign * k,
        )


def _reconstructed(
    sets: list[FeasibleSet], weights, p: np.ndarray, tol: float
) -> PlayerMixedStrategy:
    """The strategy of ``sets`` at ``weights``, if it reproduces p within tol."""
    # cleaning drops round-off below PROB_DROP and renormalizes
    strategy = PlayerMixedStrategy.cleaned(sets, weights)
    err = np.max(np.abs(marginal_of_strategy(strategy).p - p))
    if not err <= tol:
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
    gap = k - total  # at most tol: decompose_marginal checked the row
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
    return _reconstructed(FeasibleSet.from_rows(rows), lengths, p_arr, tol)


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


def _decompose_by_min_norm(
    p: MarginalVector, oracle: NominalOracle, tol: float = 1e-7
) -> PlayerMixedStrategy:
    """Wolfe's minimum-norm-point algorithm over ``conv(X) - p``, for any
    family (see the module docstring)."""
    p_arr = p.p
    n = len(p_arr)
    # Costs that keep the oracle on p's face while the face has a set.
    penalty = np.zeros(n)
    penalty[p_arr <= PROB_DROP] = 2 * n + 1
    penalty[p_arr >= 1.0 - PROB_DROP] = -(2 * n + 1)
    restricted = bool(penalty.any())

    corral = _Corral(p_arr)
    corral.add(oracle.solve(penalty - p_arr)[0])
    for _ in range(MAX_CUTS):
        x = corral.weights @ corral.V[: len(corral.sets)]
        if np.abs(x).max() <= tol:
            return _reconstructed(list(corral.sets), corral.weights, p_arr, tol)
        u = x + penalty if restricted else x
        T, w = oracle.solve(u)
        # w - p @ u > 0 separates p once it clears the round-off of both
        # dot products
        gap = w - float(p_arr @ u)
        if gap > 0.0 and gap > n * _EPS * float(np.abs(u) @ (p_arr + T.indicator)):
            raise NotInHullError(
                f"marginal is outside the feasible hull (separated by {gap:.3g})",
                u=u,
                w=w,
            )
        if corral.add(T):
            continue
        if not restricted:
            raise SolverError(
                f"decomposition stalled: the minimum-norm point re-generated a "
                f"set its corral holds or spans, at distance "
                f"{np.max(np.abs(x)):.3g} from p"
            )
        restricted = False  # p's face neither holds p nor certifies it
    raise IterationLimitError(
        f"decomposition exceeded {MAX_CUTS} major steps", iterations=MAX_CUTS
    )


class _Corral:
    """Wolfe's corral: affinely independent sets T, in ``sets``, with
    weights, and the rows ``V`` of ``T - p``.  ``G`` is the Gram matrix of
    the lifted rows ``(1, T - p)`` and ``H`` its inverse; a joining set
    borders both and a leaving one takes a Schur complement, so neither is
    ever rebuilt.  The corral's affine minimizer is ``H @ 1``, scaled to sum
    1."""

    def __init__(self, p: np.ndarray):
        cap = len(p) + 2  # n + 1 affinely independent sets, and one joining
        self.p, self.sets, self.weights = p, {}, np.empty(0)
        self.V = np.empty((cap, len(p)))
        self.G, self.H = np.empty((cap, cap)), np.empty((cap, cap))

    def add(self, T: FeasibleSet) -> bool:
        """Let ``T`` join and run the minor cycles.  False when it cannot:
        the corral holds T or, within round-off, spans it affinely, or the
        minor cycles drop T again."""
        if T in self.sets:
            return False
        k = len(self.sets)
        v = T.indicator - self.p
        vv = 1.0 + float(v @ v)
        V, H = self.V[:k], self.H[:k, :k]
        g = 1.0 + V @ v
        h = H @ g  # the lifted T's coefficients over the corral's rows
        # squared distance of the lifted T from their span
        s = (1.0 - h.sum()) ** 2 + float(((v - h @ V) ** 2).sum())
        if not s > _EPS * vv:
            return False
        H += h[:, None] * h / s
        self.H[:k, k] = self.H[k, :k] = -h / s
        self.H[k, k] = 1.0 / s
        self.G[:k, k] = self.G[k, :k] = g
        self.G[k, k] = vv
        self.V[k] = v
        self.sets[T] = None
        self.weights = np.concatenate((self.weights, [0.0]))
        self._minor_cycles()
        return T in self.sets  # in exact arithmetic, a joining set stays

    def _minor_cycles(self) -> None:
        """Move the weights to the corral's affine minimizer, dropping each
        set whose weight reaches 0 on the way."""
        while True:
            k = len(self.sets)
            G, H = self.G[:k, :k], self.H[:k, :k]
            beta = H.sum(axis=1)
            beta += H @ (1.0 - G @ beta)  # one step of refinement
            alpha = beta / beta.sum()
            if alpha.min() > 0.0:
                self.weights = alpha
                return
            lam = self.weights
            down = np.flatnonzero(alpha <= 0.0)
            ratios = lam[down] / np.maximum(lam[down] - alpha[down], _TINY)
            lam = lam + float(ratios.min()) * (alpha - lam)
            lam[down[np.argmin(ratios)]] = 0.0
            for j in np.flatnonzero(lam <= 0.0)[::-1]:
                c = H[:, j].copy()
                H -= c[:, None] * c / c[j]
                for M in (self.H, self.G):
                    M[j : k - 1, :k] = M[j + 1 : k, :k]
                    M[: k - 1, j : k - 1] = M[: k - 1, j + 1 : k]
                self.V[j : k - 1] = self.V[j + 1 : k]
                del self.sets[list(self.sets)[j]]
                k -= 1
                H = self.H[:k, :k]
            self.weights = lam[lam > 0.0]
