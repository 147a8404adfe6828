"""Top-level minmax-regret solvers.

``solve_randomized`` dispatches on the nominal oracle.  For k-selection,
whose hull conv(X) is the box [0, 1]^n cut by the row ``sum(p) = k``, LP
duality on the adversary's inner minimum (the sum of the k smallest costs,
``max over alpha of k*alpha - sum(max(0, alpha - c_i))``) collapses the game
to a problem over the marginal p:

* intervals: one scalar threshold alpha.  With ``d = u - l``,
  ``Z_R = min over alpha of h(alpha)``, where
  ``h(alpha) = -k*alpha + sum(max(0, alpha - l_i)) + F(alpha)`` and F is the
  cheapest fill of k units when item i offers
  ``s_i = clip((alpha - l_i) / d_i, 0, 1)`` units at price l_i and the rest
  of its unit at u_i.  h is convex and piecewise linear, so a search over
  its breakpoints finds the optimal alpha, and the fill there is an optimal
  p.  Against extreme vectors c^A with marginal mu the player's best
  response is worth ``S_k(u - d*mu) - l.mu`` (S_k: the k smallest entries'
  sum), so ``Z_R = -min over beta of h_adv(beta)``, where h_adv swaps l for
  u in the sum and offers ``clip((u_i - beta) / d_i, 0, 1)`` units at l_i:
  the same search, whose fill at the optimal beta is the adversary's point
  mu.  No LP is solved;
* scenarios: the compact LP ``minimize t`` subject to
  ``c^s.p - t <= opt_s`` for every scenario, ``sum(p) = k`` and
  ``0 <= p <= 1``, solved once as a ``lp.WarmLP``.  The LP is written around
  the anchor set A the double oracle starts from (its indicator a, a set of
  k items): ``p = a + sigma*z`` with ``sigma = 1 - 2a`` and ``z`` in
  [0, 1]^n, and ``t = t0 - theta`` with ``t0`` the largest regret of A.
  Then ``max theta`` subject to ``(c^s*sigma).z + theta <= t0 - R_s``
  (``R_s = c^s.a - opt_s``, so every right-hand side is nonnegative) and
  ``sigma.z = 0`` as two ``<=`` rows is an LP whose origin, the set A, is
  feasible: no phase 1, and the box on z is native bounds.

The player's strategy is the exact decomposition of p.  Under intervals the
adversary plays mu, decomposed the same way, each set A played as its
extreme cost vector c^A; under scenarios it plays the LP duals of the
scenario rows as scenario weights.

Every other family (spanning trees, DAG paths, explicit families) runs the
double-oracle loop over the finite zero-sum game whose rows are feasible
sets and whose columns are scenario cost vectors (discrete uncertainty) or
extreme cost vectors c^A (interval uncertainty): solve the restricted matrix
game exactly, then let each side best-respond to the other's current mix,
and stop once the two best-response values bracket the restricted value
within tolerance.  The restricted game is one ``MatrixGame`` that grows by
at most a row and a column per iteration, so each solve starts from the
previous optimal basis; the loop (``_double_oracle``) decides at
confirmed solves only.  Every path certifies the same bracket, in one
function (``_certified``) and on the strategies it returns, after their
cleaning: the adversary's best response to the returned marginal against
the player's best response to the returned adversary mix.  Each solve
builds the instance's adversary side (``regret.adversary_side``) once, and
takes from it the seed costs, the adversary's columns and best responses,
the adversary mix itself (``side.mix`` over generators or scenario indices,
the only place a mix is built), and the optima of the mix's support:
``l(A)`` for a generator A, a valid bound that is tight at an equilibrium.
``regret.player_best_response`` solves every support optimum instead, so it
stays exact for any mix, and ``verify`` uses it to check these answers from
outside.

The adversary's cutting-plane LP (``solve_adversary_lp_discrete``) is the
same loop started with every scenario on the board: it generates player
sets only.  ``solve_randomized`` keeps column generation, so that the two
reach the value through different restricted games.

Deterministic minmax regret is solved by enumeration of the feasible family,
except for interval k-selection, where the same duality makes it a minimum
over the 2n interval endpoints (``solve_deterministic_exact``).  The
mean-cost and midpoint-cost approximations complete the suite, with
``bruteforce_game_value`` as the exhaustive cross-check oracle.
"""

from __future__ import annotations

import copy

import numpy as np

from .core import (
    AdversaryMixedStrategy,
    EnumerationCapError,
    FeasibleSet,
    GameSolution,
    Instance,
    InstanceError,
    IterationLimitError,
    MAX_CUTS,
    MarginalVector,
    NotInHullError,
    PlayerMixedStrategy,
    SolverError,
    as_count,
    as_tolerance,
    marginal_of_strategy,
)
from .decompose import decompose_marginal
from .lp import MatrixGame, WarmLP, solve_matrix_game
from .nominal import KSelectionOracle, NominalOracle, build_oracle, enumeration_cap
from .regret import adversary_side, max_regret_det, weighted_player_response

# Dense payoff matrices above this size are refused; the exhaustive solver is
# a desk-scale testing oracle, not a production path.
MAX_PAYOFF_ENTRIES = 4_000_000
# Points per round of the convex bracket search.
_BRACKET_WIDTH = 32


class _GrowingRows:
    """An array grown one row at a time, in a buffer that doubles when full.

    ``rows`` is the filled part: a C-contiguous view with the strides of a
    freshly stacked array, so a product with it sees the same operand.
    """

    def __init__(self, *row_shape: int):
        self._buffer = np.empty((4, *row_shape))
        self._count = 0

    def append(self, row) -> None:
        if self._count == len(self._buffer):
            grown = np.empty((2 * self._count,) + self._buffer.shape[1:])
            grown[: self._count] = self._buffer
            self._buffer = grown
        self._buffer[self._count] = row
        self._count += 1

    @property
    def rows(self) -> np.ndarray:
        return self._buffer[: self._count]


def solve_randomized(
    instance: Instance,
    tol: float = 1e-7,
    max_iter: int = MAX_CUTS,
    oracle: NominalOracle | None = None,
) -> GameSolution:
    """Optimal randomized minmax regret.

    k-selection instances are solved directly, with ``iterations = 1``: by
    the threshold search of the module docstring under intervals, by the
    compact LP under scenarios, one ``WarmLP`` solve from the mean-cost set
    the double oracle would start from.  Every other family runs the double
    oracle, with its iteration count.  Either way the returned
    :class:`GameSolution`'s ``certified_gap`` (the distance between the
    adversary's best response to the marginal and the player's best response
    to the adversary mix) is at most ``tol``, else :class:`SolverError`
    names the gap.  ``max_iter`` bounds the double oracle only; when it is
    exhausted, :class:`IterationLimitError` carries the bracketing interval.
    A ``tol`` that is not a finite number at least 0, or a ``max_iter``
    that is not an integer at least 1, raises :class:`InstanceError`.
    """
    tol = as_tolerance(tol)
    max_iter = as_count(max_iter, "max_iter")
    oracle = build_oracle(instance) if oracle is None else oracle
    if isinstance(oracle, KSelectionOracle):
        if instance.is_interval:
            return _threshold_k_selection(instance, tol, oracle)
        return _compact_k_selection(instance, tol, oracle)
    return _double_oracle(instance, tol, max_iter, oracle)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` to the bit for values without NaNs: the same
    default sort, then each value that differs from its predecessor.
    ``np.unique`` asks ``np.ma.is_masked`` first, which imports ``numpy.ma``."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _convex_bracket(f, xs: np.ndarray, gap: float):
    """Two points of sorted ``xs`` between which the convex ``f`` is least.

    ``f`` maps an array of points to their values.  Each round evaluates it
    at ``_BRACKET_WIDTH`` evenly spread points and keeps the range between the least
    one's neighbours.  Comparing values says nothing where points are closer
    than round-off can resolve, so the search runs over the points at least
    ``gap`` after their predecessor, and returns the winner's two neighbours
    among them (infinite past either end).
    """
    coarse = xs[np.concatenate([[True], np.diff(xs) > gap])]
    lo, hi = 0, len(coarse) - 1
    while hi - lo >= _BRACKET_WIDTH:
        # points (hi - lo) / (_BRACKET_WIDTH - 1) > 1 apart round to increasing indices
        idx = np.linspace(lo, hi, _BRACKET_WIDTH).round().astype(int)
        j = int(np.argmin(f(coarse[idx])))
        lo, hi = idx[max(j - 1, 0)], idx[min(j + 1, len(idx) - 1)]
    best = lo + int(np.argmin(f(coarse[lo : hi + 1])))
    left = coarse[best - 1] if best > 0 else -np.inf
    right = coarse[best + 1] if best + 1 < len(coarse) else np.inf
    return left, right


class _ThresholdFill:
    """The price segments of interval k-selection, sorted once.

    Item i is one unit: a low segment at price l_i, ``s_i(alpha)`` long, and a
    high segment at u_i, ``1 - s_i(alpha)`` long.  The segments sort stably by
    price (each item's low segment first), and that order does not depend on
    alpha, so the cheapest k-unit fill at any alpha is one prefix sum.
    ``shares``, ``takes`` and ``h`` take a batch of alphas, one per row.
    """

    def __init__(self, lower: np.ndarray, upper: np.ndarray, k: int):
        self.upper, self.k = upper, k
        self.n = n = len(lower)
        self._item_anchor, self._sign = lower, 1.0
        prices = np.concatenate([lower, upper])
        order = np.argsort(prices, kind="stable")
        self.price = prices[order]
        self.ends = _sorted_unique(self.price)
        self.item = order % n
        self.is_low = order < n
        # each segment's item: its lower bound, width (1 if zero-width), anchor
        width = (upper - lower)[self.item]
        self._open = width > 0
        self._width = np.where(self._open, width, 1.0)
        self._lower = self._anchor = lower[self.item]

    def for_adversary(self) -> "_ThresholdFill":
        """h_adv of the module docstring over the same segments and endpoints:
        shares anchored at u and falling with alpha."""
        mirror = copy.copy(self)
        mirror._item_anchor, mirror._anchor = self.upper, self.upper[self.item]
        mirror._sign = -1.0
        return mirror

    def shares(self, alphas: np.ndarray) -> np.ndarray:
        """The low share of each segment's item; a zero-width item is all low
        from its price on (upward for the player, downward for the adversary)."""
        gap = self._sign * (alphas[:, None] - self._anchor)
        # np.minimum(np.maximum(...)) is np.clip without the wrapper's cost
        share = np.minimum(np.maximum(gap / self._width, 0.0), 1.0)
        return np.where(self._open, share, gap >= 0.0)

    def takes(self, alphas: np.ndarray) -> np.ndarray:
        """How much of each sorted segment the cheapest k-unit fill takes."""
        s = self.shares(alphas)
        lengths = np.where(self.is_low, s, 1.0 - s)
        before = np.cumsum(lengths, axis=1) - lengths
        return np.minimum(np.maximum(self.k - before, 0.0), lengths)

    def h(self, alphas) -> np.ndarray:
        alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
        over = np.maximum(alphas[:, None] - self._item_anchor, 0.0).sum(axis=1)
        return -self.k * alphas + over + self.takes(alphas) @ self.price

    def marginal(self, alpha: float) -> np.ndarray:
        """The cheapest fill at alpha as a marginal: both segments of each item."""
        takes = self.takes(np.array([alpha]))[0]
        return np.clip(np.bincount(self.item, takes, self.n), 0.0, 1.0)

    def crossings(self, ends: np.ndarray) -> np.ndarray:
        """The alphas strictly between consecutive sorted ``ends`` where a
        prefix of the segments fills exactly k, for all the gaps at once.

        No endpoint lies inside a gap, so each share is linear there, and so
        is every prefix sum of the segment lengths.
        """
        a, b = ends[:-1], ends[1:]
        mid = 0.5 * (a + b)[:, None]
        inside = self._open & (self._lower < mid) & (mid < self._lower + self._width)
        slope = np.where(inside, self._sign / self._width, 0.0)
        base = np.where(inside, -self._anchor * slope, self.shares(mid[:, 0]))
        run = np.cumsum(np.where(self.is_low, slope, -slope), axis=1)
        at_zero = np.cumsum(np.where(self.is_low, base, 1.0 - base), axis=1)
        row, col = np.nonzero(run)
        alphas = (self.k - at_zero[row, col]) / run[row, col]
        return alphas[(alphas > a[row]) & (alphas < b[row])]

    def best_alpha(self) -> float:
        """An alpha minimizing h.

        h is convex and piecewise linear.  Its breakpoints are the endpoints
        and the prefix crossings, and it falls to the left of every endpoint
        and rises to the right of them all.  So a search over the endpoints
        brackets the optimum, and a second one over the endpoints and
        crossings inside that bracket finds it.
        """
        gap = 1e-9 * (1.0 + np.abs(self.ends).max())
        left, right = _convex_bracket(self.h, self.ends, gap)
        inner = self.ends[(self.ends >= left) & (self.ends <= right)]
        points = _sorted_unique(np.concatenate([inner, self.crossings(inner)]))
        left, right = _convex_bracket(self.h, points, gap)
        points = points[(points >= left) & (points <= right)]
        return float(points[np.argmin(self.h(points))])


def _threshold_k_selection(
    instance: Instance, tol: float, oracle: KSelectionOracle
) -> GameSolution:
    """Interval k-selection by the threshold search of the module docstring,
    once for each player.

    Any cheapest fill p at an optimal alpha is an optimal marginal, since
    ``max regret(p) = min over alpha of phi(p, alpha) <= phi(p, alpha*) = Z_R``,
    and the fill mu at an optimal beta secures ``-h_adv(beta*) = Z_R``.
    """
    unc = instance.uncertainty
    side = adversary_side(instance, oracle)
    fill = _ThresholdFill(unc.lower, unc.upper, oracle.k)
    alpha = fill.best_alpha()
    adversary = fill.for_adversary()
    mu = adversary.marginal(adversary.best_alpha())

    def adversary_mix():
        # the decomposition of mu in conv(X), each set A played as c^A
        mix = decompose_marginal(MarginalVector(mu), oracle, tol=tol)
        return side.mix(mix.support, mix.probs)

    return _certified_game(
        side, tol, fill.h(alpha)[0], fill.marginal(alpha), adversary_mix, "threshold k-selection"
    )


def _certified_game(side, tol: float, value: float, p, adversary, label: str) -> GameSolution:
    """Decompose p, build the adversary mix, and certify the pair."""
    try:
        player = decompose_marginal(MarginalVector(p), side.oracle, tol=tol)
        mix = adversary()
    except NotInHullError as exc:
        raise SolverError(f"{label} answer outside the hull: {exc}") from exc
    return _certified(side, tol, value, player, mix, 1, label)


def _certified(
    side, tol: float, value: float, player, mix, iterations: int, label: str
) -> GameSolution:
    """The returned pair as a :class:`GameSolution` whose ``certified_gap``
    is its bracket: the adversary's best response to the player's marginal
    less the player's best response to ``mix``, whose support optima come
    from ``side``.  A bracket wider than ``tol`` raises :class:`SolverError`."""
    marginal = marginal_of_strategy(player)
    upper_value = side.respond(marginal.p)[0]
    costs = np.stack([c.values for c in mix.support])
    lower_value = weighted_player_response(mix.probs, costs, side.optima(mix), side.oracle)[1]
    gap = upper_value - lower_value
    if gap > tol:
        raise SolverError(f"{label} left a best-response gap {gap:.3g} > tol {tol:.3g}")
    return GameSolution(float(value), player, marginal, mix, iterations, float(max(gap, 0.0)))


def _compact_k_selection(
    instance: Instance, tol: float, oracle: KSelectionOracle
) -> GameSolution:
    """The compact scenario LP of the module docstring, solved once.

    theta stays unbounded above: bounding it by t0 would fix it at 0 when
    A is already optimal with t0 = 0, and the scenario rows would lose
    their duals, the adversary's weights.
    """
    n = oracle.n
    unc = instance.uncertainty
    m = unc.k
    side = adversary_side(instance, oracle)
    a = oracle.solve(side.seed_costs)[0].indicator.astype(float)
    sigma = 1.0 - 2.0 * a
    regrets = unc.costs @ a - side.opt
    t0 = float(regrets.max())
    # variables z (n), theta; one row per scenario, then sum(p) = k as two rows
    sol = WarmLP(
        np.append(np.zeros(n), 1.0),
        np.vstack([
            np.hstack([unc.costs * sigma, np.ones((m, 1))]),
            np.append(sigma, 0.0),
            np.append(-sigma, 0.0),
        ]),
        np.append(t0 - regrets, [0.0, 0.0]),
        upper=np.append(np.ones(n), np.inf),
    ).solve()
    if not sol.is_optimal:
        raise SolverError(f"compact k-selection LP ended with status {sol.status_text}")
    return _certified_game(
        side,
        tol,
        t0 - sol.objective,
        a + sigma * sol.x[:n],
        lambda: side.mix(range(m), sol.duals[:m]),
        "compact k-selection LP",
    )


class _RestrictedGame:
    """The double oracle's restricted game, grown in place.

    Rows are player sets, held only as their indicators ``X``; columns are
    the adversary ``side``'s columns: cost vectors with their nominal optima
    and labels (scenario indices or generating sets).  ``matrix`` is the
    game of their regrets, and ``seen`` holds every strategy generated.  The
    first row is the player's set at the side's seed costs (the mean-cost or
    midpoint set), against the adversary's best response to it or, with
    ``every_scenario``, every scenario.
    """

    def __init__(self, n: int, side, every_scenario: bool):
        self.side = side
        first = side.oracle.solve(side.seed_costs)[0]
        self.seen = {first}
        self.X = _GrowingRows(n)  # one row per strategy, grown in place
        self.X.append(first.indicator)
        self.costs, self.optima, self.labels = _GrowingRows(n), _GrowingRows(), []
        if every_scenario:
            for s in range(len(side.costs)):
                self._add_column(*side.column(s))
        else:
            self._add_column(*side.respond(self.X.rows[0])[1])
        self.matrix = MatrixGame(self.X.rows @ self.costs.rows.T - self.optima.rows)

    def responses(self, y: np.ndarray, w: np.ndarray):
        """Each side's best response to the other's mix, as ``(adversary value,
        column, player value, row)``; one the game holds already is None."""
        adv_value, column = self.side.respond(y @ self.X.rows)
        if column[0] in self.seen:
            column = None
        # raw column weights: the active support may not be distinct-as-
        # strategies yet, so no AdversaryMixedStrategy is built here
        C, optima = self.costs.rows, self.optima.rows
        row, play_value = weighted_player_response(w, C, optima, self.side.oracle)
        if row in self.seen:
            row = None
        return adv_value, column, play_value, row

    def grow(self, column, row) -> None:
        """Add a column, a row, or both, in one growth of the game: the new
        row's payoffs cover the new column.  None adds nothing."""
        columns = rows = None
        if column is not None:
            self._add_column(*column)
            columns = self.X.rows @ self.costs.rows[-1:].T - self.optima.rows[-1]
        if row is not None:
            self.seen.add(row)
            self.X.append(row.indicator)
            rows = (self.costs.rows @ self.X.rows[-1] - self.optima.rows)[None, :]
        self.matrix.grow(columns, rows)

    def _add_column(self, key, cost, optimum, label) -> None:
        self.seen.add(key)
        self.costs.append(cost)
        self.optima.append(optimum)
        self.labels.append(label)


def _double_oracle(
    instance: Instance, tol: float, limit: int, oracle: NominalOracle, every_scenario=False
) -> GameSolution:
    """The double-oracle loop of the module docstring, for any family.

    Each iteration grows the :class:`_RestrictedGame` by the best responses
    not in it yet.  An iterate that would finish or has nothing new is
    solved again, confirmed, and decided there (an uncounted re-solve).
    A loop gap within ``tol`` ends it: the mixes are cleaned, and
    ``_certified`` takes the bracket again on the cleaned pair, which may
    still raise :class:`SolverError`.  Nothing new at a confirmed solve
    raises :class:`SolverError`, whose text names the iteration and the
    bracket reached; after ``limit`` iterations
    :class:`IterationLimitError` carries the greatest lower and least upper
    bound reached.
    """
    game = _RestrictedGame(instance.n, adversary_side(instance, oracle), every_scenario)
    lower = upper = None
    for iteration in range(1, limit + 1):
        iterate = True
        while True:
            y_mix, w_mix, value = game.matrix.solve(iterate=iterate)
            adv_value, column, play_value, row = game.responses(y_mix, w_mix)
            gap = adv_value - play_value
            new = column is not None or row is not None
            if game.matrix.confirmed or (gap > tol and new):
                break
            iterate = False
        lower = play_value if lower is None else max(lower, play_value)
        upper = adv_value if upper is None else min(upper, adv_value)
        if gap <= tol:
            player = PlayerMixedStrategy.cleaned(FeasibleSet.from_rows(game.X.rows), y_mix)
            mix = game.side.mix(game.labels, w_mix)
            return _certified(game.side, tol, value, player, mix, iteration, "double oracle")
        if not new:
            raise SolverError(
                f"double oracle stalled with residual gap {gap:.3g} > tol {tol:.3g}"
                f" at iteration {iteration}, bracket [{lower:.17g}, {upper:.17g}]"
            )
        game.grow(column, row)
    raise IterationLimitError(
        f"double oracle exceeded {limit} iterations", lower, upper, iterations=limit
    )


def solve_deterministic_exact(
    instance: Instance, oracle: NominalOracle | None = None
) -> tuple[FeasibleSet, float]:
    """Deterministic minmax regret.

    Interval k-selection is solved by the endpoint scan of
    ``_endpoint_scan``, in O(n^2) time at any n; the enumeration cap does not
    apply to it.  Every other instance is solved by enumerating the feasible
    family, which raises :class:`EnumerationCapError` past the cap.  Either way,
    ties between equal-regret sets go to the lexicographically smallest
    index tuple.
    """
    oracle = build_oracle(instance) if oracle is None else oracle
    if instance.is_interval and isinstance(oracle, KSelectionOracle):
        best_set = _endpoint_scan(instance.uncertainty, oracle.k)
        return best_set, max_regret_det(best_set, instance, oracle)
    family = oracle.enumerate_feasible()
    side = adversary_side(instance, oracle)
    best_set = None
    best_val = np.inf
    for T in family:
        val, _ = side.worst_case(T)
        if val < best_val:
            best_set, best_val = T, val
    return best_set, float(best_val)


def _endpoint_scan(unc, k: int) -> FeasibleSet:
    """The lexicographically smallest minmax-regret set of interval k-selection.

    A set T's worst case puts u on T and l elsewhere, and the adversary's
    optimum there is ``max over alpha of k*alpha - sum(max(0, alpha - c_i))``.
    So ``max regret(T) = min over alpha of [-k*alpha + sum(max(0, alpha - l_i))
    + sum over T of delta_i(alpha)]`` with
    ``delta_i(alpha) = max(u_i, alpha) - max(0, alpha - l_i)``, and the best
    alpha for T is the k-th smallest of its worst-case costs, an endpoint.
    Minimizing over T first, Z_D is the least over the endpoints alpha of the
    bracket with the k smallest delta_i(alpha).  The lexicographically
    smallest optimal set minimizes the bracket at its own alpha, where a
    stable sort's first k items are the lexicographically smallest choice;
    every minimizer at another alpha is optimal too, so the least of these
    per-alpha sets is the answer.
    """
    lower, upper = unc.lower, unc.upper
    alphas = _sorted_unique(np.concatenate([lower, upper]))
    values = np.empty(len(alphas))
    for j, alpha in enumerate(alphas):
        over = np.maximum(alpha - lower, 0.0)
        delta = np.maximum(upper, alpha) - over
        values[j] = -k * alpha + over.sum() + np.partition(delta, k - 1)[:k].sum()
    # round-off apart, equal brackets are ties
    scale = 1.0 + np.abs(values).max()
    best = None
    for alpha in alphas[values <= values.min() + 1e-12 * scale]:
        delta = np.maximum(upper, alpha) - np.maximum(alpha - lower, 0.0)
        chosen = tuple(np.sort(np.argsort(delta, kind="stable")[:k]).tolist())
        best = chosen if best is None else min(best, chosen)
    return FeasibleSet.from_indices(len(lower), best)


def approx_mean_cost(
    instance: Instance, oracle: NominalOracle | None = None
) -> tuple[FeasibleSet, float]:
    """Nominal minimizer of the scenario-mean costs and its true max regret.

    The returned regret is at most k times the randomized game value (and so
    at most k times the deterministic optimum) for k scenarios.
    """
    if instance.is_interval:
        raise InstanceError("mean-cost approximation requires scenario uncertainty")
    side = adversary_side(instance, oracle)
    M = side.oracle.solve(side.seed_costs)[0]
    return M, side.worst_case(M)[0]


def approx_midpoint(
    instance: Instance, oracle: NominalOracle | None = None
) -> tuple[FeasibleSet, float]:
    """Nominal minimizer of the midpoint costs and its true max regret.

    The returned regret is at most twice the randomized game value.  Every
    call checks that M is optimal at the costs putting M at its lower bounds
    and every other item at its upper bound, within ``1e-9 * (1 + |c^M|_1)``
    for the midpoint costs c^M, and raises ``SolverError`` if it is not.
    With that optimum, sum over M of (lower+upper) minus the optima there and
    at M's worst case equals the max regret of M.
    """
    if not instance.is_interval:
        raise InstanceError("midpoint approximation requires interval uncertainty")
    side = adversary_side(instance, oracle)
    midpoint, oracle = side.seed_costs, side.oracle
    M = oracle.solve(midpoint)[0]
    value, _ = side.worst_case(M)

    f_low = oracle.solve(side.costs_of([M])[0])[1]
    lower_total = float(side.lower @ M.indicator)
    if abs(f_low - lower_total) > 1e-9 * (1.0 + np.abs(midpoint).sum()):
        raise SolverError("midpoint set is not optimal at its own lower-bound costs")
    return M, value


def approx_dual_weighted(
    instance: Instance,
    w: AdversaryMixedStrategy,
    oracle: NominalOracle | None = None,
) -> tuple[FeasibleSet, float]:
    """Heuristic: reweight scenario costs by an adversary mix, then solve.

    With the uniform mix this coincides with the mean-cost approximation; no
    guarantee is claimed for other weights.
    """
    if instance.is_interval:
        raise InstanceError("dual-weighted approximation requires scenario uncertainty")
    w.validate_for(instance)
    side = adversary_side(instance, oracle)
    M = side.oracle.solve(w.mean_costs())[0]
    return M, side.worst_case(M)[0]


def solve_adversary_lp_discrete(
    instance: Instance, tol: float = 1e-7, oracle: NominalOracle | None = None
) -> tuple[AdversaryMixedStrategy, float, PlayerMixedStrategy]:
    """Adversary's maxmin expected regret by cutting planes, plus both mixes.

    Maximizes z subject to: for every feasible set T, the expected regret of
    T under the scenario mix w is at least z.  Over the generated rows this
    LP is the matrix game "generated sets x all scenarios": the double
    oracle's loop started with every scenario, so it generates rows only,
    each the nominal solution at the mix-averaged costs, and each appends
    one variable to the game's LP (over player-set weights, one constraint
    per scenario), so every re-solve runs only the primal pass.  Its row mix
    is the player's equilibrium strategy and its column mix the adversary's,
    so the returned value equals the randomized minmax regret.  Past
    ``MAX_CUTS`` cuts it raises :class:`IterationLimitError` with the best
    bracket of the cuts: below, the least regret of any set under the
    adversary's mix; above, the adversary's best response to the row mix,
    which equals the restricted value within the bracket tolerance.  The
    returned pair is certified as ``solve_randomized``'s is: a bracket
    wider than ``tol`` raises :class:`SolverError`.  A
    ``tol`` that is not a finite number at least 0 raises
    :class:`InstanceError`.
    """
    tol = as_tolerance(tol)
    if instance.is_interval:
        raise InstanceError("the cutting-plane adversary LP requires scenarios")
    oracle = build_oracle(instance) if oracle is None else oracle
    game = _double_oracle(instance, tol, MAX_CUTS, oracle, every_scenario=True)
    return game.adversary, game.value, game.player


def _check_payoff_size(rows: int, columns: int) -> None:
    if rows * columns > MAX_PAYOFF_ENTRIES:
        raise EnumerationCapError("full payoff matrix would exceed the desk-scale size guard")


def bruteforce_game_value(
    instance: Instance, oracle: NominalOracle | None = None
) -> tuple[float, PlayerMixedStrategy, AdversaryMixedStrategy]:
    """Exact game value from the full payoff matrix (testing oracle).

    Rows are all feasible sets; columns are all scenarios, or all extreme
    vectors c^A with A feasible under intervals.  Both are held to the
    enumeration cap.  A family whose size is known is held to the payoff
    size guard before any set is built.
    """
    oracle = build_oracle(instance) if oracle is None else oracle
    rows = oracle._family_size()
    if rows is not None:
        columns = rows if instance.is_interval else instance.uncertainty.k
        # past the cap, the enumeration or the scenario count refuses first
        if max(rows, columns) <= enumeration_cap():
            _check_payoff_size(rows, columns)
    family = oracle.enumerate_feasible()

    X = np.stack([T.indicator for T in family]).astype(float)
    if instance.is_interval:
        labels = family
    else:
        k = instance.uncertainty.k
        if k > enumeration_cap():
            raise EnumerationCapError("scenario count exceeds the cap")
        labels = range(k)
    side = adversary_side(instance, oracle)
    C = side.costs_of(labels)

    _check_payoff_size(X.shape[0], C.shape[0])
    payoff = X @ C.T - oracle.optima(C)
    y_mix, w_mix, value = solve_matrix_game(payoff)
    player = PlayerMixedStrategy.cleaned(family, y_mix)
    return float(value), player, side.mix(labels, w_mix)
