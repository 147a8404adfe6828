"""Top-level minmax-regret solvers.

``solve_randomized`` dispatches on the nominal oracle.  For k-selection,
whose hull conv(X) is the box [0, 1]^n cut by the row ``sum(p) = k``, LP
duality on the adversary's inner minimum turns the game into one compact LP
over the marginal p, solved once by ``lp.solve_lp``:

* intervals: minimize ``u.p - k*alpha - sum(beta)`` subject to
  ``alpha + beta_i - (u_i - l_i) p_i <= l_i`` for every item, ``sum(p) = k``,
  ``0 <= p <= 1``, alpha free and ``beta <= 0``;
* scenarios: minimize t subject to ``c^s.p - t <= opt_s`` for every
  scenario, ``sum(p) = k`` and ``0 <= p <= 1``.

The player's strategy is the exact decomposition of p.  The adversary's mix
comes from the duals of the item or scenario rows: under intervals they are a
point mu of conv(X), decomposed the same way, each set A played as its
extreme cost vector c^A; under scenarios they are the scenario weights.

Every other family (spanning trees, DAG paths, explicit families) runs the
double-oracle loop over the finite zero-sum game whose rows are feasible
sets and whose columns are scenario cost vectors (discrete uncertainty) or
extreme cost vectors c^A (interval uncertainty): solve the restricted matrix
game exactly, then let each side best-respond to the other's current mix,
and stop once the two best-response values bracket the restricted value
within tolerance.  The restricted game is one ``MatrixGame`` that grows by
at most a row and a column per iteration, so each solve starts from the
previous optimal basis.  Both paths certify the same bracket: the
adversary's best response to the returned marginal against the player's best
response to the returned adversary mix.

Deterministic minmax regret is solved by enumeration of the feasible family;
the mean-cost and midpoint-cost approximations and the adversary's
cutting-plane LP complete the suite, with ``bruteforce_game_value`` as the
exhaustive cross-check oracle.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AdversaryMixedStrategy,
    CostVector,
    EnumerationCapError,
    FeasibleSet,
    GameSolution,
    Instance,
    InstanceError,
    IterationLimitError,
    MarginalVector,
    NotInHullError,
    PlayerMixedStrategy,
    SolverError,
    marginal_of_strategy,
)
from .decompose import decompose_marginal
from .lp import LinearProgram, MatrixGame, solve_lp, solve_matrix_game
from .nominal import KSelectionOracle, NominalOracle, build_oracle, enumeration_cap
from .regret import (
    extreme_cost_vector,
    max_expected_regret,
    max_expected_regret_discrete,
    max_expected_regret_interval,
    max_regret_det_discrete,
    max_regret_det_interval,
    player_best_response,
    scenario_optima,
    weighted_player_response,
)

# Dense payoff matrices above this size are refused; the exhaustive solver is
# a desk-scale testing oracle, not a production path.
MAX_PAYOFF_ENTRIES = 4_000_000


def _sorted_family(oracle: NominalOracle, cap=None) -> list[FeasibleSet]:
    family = oracle.enumerate_feasible(cap)
    return sorted(family, key=lambda T: T.indices)


class _Columns:
    """Active adversary pure strategies with their nominal optima."""

    def __init__(self, instance: Instance, oracle: NominalOracle):
        self.instance = instance
        self.oracle = oracle
        self.interval = instance.is_interval
        self.costs: list[np.ndarray] = []
        self.optima: list[float] = []
        self.labels: list = []  # scenario index or generating FeasibleSet
        self._seen = set()
        if not self.interval:
            self.scenario_optima = scenario_optima(instance, oracle)

    def add_scenario(self, s: int) -> bool:
        if s in self._seen:
            return False
        self._seen.add(s)
        self.costs.append(np.asarray(self.instance.uncertainty.costs[s]))
        self.optima.append(float(self.scenario_optima[s]))
        self.labels.append(s)
        return True

    def add_generator(self, A: FeasibleSet) -> bool:
        # keyed by the realized cost vector: distinct generating sets can
        # coincide wherever interval bounds are degenerate
        cost = extreme_cost_vector(A, self.instance.uncertainty).values
        key = cost.tobytes()
        if key in self._seen:
            return False
        self._seen.add(key)
        self.costs.append(cost)
        self.optima.append(float(self.oracle.solve(cost)[1]))
        self.labels.append(A)
        return True

    def adversary_response(self, marginal: MarginalVector):
        if self.interval:
            return max_expected_regret_interval(marginal, self.instance, self.oracle)
        return max_expected_regret_discrete(
            marginal, self.instance, self.oracle, optima=self.scenario_optima
        )

    def add_best_response(self, br) -> bool:
        if self.interval:
            return self.add_generator(br.chosen_set)
        return self.add_scenario(br.scenario)

    def cleaned_strategy(self, probs) -> AdversaryMixedStrategy:
        support = tuple(CostVector(c) for c in self.costs)
        if self.interval:
            return AdversaryMixedStrategy.cleaned(support, probs, generators=tuple(self.labels))
        return AdversaryMixedStrategy.cleaned(
            support, probs, scenario_indices=tuple(self.labels)
        )


def _initial_player_set(instance: Instance, oracle: NominalOracle) -> FeasibleSet:
    # Warm start from the approximation solution: midpoint costs under
    # intervals, mean scenario costs otherwise.
    if instance.is_interval:
        unc = instance.uncertainty
        seed_costs = (unc.lower + unc.upper) / 2.0
    else:
        seed_costs = instance.uncertainty.costs.mean(axis=0)
    return oracle.solve(seed_costs)[0]


def solve_randomized(
    instance: Instance,
    tol: float = 1e-7,
    max_iter: int = 10000,
    oracle: NominalOracle | None = None,
) -> GameSolution:
    """Optimal randomized minmax regret.

    k-selection instances are solved by the compact LP of the module
    docstring, with ``iterations = 1``; every other family by the double
    oracle, with its iteration count.  Either way the returned
    :class:`GameSolution`'s ``certified_gap`` (the distance between the
    adversary's best response to the marginal and the player's best response
    to the adversary mix) is at most ``tol``, else :class:`SolverError`
    names the gap.  ``max_iter`` bounds the double oracle only; when it is
    exhausted, :class:`IterationLimitError` carries the bracketing interval.
    """
    oracle = build_oracle(instance) if oracle is None else oracle
    if isinstance(oracle, KSelectionOracle):
        return _compact_k_selection(instance, tol, oracle)
    return _double_oracle(instance, tol, max_iter, oracle)


def _compact_k_selection(
    instance: Instance, tol: float, oracle: KSelectionOracle
) -> GameSolution:
    """The compact marginal-space LP of the module docstring, solved once."""
    n, k = oracle.n, oracle.k
    unc = instance.uncertainty
    if instance.is_interval:
        # variables p (n), alpha, beta (n); one row per item
        objective = np.concatenate([unc.upper, [-k], -np.ones(n)])
        rows = np.hstack([-np.diag(unc.upper - unc.lower), np.ones((n, 1)), np.eye(n)])
        rhs = unc.lower
        lower = np.concatenate([np.zeros(n), np.full(n + 1, -np.inf)])
        upper = np.concatenate([np.ones(n), [np.inf], np.zeros(n)])
    else:
        # variables p (n), t; one row per scenario
        optima = scenario_optima(instance, oracle)
        objective = np.concatenate([np.zeros(n), [1.0]])
        rows = np.hstack([unc.costs, -np.ones((unc.k, 1))])
        rhs = optima
        lower = np.concatenate([np.zeros(n), [-np.inf]])
        upper = np.concatenate([np.ones(n), [np.inf]])
    m = len(rhs)
    cardinality = np.concatenate([np.ones(n), np.zeros(rows.shape[1] - n)])
    sol = solve_lp(
        LinearProgram(
            objective,
            np.vstack([rows, cardinality]),
            ("<=",) * m + ("=",),
            np.append(rhs, k),
            lower,
            upper,
        )
    )
    if not sol.is_optimal:
        raise SolverError(f"compact k-selection LP ended with status {sol.status_text}")
    weights = -sol.duals[:m]  # nonnegative multipliers of the min LP's <= rows

    try:
        player = decompose_marginal(MarginalVector(sol.x[:n]), oracle, tol=tol)
        if instance.is_interval:
            # sum(mu) = k and 0 <= mu <= 1 are the alpha and beta columns'
            # dual rows, so mu lies in conv(X)
            mix = decompose_marginal(MarginalVector(weights), oracle, tol=tol)
            adversary = AdversaryMixedStrategy.cleaned(
                tuple(extreme_cost_vector(A, unc) for A in mix.support),
                mix.probs,
                generators=mix.support,
            )
        else:
            adversary = AdversaryMixedStrategy.cleaned(
                tuple(CostVector(c) for c in unc.costs),
                weights,
                scenario_indices=tuple(range(m)),
            )
    except NotInHullError as exc:
        raise SolverError(f"compact k-selection LP answer outside the hull: {exc}") from exc

    marginal = marginal_of_strategy(player)
    upper_value = max_expected_regret(marginal, instance, oracle).value
    lower_value = player_best_response(adversary, instance, oracle).value
    gap = upper_value - lower_value
    if gap > tol:
        raise SolverError(
            f"compact k-selection LP left a best-response gap {gap:.3g} > tol {tol:.3g}"
        )
    return GameSolution(
        value=float(sol.objective),
        player=player,
        marginal=marginal,
        adversary=adversary,
        iterations=1,
        certified_gap=float(max(gap, 0.0)),
    )


def _double_oracle(
    instance: Instance, tol: float, max_iter: int, oracle: NominalOracle
) -> GameSolution:
    """The double-oracle loop of the module docstring, for any family."""
    columns = _Columns(instance, oracle)

    rows: list[FeasibleSet] = [_initial_player_set(instance, oracle)]
    row_seen = {rows[0]}

    X = rows[0].indicator[None, :].astype(float)
    columns.add_best_response(columns.adversary_response(MarginalVector(X[0])))
    C = np.stack(columns.costs)
    optima = np.asarray(columns.optima)
    game = MatrixGame(X @ C.T - optima)

    best_lower = -np.inf
    best_upper = np.inf
    for iteration in range(1, max_iter + 1):
        y_mix, w_mix, value = game.solve()

        marginal = MarginalVector(y_mix @ X)
        adv_br = columns.adversary_response(marginal)
        # raw column weights: the active support may not be distinct-as-
        # strategies yet, so no AdversaryMixedStrategy is built here
        play_br = weighted_player_response(w_mix, C, optima, oracle)

        upper = adv_br.value
        lower = play_br.value
        best_upper = min(best_upper, upper)
        best_lower = max(best_lower, lower)
        gap = upper - lower

        if gap <= tol:
            player = PlayerMixedStrategy.cleaned(rows, y_mix)
            return GameSolution(
                value=float(value),
                player=player,
                marginal=marginal_of_strategy(player),
                adversary=columns.cleaned_strategy(w_mix),
                iterations=iteration,
                certified_gap=float(max(gap, 0.0)),
            )

        # The restricted game grows by one column (an LP row) and one row
        # (an LP column); the next solve starts from the current basis.
        progressed = columns.add_best_response(adv_br)
        if progressed:
            C = np.stack(columns.costs)
            optima = np.asarray(columns.optima)
            game.add_columns(X @ C[-1:].T - optima[-1])
        if play_br.chosen_set not in row_seen:
            row_seen.add(play_br.chosen_set)
            rows.append(play_br.chosen_set)
            x_new = play_br.chosen_set.indicator.astype(float)
            X = np.vstack([X, x_new])
            game.add_rows((C @ x_new - optima)[None, :])
            progressed = True
        if not progressed:
            raise SolverError(
                f"double oracle stalled with residual gap {gap:.3g} > tol {tol:.3g}"
            )

    raise IterationLimitError(
        f"double oracle exceeded {max_iter} iterations",
        lower=float(best_lower),
        upper=float(best_upper),
        iterations=max_iter,
    )


def solve_deterministic_exact(
    instance: Instance,
    oracle: NominalOracle | None = None,
    cap: int | None = None,
) -> tuple[FeasibleSet, float]:
    """Deterministic minmax regret by enumerating the feasible family.

    Ties between equal-regret sets go to the lexicographically smallest
    index tuple.
    """
    oracle = build_oracle(instance) if oracle is None else oracle
    family = _sorted_family(oracle, cap)
    optima = None if instance.is_interval else scenario_optima(instance, oracle)
    best_set = None
    best_val = np.inf
    for T in family:
        if instance.is_interval:
            val, _ = max_regret_det_interval(T, instance, oracle)
        else:
            val, _ = max_regret_det_discrete(T, instance, oracle, optima=optima)
        if val < best_val:
            best_set, best_val = T, val
    return best_set, float(best_val)


def approx_mean_cost(
    instance: Instance, oracle: NominalOracle | None = None
) -> tuple[FeasibleSet, float]:
    """Nominal minimizer of the scenario-mean costs and its true max regret.

    The returned regret is at most k times the randomized game value (and so
    at most k times the deterministic optimum) for k scenarios.
    """
    if instance.is_interval:
        raise InstanceError("mean-cost approximation requires scenario uncertainty")
    oracle = build_oracle(instance) if oracle is None else oracle
    mean = instance.uncertainty.costs.mean(axis=0)
    M = oracle.solve(mean)[0]
    value, _ = max_regret_det_discrete(M, instance, oracle)
    return M, value


def approx_midpoint(
    instance: Instance, oracle: NominalOracle | None = None
) -> tuple[FeasibleSet, float]:
    """Nominal minimizer of the midpoint costs and its true max regret.

    The returned regret is at most twice the randomized game value.  Two
    identities are verified on every call and raise ``SolverError`` if they
    fail: the minimum cost at c^M equals the lower-bound total on M, and
    sum over M of (lower+upper) minus the optima at c^M and its complement
    equals the max regret of M.
    """
    if not instance.is_interval:
        raise InstanceError("midpoint approximation requires interval uncertainty")
    oracle = build_oracle(instance) if oracle is None else oracle
    unc = instance.uncertainty
    M = oracle.solve((unc.lower + unc.upper) / 2.0)[0]
    value, worst = max_regret_det_interval(M, instance, oracle)

    inside = M.indicator.astype(bool)
    f_low = oracle.solve(np.where(inside, unc.lower, unc.upper))[1]
    lower_total = float(unc.lower @ M.indicator)
    if abs(f_low - lower_total) > 1e-9:
        raise SolverError("midpoint set is not optimal at its own lower-bound costs")
    f_flip = oracle.solve(worst.values)[1]
    identity = float((unc.lower + unc.upper) @ M.indicator) - f_low - f_flip
    if abs(identity - value) > 1e-9:
        raise SolverError("midpoint regret identity violated")
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
    oracle = build_oracle(instance) if oracle is None else oracle
    w.validate_for(instance)
    M = oracle.solve(w.mean_costs())[0]
    value, _ = max_regret_det_discrete(M, instance, oracle)
    return M, value


def solve_adversary_lp_discrete(
    instance: Instance,
    tol: float = 1e-7,
    max_cuts: int = 10000,
    oracle: NominalOracle | None = None,
) -> tuple[AdversaryMixedStrategy, float, PlayerMixedStrategy]:
    """Adversary's maxmin expected regret by cutting planes, plus both mixes.

    Maximizes z subject to: for every feasible set T, the expected regret of
    T under the scenario mix w is at least z.  Over the generated rows this
    LP is the matrix game "generated sets x all scenarios", held in one
    :class:`~minregret.lp.MatrixGame`; its row mix is the player's
    equilibrium strategy and its column mix the adversary's, so the returned
    value equals the randomized minmax regret.  Rows are generated by solving
    the nominal problem at the mix-averaged costs.  Each cut appends one
    variable to the game's LP (over player-set weights, one constraint per
    scenario), so every re-solve starts from the previous optimal basis and
    runs only the primal pass.
    """
    if instance.is_interval:
        raise InstanceError("the cutting-plane adversary LP requires scenarios")
    oracle = build_oracle(instance) if oracle is None else oracle
    unc = instance.uncertainty
    k = unc.k
    optima = scenario_optima(instance, oracle)

    rows: list[FeasibleSet] = [oracle.solve(unc.costs.mean(axis=0))[0]]
    row_seen = {rows[0]}

    def regrets(T: FeasibleSet) -> np.ndarray:
        return (unc.costs @ T.indicator.astype(float) - optima)[None, :]

    game = MatrixGame(regrets(rows[0]))
    z_cur = 0.0
    for _ in range(max_cuts):
        y_mix, w_cur, z_cur = game.solve()

        d = w_cur @ unc.costs
        T_new, val = oracle.solve(d)
        lowest = val - float(w_cur @ optima)
        if lowest >= z_cur - tol:
            adversary = AdversaryMixedStrategy.cleaned(
                tuple(CostVector(unc.costs[s]) for s in range(k)),
                w_cur,
                scenario_indices=tuple(range(k)),
            )
            player = PlayerMixedStrategy.cleaned(rows, y_mix)
            return adversary, z_cur, player
        if T_new in row_seen:
            raise SolverError("adversary LP stalled: separating row already present")
        row_seen.add(T_new)
        rows.append(T_new)
        game.add_rows(regrets(T_new))

    raise IterationLimitError(
        f"adversary LP exceeded {max_cuts} cuts",
        lower=None,
        upper=z_cur,
        iterations=max_cuts,
    )


def bruteforce_game_value(
    instance: Instance,
    cap: int | None = None,
    oracle: NominalOracle | None = None,
) -> tuple[float, PlayerMixedStrategy, AdversaryMixedStrategy]:
    """Exact game value from the full payoff matrix (testing oracle).

    Rows are all feasible sets; columns are all scenarios, or all extreme
    vectors c^A with A feasible under intervals.
    """
    oracle = build_oracle(instance) if oracle is None else oracle
    family = _sorted_family(oracle, cap)
    limit = enumeration_cap() if cap is None else cap

    X = np.stack([T.indicator for T in family]).astype(float)
    if instance.is_interval:
        unc = instance.uncertainty
        if len(family) > limit:
            raise EnumerationCapError("interval column count exceeds the cap")
        C = np.stack(
            [np.where(A.indicator.astype(bool), unc.lower, unc.upper) for A in family]
        )
        optima = np.array([oracle.solve(c)[1] for c in C])
        labels = {"generators": tuple(family)}
    else:
        unc = instance.uncertainty
        if unc.k > limit:
            raise EnumerationCapError("scenario count exceeds the cap")
        C = np.asarray(unc.costs)
        optima = scenario_optima(instance, oracle)
        labels = {"scenario_indices": tuple(range(unc.k))}

    if X.shape[0] * C.shape[0] > MAX_PAYOFF_ENTRIES:
        raise EnumerationCapError(
            "full payoff matrix would exceed the desk-scale size guard"
        )
    payoff = X @ C.T - optima
    y_mix, w_mix, value = solve_matrix_game(payoff)
    player = PlayerMixedStrategy.cleaned(family, y_mix)
    adversary = AdversaryMixedStrategy.cleaned(
        tuple(CostVector(c) for c in C), w_mix, **labels
    )
    return float(value), player, adversary
