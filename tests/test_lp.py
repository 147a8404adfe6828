import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

import minregret.lp as lpmod
from minregret.core import SolverError
from minregret.gen import generate_instance
from minregret.lp import (
    LinearProgram,
    LpSolution,
    kernel_backend,
    solve_lp,
    solve_matrix_game,
)
from minregret.nominal import build_oracle
from minregret.regret import extreme_cost_vector


def make_lp(c, A, rels, b, lower=None, upper=None, sense="min"):
    return LinearProgram(
        np.asarray(c, float),
        np.asarray(A, float),
        tuple(rels),
        np.asarray(b, float),
        lower=None if lower is None else np.asarray(lower, float),
        upper=None if upper is None else np.asarray(upper, float),
        sense=sense,
    )


class TestSolveLpExamples:
    def test_min_x_at_least_one(self):
        sol = solve_lp(make_lp([1.0], [[1.0]], [">="], [1.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(1.0)
        assert sol.duals[0] == pytest.approx(1.0)

    def test_unbounded_maximization(self):
        sol = solve_lp(make_lp([1.0], [[1.0]], [">="], [0.0], sense="max"))
        assert sol.status == "unbounded"

    def test_two_variable_system_with_duals(self):
        sol = solve_lp(
            make_lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [">=", "="], [2.0, 0.0])
        )
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 1.0])
        assert sol.objective == pytest.approx(2.0)
        # complementary slackness fixes the duals: y = (1, 0)
        assert np.allclose(sol.duals, [1.0, 0.0], atol=1e-9)

    def test_infeasible(self):
        sol = solve_lp(make_lp([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0]))
        assert sol.status == "infeasible"

    def test_breakdown_status_after_pivot_budget(self):
        lp = make_lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [">=", "="], [2.0, 0.0])
        sol = solve_lp(lp, max_pivots=1)
        assert sol.status == "breakdown"
        assert sol.pivots <= 1

    def test_bounds_are_markers_not_sentinels(self):
        with pytest.raises(ValueError):
            make_lp([1.0], [[1.0]], ["<="], [1.0], lower=[np.inf])

    def test_fixed_variable_box(self):
        sol = solve_lp(
            make_lp([1.0, -1.0], [[1.0, 1.0]], ["<="], [10.0], lower=[2.0, 0.0], upper=[2.0, 3.0])
        )
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [2.0, 3.0])


class TestMatrixGameExamples:
    def test_matching_pennies(self):
        row, col, value = solve_matrix_game([[1.0, -1.0], [-1.0, 1.0]])
        assert value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(row, [0.5, 0.5])
        assert np.allclose(col, [0.5, 0.5])

    def test_single_entry(self):
        row, col, value = solve_matrix_game([[5.0]])
        assert value == pytest.approx(5.0)
        assert row[0] == 1.0 and col[0] == 1.0

    def test_two_by_two_equalization(self):
        # hand oracle: row mix equalizes columns 3(1-a) = 1+a -> a = 1/2;
        # column mix equalizes rows 2(1-b) = 1+2b -> b = 1/4; value 3/2.
        row, col, value = solve_matrix_game([[0.0, 2.0], [3.0, 1.0]])
        assert value == pytest.approx(1.5, abs=1e-9)
        assert np.allclose(row, [0.5, 0.5], atol=1e-9)
        assert np.allclose(col, [0.25, 0.75], atol=1e-9)

    def test_row_player_certificates(self, rng):
        for _ in range(25):
            P = rng.normal(scale=3.0, size=(rng.integers(1, 6), rng.integers(1, 6)))
            row, col, value = solve_matrix_game(P)
            # row mix guarantees at most `value` against every column
            assert np.max(row @ P) <= value + 1e-8
            # column mix guarantees at least `value` against every row
            assert np.min(P @ col) >= value - 1e-8

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 10**6),
        st.floats(-5.0, 5.0),
    )
    def test_shift_and_swap_invariances(self, r, s, seed, kappa):
        P = np.random.default_rng(seed).uniform(-4.0, 4.0, size=(r, s))
        _, _, value = solve_matrix_game(P)
        _, _, shifted = solve_matrix_game(P + kappa)
        assert shifted == pytest.approx(value + kappa, abs=1e-9)
        _, _, swapped = solve_matrix_game(-P.T)
        assert swapped == pytest.approx(-value, abs=1e-9)


    def test_unbracketed_answer_raises(self, monkeypatch):
        # a solve whose row duals are off must not pass as an equilibrium
        def skewed(lp, max_pivots=None):
            sol = solve_lp(lp, max_pivots)
            duals = sol.duals.copy()
            duals[0] += 1.0
            return LpSolution(sol.status, sol.x, duals, sol.objective, sol.pivots)

        monkeypatch.setattr(lpmod, "solve_lp", skewed)
        with pytest.raises(SolverError, match="bracket"):
            solve_matrix_game([[1.0, -1.0], [-1.0, 1.0]])


def _restricted_game(family, n, seed):
    """``X @ C.T - optima`` over n + 10 feasible rows and extreme columns.

    Rows and columns outnumber the items, so the payoff has rank at most
    n + 1 and is rank-deficient, like a late double-oracle restricted game.
    """
    inst = generate_instance(family, n=n, uncertainty="interval", seed=seed)
    oracle = build_oracle(inst)
    rng = np.random.default_rng(seed)

    def draw_sets(count):
        found = {}
        for _ in range(20 * count):
            T = oracle.solve(rng.random(oracle.n))[0]
            found.setdefault(T, None)
            if len(found) == count:
                break
        return list(found)

    X = np.stack([T.indicator for T in draw_sets(n + 10)]).astype(float)
    C = np.stack([extreme_cost_vector(A, inst.uncertainty).values for A in draw_sets(n + 10)])
    optima = np.array([oracle.solve(c)[1] for c in C])
    return X @ C.T - optima


def _highs_game_value(P):
    """min v s.t. y @ P[:, j] <= v, sum(y) = 1, y >= 0, solved by HiGHS."""
    r, s = P.shape
    res = linprog(
        np.r_[np.zeros(r), 1.0],
        A_ub=np.c_[P.T, -np.ones(s)],
        b_ub=np.zeros(s),
        A_eq=np.r_[np.ones(r), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * r + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


class TestMatrixGameAgainstHighs:
    def _check(self, P):
        row, col, value = solve_matrix_game(P)
        reference = _highs_game_value(P)
        tol = 1e-7 * max(float(P.max() - P.min()), 1.0)
        assert value == pytest.approx(reference, abs=tol)
        for mix in (row, col):
            assert np.all(mix >= 0.0) and mix.sum() == pytest.approx(1.0)
        assert np.min(P @ col) - tol <= reference <= np.max(row @ P) + tol

    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree"])
    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_rank_deficient_restricted_games(self, family, n):
        P = _restricted_game(family, n, seed=n)
        assert np.linalg.matrix_rank(P) < min(P.shape)
        self._check(P)

    def test_constant_payoff(self):
        P = np.full((3, 4), 2.5)
        assert solve_matrix_game(P)[2] == 2.5
        self._check(P)

    def test_single_row_and_single_column(self):
        P = _restricted_game("k-selection", 20, seed=3)
        self._check(P[:1])
        self._check(P[:, :1])
        assert solve_matrix_game(P[:1])[2] == pytest.approx(P[0].max(), abs=1e-9)
        assert solve_matrix_game(P[:, :1])[2] == pytest.approx(P[:, 0].min(), abs=1e-9)

    def test_large_offset(self):
        self._check(_restricted_game("spanning-tree", 20, seed=4) + 1e6)


def _dual_objective(lp, sol):
    """b'y plus the reduced-cost bound terms (general strong duality)."""
    sign = 1.0 if lp.sense == "min" else -1.0
    rc = sign * lp.objective - lp.lhs.T @ (sign * sol.duals)
    total = float(lp.rhs @ (sign * sol.duals))
    for j in range(lp.n_vars):
        if np.isfinite(lp.lower[j]) and rc[j] > 0:
            total += lp.lower[j] * rc[j]
        if np.isfinite(lp.upper[j]) and rc[j] < 0:
            total += lp.upper[j] * rc[j]
    return sign * total


class TestAgainstScipy:
    def _reference(self, lp):
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        sign = 1.0 if lp.sense == "min" else -1.0
        for i, rel in enumerate(lp.relations):
            if rel == "<=":
                A_ub.append(lp.lhs[i]); b_ub.append(lp.rhs[i])
            elif rel == ">=":
                A_ub.append(-lp.lhs[i]); b_ub.append(-lp.rhs[i])
            else:
                A_eq.append(lp.lhs[i]); b_eq.append(lp.rhs[i])
        bounds = [
            (None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
            for lo, hi in zip(lp.lower, lp.upper)
        ]
        kwargs = dict(
            c=sign * lp.objective,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds,
            method="highs",
        )
        ref = linprog(**kwargs)
        if ref.status == 2:
            # presolve can fold "unbounded" into "infeasible"; disambiguate
            ref = linprog(**kwargs, options={"presolve": False})
        status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status, "other")
        return status, (sign * ref.fun if ref.status == 0 else None)

    def test_random_lps(self):
        rng = np.random.default_rng(42)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(250):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            lp = make_lp(
                rng.normal(size=n).round(2),
                rng.normal(size=(m, n)).round(2),
                rng.choice(["<=", "=", ">="], size=m),
                rng.normal(size=m).round(2),
                lower=np.where(rng.random(n) < 0.3, -np.inf, 0.0),
                upper=np.where(rng.random(n) < 0.3, rng.uniform(0.5, 3.0, n), np.inf),
                sense=rng.choice(["min", "max"]),
            )
            mine = solve_lp(lp)
            ref_status, ref_obj = self._reference(lp)
            assert mine.status == ref_status
            statuses[mine.status] += 1
            if mine.status == "optimal":
                assert mine.objective == pytest.approx(ref_obj, abs=1e-6)
                # primal feasibility within 1e-7
                resid = lp.lhs @ mine.x - lp.rhs
                for i, rel in enumerate(lp.relations):
                    if rel == "<=":
                        assert resid[i] <= 1e-7
                    elif rel == ">=":
                        assert resid[i] >= -1e-7
                    else:
                        assert abs(resid[i]) <= 1e-7
                assert np.all(mine.x >= lp.lower - 1e-7)
                assert np.all(mine.x <= lp.upper + 1e-7)
                # dual feasibility within 1e-7: reduced costs must point the
                # right way at finite bounds and vanish on free variables
                sgn = 1.0 if lp.sense == "min" else -1.0
                rc = sgn * lp.objective - lp.lhs.T @ (sgn * mine.duals)
                for j in range(lp.n_vars):
                    if np.isinf(lp.lower[j]) and np.isinf(lp.upper[j]):
                        assert abs(rc[j]) <= 1e-7
                    elif np.isinf(lp.upper[j]):
                        assert rc[j] >= -1e-7
                    elif np.isinf(lp.lower[j]):
                        assert rc[j] <= 1e-7
                # strong duality certificate
                assert _dual_objective(lp, mine) == pytest.approx(
                    mine.objective, abs=1e-6
                )
                # complementary slackness per row
                assert np.max(np.abs(mine.duals * resid)) <= 1e-6
                # dual sign convention per row type
                for i, rel in enumerate(lp.relations):
                    if rel == "<=":
                        assert sgn * mine.duals[i] <= 1e-9
                    elif rel == ">=":
                        assert sgn * mine.duals[i] >= -1e-9
        # the draw must exercise every status
        assert min(statuses.values()) > 0


def test_active_backend_reported():
    assert kernel_backend() == "python"
