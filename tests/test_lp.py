import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from minregret.lp import (
    LinearProgram,
    kernel_backend,
    solve_lp,
    solve_matrix_game,
)


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
