import copy
import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

import minregret.lp as lpmod
import minregret.solvers as solvers_mod
from minregret.core import SolverError
from minregret.gen import generate_instance
from minregret.lp import (
    LpSolution,
    MatrixGame,
    WarmLP,
    _kernel,
    kernel_backend,
    solve_matrix_game,
)
from minregret.nominal import build_oracle
from minregret.regret import extreme_cost_vector
from minregret.solvers import solve_randomized

from conftest import RepeatingOracle


def _with_budget(monkeypatch, budget):
    """Every ``WarmLP`` solve gets a pivot budget of ``budget``."""
    run_bursts = lpmod._run_bursts
    monkeypatch.setattr(
        lpmod,
        "_run_bursts",
        lambda T, basis, nonbasic, problem, _, **options: run_bursts(
            T, basis, nonbasic, problem, budget, **options
        ),
    )


class TestSolveLpExamples:
    """Hand-checked LPs, each a ``WarmLP`` first solve.  The class keeps the
    name it had when these examples ran through the two-phase solver, so
    its tests keep their ids."""

    def test_unbounded_maximization(self):
        sol = WarmLP([1.0], [[-1.0]], [0.0]).solve()  # max x s.t. x >= 0
        assert sol.status == "unbounded"
        assert sol.x is None and sol.duals is None

    def test_two_variable_system_with_duals(self):
        # max x1 + x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6: both rows bind at
        # (1.6, 1.2), and y = (0.4, 0.2) solves y1 + 3 y2 = 1, 2 y1 + y2 = 1
        sol = WarmLP([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0]).solve()
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.6, 1.2])
        assert sol.objective == pytest.approx(2.8)
        assert np.allclose(sol.duals, [0.4, 0.2], atol=1e-9)

    def test_breakdown_status_after_pivot_budget(self, monkeypatch):
        _with_budget(monkeypatch, 1)
        sol = WarmLP([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0]).solve()
        assert sol.status == "breakdown"
        assert sol.reason == "budget"
        assert sol.status_text == "breakdown (budget)"
        assert sol.pivots <= 1
        assert sol.refreshes == 1  # after the one-pivot burst

    def test_bounds_are_markers_not_sentinels(self):
        for upper in ([-np.inf], [np.nan], [-1.0]):
            with pytest.raises(ValueError):
                WarmLP([1.0], [[1.0]], [1.0], upper=upper)
        # inf is no bound: the LP keeps no bound arrays at all
        assert WarmLP([1.0], [[1.0]], [1.0], upper=[np.inf]).flipped is None

    def test_fixed_variable_box(self):
        # x1 is boxed at 0: it would improve, but it flips to its bound 0
        sol = WarmLP([1.0, 1.0], [[1.0, 1.0]], [10.0], upper=[0.0, 3.0]).solve()
        assert sol.status == "optimal"
        assert np.array_equal(sol.x, [0.0, 3.0])

    def test_bounded_without_rows(self):
        # no row for the primal ratio test: both variables flip to their bound
        sol = WarmLP([1, 2], np.empty((0, 2)), [], upper=[1, 1]).solve()
        assert (sol.status, sol.objective) == ("optimal", 3.0)
        assert np.array_equal(sol.x, [1.0, 1.0])
        assert (sol.dual_pivots, sol.primal_pivots) == (0, 2)

    def test_warm_bounded_without_rows(self):
        # bounds are fixed at construction: a bounded LP re-solves, but does not grow
        lp = WarmLP([1, 1], np.empty((0, 2)), [], upper=1.0)
        assert (lp.solve().objective, lp.solve().pivots) == (2.0, 0)
        with pytest.raises(ValueError, match="does not grow"):
            lp.grow(columns=(np.empty((0, 1)), [-1.0]))
        with pytest.raises(ValueError, match="does not grow"):
            lp.grow(rows=([[1.0, 1.0]], [1.0]))
        assert lp.shape == (0, 2)
        # inf is no bound, so this LP grows
        lp = WarmLP([1, 1], np.empty((0, 2)), [], upper=np.inf)
        lp.grow(rows=([[1.0, 1.0]], [1.0]))
        assert lp.solve().objective == 1.0


class TestPivotCounts:
    """``LpSolution`` splits its pivots by the kernel pass that made them."""

    def test_appended_row_is_repaired_by_dual_pivots(self):
        lp = WarmLP([1.0, 1.0], np.eye(2), [1.0, 1.0])
        first = lp.solve()
        assert (first.dual_pivots, first.primal_pivots) == (0, 2)
        lp.grow(rows=([[1.0, 1.0]], [1.5]))  # cuts off the optimum (1, 1)
        sol = lp.solve()
        assert sol.objective == pytest.approx(1.5)
        assert (sol.dual_pivots, sol.primal_pivots) == (1, 0)

    def test_appended_column_enters_by_primal_pivots(self):
        lp = WarmLP([1.0, 1.0], np.eye(2), [1.0, 1.0])
        lp.solve()
        lp.grow(columns=([[1.0], [0.0]], [3.0]))  # an improving column
        sol = lp.solve()
        assert sol.objective == pytest.approx(4.0)
        assert (sol.dual_pivots, sol.primal_pivots) == (0, sol.pivots)
        assert sol.primal_pivots > 0


class TestMatrixGameExamples:
    def test_matching_pennies(self):
        row, col, value = solve_matrix_game([[1.0, -1.0], [-1.0, 1.0]])
        assert value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(row, [0.5, 0.5])
        assert np.allclose(col, [0.5, 0.5])

    def test_empty_payoff_rejected(self):
        with pytest.raises(ValueError, match="^payoff must be a nonempty 2-D matrix$"):
            solve_matrix_game([])

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
        # a solve whose row duals are off must not pass as an equilibrium,
        # nor its re-priced re-solve (both run WarmLP._solve)
        real_solve = WarmLP._solve

        def skewed(lp, *args):
            sol = real_solve(lp, *args)
            duals = sol.duals.copy()
            duals[0] += 1.0
            return LpSolution(
                sol.status, sol.x, duals, sol.objective, sol.dual_pivots, sol.primal_pivots
            )

        monkeypatch.setattr(WarmLP, "_solve", skewed)
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


class TestAgainstScipy:
    """Random ``max c·x s.t. A x <= b, 0 <= x <= u`` with ``b >= 0``, some
    unbounded, solved by ``WarmLP`` and by HiGHS: cold, and warm after
    growth.  Every solve has HiGHS's status and, when optimal, its objective,
    and certifies itself at its basis: primal and dual feasibility,
    nonnegative duals, strong duality and complementary slackness."""

    @staticmethod
    def _reference(c, A, b, upper):
        kwargs = dict(
            c=-c,
            A_ub=A,
            b_ub=b,
            bounds=[(0, None if u == np.inf else u) for u in upper],
            method="highs",
        )
        ref = linprog(**kwargs)
        if ref.status == 2:
            # presolve can fold "unbounded" into "infeasible"; disambiguate
            ref = linprog(**kwargs, options={"presolve": False})
        status = {0: "optimal", 3: "unbounded"}.get(ref.status, "other")
        return status, (-ref.fun if ref.status == 0 else None)

    def _check(self, sol, c, A, b, upper):
        ref_status, ref_obj = self._reference(c, A, b, upper)
        assert sol.status == ref_status
        if sol.status != "optimal":
            return
        # the objective relative to the LP's scale
        assert sol.objective == pytest.approx(ref_obj, abs=1e-9 * max(1.0, abs(ref_obj)))
        # primal feasibility within 1e-7
        slack = b - A @ sol.x
        assert np.all(slack >= -1e-7)
        assert np.all(sol.x >= -1e-7) and np.all(sol.x <= upper + 1e-7)
        # dual feasibility within 1e-7: nonnegative row duals, and a
        # positive reduced cost only where an upper bound can absorb it
        assert np.all(sol.duals >= -1e-9)
        rc = c - A.T @ sol.duals
        assert np.all(rc[upper == np.inf] <= 1e-7)
        # strong duality certificate: b·y plus the bound terms
        bounded = upper < np.inf
        dual_obj = float(b @ sol.duals + upper[bounded] @ np.maximum(rc[bounded], 0.0))
        assert dual_obj == pytest.approx(sol.objective, abs=1e-6)
        # complementary slackness per row
        assert np.max(np.abs(sol.duals * slack)) <= 1e-6

    def test_random_lps(self):
        rng = np.random.default_rng(42)
        statuses = {"optimal": 0, "unbounded": 0}
        for _ in range(250):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            c = rng.normal(size=n).round(2)
            A = rng.normal(size=(m, n)).round(2)
            b = np.abs(rng.normal(size=m)).round(2)
            upper = np.where(rng.random(n) < 0.3, rng.uniform(0.5, 3.0, n), np.inf)
            sol = WarmLP(c, A, b, upper=upper).solve()
            self._check(sol, c, A, b, upper)
            statuses[sol.status] += 1
        # the draw must exercise both statuses
        assert min(statuses.values()) > 0

    def test_random_lp_corpus(self, monkeypatch):
        """First solves, with and without finite bounds, and warm solves of
        the LPs without, grown by rows, columns or both in one ``grow``; some
        under dual Bland's rule.  Small integers, so that ratios tie."""
        runs = _kernel_runs(monkeypatch)
        rng = np.random.default_rng(11)
        statuses = set()
        for case in range(240):
            monkeypatch.setattr(_kernel, "DUAL_STALL_PIVOTS", (0, 1, 50, 50, 50)[case % 5])
            bounded = case % 2 == 0
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            c = rng.integers(-3, 4, size=n).astype(float)
            u = rng.choice([0.0, 1.0, 2.0, np.inf], size=n) if bounded else None
            b = rng.integers(0, 5, size=m).astype(float)
            lp = WarmLP(c, A, b, upper=u)
            sol = lp.solve()
            self._check(sol, c, A, b, np.full(n, np.inf) if u is None else u)
            statuses.add(sol.status)
            if bounded or case % 3 == 2:
                continue
            for step in range(6):
                rows = columns = None
                if step % 3 != 1:
                    lhs, rhs = rng.integers(-1, 4, size=(3, len(c))), rng.integers(0, 3, size=3)
                    rows = (lhs, rhs)
                    A, b = np.vstack([A, lhs]), np.append(b, rhs)
                if step % 3 != 0:
                    lhs, cost = rng.integers(0, 4, size=(len(b), 2)), rng.integers(-1, 4, size=2)
                    columns = (lhs, cost)
                    A, c = np.hstack([A, lhs]), np.append(c, cost)
                lp.grow(rows, columns)
                sol = lp.solve()
                self._check(sol, c, A, b, np.full(len(c), np.inf))
                statuses.add(sol.status)
        assert {"optimal", "unbounded"} <= statuses
        for bounded in (False, True):
            assert any(used > dual for used, dual, finite, _, _ in runs if finite == bounded)
        assert any(dual for _, dual, finite, _, _ in runs if not finite)  # grown: dual pivots
        for dantzig in (False, True):  # both pricing rules made primal pivots
            assert any(used > dual for used, dual, _, rule, _ in runs if rule == dantzig)


def test_active_backend_reported():
    assert kernel_backend() == "python"


def _kernel_runs(monkeypatch):
    """A list that collects ``(pivots, dual pivots, bounded, dantzig,
    exchanges)`` per later ``run_simplex`` call, each basis exchange as (row,
    entering variable); the dual pass comes first and flips no bound.  It
    wraps the kernel functions in place, spies included."""
    runs, exchanges = [], []
    real_pivot, real_run = _kernel.pivot_inplace, _kernel.run_simplex

    def pivot(tableau, basis, nonbasic, row, col):
        exchanges.append((row, int(nonbasic[col])))
        real_pivot(tableau, basis, nonbasic, row, col)

    def run(T, basis, nonbasic, max_pivots, tol, upper=None, dantzig=False, **options):
        start = len(exchanges)
        status, used, dual = real_run(
            T, basis, nonbasic, max_pivots, tol, upper=upper, dantzig=dantzig, **options
        )
        runs.append((used, dual, upper is not None, dantzig, exchanges[start:]))
        return status, used, dual

    monkeypatch.setattr(_kernel, "pivot_inplace", pivot)
    monkeypatch.setattr(_kernel, "run_simplex", run)
    return runs


def _recorded_run(monkeypatch, T, basis, nonbasic, **options):
    """``run_simplex`` with every basis exchange recorded as (row, entering
    variable); returns ``(status, pivots used, exchanges)``."""
    runs = _kernel_runs(monkeypatch)
    status, used, _ = _kernel.run_simplex(T, basis, nonbasic, 100, 1e-9, **options)
    return status, used, runs[-1][4]


def test_optimal_tol_reprices_reduced_costs_but_not_pivot_elements():
    # min over x1, x2 >= 0 from the slack basis of one row: x1 costs
    # -5e-10 with a unit column, x2 costs -5e-10 with a column of 5e-10,
    # below the pivot tolerance.  Columns: x1 x2 | rhs; basis: the slack (2).
    def tableau(x2_entry):
        T = np.array([[1.0, x2_entry, 1.0], [-5e-10, -5e-10, 0.0]])
        return T, np.array([2], dtype=np.intp), np.array([0, 1], dtype=np.intp)

    T, basis, nonbasic = tableau(1.0)
    assert _kernel.run_simplex(T, basis, nonbasic, 10, 1e-9)[:2] == (_kernel.STATUS_OPTIMAL, 0)
    status, pivots, _ = _kernel.run_simplex(T, basis, nonbasic, 10, 1e-9, optimal_tol=1e-12)
    assert (status, pivots, list(basis)) == (_kernel.STATUS_OPTIMAL, 1, [0])
    # with x1 at zero cost only x2 is eligible, and its column has no pivot
    # element above 1e-9, so the re-priced pass finds no leaving row
    T, basis, nonbasic = tableau(5e-10)
    T[1, 0] = 0.0
    status, pivots, _ = _kernel.run_simplex(T, basis, nonbasic, 10, 1e-9, optimal_tol=1e-12)
    assert (status, pivots) == (_kernel.STATUS_UNBOUNDED, 0)


class TestKernelDualPass:
    """``min -x1 - x2 s.t. x1 <= 1, x2 <= 1`` at its optimum, with the row
    ``x1 + x2 <= 1.5`` appended (its slack s3 basic at -0.5) and a new
    column x3 whose ratio 0.1/2 would beat the old columns' 1/1.

    Variables are x1 x2 s1 s2 s3 x3 (0..5); the condensed tableau has the
    nonbasic columns s1 s2 x3 and the basis x1 x2 s3.  Pivots are recorded
    as (row, entering variable)."""

    X3 = 2  # tableau column of x3

    @staticmethod
    def _tableau(row3=(-1.0, -1.0, -2.0, -0.5)):
        # columns: s1 s2 x3 | rhs
        T = np.array(
            [
                [1.0, 0.0, 0.0, 1.0],
                [0.0, 1.0, 0.0, 1.0],
                list(row3),
                [1.0, 1.0, 0.1, 2.0],
            ]
        )
        return T, np.array([0, 1, 4], dtype=np.intp), np.array([2, 3, 5], dtype=np.intp)

    def _run(self, monkeypatch, T, basis, nonbasic):
        status, used, pivots = _recorded_run(monkeypatch, T, basis, nonbasic)
        assert used == len(pivots)
        return status, pivots

    def test_violated_row_repaired_by_the_smallest_ratio(self, monkeypatch):
        T, basis, nonbasic = self._tableau()
        status, pivots = self._run(monkeypatch, T, basis, nonbasic)
        assert status == _kernel.STATUS_OPTIMAL
        # x3 (ratio 0.05) enters for s3, not s1 or s2 (ratio 1), and the
        # tableau is optimal at once: no primal pivot follows
        assert pivots == [(2, 5)]
        assert list(basis) == [0, 1, 5]
        assert sorted(nonbasic) == [2, 3, 4]
        assert np.all(T[:3, -1] >= 0.0) and np.all(T[3, :-1] >= 0.0)
        assert T[2, -1] == pytest.approx(0.25)  # x3
        assert T[3, -1] == pytest.approx(1.975)  # minus the objective -2 + 0.1 * 0.25

    def test_dual_infeasible_column_waits_for_the_primal_pass(self, monkeypatch):
        T, basis, nonbasic = self._tableau()
        # x3 appended with a negative reduced cost and a bounded ray
        T[:, self.X3] = [0.0, 1.0, -2.0, -0.1]
        status, pivots = self._run(monkeypatch, T, basis, nonbasic)
        assert status == _kernel.STATUS_OPTIMAL
        # the dual pass enters s1, not x3; the primal pass then enters x3
        assert pivots[:2] == [(2, 2), (2, 5)]
        assert np.all(T[:3, -1] >= 0.0) and np.all(T[3, :-1] >= 0.0)

    def test_dual_infeasible_column_repairs_when_nothing_else_can(self, monkeypatch):
        T, basis, nonbasic = self._tableau(row3=(0.0, 0.0, -2.0, -0.5))
        T[:, self.X3] = [0.0, 1.0, -2.0, -0.1]
        status, pivots = self._run(monkeypatch, T, basis, nonbasic)
        assert status == _kernel.STATUS_OPTIMAL
        assert pivots[0] == (2, 5)
        assert np.all(T[:3, -1] >= 0.0) and np.all(T[3, :-1] >= 0.0)

    def test_pivot_sequence_is_deterministic(self, monkeypatch):
        runs = []
        for _ in range(2):
            T, basis, nonbasic = self._tableau()
            T[:, self.X3] = [0.0, 1.0, -2.0, -0.1]
            runs.append(self._run(monkeypatch, T, basis, nonbasic) + (T, basis, nonbasic))
        (s1, p1, T1, b1, n1), (s2, p2, T2, b2, n2) = runs
        assert s1 == s2 and p1 == p2
        assert np.array_equal(T1, T2) and np.array_equal(b1, b2) and np.array_equal(n1, n2)

    @pytest.mark.parametrize("row3", [(-1.0, -1.0, -2.0, -0.5), (0.0, 0.0, -2.0, -0.5)])
    @pytest.mark.parametrize("x3", [None, (0.0, 1.0, -2.0, -0.1)])
    def test_ties_break_by_variable_not_column(self, monkeypatch, row3, x3):
        # the same LP with its nonbasic columns stored in every order
        runs = []
        for order in itertools.permutations(range(3)):
            T, basis, nonbasic = self._tableau(row3)
            if x3 is not None:
                T[:, self.X3] = x3
            T = np.ascontiguousarray(T[:, list(order) + [3]])
            nonbasic = nonbasic[list(order)]
            status, pivots = self._run(monkeypatch, T, basis, nonbasic)
            by_variable = T[:, np.argsort(nonbasic).tolist() + [3]]
            runs.append((status, pivots, list(basis), by_variable))
        for status, pivots, basis, T in runs[1:]:
            assert (status, pivots, basis) == runs[0][:3]
            assert np.allclose(T, runs[0][3], atol=1e-12)


class TestKernelBounds:
    """Hand-built LPs with upper bounds, run from the tableau at a starting
    basis.  Each run is checked against the dense formula at the basis and
    flips it ends at, so a complemented row left behind, a missed
    un-complement or a wrong right-hand side after a flip all show.

    Problems are ``(A, b, costs, upper)`` as ``_refresh`` takes them;
    pivots are recorded as (row, entering variable)."""

    @staticmethod
    def _start(problem, basis, flipped=None):
        width = len(problem[2])
        basis = np.asarray(basis, dtype=np.intp)
        nonbasic = np.setdiff1d(np.arange(width), basis).astype(np.intp)
        flipped = np.zeros(width, dtype=np.uint8) if flipped is None else np.asarray(
            flipped, dtype=np.uint8
        )
        T = np.ascontiguousarray(_dense_refresh(basis, nonbasic, *problem, flipped=flipped))
        return T, basis, nonbasic, flipped

    def _solve(self, monkeypatch, problem, basis, flipped=None, **options):
        T, basis, nonbasic, flipped = self._start(problem, basis, flipped)
        status, used, exchanges = _recorded_run(
            monkeypatch, T, basis, nonbasic, upper=problem[3], flipped=flipped, **options
        )
        dense = _dense_refresh(basis, nonbasic, *problem, flipped=flipped)
        assert np.max(np.abs(T - dense)) <= 1e-12
        return status, used, exchanges, basis, flipped, T

    def test_primal_bound_flip_without_basis_change(self, monkeypatch):
        # min -x1 s.t. x1 + x2 <= 5, x1 <= 2: x1 reaches its bound before
        # the row binds, so its column flips and the slack stays basic
        problem = (np.array([[1.0, 1.0]]), np.array([5.0]), np.array([-1.0, 0.0, 0.0]),
                   np.array([2.0, np.inf, np.inf]))
        status, used, exchanges, basis, flipped, T = self._solve(monkeypatch, problem, [2])
        assert status == _kernel.STATUS_OPTIMAL
        assert (used, exchanges) == (1, [])  # one bound flip, no basis exchange
        assert list(basis) == [2] and list(flipped) == [1, 0, 0]
        assert T[0, -1] == pytest.approx(3.0)  # the slack, 5 - 2
        assert T[1, -1] == pytest.approx(2.0)  # minus the objective -2

    def test_basic_variable_leaves_at_its_upper_bound(self, monkeypatch):
        # x1 - x2 <= 1 with x1 basic at 1 and x1 <= 3, x2 <= 10; min -x2.
        # x2 enters and lifts x1, which leaves at 3, flipped.
        problem = (np.array([[1.0, -1.0], [0.0, 1.0]]), np.array([1.0, 10.0]),
                   np.array([0.0, -1.0, 0.0, 0.0]), np.array([3.0, np.inf, np.inf, np.inf]))
        status, used, exchanges, basis, flipped, T = self._solve(monkeypatch, problem, [0, 3])
        assert status == _kernel.STATUS_OPTIMAL
        assert exchanges[0] == (0, 1)  # x2 enters the row of x1
        assert flipped[0] == 1 and 0 not in basis
        assert used == len(exchanges)
        assert T[-1, -1] == pytest.approx(10.0)  # x2 = 10

    def test_flipped_variable_enters_and_its_row_is_uncomplemented(self, monkeypatch):
        # min x1 s.t. x1 >= 0.5 (as -x1 <= -0.5), x1 <= 2, from x1 = 2:
        # lowering x1 hits the row at 0.5 before the bound at 0
        problem = (np.array([[-1.0]]), np.array([-0.5]), np.array([1.0, 0.0]),
                   np.array([2.0, np.inf]))
        status, used, exchanges, basis, flipped, T = self._solve(
            monkeypatch, problem, [1], flipped=[1, 0]
        )
        assert status == _kernel.STATUS_OPTIMAL
        assert exchanges == [(0, 0)]
        assert list(basis) == [0] and not flipped.any()
        assert T[0, -1] == pytest.approx(0.5)  # x1 itself, not 2 - x1

    def test_dual_pass_repairs_a_row_above_its_upper_bound(self, monkeypatch):
        # x1 + x2 <= 5 with x1 basic at 5 but x1 <= 2; min -x1 + 0.5 x2 is
        # dual feasible there.  The row is complemented and x1 leaves at 2.
        problem = (np.array([[1.0, 1.0]]), np.array([5.0]), np.array([-1.0, 0.5, 0.0]),
                   np.array([2.0, np.inf, np.inf]))
        status, used, exchanges, basis, flipped, T = self._solve(monkeypatch, problem, [0])
        assert status == _kernel.STATUS_OPTIMAL
        assert exchanges == [(0, 2)]  # the slack (ratio 1) beats x2 (1.5)
        assert list(flipped) == [1, 0, 0]
        assert T[0, -1] == pytest.approx(3.0)
        assert T[1, -1] == pytest.approx(2.0)  # minus the objective -2

    def test_row_no_flip_can_close_is_infeasible(self, monkeypatch):
        # x1 + x2 + x3 + x4 >= 5 (as a <= row with its slack basic), costs
        # 1, 2, 3, 4 (the ratios), every variable boxed at 1: x1..x4 enter
        # in ratio order, each above its bound, and each leaves at its bound
        # as the next one enters; the complemented row of x4 has no repair
        problem = (np.full((1, 4), -1.0), np.array([-5.0]), np.array([1.0, 2.0, 3.0, 4.0, 0.0]),
                   np.array([1.0, 1.0, 1.0, 1.0, np.inf]))
        status, used, exchanges, basis, flipped, T = self._solve(monkeypatch, problem, [4])
        assert status == _kernel.STATUS_INFEASIBLE
        assert (used, exchanges) == (4, [(0, 0), (0, 1), (0, 2), (0, 3)])
        assert list(basis) == [3] and list(flipped) == [1, 1, 1, 0, 0]
        assert T[0, -1] == pytest.approx(2.0)  # x4, at rest, past its bound 1

    @pytest.mark.parametrize("dantzig,entered", [(True, [1, 2, 0]), (False, [0, 1, 2])])
    def test_dantzig_ties_break_by_variable_under_permutations(
        self, monkeypatch, dantzig, entered
    ):
        # min -0.5 x1 - x2 - x3 s.t. x_i <= 1: Dantzig enters x2 before x3
        # (tied, lower index) and x1 last; Bland enters in index order
        problem = (np.eye(3), np.ones(3), np.array([-0.5, -1.0, -1.0, 0.0, 0.0, 0.0]),
                   np.full(6, np.inf))
        for order in itertools.permutations(range(3)):
            T, basis, nonbasic, flipped = self._start(problem, [3, 4, 5])
            T = np.ascontiguousarray(T[:, list(order) + [3]])
            nonbasic = nonbasic[list(order)]
            status, used, exchanges = _recorded_run(
                monkeypatch, T, basis, nonbasic, dantzig=dantzig
            )
            assert status == _kernel.STATUS_OPTIMAL
            assert [var for _, var in exchanges] == entered


def _assert_dual_rules(T, leave, col, basis, nonbasic, ub, bland, tol):
    """Check the dual pivot at (``leave``, ``col``) of ``T`` against the
    leaving and entering rules, with the leaving row as the kernel pivots on
    it: complemented when its variable is above its bound (``ub``, one per
    row).  Returns which choices the pivot had: several infeasible rows
    (``rows``), distinct pivot elements near the least ratio (``sizes``), a
    dual infeasible candidate beside a feasible one (``waits``)."""
    m = len(basis)
    rhs, costs = T[:m, -1], T[m, :-1]
    # a complemented row holds u - x < 0, so its violation still reads -rhs
    violation = np.maximum(-rhs, rhs - ub)
    infeasible = (violation > tol).nonzero()[0]
    if bland:
        assert basis[leave] == basis[infeasible].min()  # dual Bland's rule
    else:
        assert leave == violation.argmax()  # the first of ties
    row = T[leave, :-1]
    candidates = (row < -tol).nonzero()[0]
    feasible = candidates[costs[candidates] >= -tol]
    waits = 0 < feasible.size < candidates.size
    if feasible.size:
        assert costs[col] >= -tol  # dual feasible first
        candidates = feasible
    ratios = np.maximum(costs[candidates], 0.0) / -row[candidates]
    assert col in candidates and max(costs[col], 0.0) / -row[col] <= ratios.min() + tol
    sizes = False
    if bland:
        ties = candidates[ratios == ratios.min()]
    else:
        near = candidates[ratios <= ratios.min() + tol]
        assert row[col] == row[near].min()  # the largest pivot element
        ties = near[row[near] == row[col]]
        sizes = len(set(row[near])) > 1
    assert nonbasic[col] == nonbasic[ties].min()  # ties by variable index
    return {"rows": infeasible.size > 1, "sizes": sizes, "waits": waits}


class TestKernelRules:
    """One hand-built tableau per pivot rule, built so that a kernel without
    the rule makes another exchange, and one dual pivot on each of 600
    random tableaux.  The kernel runs alone, with no refresh: elementwise
    IEEE arithmetic, so the pinned exchanges hold on every numpy and BLAS
    build.  The nonbasic variables come first, in column order; pivots are
    recorded as (row, entering variable)."""

    def _run(self, monkeypatch, rows, basis, stall=None, **options):
        """Exchanges of a run to optimality from ``rows`` (constraints, then
        reduced costs) at ``basis``, with ``DUAL_STALL_PIVOTS = stall``."""
        if stall is not None:
            monkeypatch.setattr(_kernel, "DUAL_STALL_PIVOTS", stall)
        T = np.array(rows, dtype=float)
        basis = np.array(basis, dtype=np.intp)
        nonbasic = np.setdiff1d(np.arange(len(basis) + T.shape[1] - 1), basis).astype(np.intp)
        status, used, exchanges = _recorded_run(monkeypatch, T, basis, nonbasic, **options)
        assert status == _kernel.STATUS_OPTIMAL and used == len(exchanges)
        assert np.all(T[:-1, -1] >= 0.0) and np.all(T[-1, :-1] >= -1e-9)
        return exchanges

    def test_primal_ratio_ties_go_to_the_lowest_basis_index(self, monkeypatch):
        # x0 empties both rows at once: x2's row (the second) leaves, not x3's
        rows = [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]]
        assert self._run(monkeypatch, rows, [3, 2]) == [(1, 0)]

    @pytest.mark.parametrize("gap,entering", [(0.0, 1), (5e-10, 1), (2e-9, 0)])
    def test_dual_entering_takes_the_largest_pivot_element_near_the_least_ratio(
        self, monkeypatch, gap, entering
    ):
        # x2's row: x0 at ratio 1/1, x1 with the larger pivot element at
        # (2 + 2 gap)/2, which enters while its ratio is within tol
        rows = [[-1.0, -2.0, -1.0], [1.0, 2.0 + 2.0 * gap, 0.0]]
        assert self._run(monkeypatch, rows, [2]) == [(0, entering)]

    @pytest.mark.parametrize("bound", [np.inf, 10.0])
    def test_dual_pass_repairs_the_most_infeasible_row_first(self, monkeypatch, bound):
        # x2 at -1 and x3 at -2, each with its own column; x0 <= 10 binds nothing
        rows = [[-1.0, 0.0, -1.0], [0.0, -1.0, -2.0], [1.0, 1.0, 0.0]]
        upper, flipped = np.array([bound, np.inf, np.inf, np.inf]), np.zeros(4, dtype=np.uint8)
        exchanges = self._run(monkeypatch, rows, [2, 3], upper=upper, flipped=flipped)
        assert exchanges == [(1, 1), (0, 0)]

    def test_dual_bland_rule(self, monkeypatch):
        # x2 at -1 and x3 at -2; on x2's row x0 and x1 tie at ratio 1.  The
        # default rule repairs x3's row, the most infeasible; dual Bland's
        # takes x2's (the lowest basis index) with x0 (the lowest variable
        # index, not the larger pivot element)
        rows = [[-1.0, -2.0, -1.0], [-1.0, 0.0, -2.0], [1.0, 2.0, 0.0]]
        assert self._run(monkeypatch, rows, [2, 3]) == [(1, 0)]
        assert self._run(monkeypatch, rows, [2, 3], stall=0) == [(0, 0), (1, 2)]

    def test_dual_bland_rule_ends_at_a_nondegenerate_pivot(self, monkeypatch):
        # Rows of x6 (at -3), x5 (-2) and x4 (-1), each with its own columns.
        # With one stalled pivot allowed, x0 repairs x6's row at ratio 0, so
        # dual Bland's rule takes x4's row next, at ratio 1; that moves the
        # dual objective, so the default rule repairs x5's row with x2, the
        # larger pivot element at ratio 1, not x1
        rows = [[-1.0, 0.0, 0.0, 0.0, -3.0], [0.0, -1.0, -2.0, 0.0, -2.0],
                [0.0, 0.0, 0.0, -1.0, -1.0], [0.0, 1.0, 2.0, 1.0, 0.0]]
        assert self._run(monkeypatch, rows, [6, 5, 4]) == [(0, 0), (1, 2), (2, 3)]
        assert self._run(monkeypatch, rows, [6, 5, 4], stall=1) == [(0, 0), (2, 3), (1, 2)]

    def test_dantzig_falls_back_to_bland_until_a_step_moves(self, monkeypatch):
        # Reduced costs -1, -3, -0.5, -2, each column with its own row, x1's
        # degenerate: Dantzig's rule enters x1, x3, x0, x2.  With one stalled
        # step allowed, x1's step hands the next to Bland's rule (x0), which
        # moves, so Dantzig's rule takes x3 next, not x2
        rows = [[0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 0.0, 1.0], [-1.0, -3.0, -0.5, -2.0, 0.0]]
        run = functools.partial(self._run, monkeypatch, rows, [4, 5, 6, 7], dantzig=True)
        assert run() == [(0, 1), (2, 3), (1, 0), (3, 2)]
        assert run(stall=1) == [(0, 1), (1, 0), (2, 3), (3, 2)]

    def test_random_dual_pivots_keep_the_rules(self, monkeypatch):
        """One dual pivot per tableau, whose infeasible rows each have a
        candidate column, checked against the leaving and entering rules read
        off the tableau before it; no reduced cost at least -tol falls below."""
        tol = 1e-9
        rng = np.random.default_rng(2024)
        seen = dict.fromkeys(("bland", "bounded", "unbounded", "rows", "sizes", "waits"), 0)
        for case in range(600):
            m, k = int(rng.integers(1, 5)), int(rng.integers(1, 12))
            # halves, so that ratios and pivot elements often tie
            T = rng.integers(-4, 5, size=(m + 1, k + 1)) / 2.0
            T[:m, -1] = np.abs(T[:m, -1])
            violated = rng.random(m) < 0.3
            violated[rng.integers(m)] = True
            T[:m, -1][violated] = -rng.integers(1, 12, size=int(violated.sum())) / 2.0
            T[:m, 0][violated] = np.minimum(T[:m, 0][violated], -0.5)
            if case % 3:  # dual feasible candidates, as the kernel prefers
                T[m, :-1] = np.abs(T[m, :-1])
            variables = rng.permutation(k + m).astype(np.intp)
            nonbasic, basis = variables[:k].copy(), variables[k:].copy()
            bland = case % 7 == 0
            bounds, ub = {}, np.full(m, np.inf)
            if case % 4:
                upper = rng.choice([0.5, 1.0, 2.0, np.inf], size=k + m)
                flipped = np.zeros(k + m, dtype=np.uint8)
                flipped[nonbasic] = rng.integers(0, 2, size=k) * np.isfinite(upper[nonbasic])
                ub = upper[basis]
                T[:m, -1][~violated] = np.minimum(T[:m, -1][~violated], ub[~violated])
                bounds = {"upper": upper, "flipped": flipped}
            before, basis0, nonbasic0 = T.copy(), basis.copy(), nonbasic.copy()
            monkeypatch.setattr(_kernel, "DUAL_STALL_PIVOTS", 0 if bland else 50)
            assert _kernel.run_simplex(T, basis, nonbasic, 1, tol, **bounds)[1:] == (1, 1)
            (leave,) = (basis != basis0).nonzero()[0]
            (col,) = (nonbasic0 == basis[leave]).nonzero()[0]
            if before[leave, -1] > ub[leave]:  # the kernel pivots on x' = u - x
                before[leave, :-1] *= -1.0
                before[leave, -1] = ub[leave] - before[leave, -1]
            choices = _assert_dual_rules(before, leave, col, basis0, nonbasic0, ub, bland, tol)
            costs = before[m, :-1]
            if costs[col] >= -tol:
                assert np.all(T[m, :-1][costs >= -tol] >= -tol)
            for choice, had in choices.items():
                seen[choice] += had
            seen["bland" if bland else "bounded" if bounds else "unbounded"] += 1
        assert min(seen.values()) >= 50, seen


def _full_matrix(A):
    """``A`` followed by the slack columns."""
    return np.hstack([A, np.eye(A.shape[0])])


def _dense_refresh(basis, nonbasic, A, b, costs, upper=None, flipped=None):
    """The full-basis formula: ``B⁻¹[A_N | b - A_U u_U]``, ``c_N - yA_N`` with
    ``Bᵀy = c_B``, where the nonbasic variables U that ``flipped`` marks sit
    at their ``upper`` bound, complemented: their columns and costs negated."""
    full = _full_matrix(A)
    B = full[:, basis]
    sign = np.ones(len(nonbasic))
    if flipped is not None:
        sign[flipped[nonbasic] != 0] = -1.0
    at_upper = nonbasic[sign < 0]
    bound = np.zeros(0) if upper is None else upper[at_upper]
    cols = full[:, nonbasic] * sign
    body = np.linalg.solve(B, np.column_stack([cols, b - full[:, at_upper] @ bound]))
    y = np.linalg.solve(B.T, costs[basis])
    reduced = sign * costs[nonbasic] - cols.T @ y
    objective = costs[basis] @ body[:, -1] + costs[at_upper] @ bound
    return np.vstack([body, np.append(reduced, -objective)])


class TestStructuredRefresh:
    """``_refresh`` factors only the block of the basis outside its basic
    slacks; it must agree with the dense full-basis formula within 1e-10."""

    @staticmethod
    def _layout(rng, m, g):
        A = rng.normal(size=(m, g))
        b = rng.uniform(0.0, 2.0, m)
        return A, b, rng.normal(size=g + m)

    @staticmethod
    def _basis(rng, m, g, structural):
        """``structural`` general basics and ``m - structural`` basic slacks, shuffled."""
        units = g + rng.choice(m, m - structural, replace=False)
        basis = rng.permutation(np.concatenate([rng.choice(g, structural, replace=False), units]))
        rest = np.setdiff1d(np.arange(g + m), basis)
        return basis.astype(np.intp), rng.permutation(rest).astype(np.intp)

    def _compare(self, basis, nonbasic, problem, flipped=None):
        T = np.full((len(basis) + 1, len(nonbasic) + 1), np.nan)
        if np.linalg.matrix_rank(_full_matrix(problem[0])[:, basis]) < len(basis):
            assert not lpmod._refresh(T, basis, nonbasic, *problem, flipped=flipped)
            return
        assert lpmod._refresh(T, basis, nonbasic, *problem, flipped=flipped)
        dense = _dense_refresh(basis, nonbasic, *problem, flipped=flipped)
        assert np.max(np.abs(T - dense)) <= 1e-10

    @pytest.mark.parametrize("m,g", [(6, 4), (8, 8), (5, 12), (1, 3)])
    def test_random_bases(self, m, g):
        rng = np.random.default_rng(10 * m + g)
        problem = self._layout(rng, m, g)
        for structural in sorted({0, min(m, g), 1 % (min(m, g) + 1), min(m, g) // 2}):
            for _ in range(5):
                self._compare(*self._basis(rng, m, g, structural), problem)

    @pytest.mark.parametrize("m,g", [(6, 4), (8, 8), (5, 12), (1, 3)])
    def test_flipped_nonbasics(self, m, g):
        # about half the nonbasic general variables at their upper bound
        rng = np.random.default_rng(100 + 10 * m + g)
        A, b, costs = self._layout(rng, m, g)
        upper = np.concatenate([rng.uniform(0.5, 3.0, g), np.full(m, np.inf)])
        problem = (A, b, costs, upper)
        seen = 0
        for structural in sorted({0, min(m, g), 1 % (min(m, g) + 1), min(m, g) // 2}):
            for _ in range(5):
                basis, nonbasic = self._basis(rng, m, g, structural)
                flipped = np.zeros(g + m, dtype=np.uint8)
                general = nonbasic[nonbasic < g]
                flipped[general[rng.random(len(general)) < 0.5]] = 1
                seen += int(flipped.sum())
                self._compare(basis, nonbasic, problem, flipped)
        assert seen > 0

    def test_singular_block(self):
        rng = np.random.default_rng(3)
        A, b, costs = self._layout(rng, 4, 3)
        # variable 0 is the unit column of row 0, whose slack (variable 3)
        # is basic: the block left after the basic slacks drop out is singular
        A[:, 0] = 0.0
        A[0, 0] = 1.0
        basis = np.array([0, 3, 1, 2], dtype=np.intp)
        nonbasic = np.setdiff1d(np.arange(7), basis).astype(np.intp)
        T = np.zeros((5, 4))
        assert not lpmod._refresh(T, basis, nonbasic, A, b, costs)

    def test_singular_basis_reaches_the_solution(self):
        # max x1 s.t. x1 <= 1, 0 <= 1, with a kept basis {x1, slack 0}: both
        # columns are e_0, so the confirming refresh finds it singular
        lp = WarmLP([1.0], [[1.0], [0.0]], [1.0, 1.0])
        lp.basis = np.array([0, 1], dtype=np.intp)
        lp.nonbasic = np.array([2], dtype=np.intp)
        lp._T = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        sol = lp.solve()
        assert (sol.status, sol.reason, sol.refreshes) == ("breakdown", "singular-basis", 1)


def _highs_max(c, A, b):
    res = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert res.status == 0
    return -float(res.fun), -res.ineqlin.marginals


def _assert_kept_tableau(lp):
    """The tableau a WarmLP starts its next solve from equals an exact refresh
    at the same basis within 1e-9."""
    fresh = np.empty_like(lp._T)
    assert lpmod._refresh(
        fresh, lp.basis.copy(), lp.nonbasic.copy(), *lp._problem(), flipped=lp.flipped
    )
    assert np.max(np.abs(lp._T - fresh)) <= 1e-9


class TestWarmAgainstCold:
    """Every warm solve starts from a kept tableau equal to a refresh at its
    basis within 1e-9 (after growing by rows, by columns and by both),
    matches a cold solve (a fresh ``WarmLP`` on the same data, priced by
    Dantzig's rule from the slack basis) within 1e-9 and HiGHS within 1e-7,
    and, when it takes fewer than ``BURST_PIVOTS`` pivots, runs exactly one
    refresh: the confirmation."""

    def _check(self, warm_lp, c, A, b, unique_duals=True):
        _assert_kept_tableau(warm_lp)
        warm = warm_lp.solve()
        if warm.pivots < lpmod.BURST_PIVOTS:
            assert warm.refreshes == 1
        cold = WarmLP(c, A, b).solve()
        highs_obj, highs_duals = _highs_max(c, A, b)
        assert warm.is_optimal and cold.is_optimal
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.objective == pytest.approx(highs_obj, abs=1e-7)
        if unique_duals:
            assert np.max(np.abs(warm.duals - cold.duals)) <= 1e-9
            assert np.max(np.abs(warm.duals - highs_duals)) <= 1e-7
        else:
            # A dual optimum need not be unique: check it is one, a y >= 0
            # with Aᵀy >= c and b·y at the optimum.
            assert np.all(warm.duals >= -1e-9)
            assert np.all(c - A.T @ warm.duals <= 1e-9)
            dual_obj = float(b @ warm.duals)
            assert dual_obj == pytest.approx(cold.objective, abs=1e-9)
            assert dual_obj == pytest.approx(highs_obj, abs=1e-7)
        return warm

    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree"])
    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_restricted_game_growth(self, family, n):
        # A double oracle over the pool P: each step appends the pool's best
        # column against the current row mix (an LP row, repaired by the
        # dual pass) and its best row against the column mix (an LP column,
        # entered by the primal pass); every third step appends only one.
        P = _restricted_game(family, n, seed=n)
        Q = 1.0 + P / max(float(P[0, 0]), 1.0)  # lo = 0: regrets are >= 0
        rows, cols = [0], [0]
        lp = WarmLP(np.ones(1), Q[:1, :1].T, np.ones(1))
        sol = self._check(lp, np.ones(1), Q[:1, :1].T, np.ones(1))
        for step in itertools.count():
            spare_cols = [j for j in range(P.shape[1]) if j not in cols]
            spare_rows = [i for i in range(P.shape[0]) if i not in rows]
            if not (spare_cols or spare_rows):
                break
            y = sol.x / sol.x.sum()
            z = sol.duals / sol.duals.sum()
            j = max(spare_cols, key=lambda j: y @ P[rows, j], default=None)
            i = min(spare_rows, key=lambda i: P[i, cols] @ z, default=None)
            if j is not None and step % 3 != 1:
                lp.grow(rows=(Q[rows, j][None, :], [1.0]))
                cols.append(j)
            if i is not None and step % 3 != 2:
                lp.grow(columns=(Q[i, cols][:, None], [1.0]))
                rows.append(i)
            sub = Q[np.ix_(rows, cols)]
            sol = self._check(lp, np.ones(len(rows)), sub.T, np.ones(len(cols)))

    def test_dual_bland_from_the_first_pivot(self, monkeypatch):
        # the anti-cycling fallback, which these games never reach on their
        # own, makes other dual exchanges on the same growth, each solve still
        # checked (on k-selection n=40 both rules make the same six)
        sequences = []
        for stall in (0, _kernel.DUAL_STALL_PIVOTS):
            monkeypatch.setattr(_kernel, "DUAL_STALL_PIVOTS", stall)
            runs = _kernel_runs(monkeypatch)
            self.test_restricted_game_growth("k-selection", 60)
            sequences.append([pivot for run in runs for pivot in run[4][: run[1]]])
        assert sequences[0] and sequences[0] != sequences[1]

    @pytest.mark.parametrize(
        "family,n", [("k-selection", 30), ("spanning-tree", 40), ("dag-path", 40)]
    )
    def test_decomposition_cut_rows(self, family, n):
        # the box t <= 2 as n explicit rows
        oracle = build_oracle(generate_instance(family, n=n, seed=1))
        rng = np.random.default_rng(n)
        sets = [oracle.solve(rng.random(n))[0] for _ in range(6)]
        p = rng.dirichlet(np.ones(6)) @ np.stack([T.indicator for T in sets])

        def check(lp, c, A, b):
            return self._check(lp, c, A, b, unique_duals=False)

        assert _cut_loop(oracle, p, check) >= 5

    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree"])
    def test_matrix_game_matches_one_shot(self, family):
        P = _restricted_game(family, 20, seed=7)
        game = MatrixGame(P[:1, :1])
        r = s = 1
        for step in itertools.count():
            if r == P.shape[0] and s == P.shape[1]:
                break
            if s < P.shape[1] and step % 3 != 1:
                game.grow(columns=P[:r, s : s + 1])
                s += 1
            if r < P.shape[0] and step % 3 != 2:
                game.grow(rows=P[r : r + 1, :s])
                r += 1
            row, col, value = game.solve()
            assert value == pytest.approx(solve_matrix_game(P[:r, :s])[2], abs=1e-9)
            assert np.max(row @ P[:r, :s]) <= value + 1e-9
            assert np.min(P[:r, :s] @ col) >= value - 1e-9

    def test_payoff_below_the_positive_range_raises(self):
        game = MatrixGame([[2.0, 3.0]])  # scale 3
        with pytest.raises(SolverError, match="not positive"):
            game.grow(rows=[[1.0, -3.0]])


_LP_STATE = ("_T", "basis", "nonbasic", "_A", "_b", "_c")


def _lp_state(lp):
    return {name: getattr(lp, name).copy() for name in _LP_STATE}


def _assert_same_bytes(state, lp):
    for name in _LP_STATE:
        mine = getattr(lp, name)
        assert mine.shape == state[name].shape and mine.tobytes() == state[name].tobytes(), name


class TestGrowth:
    """``WarmLP.grow`` appends rows, then columns over every row, in one
    step; ``MatrixGame.grow`` grows the game once.  A rejected growth leaves
    both as they were."""

    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree"])
    @pytest.mark.parametrize("n", [20, 40])
    def test_one_growth_equals_rows_then_columns(self, family, n):
        # the double oracle's growth on a random game, grown two ways at once
        P = _restricted_game(family, n, seed=n)
        Q = 1.0 + P / max(float(P[0, 0]), 1.0)
        rows, cols = [0], [0]
        fused, split = WarmLP(np.ones(1), Q[:1, :1].T, np.ones(1)), None
        rng = np.random.default_rng(n)
        while len(rows) + 2 <= P.shape[0] and len(cols) + 2 <= P.shape[1]:
            sol = fused.solve(iterate=True)
            split = copy.deepcopy(fused)
            new_cols = [len(cols) + t for t in range(int(rng.integers(1, 3)))]
            new_rows = [len(rows) + t for t in range(int(rng.integers(1, 3)))]
            grown_rows = (Q[np.ix_(rows, new_cols)].T, np.ones(len(new_cols)))
            cols += new_cols
            grown_columns = (Q[np.ix_(new_rows, cols)].T, np.ones(len(new_rows)))
            rows += new_rows
            fused.grow(grown_rows, grown_columns)
            split.grow(rows=grown_rows)
            split.grow(columns=grown_columns)
            _assert_same_bytes(_lp_state(split), fused)
            assert sol.is_optimal
        assert len(rows) > 10

    @pytest.mark.parametrize("grown", ["rows", "columns", "both"])
    @pytest.mark.parametrize("family", ["k-selection", "spanning-tree"])
    def test_grown_tableau_is_the_data_at_the_kept_basis(self, family, grown):
        # the growth formulas against the LP's own data: after growing a
        # confirmed optimum, the kept tableau is B⁻¹[A_N | b] with its
        # reduced costs at the kept basis
        P = _restricted_game(family, 20, seed=5)
        Q = 1.0 + P / max(float(P[0, 0]), 1.0)
        variables = constraints = 1  # the game's rows and columns in the LP
        lp = WarmLP(np.ones(1), Q[:1, :1].T, np.ones(1))
        rng = np.random.default_rng(5)
        checked = 0
        while variables + 2 <= Q.shape[0] and constraints + 2 <= Q.shape[1]:
            assert lp.solve().confirmed
            rows = columns = None
            if grown != "columns":
                k = int(rng.integers(1, 3))
                new = slice(constraints, constraints + k)
                rows = (Q[:variables, new].T, np.ones(k))
                constraints += k
            if grown != "rows":
                j = int(rng.integers(1, 3))
                new = slice(variables, variables + j)
                columns = (Q[new, :constraints].T, np.ones(j))
                variables += j
            lp.grow(rows, columns)
            assert lp.shape == (constraints, variables)
            dense = _dense_refresh(lp.basis, lp.nonbasic, *lp._problem())
            assert np.max(np.abs(lp._T - dense)) <= 1e-9 * np.max(np.abs(lp._T))
            checked += 1
        assert checked >= 9

    def test_game_growth_in_one_step(self):
        P = _restricted_game("spanning-tree", 20, seed=4)
        one, two = MatrixGame(P[:2, :2]), MatrixGame(P[:2, :2])
        one.grow(columns=P[:2, 2:4], rows=P[2:3, :4])
        two.grow(columns=P[:2, 2:4])
        two.grow(rows=P[2:3, :4])
        assert one.payoff.tobytes() == two.payoff.tobytes() == P[:3, :4].tobytes()
        _assert_same_bytes(_lp_state(two._lp), one._lp)
        row, col, value = one.solve()
        assert value == pytest.approx(solve_matrix_game(P[:3, :4])[2], abs=1e-9)

    @pytest.mark.parametrize(
        "rows,columns,match",
        [
            (([[1.0, np.nan]], [1.0]), None, "finite"),
            (([[1.0, 1.0]], [np.inf]), None, "finite"),
            (([[1.0, 1.0, 1.0]], [1.0]), None, r"expected \(1, 2\)"),
            (([[1.0, 1.0]], [[1.0]]), None, "1-D"),
            (([[1.0, 1.0]], [-1.0]), None, "nonnegative"),
            # columns must cover the old rows and the new one
            (([[1.0, 1.0]], [1.0]), ([[1.0], [1.0]], [1.0]), r"expected \(3, 1\)"),
            (([[1.0, 1.0]], [1.0]), ([[1.0], [1.0], [np.nan]], [1.0]), "finite"),
            (None, ([[1.0], [1.0]], [1.0, 2.0]), r"expected \(2, 2\)"),
        ],
    )
    def test_rejected_growth_leaves_the_lp_unchanged(self, rows, columns, match):
        lp = WarmLP([1.0, 1.0], np.eye(2), [1.0, 1.0])
        lp.solve()
        before = _lp_state(lp)
        with pytest.raises(ValueError, match=match):
            lp.grow(rows, columns)
        _assert_same_bytes(before, lp)
        assert lp.solve().objective == 2.0

    def test_raising_column_block_leaves_the_lp_unchanged(self):
        # _grow checks nothing, but takes the new rows only with the columns:
        # a column block that raises after the rows are built changes nothing
        lp = WarmLP([1.0, 1.0], np.eye(2), [1.0, 1.0])
        lp.solve()
        before = _lp_state(lp)
        rows = (np.ones((1, 2)), np.ones(1))
        with pytest.raises(ValueError):
            lp._grow(rows, (np.ones((2, 1)), np.ones(1)))  # misses the new row
        _assert_same_bytes(before, lp)
        assert lp.solve().objective == 2.0

    def test_bounded_lp_does_not_grow(self):
        lp = WarmLP([1.0, 1.0], np.eye(2), [1.0, 1.0], upper=[1.0, np.inf])
        before = _lp_state(lp)
        for rows, columns in ((([[1.0, 1.0]], [1.0]), None), (None, ([[1.0], [1.0]], [1.0]))):
            with pytest.raises(ValueError, match="does not grow"):
                lp.grow(rows, columns)
        _assert_same_bytes(before, lp)

    @pytest.mark.parametrize(
        "columns,rows,error,match",
        [
            ([[1.0], [np.inf]], None, ValueError, "finite"),
            ([[1.0]], None, ValueError, r"expected \(2, \*\)"),
            (None, [[1.0, 2.0, 3.0]], ValueError, r"expected \(\*, 2\)"),
            # the row must cover the new column too
            ([[1.0], [2.0]], [[1.0, 2.0]], ValueError, r"expected \(\*, 3\)"),
            ([[1.0], [2.0]], [[1.0, 2.0, np.nan]], ValueError, "finite"),
            ([[1.0], [-5.0]], [[1.0, 2.0, 3.0]], SolverError, "not positive"),
            ([[1.0], [2.0]], [[1.0, 2.0, -5.0]], SolverError, "not positive"),
        ],
    )
    def test_rejected_growth_leaves_the_game_unchanged(self, columns, rows, error, match):
        game = MatrixGame([[1.0, 2.0], [2.0, 1.0]])  # scale 2
        game.solve()
        payoff, lp = game.payoff.copy(), _lp_state(game._lp)
        with pytest.raises(error, match=match):
            game.grow(columns, rows)
        assert game.payoff.tobytes() == payoff.tobytes()
        _assert_same_bytes(lp, game._lp)
        assert game.solve()[2] == pytest.approx(1.5)

    def test_overflowing_shift_is_rejected_as_not_finite(self):
        # a finite payoff over a scale below 1 can overflow: the game checks
        # its shifted block, since the LP grows by it unchecked
        game = MatrixGame([[5e-324]])  # scale 5e-324
        lp = _lp_state(game._lp)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            game.grow(columns=[[1.0]])
        assert game.payoff.shape == (1, 1)
        _assert_same_bytes(lp, game._lp)

    def test_wrong_row_length_names_the_expected_shape(self):
        with pytest.raises(ValueError, match=r"shape \(1, 3\), expected \(\*, 2\)"):
            MatrixGame([[1, 2]]).grow(rows=[[1, 2, 3]])

    def test_bracket_span_follows_growth(self, monkeypatch):
        # each answer takes the span off the payoff it holds, grown ones too
        spans = []
        equilibrium = lpmod._equilibrium
        monkeypatch.setattr(
            lpmod,
            "_equilibrium",
            lambda P, scale, span, sol: spans.append(span) or equilibrium(P, scale, span, sol),
        )
        game = MatrixGame([[1.0, 2.0]])
        game.solve()
        game.grow(columns=[[7.0]], rows=[[0.5, 3.0, 4.0]])
        game.solve()
        assert spans == [1.0, 6.5]


def _cut_loop(oracle, p, solve):
    """The dual deviation LP of the marginal ``p``: ``max p.t + w+ - w-``
    with ``t`` in [0, 2] (``u = t - 1``; the box as n rows) and one row
    ``t(T) + w+ - w- <= |T|`` per generated set T.  It starts from the set
    at zero costs and appends the most violated set, one oracle solve at
    ``-u``, until none is violated by more than 1e-8.  ``solve(lp, c, A,
    b)`` solves each LP on the data so far; returns the number of cuts."""
    n = oracle.n

    def set_row(T):
        row = np.ones(n + 2)
        row[:n] = T.indicator
        row[n + 1] = -1.0
        return row

    c = np.concatenate([p, [1.0, -1.0]])
    T0 = oracle.solve(np.zeros(n))[0]
    A = np.vstack([np.eye(n, n + 2), set_row(T0)])
    b = np.concatenate([np.full(n, 2.0), [T0.size]])
    lp = WarmLP(c, A, b)
    cuts = 0
    while True:
        sol = solve(lp, c, A, b)
        u = sol.x[:n] - 1.0
        T, value = oracle.solve(-u)
        if -value + sol.x[n] - sol.x[n + 1] <= 1e-8:
            return cuts
        lp.grow(rows=(set_row(T)[None, :], [T.size]))
        A = np.vstack([A, set_row(T)])
        b = np.append(b, T.size)
        cuts += 1


@pytest.mark.xfail(raises=SolverError, strict=True)
def test_epsilon_mix_cut_rows_break_down():
    """The k-selection interval n=90 seed 1 optimal marginal mixed with the
    uniform point, ``(1 - 1e-9) p + 1e-9 k/n``, on the cut-row layout (the
    box as n rows, so no bound flips) with plain warm solves ends in
    ``breakdown (singular-basis)`` on a well-posed LP.  n=85, 95 and 99
    break down too; n=80, 93 and 100 solve.  The package's decomposition
    runs no LP, so this pin keeps the breakdown of the unbounded dual and
    refresh path, which the double oracle and the adversary LP run,
    visible.

    Where it goes wrong, measured by wrapping the kernel's pivots: cut-loop
    solve 356 (an LP of 446 rows and 92 columns) runs 35 dual and 989
    primal pivots in one burst.  Its primal ratio test pivots on elements
    down to 1.013e-9, just above ``PIVOT_TOL = 1e-9``; 15 of them are below
    1e-6.  Tableau entries reach 1.1e21 before the exact refresh finds the
    79 x 79 basis block singular.  At n=85 the failing solve (284) runs
    3,868 dual and 18,660 primal pivots, with elements down to 1.014e-9
    and entries up to 1.5e23.  No dual pivot enters a dual-infeasible
    column: 0 of the 9,229 at n=90, counting the solve that makes p.  So a fix starts at the primal leaving rule: an
    absolute 1e-9 test on the pivot element, with ties broken by basis
    index (Bland)."""
    n = 90
    instance = generate_instance("k-selection", n=n, uncertainty="interval", seed=1)
    oracle = build_oracle(instance)
    p = solve_randomized(instance).marginal.p
    mixed = (1.0 - 1e-9) * p + 1e-9 * oracle.k / n

    def solve(lp, *data):
        sol = lp.solve()
        if not sol.is_optimal:
            raise SolverError(f"cut-row LP ended with status {sol.status_text}")
        return sol

    try:
        _cut_loop(oracle, mixed, solve)
    except SolverError as exc:
        assert "breakdown (singular-basis)" in str(exc)
        raise


def _kernel_fault(reason):
    """A stand-in for ``_kernel.run_simplex`` that fails for ``reason``."""
    if reason == "budget":
        return lambda T, basis, nonbasic, max_pivots, tol, **bounds: (
            _kernel.STATUS_PIVOT_LIMIT,
            max_pivots,
            0,
        )
    if reason == "dual-infeasible":
        return lambda T, basis, nonbasic, max_pivots, tol, **bounds: (
            _kernel.STATUS_INFEASIBLE,
            0,
            0,
        )
    raise ValueError(reason)


class TestBreakdownReasons:
    """Each breakdown names its reason, in ``LpSolution.reason`` and in the
    ``SolverError`` of every generator, next to ``status breakdown``."""

    def _install(self, monkeypatch, reason):
        if reason == "singular-basis":
            monkeypatch.setattr(lpmod, "_refresh", lambda *args, **bounds: False)
        else:
            monkeypatch.setattr(_kernel, "run_simplex", _kernel_fault(reason))

    @pytest.mark.parametrize("reason", ["budget", "singular-basis", "dual-infeasible"])
    def test_reason_reaches_every_error(self, monkeypatch, reason):
        self._install(monkeypatch, reason)
        sol = WarmLP([1.0], [[1.0]], [1.0]).solve()
        assert (sol.status, sol.reason) == ("breakdown", reason)
        expected = rf"status breakdown \({reason}\)"
        with pytest.raises(SolverError, match="matrix-game LP ended with " + expected):
            MatrixGame([[1.0, 2.0]]).solve()
        with pytest.raises(SolverError, match="matrix-game LP ended with " + expected):
            solve_matrix_game([[1.0, 2.0]])

    def test_budget_without_a_fault(self, monkeypatch):
        # max x1 + x2 s.t. x1 <= 1, x2 <= 1 takes two pivots; allow one
        _with_budget(monkeypatch, 1)
        sol = WarmLP([1.0, 1.0], np.eye(2), [1.0, 1.0]).solve()
        assert (sol.status, sol.reason) == ("breakdown", "budget")

    def test_genuine_statuses_carry_no_reason(self):
        assert WarmLP([1.0], [[-1.0]], [0.0]).solve().reason is None  # unbounded
        assert WarmLP([1.0], [[1.0]], [1.0]).solve().reason is None  # optimal


def _checked_dual_pivots(monkeypatch):
    """A list that collects ``(bland, choices)`` per dual pivot of later
    ``run_simplex`` calls, each pivot checked by ``_assert_dual_rules`` on
    the tableau that ``_dual_entering`` reads; after a pivot that entered a
    dual feasible column, no reduced cost at least -tol has fallen below."""
    checked, state = [], {}
    real_run, real_entering = _kernel.run_simplex, _kernel._dual_entering
    real_pivot = _kernel.pivot_inplace

    def run(T, basis, nonbasic, max_pivots, tol, upper=None, **options):
        state.update(basis=basis, upper=upper)
        return real_run(T, basis, nonbasic, max_pivots, tol, upper=upper, **options)

    def entering(tableau, leave, candidates, nonbasic, bland, tol):
        enter, step = real_entering(tableau, leave, candidates, nonbasic, bland, tol)
        basis, upper = state["basis"], state["upper"]
        ub = np.full(len(basis), np.inf) if upper is None else upper[basis]
        choices = _assert_dual_rules(tableau, leave, enter, basis, nonbasic, ub, bland, tol)
        checked.append((bland, choices))
        costs = tableau[-1, :-1]
        state["kept"] = (costs >= -tol, tol) if costs[enter] >= -tol else None
        return enter, step

    def pivot(tableau, basis, nonbasic, row, col):
        real_pivot(tableau, basis, nonbasic, row, col)
        kept = state.pop("kept", None)  # None after a primal pivot
        if kept is not None:
            assert np.all(tableau[-1, :-1][kept[0]] >= -kept[1])

    monkeypatch.setattr(_kernel, "run_simplex", run)
    monkeypatch.setattr(_kernel, "_dual_entering", entering)
    monkeypatch.setattr(_kernel, "pivot_inplace", pivot)
    return checked


def _dual_pass_fixtures():
    """Tests above whose kernel runs reach the dual pass, each a callable of
    the monkeypatch fixture."""
    dual, bounds, warm = TestKernelDualPass(), TestKernelBounds(), TestWarmAgainstCold()
    fixtures = {
        "smallest-ratio": dual.test_violated_row_repaired_by_the_smallest_ratio,
        "column-waits": dual.test_dual_infeasible_column_waits_for_the_primal_pass,
        "column-repairs": dual.test_dual_infeasible_column_repairs_when_nothing_else_can,
        "permuted-ties": lambda mp: dual.test_ties_break_by_variable_not_column(
            mp, (-1.0, -1.0, -2.0, -0.5), (0.0, 1.0, -2.0, -0.1)
        ),
        "above-bound": bounds.test_dual_pass_repairs_a_row_above_its_upper_bound,
        "game-dual-bland": warm.test_dual_bland_from_the_first_pivot,
        "cuts-spanning-tree": lambda mp: warm.test_decomposition_cut_rows("spanning-tree", 40),
    }
    for family in ("k-selection", "spanning-tree"):
        fixtures[f"game-{family}"] = (
            lambda mp, family=family: warm.test_restricted_game_growth(family, 40)
        )
    return fixtures


_DUAL_PASS_FIXTURES = _dual_pass_fixtures()


class TestDualEnteringAgainstReference:
    """Every dual pivot of the fixtures above, checked against the rules as
    read off the tableau it is made on, by ``_assert_dual_rules``: the rules
    themselves are the reference, on tableaux that hand-built and random
    ones do not reach (restricted games, cut rows, bounded rows).  The
    fixtures keep their own pins, and their ids stay as they were."""

    @pytest.mark.parametrize("fixture", _DUAL_PASS_FIXTURES)
    def test_fixture_pivots_unchanged(self, monkeypatch, fixture):
        checked = _checked_dual_pivots(monkeypatch)
        _DUAL_PASS_FIXTURES[fixture](monkeypatch)
        assert checked  # the dual pass ran
        if fixture == "game-dual-bland":
            assert {bland for bland, _ in checked} == {False, True}


class TestGenerate:
    """The restricted-game loop's policy on the games it grows: it solves
    ``MatrixGame``s, and ``MatrixGame.solve`` is logged here as ``(iterate,
    confirmed)`` per call, in order."""

    @staticmethod
    def _log(monkeypatch):
        calls = []
        real = MatrixGame.solve

        def logged(self, iterate=False):
            answer = real(self, iterate=iterate)
            calls.append((iterate, self.confirmed))
            return answer

        monkeypatch.setattr(MatrixGame, "solve", logged)
        return calls

    def test_iterate_finish_is_confirmed(self, monkeypatch):
        inst = generate_instance("spanning-tree", n=12, uncertainty="interval", seed=1)
        calls = self._log(monkeypatch)
        game = solvers_mod._double_oracle(inst, 1e-7, 10000, build_oracle(inst))
        assert game.certified_gap <= 1e-7
        # the iterate that would finish is solved again, confirmed, and the
        # loop finishes there; the re-solve is not counted as an iteration
        assert calls[-2:] == [(True, False), (False, True)]
        assert game.iterations == sum(iterate for iterate, _ in calls) == len(calls) - 1

    def test_iterate_stall_is_confirmed_before_raising(self, monkeypatch):
        inst = generate_instance("spanning-tree", n=12, uncertainty="interval", seed=1)
        calls = self._log(monkeypatch)
        responses = []
        real = solvers_mod._RestrictedGame.responses

        def logged(self, y, w):
            answer = real(self, y, w)
            responses.append(answer)
            return answer

        monkeypatch.setattr(solvers_mod._RestrictedGame, "responses", logged)
        with pytest.raises(SolverError, match="^double oracle stalled with residual gap") as info:
            solvers_mod._double_oracle(inst, 1e-7, 10000, RepeatingOracle(build_oracle(inst)))
        # the first iterate has nothing new; the stall is raised only from
        # its confirmed re-solve, which has nothing new either
        assert calls == [(True, False), (False, True)]
        # the message carries the bracket of that re-solve, to the last bit
        found = re.search(
            r"gap (\S+) > .* at iteration 1, bracket \[(\S+), (\S+)\]$", str(info.value)
        )
        gap, lower, upper = map(float, found.groups())
        adv_value, _, play_value, _ = responses[-1]
        assert (lower, upper) == (play_value, adv_value)
        assert upper - lower == pytest.approx(gap, rel=1e-2) and gap > 1e-7
