import itertools
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

import minregret.decompose as decompose_mod
from minregret.core import (
    PROB_DROP,
    InstanceError,
    IterationLimitError,
    MarginalVector,
    NotInHullError,
    PlayerMixedStrategy,
    SolverError,
    marginal_of_strategy,
)
from minregret.decompose import (
    _decompose_by_min_norm,
    _offset_intervals,
    decompose_marginal,
)
from minregret.gen import generate_instance
from minregret.nominal import (
    DagPathOracle,
    ExplicitOracle,
    KSelectionOracle,
    SpanningTreeOracle,
    build_oracle,
)
from minregret.solvers import solve_randomized

from conftest import RepeatingOracle, random_support_strategy


class TestDecomposeExamples:
    def test_indicator_gives_degenerate_strategy(self):
        oracle = KSelectionOracle(4, 2)
        T = oracle.enumerate_feasible()[3]
        y = decompose_marginal(MarginalVector(T.indicator.astype(float)), oracle)
        assert y.support_size == 1
        assert y.support[0] == T
        assert y.probs[0] == 1.0

    def test_half_half_on_one_of_two(self):
        oracle = KSelectionOracle(2, 1)
        y = decompose_marginal(MarginalVector(np.array([0.5, 0.5])), oracle)
        got = {T.indices: float(p) for T, p in zip(y.support, y.probs)}
        assert got == {(0,): pytest.approx(0.5), (1,): pytest.approx(0.5)}

    def test_two_of_three_uniform_marginal(self):
        oracle = KSelectionOracle(3, 2)
        p = MarginalVector(np.full(3, 2.0 / 3.0))
        y = decompose_marginal(p, oracle)
        err = np.max(np.abs(marginal_of_strategy(y).p - p.p))
        assert err <= 1e-7
        assert y.support_size <= 4
        for T in y.support:
            assert oracle.is_feasible(T)

    @pytest.mark.parametrize("length", [3, 5])
    def test_length_mismatch_is_an_input_fault(self, length):
        # a marginal of the wrong length is the caller's fault, not a
        # numerical breakdown
        with pytest.raises(InstanceError, match="marginal length differs"):
            decompose_marginal(MarginalVector(np.full(length, 0.5)), KSelectionOracle(4, 2))


class TestCertifyInHull:
    """A membership verdict is a decomposition or a separating certificate."""

    def test_membership(self):
        oracle = KSelectionOracle(2, 1)
        strategy = decompose_marginal(MarginalVector(np.array([0.5, 0.5])), oracle)
        assert isinstance(strategy, PlayerMixedStrategy)

    def test_rejection_with_certificate(self):
        oracle = KSelectionOracle(2, 1)
        with pytest.raises(NotInHullError) as info:
            decompose_marginal(MarginalVector(np.array([0.0, 0.0])), oracle)
        cert = info.value
        # soundness: w - u.T <= 0 on every feasible set, w - p@u > 0
        best = min(cert.u[0], cert.u[1])
        assert cert.w - best <= 1e-9
        assert cert.w - 0.0 > 0.0

    def test_random_convex_combinations_are_members(self, rng):
        oracle = KSelectionOracle(5, 2)
        family = oracle.enumerate_feasible()
        for _ in range(10):
            idx = rng.choice(len(family), size=4, replace=False)
            probs = rng.dirichlet(np.ones(4))
            y0 = PlayerMixedStrategy.cleaned([family[i] for i in idx], probs)
            p = marginal_of_strategy(y0)
            strategy = decompose_marginal(p, oracle)
            assert np.max(np.abs(marginal_of_strategy(strategy).p - p.p)) <= 1e-7

    def test_mass_mismatch_rejected(self):
        # every feasible set has one item, so the marginal mass must be 1
        oracle = KSelectionOracle(2, 1)
        with pytest.raises(NotInHullError) as info:
            decompose_marginal(MarginalVector(np.array([0.9, 0.9])), oracle)
        cert = info.value
        violation = cert.w - float(np.array([0.9, 0.9]) @ cert.u)
        assert violation > 0.0


def _counted_solves(monkeypatch, oracle):
    """A list that gains an entry at every ``oracle.solve`` call."""
    calls, solve = [], oracle.solve
    monkeypatch.setattr(oracle, "solve", lambda c: calls.append(None) or solve(c))
    return calls


class TestSetSizeRow:
    """Every spanning tree has V - 1 edges, so the hull lies on the row
    ``sum(p) = V - 1``, as the k-selection hull lies on ``sum(p) = k``.  A
    marginal off that row is rejected by the row itself, before any solve."""

    K5 = list(itertools.combinations(range(5), 2))

    @pytest.mark.parametrize("shift", [0.1, -0.1])
    def test_off_row_spanning_tree_marginal_gets_the_row(self, monkeypatch, shift):
        oracle = SpanningTreeOracle(5, self.K5)
        p = np.full(10, 0.4)  # sum 4 = V - 1; the uniform point of the hull
        p[3] += shift
        calls = _counted_solves(monkeypatch, oracle)
        with pytest.raises(NotInHullError, match="sum") as info:
            decompose_marginal(MarginalVector(p), oracle)
        u, w = info.value.u, info.value.w
        sign = 1.0 if shift < 0 else -1.0
        assert np.array_equal(u, np.full(10, sign)) and w == sign * 4
        assert calls == []
        # its own check, over the whole family: min_T u(T) >= w > p @ u
        trees = SpanningTreeOracle(5, self.K5).enumerate_feasible()
        assert min(float(u @ T.indicator) for T in trees) >= w
        assert w - float(p @ u) > 0.0

    def test_row_missed_by_more_than_tol_is_rejected(self):
        # 2e-7 spread over the fractional edges: each one moves by far less
        # than tol, the sum by twice tol
        oracle = build_oracle(generate_instance("spanning-tree", n=30, seed=1))
        rng = np.random.default_rng(30)
        sets = [oracle.solve(rng.random(oracle.n))[0] for _ in range(6)]
        y0 = PlayerMixedStrategy.cleaned(sets, rng.dirichlet(np.ones(6)))
        p = marginal_of_strategy(y0).p
        inside = np.flatnonzero((p > 0.1) & (p < 0.9))
        q = p.copy()
        q[inside] += 2e-7 / len(inside)
        with pytest.raises(NotInHullError, match="sum"):
            decompose_marginal(MarginalVector(q), oracle, tol=1e-7)
        _assert_decomposes(oracle, p, decompose_marginal(MarginalVector(p), oracle), 31)

    def test_on_row_marginal_outside_the_hull_reaches_wolfe(self, monkeypatch):
        # K5 with the triangle 0-1-2 at 1: four units of edges, but a cycle
        oracle = SpanningTreeOracle(5, self.K5)
        p = np.array([1.0 if max(e) <= 2 else 1.0 / 7.0 for e in self.K5])
        calls = _counted_solves(monkeypatch, oracle)
        with pytest.raises(NotInHullError, match="separated") as info:
            decompose_marginal(MarginalVector(p), oracle)
        assert calls
        monkeypatch.undo()
        _assert_sound_certificate(oracle, p, info.value)

    def test_set_size_of_each_family(self):
        assert KSelectionOracle(6, 3).set_size == 3
        assert SpanningTreeOracle(5, self.K5).set_size == 4
        dag = DagPathOracle(3, [(0, 1), (1, 2), (0, 2)], 0, 2)
        assert dag.set_size is None
        assert ExplicitOracle(3, [(0,), (1, 2)]).set_size is None


def _decomposition_oracles():
    return [
        KSelectionOracle(6, 3),
        SpanningTreeOracle(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]),
        DagPathOracle(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 0, 4),
    ]


class TestRoundTripProperties:
    @pytest.mark.parametrize(
        "oracle", _decomposition_oracles(), ids=lambda o: type(o).__name__
    )
    def test_round_trip_marginals(self, oracle):
        rng = np.random.default_rng(97)
        for _ in range(25):
            y0 = random_support_strategy(oracle, rng, max_support=oracle.n + 1)
            p = marginal_of_strategy(y0)
            y1 = decompose_marginal(p, oracle)
            assert np.max(np.abs(marginal_of_strategy(y1).p - p.p)) <= 1e-7
            assert y1.support_size <= oracle.n + 1
            for T in y1.support:
                assert oracle.is_feasible(T)

    @pytest.mark.parametrize(
        "oracle", _decomposition_oracles(), ids=lambda o: type(o).__name__
    )
    def test_rejection_soundness(self, oracle):
        rng = np.random.default_rng(31)
        rejected = 0
        for _ in range(25):
            p_raw = rng.random(oracle.n)
            try:
                decompose_marginal(MarginalVector(p_raw), oracle)
            except NotInHullError as exc:
                rejected += 1
                # certificate price is never beaten by any feasible set
                _, best = oracle.solve(exc.u)
                assert best >= exc.w - 1e-9
                assert exc.w - float(p_raw @ exc.u) > 0.0
        assert rejected > 0  # random points of the cube are mostly outside


class TestBeyondDeskScale:
    """DAG-path and spanning-tree marginals with n 30-40, on both sides of
    the hull.  In-hull marginals mix six nominal optima at random costs; the
    out-of-hull twin moves the largest coordinate down by 0.3, which breaks
    a linear equality every point of these hulls satisfies (flow conservation
    or the edge count of a spanning tree)."""

    @pytest.mark.parametrize("family", ["dag-path", "spanning-tree"])
    @pytest.mark.parametrize("n,seed", [(30, 1), (35, 2), (40, 3)])
    def test_both_sides_of_the_hull(self, family, n, seed):
        oracle = build_oracle(generate_instance(family, n=n, seed=seed))
        rng = np.random.default_rng(seed)
        sets = [oracle.solve(rng.random(oracle.n))[0] for _ in range(6)]
        y0 = PlayerMixedStrategy.cleaned(sets, rng.dirichlet(np.ones(len(sets))))
        p = marginal_of_strategy(y0).p

        y = decompose_marginal(MarginalVector(p), oracle)
        assert np.max(np.abs(marginal_of_strategy(y).p - p)) <= 1e-7
        assert y.support_size <= oracle.n + 1
        for T in y.support:
            assert oracle.is_feasible(T)

        q = p.copy()
        q[int(np.argmax(p))] -= 0.3
        with pytest.raises(NotInHullError) as info:
            decompose_marginal(MarginalVector(q), oracle)
        u, w = info.value.u, info.value.w
        assert oracle.solve(u)[1] >= w - 1e-7
        assert w - float(q @ u) > 0.0


def _assert_decomposes(oracle, p, y, max_support):
    assert np.max(np.abs(marginal_of_strategy(y).p - p)) <= 1e-7
    assert y.support_size <= max_support
    for T in y.support:
        assert oracle.is_feasible(T)


def _assert_sound_certificate(oracle, p, exc):
    # no feasible set beats the certificate's price, yet p does
    assert oracle.solve(exc.u)[1] >= exc.w - 1e-9
    assert exc.w - float(p @ exc.u) > 0.0


def test_k_selection_n120_in_hull_marginal():
    """The in-hull k-selection n=120 marginal of the decompose benchmark, on
    the general path.  The cutting-plane LP that path used to run, solved
    cold at every cut, ended in ``status breakdown`` after about 290 s.  The
    public path samples it exactly."""
    n = 120
    oracle = build_oracle(generate_instance("k-selection", n=n, uncertainty="interval", seed=1))
    rng = np.random.default_rng([1, 14])
    X = np.stack([oracle.solve(rng.random(n))[0].indicator for _ in range(6)])
    w = rng.random(6)
    p = (w / w.sum()) @ X.astype(float)

    y = _decompose_by_min_norm(MarginalVector(p), oracle)
    assert np.max(np.abs(marginal_of_strategy(y).p - p)) <= 1e-7
    assert y.support_size <= n + 1
    for T in y.support:
        assert oracle.is_feasible(T)

    _assert_decomposes(oracle, p, decompose_marginal(MarginalVector(p), oracle), n)


def _verdict(decompose, oracle, p, max_support):
    """True with a checked strategy, or False with a checked certificate."""
    try:
        y = decompose(MarginalVector(p), oracle)
    except NotInHullError as exc:
        _assert_sound_certificate(oracle, p, exc)
        return False
    _assert_decomposes(oracle, p, y, max_support)
    return True


EXACT_FAMILIES = ["k-selection", "dag-path"]
EXACT_SIZES = [(10, 1), (25, 2), (40, 3)]  # (n, seed)


def _check_exact_against_lp(family, n, seed):
    oracle = build_oracle(generate_instance(family, n=n, seed=seed))
    exact_support = n + 1 if family == "k-selection" else n
    rng = np.random.default_rng([seed, n])
    for _ in range(3):
        sets = [oracle.solve(rng.random(n))[0] for _ in range(6)]
        y0 = PlayerMixedStrategy.cleaned(sets, rng.dirichlet(np.ones(len(sets))))
        p = marginal_of_strategy(y0).p
        nudged = p.copy()
        e = int(rng.integers(n))
        nudged[e] += 0.1 if nudged[e] <= 0.5 else -0.1
        lowered = p.copy()
        e = int(np.argmax(p))
        lowered[e] -= min(0.3, lowered[e])
        for marginal, in_hull in ((p, True), (nudged, False), (lowered, False)):
            assert _verdict(decompose_marginal, oracle, marginal, exact_support) is in_hull
            assert _verdict(_decompose_by_min_norm, oracle, marginal, n + 1) is in_hull


class TestExactAgainstLP:
    """Systematic sampling (k-selection) and flow peeling (DAG paths) against
    the general minimum-norm-point path on mixes of random optima, their
    +-0.1 shifted twins (the benchmark's out-of-hull marginals) and their
    -0.3 shifted twins."""

    @pytest.mark.parametrize("family", EXACT_FAMILIES)
    @pytest.mark.parametrize("n,seed", EXACT_SIZES)
    def test_same_verdicts(self, family, n, seed):
        _check_exact_against_lp(family, n, seed)


class TestExactPathEdgeCases:
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_k_selection_indicators_give_one_set(self, k):
        oracle = KSelectionOracle(6, k)
        for T in oracle.enumerate_feasible()[:5]:
            y = decompose_marginal(MarginalVector(T.indicator.astype(float)), oracle)
            assert y.support == (T,)

    def test_dag_path_indicators_give_one_set(self):
        oracle = _decomposition_oracles()[2]
        for T in oracle.enumerate_feasible():
            y = decompose_marginal(MarginalVector(T.indicator.astype(float)), oracle)
            assert y.support == (T,)

    def test_breakpoint_at_round_off_below_one_wraps_to_zero(self):
        p = np.full(20, 0.1)
        assert np.cumsum(p)[9] < 1.0  # 0.9999999999999999: one unit's end
        rows, lengths = _offset_intervals(p, 2)
        assert np.all(lengths > PROB_DROP)
        assert len({row.tobytes() for row in rows}) == len(rows) == 10
        assert np.all(rows.sum(axis=1) == 2)
        y = decompose_marginal(MarginalVector(p), KSelectionOracle(20, 2))
        assert y.support_size == 10
        assert np.allclose(y.probs, 0.1, rtol=0.0, atol=1e-12)

    def test_items_at_one_across_a_power_of_two(self):
        # The running sum passes 1024 inside an item at 1, whose stretch
        # then rounds to more than one unit; a cut placed just within
        # PROB_DROP below its start would let one offset pick it twice.
        x = 0.2543
        start = (1023.0 + x) - 1023.0
        end = (1024.0 + x) - 1024.0
        assert end > start
        c = start - PROB_DROP + (end - start) / 2
        p = np.array([c, 1.0 - c] + [1.0] * 1022 + [x, 1.0, 1.0 - x])
        oracle = KSelectionOracle(len(p), 1025)
        _assert_decomposes(oracle, p, decompose_marginal(MarginalVector(p), oracle), len(p))

    @pytest.mark.parametrize("last", [0.6 - 5e-8, 0.6 + 5e-8], ids=["short", "long"])
    def test_sum_within_tol_of_k(self, last):
        # the item just below 1 must stay below 1 as the sum moves onto k
        p = np.array([1.0, 1.0 - 3e-8, 0.4, last])
        oracle = KSelectionOracle(4, 3)
        _assert_decomposes(oracle, p, decompose_marginal(MarginalVector(p), oracle), 4)

    def test_many_items_within_round_off_of_one(self):
        # Counted as 1, they leave 3e-9 more than one unit to the rest, which
        # must shrink evenly: the last item alone is smaller than the excess.
        p = np.array([1.0 - 3e-12] * 1000 + [0.5, 0.5, 1e-10])
        oracle = KSelectionOracle(len(p), 1001)
        _assert_decomposes(oracle, p, decompose_marginal(MarginalVector(p), oracle), len(p))

    def test_flow_within_tol_into_a_dead_end_is_left_over(self):
        # arc 3 leads from s to node 3, which has no way on to t
        oracle = DagPathOracle(4, [(0, 1), (1, 2), (0, 2), (0, 3)], 0, 2)
        p = np.array([0.5, 0.5, 0.5, 1e-9])
        y = decompose_marginal(MarginalVector(p), oracle)
        _assert_decomposes(oracle, p, y, 3)
        assert y.support_size == 2

    @pytest.mark.parametrize(
        "arc,extra",
        [
            ((5, 3), [(5, 3), (3, 4)]),  # its tail is unreachable from s
            ((4, 6), [(4, 6)]),  # its tail is t
        ],
        ids=["into-a-path", "out-of-t"],
    )
    def test_flow_off_every_path_is_rejected(self, arc, extra):
        # two s-t paths 0-1-4 and 0-2-3-4, plus the arcs of ``extra``
        arcs = [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)]
        arcs += [a for a in extra if a not in arcs]
        oracle = DagPathOracle(7, arcs, 0, 4)
        p = np.array([0.5, 0.5, 0.5, 0.5, 0.5] + [0.0] * (len(arcs) - 5))
        for a in extra:
            p[arcs.index(a)] += 0.4
        assert p[arcs.index(arc)] == 0.4
        with pytest.raises(NotInHullError) as info:
            decompose_marginal(MarginalVector(p), oracle)
        _assert_sound_certificate(oracle, p, info.value)
        assert set(np.unique(info.value.u)) <= {-1.0, 0.0, 1.0}


class TestExactPathsAtScale:
    """Large marginals on the exact paths; each takes well under a second."""

    def test_k_selection_n2000(self):
        n, k = 2000, 500
        oracle = KSelectionOracle(n, k)
        r = np.random.default_rng(2000).random(n)
        p = r * (k / r.sum())
        _assert_decomposes(oracle, p, decompose_marginal(MarginalVector(p), oracle), n)
        q = p.copy()
        q[0] += 0.1
        with pytest.raises(NotInHullError) as info:
            decompose_marginal(MarginalVector(q), oracle)
        _assert_sound_certificate(oracle, q, info.value)

    def test_dag_path_n400(self):
        n = 400
        oracle = build_oracle(generate_instance("dag-path", n=n, seed=4))
        rng = np.random.default_rng(400)
        sets = [oracle.solve(rng.random(n))[0] for _ in range(40)]
        y0 = PlayerMixedStrategy.cleaned(sets, rng.dirichlet(np.ones(len(sets))))
        p = marginal_of_strategy(y0).p
        _assert_decomposes(oracle, p, decompose_marginal(MarginalVector(p), oracle), n)
        q = p.copy()
        q[int(np.argmax(p))] -= 0.1
        with pytest.raises(NotInHullError) as info:
            decompose_marginal(MarginalVector(q), oracle)
        _assert_sound_certificate(oracle, q, info.value)


def test_regenerated_violated_row_raises():
    oracle = KSelectionOracle(6, 3)
    p = MarginalVector(np.full(6, 0.5))
    assert decompose_marginal(p, oracle).support_size > 1
    with pytest.raises(SolverError, match="stalled: the minimum-norm point re-generated a set"):
        _decompose_by_min_norm(p, RepeatingOracle(oracle))


def test_cut_budget_raises_iteration_limit(monkeypatch):
    oracle = build_oracle(generate_instance("spanning-tree", n=12, seed=1))
    rng = np.random.default_rng(3)
    y = PlayerMixedStrategy.cleaned(
        [oracle.solve(rng.random(12))[0] for _ in range(4)], rng.dirichlet(np.ones(4))
    )
    p = marginal_of_strategy(y)
    assert _decompose_by_min_norm(p, oracle).support_size > 1
    monkeypatch.setattr(decompose_mod, "MAX_CUTS", 1)
    with pytest.raises(IterationLimitError) as info:
        _decompose_by_min_norm(p, oracle)
    assert info.value.iterations == 1


def _forced_mix(oracle, rng, sets=6):
    """Marginal of a random mix of nominal optima at random costs, forced to
    have an item at 1 and two at 0: the first item of the largest of four
    nominal optima T is priced at -n and two items outside T at +n, so every
    optimum contains the first and avoids the others, as T does."""
    n = oracle.n
    T = max((oracle.solve(rng.random(n))[0] for _ in range(4)), key=lambda T: T.size)
    costs = rng.random((sets, n))
    costs[:, T.indices[0]] = -n
    costs[:, np.flatnonzero(T.indicator == 0)[:2]] = n
    y = PlayerMixedStrategy.cleaned(
        [oracle.solve(c)[0] for c in costs], rng.dirichlet(np.ones(sets))
    )
    p = marginal_of_strategy(y).p.copy()
    assert np.any(p <= PROB_DROP) and np.any(p >= 1.0 - PROB_DROP)
    return p


class TestFixedItems:
    """The general path keeps its oracle on p's face, the sets that avoid
    the items within PROB_DROP of 0 and hold those within PROB_DROP of 1,
    and falls back to the whole family when that face cannot decide."""

    @pytest.mark.parametrize("family", ["k-selection", "dag-path"])
    @pytest.mark.parametrize("n,seed", [(12, 1), (30, 2)])
    def test_same_verdicts_as_the_exact_paths(self, family, n, seed):
        oracle = build_oracle(generate_instance(family, n=n, seed=seed))
        rng = np.random.default_rng([seed, n, 7])
        for _ in range(3):
            p = _forced_mix(oracle, rng)
            raised = p.copy()  # an item at 0 moves off it
            raised[int(np.argmin(p))] += 0.3
            lowered = p.copy()  # an item at 1 moves off it
            lowered[int(np.argmax(p))] -= 0.3
            cases = [(p, True), (raised, False), (lowered, False)]
            fractional = np.flatnonzero((p > PROB_DROP) & (p < 1.0 - PROB_DROP))
            if fractional.size:  # a fractional item moves by a tenth
                nudged = p.copy()
                nudged[rng.choice(fractional)] -= 0.1 * p[fractional].min()
                cases.append((nudged, False))
            for marginal, in_hull in cases:
                assert _verdict(decompose_marginal, oracle, marginal, n + 1) is in_hull
                assert _verdict(_decompose_by_min_norm, oracle, marginal, n + 1) is in_hull

    def test_zero_edges_that_disconnect_the_graph(self):
        # K5 with every edge at vertex 4 at 0, and K4 on the rest at 1/2
        # each, which is a point of K4's spanning-tree hull
        edges = list(itertools.combinations(range(5), 2))
        oracle = SpanningTreeOracle(5, edges)
        p = np.array([0.0 if 4 in e else 0.5 for e in edges])
        with pytest.raises(NotInHullError) as info:
            _decompose_by_min_norm(MarginalVector(p), oracle)
        _assert_sound_certificate(oracle, p, info.value)

    def test_edges_at_one_that_form_a_cycle(self):
        # K5 with the triangle 0-1-2 at 1; the other seven edges share the
        # fourth unit, so the edge count of a tree holds
        edges = list(itertools.combinations(range(5), 2))
        oracle = SpanningTreeOracle(5, edges)
        p = np.array([1.0 if max(e) <= 2 else 1.0 / 7.0 for e in edges])
        assert p.sum() == pytest.approx(4.0)
        with pytest.raises(NotInHullError) as info:
            _decompose_by_min_norm(MarginalVector(p), oracle)
        _assert_sound_certificate(oracle, p, info.value)

    def test_zero_edges_at_a_vertex_of_a_generated_graph(self):
        oracle = build_oracle(generate_instance("spanning-tree", n=40, seed=1))
        rng = np.random.default_rng(40)
        p = _forced_mix(oracle, rng)
        q = p.copy()
        q[[e for e, edge in enumerate(oracle.edges) if 0 in edge]] = 0.0
        assert q.sum() < p.sum()
        with pytest.raises(NotInHullError) as info:
            _decompose_by_min_norm(MarginalVector(q), oracle)
        _assert_sound_certificate(oracle, q, info.value)

    @pytest.mark.parametrize(
        "family,n", [("spanning-tree", 30), ("k-selection", 20), ("dag-path", 30)]
    )
    def test_items_within_prob_drop_of_a_bound(self, family, n):
        oracle = build_oracle(generate_instance(family, n=n, seed=3))
        rng = np.random.default_rng([n, 3])
        p = _forced_mix(oracle, rng)
        p[p == 0.0] = 0.5 * PROB_DROP
        p[p >= 1.0 - PROB_DROP] = 1.0 - 0.5 * PROB_DROP
        _assert_decomposes(oracle, p, _decompose_by_min_norm(MarginalVector(p), oracle), n + 1)


@pytest.mark.parametrize(
    "family,n", [("spanning-tree", 30), ("k-selection", 20), ("dag-path", 30)]
)
def test_face_run_that_cannot_certify_falls_back_to_the_whole_family(family, n):
    """With items within PROB_DROP of 0 and 1 but not on them, the face
    penalty costs a certificate up to (2n + 1) * PROB_DROP per such item,
    more than a marginal shifted 1e-5 off the hull can clear.  The run goes
    on over the whole family, which rejects p with unpenalized costs."""
    oracle = build_oracle(generate_instance(family, n=n, seed=3))
    rng = np.random.default_rng([n, 3])
    p = _forced_mix(oracle, rng)
    p[p == 0.0] = 0.9 * PROB_DROP
    p[p >= 1.0 - PROB_DROP] = 1.0 - 0.9 * PROB_DROP
    p[np.flatnonzero((p > PROB_DROP) & (p < 1.0 - PROB_DROP))[0]] += 1e-5
    with pytest.raises(NotInHullError) as info:
        _decompose_by_min_norm(MarginalVector(p), oracle)
    _assert_sound_certificate(oracle, p, info.value)
    assert np.max(np.abs(info.value.u)) <= 1.0  # |x_e| <= 1: no penalty


def _highs_member(X, p):
    """Whether ``p`` is a convex combination of the rows of ``X``, by HiGHS."""
    A = np.vstack([X.T, np.ones(len(X))])
    res = linprog(
        np.zeros(len(X)), A_eq=A, b_eq=np.append(p, 1.0), bounds=(0, None), method="highs"
    )
    assert res.status in (0, 2)
    return res.status == 0


def _explicit_family(rng, n):
    """An explicit family of up to 12 random sets of 2-5 of ``n`` items, and
    its indicator rows."""
    sets = [rng.choice(n, size=int(rng.integers(2, 6)), replace=False) for _ in range(12)]
    oracle = ExplicitOracle(n, [sorted(s) for s in sets])
    return oracle, np.stack([T.indicator for T in oracle.family]).astype(float)


@pytest.mark.parametrize("seed", range(20))
def test_explicit_families_agree_with_highs(seed):
    _check_explicit_against_highs(seed)


def _check_explicit_against_highs(seed):
    n = 6 + seed % 7
    rng = np.random.default_rng([seed, n])
    oracle, X = _explicit_family(rng, n)
    marginals = []
    for size in (1, 2, 4, 6):  # one set: every item at 0 or 1
        idx = rng.choice(len(X), size=min(size, len(X)), replace=False)
        p = rng.dirichlet(np.ones(len(idx))) @ X[idx]
        marginals += [p, np.clip(p + rng.choice([-0.1, 0.1], n), 0.0, 1.0)]
    marginals += [rng.random(n) for _ in range(4)]
    verdicts = set()
    for p in marginals:
        in_hull = _highs_member(X, p)
        verdicts.add((in_hull, bool(np.any((p <= PROB_DROP) | (p >= 1.0 - PROB_DROP)))))
        assert _verdict(_decompose_by_min_norm, oracle, p, n + 1) is in_hull
        assert _verdict(decompose_marginal, oracle, p, n + 1) is in_hull
    # both verdicts, each on a marginal with an item at 0 or 1
    assert {(True, True), (False, True)} <= verdicts


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 12), size=st.integers(1, 6))
def test_explicit_mixes_and_their_shifted_twins(seed, n, size):
    """A random mix of an explicit family decomposes into at most n + 1 sets.
    Its +-0.1 shifted twin decomposes where HiGHS finds it in the hull, and
    is rejected elsewhere with a certificate that one oracle solve over the
    whole family checks."""
    rng = np.random.default_rng(seed)
    oracle, X = _explicit_family(rng, n)
    idx = rng.choice(len(X), size=min(size, len(X)), replace=False)
    p = rng.dirichlet(np.ones(len(idx))) @ X[idx]
    _assert_decomposes(oracle, p, decompose_marginal(MarginalVector(p), oracle), n + 1)
    twin = np.clip(p + rng.choice([-0.1, 0.1], n), 0.0, 1.0)
    assert _verdict(decompose_marginal, oracle, twin, n + 1) is _highs_member(X, twin)


def test_k_selection_n200_optimal_marginal_on_the_lp_path():
    """The k-selection interval n=200 seed 1 optimal marginal (54 items at 0
    and 64 at 1) on the general path, which as a cutting-plane LP with a
    column per item gave up on it after 61-95 s with ``breakdown
    (singular-basis)``; it takes well under a second."""
    n = 200
    instance = generate_instance("k-selection", n=n, uncertainty="interval", seed=1)
    oracle = build_oracle(instance)
    p = solve_randomized(instance).marginal.p
    y = _decompose_by_min_norm(MarginalVector(p), oracle)
    _assert_decomposes(oracle, p, y, n + 1)


def test_epsilon_mix_of_k_selection_n85_optimal_marginal():
    """The k-selection interval n=85 and n=200 seed 1 optimal marginals mixed
    with the uniform point, ``(1 - 1e-9) p + 1e-9 k/n``, which leaves no
    item at 0 or 1, decompose on the general path.  As a cutting-plane LP
    that path ended both in ``breakdown (singular-basis)``; the LP layout
    is still pinned in ``test_lp.py``."""
    for n in (85, 200):
        instance = generate_instance("k-selection", n=n, uncertainty="interval", seed=1)
        oracle = build_oracle(instance)
        p = solve_randomized(instance).marginal.p
        mixed = (1.0 - 1e-9) * p + 1e-9 * oracle.k / n
        y = _decompose_by_min_norm(MarginalVector(mixed), oracle)
        _assert_decomposes(oracle, mixed, y, n + 1)


def test_spanning_tree_n300_optimal_marginal():
    """``solve_randomized``'s optimal marginal of spanning-tree interval n=300
    seed 1 (243 edges at 0, 13 at 1) decomposes through the general path."""
    n = 300
    instance = generate_instance("spanning-tree", n=n, uncertainty="interval", seed=1)
    oracle = build_oracle(instance)
    p = solve_randomized(instance).marginal.p
    _assert_decomposes(oracle, p, decompose_marginal(MarginalVector(p), oracle), n + 1)


@pytest.mark.parametrize("n, cap", [(200, 30.0), (400, 10.0)])
def test_dense_spanning_tree_mixes(n, cap):
    """Mixes of 2n random trees on n edges leave no edge at 0 or 1, so the
    minimum-norm-point decomposition runs on every edge; it finishes within
    ``cap`` seconds."""
    oracle = build_oracle(generate_instance("spanning-tree", n=n, seed=1))
    rng = np.random.default_rng(1)
    X = np.array([oracle.solve(rng.random(n))[0].indicator for _ in range(2 * n)])
    w = rng.random(len(X))
    p = w / w.sum() @ X
    assert np.all((p > 0.0) & (p < 1.0))
    started = time.perf_counter()
    y = decompose_marginal(MarginalVector(p), oracle)
    assert time.perf_counter() - started < cap
    _assert_decomposes(oracle, p, y, n + 1)
