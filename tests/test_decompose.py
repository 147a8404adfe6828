import numpy as np
import pytest

from minregret.core import (
    MarginalVector,
    NotInHullError,
    PlayerMixedStrategy,
    marginal_of_strategy,
)
from minregret.decompose import HullCertificate, certify_in_hull, decompose_marginal
from minregret.gen import generate_instance
from minregret.nominal import (
    DagPathOracle,
    KSelectionOracle,
    SpanningTreeOracle,
    build_oracle,
)

from conftest import random_support_strategy


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


class TestCertifyInHull:
    def test_membership(self):
        oracle = KSelectionOracle(2, 1)
        ok, strategy = certify_in_hull(MarginalVector(np.array([0.5, 0.5])), oracle)
        assert ok and isinstance(strategy, PlayerMixedStrategy)

    def test_rejection_with_certificate(self):
        oracle = KSelectionOracle(2, 1)
        ok, cert = certify_in_hull(MarginalVector(np.array([0.0, 0.0])), oracle)
        assert not ok and isinstance(cert, HullCertificate)
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
            ok, strategy = certify_in_hull(p, oracle)
            assert ok
            assert np.max(np.abs(marginal_of_strategy(strategy).p - p.p)) <= 1e-7

    def test_mass_mismatch_rejected(self):
        # every feasible set has one item, so the marginal mass must be 1
        oracle = KSelectionOracle(2, 1)
        ok, cert = certify_in_hull(MarginalVector(np.array([0.9, 0.9])), oracle)
        assert not ok
        violation = cert.w - float(np.array([0.9, 0.9]) @ cert.u)
        assert violation > 0.0


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


def test_k_selection_n120_in_hull_marginal():
    """The in-hull k-selection n=120 marginal of the decompose benchmark.
    Solved cold at every cut it ended in ``decomposition LP ended with
    status breakdown`` after about 290 s; warm-started it solves."""
    n = 120
    oracle = build_oracle(generate_instance("k-selection", n=n, uncertainty="interval", seed=1))
    rng = np.random.default_rng([1, 14])
    X = np.stack([oracle.solve(rng.random(n))[0].indicator for _ in range(6)])
    w = rng.random(6)
    p = (w / w.sum()) @ X.astype(float)

    y = decompose_marginal(MarginalVector(p), oracle)
    assert np.max(np.abs(marginal_of_strategy(y).p - p)) <= 1e-7
    assert y.support_size <= n + 1
    for T in y.support:
        assert oracle.is_feasible(T)
