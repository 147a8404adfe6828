import numpy as np
import pytest

from minregret.core import EnumerationCapError, FeasibleSet, InstanceError
from minregret.gen import generate_instance
from minregret.nominal import (
    DagPathOracle,
    ExplicitOracle,
    KSelectionOracle,
    SpanningTreeOracle,
    build_oracle,
    enumeration_cap,
)

from conftest import brute_min


def fs(n, *indices):
    return FeasibleSet.from_indices(n, indices)


class TestKSelection:
    def test_basic(self):
        T, val = KSelectionOracle(3, 2).solve(np.array([3.0, 1.0, 2.0]))
        assert T.indices == (1, 2) and val == 3.0

    def test_negative_costs(self):
        T, val = KSelectionOracle(2, 1).solve(np.array([-1.0, -2.0]))
        assert T.indices == (1,) and val == -2.0

    def test_tie_breaks_to_lowest_indices(self):
        T, val = KSelectionOracle(3, 2).solve(np.array([1.0, 1.0, 1.0]))
        assert T.indices == (0, 1) and val == 2.0

    def test_k_out_of_range(self):
        with pytest.raises(InstanceError):
            KSelectionOracle(3, 4)

    @pytest.mark.parametrize(
        "costs, message",
        [
            (np.zeros((2, 3)), "^cost vector must be one-dimensional$"),
            (np.zeros(2), "^cost vector has length 2, expected 3$"),
        ],
        ids=["matrix", "short"],
    )
    def test_solve_rejects_misshapen_costs(self, costs, message):
        with pytest.raises(InstanceError, match=message):
            KSelectionOracle(3, 1).solve(costs)

    @pytest.mark.parametrize("n,k", [(12, 9), (40, 13), (60, 31), (9, 9), (20, 1)])
    def test_batched_optima_equal_per_row_solves(self, n, k):
        # == and not approx: the batch sums solve's sets in solve's order
        rng = np.random.default_rng(n * 100 + k)
        costs = np.vstack([
            rng.integers(-4, 5, size=(30, n)).astype(float),  # many ties
            rng.normal(scale=50.0, size=(30, n)),
            np.full((1, n), -2.5),
        ])
        costs[30:40, -1] = costs[30:40, 0]  # ties among the normal draws too
        oracle = KSelectionOracle(n, k)
        per_row = np.array([oracle.solve(c)[1] for c in costs])
        assert np.array_equal(oracle.optima(costs), per_row)

    def test_batched_optima_reject_bad_rows(self):
        oracle = KSelectionOracle(3, 2)
        with pytest.raises(InstanceError):
            oracle.optima(np.ones((2, 4)))
        with pytest.raises(InstanceError):
            oracle.optima(np.array([[1.0, np.inf, 0.0]]))

    def test_enumeration_counts(self):
        assert len(KSelectionOracle(3, 1).enumerate_feasible()) == 3
        assert len(KSelectionOracle(5, 2).enumerate_feasible()) == 10


TRIANGLE = [(0, 1), (1, 2), (0, 2)]


class TestSpanningTree:
    def test_triangle_drops_heaviest(self):
        T, val = SpanningTreeOracle(3, TRIANGLE).solve(np.array([1.0, 2.0, 3.0]))
        assert T.indices == (0, 1) and val == 3.0

    def test_triangle_negative_tie(self):
        T, val = SpanningTreeOracle(3, TRIANGLE).solve(np.array([-5.0, -5.0, -5.0]))
        assert T.indices == (0, 1) and val == -10.0

    def test_triangle_enumeration(self):
        fam = SpanningTreeOracle(3, TRIANGLE).enumerate_feasible()
        assert sorted(T.indices for T in fam) == [(0, 1), (0, 2), (1, 2)]

    def test_matches_enumeration_on_four_vertices(self, rng):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        oracle = SpanningTreeOracle(4, edges)
        for _ in range(40):
            c = rng.normal(scale=3.0, size=5)
            _, val = oracle.solve(c)
            _, brute = brute_min(oracle, c)
            assert val == pytest.approx(brute, abs=1e-9)

    def test_disconnected_rejected(self):
        with pytest.raises(InstanceError, match="disconnected"):
            SpanningTreeOracle(4, [(0, 1), (2, 3)])

    def test_is_feasible_rejects_cycles(self):
        oracle = SpanningTreeOracle(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert not oracle.is_feasible(fs(5, 0, 1, 4))  # 0-1, 1-2, 0-2 is a cycle
        assert oracle.is_feasible(fs(5, 0, 1, 2))

    def test_is_feasible_rejects_other_item_counts(self):
        oracle = SpanningTreeOracle(3, TRIANGLE)
        assert oracle.is_feasible(fs(3, 0, 1))
        assert not oracle.is_feasible(fs(4, 0, 1))


class TestDagPath:
    def test_parallel_arcs(self):
        oracle = DagPathOracle(2, [(0, 1), (0, 1)], 0, 1)
        T, val = oracle.solve(np.array([2.0, 1.0]))
        assert T.indices == (1,) and val == 1.0

    def test_negative_chain_beats_direct(self):
        oracle = DagPathOracle(3, [(0, 1), (1, 2), (0, 2)], 0, 2)
        T, val = oracle.solve(np.array([-1.0, -1.0, 0.0]))
        assert T.indices == (0, 1) and val == -2.0

    def test_matches_enumeration_on_random_dag(self, rng):
        arcs = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (4, 5), (3, 5)]
        oracle = DagPathOracle(6, arcs, 0, 5)
        for _ in range(40):
            c = rng.normal(scale=2.0, size=len(arcs))
            _, val = oracle.solve(c)
            _, brute = brute_min(oracle, c)
            assert val == pytest.approx(brute, abs=1e-9)

    def test_lexicographic_tie_break(self):
        # two zero-cost paths: arcs (0,) direct and (1, 2) chain
        oracle = DagPathOracle(3, [(0, 2), (0, 1), (1, 2)], 0, 2)
        T, _ = oracle.solve(np.zeros(3))
        assert T.indices == (0,)

    def test_unreachable_target(self):
        with pytest.raises(InstanceError, match="unreachable"):
            DagPathOracle(3, [(1, 2)], 0, 2)

    def test_is_feasible_rejects_other_item_counts(self):
        oracle = DagPathOracle(3, [(0, 1), (1, 2), (0, 2)], 0, 2)
        assert oracle.is_feasible(fs(3, 2))
        assert not oracle.is_feasible(fs(4, 2))


class TestExplicit:
    def test_scan(self):
        oracle = ExplicitOracle(2, [(0,), (1,)])
        T, val = oracle.solve(np.array([3.0, 5.0]))
        assert T.indices == (0,) and val == 3.0

    def test_single_candidate(self):
        oracle = ExplicitOracle(2, [(0, 1)])
        T, val = oracle.solve(np.array([-1.0, 4.0]))
        assert T.indices == (0, 1) and val == 3.0

    def test_all_two_subsets_of_four(self):
        sets = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        oracle = ExplicitOracle(4, sets)
        T, val = oracle.solve(np.array([4.0, 1.0, 2.0, 8.0]))
        assert T.indices == (1, 2) and val == 3.0

    def test_duplicates_collapse(self):
        oracle = ExplicitOracle(2, [(0,), (0,), (1,)])
        assert len(oracle.enumerate_feasible()) == 2

    def test_ties_go_to_the_lowest_set_whatever_the_listing_order(self):
        # the scan kept the first listed of tied sets, (2,) at zero costs
        oracle = ExplicitOracle(3, [(2,), (0, 1), (0,)])
        for costs, lowest in (([0.0, 0.0, 0.0], (0,)), ([1.0, -1.0, 0.0], (0, 1))):
            T, val = oracle.solve(np.array(costs))
            assert T.indices == lowest and (T, val) == brute_min(oracle, costs)


# The constructors read these fields unchecked: k=2.5 was accepted and
# failed later in a slice, a boolean passed as 0 or 1.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KSelectionOracle(4, 2.5), "nominal k must be an integer, got 2.5"),
        (
            lambda: SpanningTreeOracle(3.5, [(0, 1), (1, 2)]),
            "nominal vertices must be an integer, got 3.5",
        ),
        (
            lambda: DagPathOracle(3, [(0, 1), (1, 2)], 0, True),
            "nominal target must be an integer, got True",
        ),
        (lambda: ExplicitOracle(2.5, [(0,), (1,)]), "nominal n must be an integer, got 2.5"),
    ],
    ids=["k-selection", "spanning-tree", "dag-path", "explicit"],
)
def test_constructor_checks_integer_fields(build, message):
    with pytest.raises(InstanceError, match=message):
        build()


class TestEnumerationCap:
    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setenv("REGRET_ENUM_CAP", "5")
        with pytest.raises(EnumerationCapError):
            KSelectionOracle(5, 2).enumerate_feasible()

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REGRET_ENUM_CAP", "3")
        assert enumeration_cap() == 3
        with pytest.raises(EnumerationCapError):
            KSelectionOracle(5, 2).enumerate_feasible()

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("REGRET_ENUM_CAP", "many")
        with pytest.raises(InstanceError, match="^REGRET_ENUM_CAP must be an integer, got 'many'$"):
            enumeration_cap()

    def test_env_value_must_be_positive(self, monkeypatch):
        monkeypatch.setenv("REGRET_ENUM_CAP", "0")
        with pytest.raises(InstanceError, match="^REGRET_ENUM_CAP must be at least 1, got 0$"):
            enumeration_cap()

    # an explicit family has no cheap count, so the cap binds while listing
    def test_cap_binds_inside_the_enumeration(self, monkeypatch):
        monkeypatch.setenv("REGRET_ENUM_CAP", "5")
        oracle = ExplicitOracle(6, [(e,) for e in range(6)])
        assert oracle._family_size() is None
        with pytest.raises(EnumerationCapError, match="^feasible family exceeds enumeration cap"):
            oracle.enumerate_feasible()


class TestFamilyCount:
    @pytest.mark.parametrize("n", [8, 10, 12, 15, 18])
    def test_matrix_tree_count_matches_enumeration(self, n):
        oracle = build_oracle(generate_instance("spanning-tree", n=n, seed=1))
        assert oracle._family_size() == len(oracle.enumerate_feasible())

    @pytest.mark.parametrize("n", [10, 30, 60])
    def test_dag_path_count_matches_enumeration(self, n):
        oracle = build_oracle(generate_instance("dag-path", n=n, seed=1))
        assert oracle._family_size() == len(oracle.enumerate_feasible())

    def test_oversized_family_refused_before_enumerating(self, monkeypatch):
        # n=40 has 30,600,000 spanning trees, far past the default cap
        oracle = build_oracle(generate_instance("spanning-tree", n=40, seed=1))
        assert oracle._family_size() > enumeration_cap()

        def never(self):
            raise AssertionError("enumerated a family past the cap")

        monkeypatch.setattr(SpanningTreeOracle, "_enumerate", never)
        with pytest.raises(EnumerationCapError):
            oracle.enumerate_feasible()


def _oracles_for_properties():
    return [
        KSelectionOracle(6, 3),
        SpanningTreeOracle(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]),
        DagPathOracle(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 0, 4),
        ExplicitOracle(4, [(0,), (1, 2), (0, 3), (2, 3), (1,)]),
    ]


class TestSolverProperties:
    @pytest.mark.parametrize("oracle", _oracles_for_properties(), ids=lambda o: type(o).__name__)
    def test_thousand_random_vectors_match_enumeration(self, oracle):
        rng = np.random.default_rng(11)
        family = oracle.enumerate_feasible()
        indicators = np.stack([T.indicator for T in family]).astype(float)
        for trial in range(1000):
            if trial % 2 == 0:
                c = rng.integers(-9, 10, size=oracle.n).astype(float)
            else:
                c = rng.normal(scale=5.0, size=oracle.n)
            T, val = oracle.solve(c)
            values = indicators @ c
            assert oracle.is_feasible(T)
            if trial % 2 == 0:
                assert val == values.min()
            else:
                assert val == pytest.approx(values.min(), abs=1e-9)

    @pytest.mark.parametrize("oracle", _oracles_for_properties(), ids=lambda o: type(o).__name__)
    def test_batched_optima_match_solve(self, oracle):
        rng = np.random.default_rng(3)
        costs = rng.integers(-5, 6, size=(25, oracle.n)).astype(float)
        assert np.array_equal(oracle.optima(costs), [oracle.solve(c)[1] for c in costs])

    @pytest.mark.parametrize("oracle", _oracles_for_properties(), ids=lambda o: type(o).__name__)
    def test_argmin_stable_under_positive_scaling(self, oracle):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = rng.normal(scale=3.0, size=oracle.n)
            assert oracle.solve(c)[0] == oracle.solve(2.0 * c)[0]

    @pytest.mark.parametrize("oracle", _oracles_for_properties(), ids=lambda o: type(o).__name__)
    def test_is_feasible_matches_enumeration(self, oracle):
        family = set(oracle.enumerate_feasible())
        for T in family:
            assert oracle.is_feasible(T)
        # every other subset of matching size must be rejected
        n = oracle.n
        from itertools import combinations

        sizes = {T.size for T in family}
        for size in sizes:
            for idx in combinations(range(n), size):
                cand = FeasibleSet.from_indices(n, idx)
                assert oracle.is_feasible(cand) == (cand in family)

    def test_enumeration_is_lexicographic_for_combinatorial_families(self):
        fam = KSelectionOracle(5, 2).enumerate_feasible()
        assert [T.indices for T in fam] == sorted(T.indices for T in fam)


# DAG paths came in arc-sequence order and an explicit family in listing
# order, so enumerate_feasible's order depended on the family.
@pytest.mark.parametrize(
    "oracle",
    [
        KSelectionOracle(6, 3),
        build_oracle(generate_instance("spanning-tree", n=10, seed=1)),
        *(build_oracle(generate_instance("dag-path", n=n, seed=1)) for n in (10, 20, 40)),
        ExplicitOracle(3, [(2,), (0, 1), (0,)]),
    ],
    ids=["k-selection", "spanning-tree", "dag-path-10", "dag-path-20", "dag-path-40", "explicit"],
)
def test_enumeration_is_in_index_order(oracle):
    indices = [T.indices for T in oracle.enumerate_feasible()]
    assert indices == sorted(set(indices))
