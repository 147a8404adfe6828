"""Nominal-problem oracles: minimize total cost over a feasible family.

Every oracle solves ``min over feasible T of sum(c[e] for e in T)`` for
arbitrary-sign cost vectors, tests membership, and (at desk scale) can
enumerate the whole family.  Tie-breaking is deterministic everywhere:
lowest item index first, lexicographic where whole sequences compete.

Only families whose greedy/DP solvers stay correct under negative costs are
shipped, because decomposition duals feed arbitrary-sign costs back into the
oracles.

An oracle is its family's only description (``Instance.nominal``); its
constructor checks the family's integers and structure once and raises
:class:`InstanceError` on a fault.
"""

from __future__ import annotations

import math
import os
from itertools import combinations

import numpy as np

from .core import (
    EnumerationCapError,
    FeasibleSet,
    Instance,
    InstanceError,
    as_costs,
    as_count,
    as_integer,
    check_finite_costs,
)

DEFAULT_ENUM_CAP = 100_000
ENUM_CAP_ENV = "REGRET_ENUM_CAP"


def enumeration_cap() -> int:
    """Feasible-family enumeration cap; override with REGRET_ENUM_CAP."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise InstanceError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    return as_count(value, ENUM_CAP_ENV)


class NominalOracle:
    """Interface shared by all nominal solvers.

    ``set_size`` is the number of items every feasible set holds, where the
    family has one: ``k`` for k-selection and ``vertices - 1`` for spanning
    trees.  The hull then lies on the row ``sum(p) = set_size``.  It is None
    for DAG paths and explicit families.
    """

    n: int
    set_size: int | None = None

    def solve(self, c) -> tuple[FeasibleSet, float]:
        raise NotImplementedError

    def optima(self, costs) -> np.ndarray:
        """The optimum ``solve(c)[1]`` of every row ``c`` of ``costs``."""
        return np.array([self.solve(c)[1] for c in costs], dtype=float)

    def is_feasible(self, T: FeasibleSet) -> bool:
        raise NotImplementedError

    def _enumerate(self):
        """Yield each feasible set once."""
        raise NotImplementedError

    def _family_size(self) -> float | None:
        """The number of feasible sets, where it is cheap to count."""
        return None

    def enumerate_feasible(self) -> list[FeasibleSet]:
        """Every feasible set in lexicographic order of its item indices, or
        :class:`EnumerationCapError` past the cap.

        A family whose size is known is refused before any set is built.
        """
        cap = enumeration_cap()
        size = self._family_size()
        if size is not None and size > cap:
            raise EnumerationCapError(f"feasible family exceeds enumeration cap {cap}")
        out = []
        for T in self._enumerate():
            out.append(T)
            if len(out) > cap:
                raise EnumerationCapError(
                    f"feasible family exceeds enumeration cap {cap}"
                )
        out.sort(key=lambda T: T.indices)
        return out


class KSelectionOracle(NominalOracle):
    def __init__(self, n: int, k: int):
        n, k = as_integer(n, "nominal n"), as_integer(k, "nominal k")
        if not 1 <= k <= n:
            raise InstanceError(f"k={k} out of range 1..{n}")
        self.n = n
        self.k = self.set_size = k

    def solve(self, c):
        costs = as_costs(c, self.n)
        # Stable sort keeps the lowest indices among equal costs.
        chosen = np.sort(np.argsort(costs, kind="stable")[: self.k])
        ind = np.zeros(self.n, dtype=np.int8)
        ind[chosen] = 1
        return FeasibleSet(ind), float(costs[chosen].sum())

    def optima(self, costs):
        # solve's sets, by one row-wise stable sort, summed in index order
        rows = np.asarray(costs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise InstanceError(f"cost rows must have {self.n} columns")
        check_finite_costs(rows)
        chosen = np.sort(np.argsort(rows, axis=1, kind="stable")[:, : self.k], axis=1)
        return np.take_along_axis(rows, chosen, axis=1).sum(axis=1)

    def is_feasible(self, T):
        return len(T) == self.n and T.size == self.k

    def _family_size(self):
        return math.comb(self.n, self.k)

    def _enumerate(self):
        for idx in combinations(range(self.n), self.k):
            yield FeasibleSet.from_indices(self.n, idx)


def _check_pairs(pairs, vertices: int, what: str) -> tuple[tuple[int, int], ...]:
    """``pairs`` as int pairs of distinct vertices below ``vertices``."""
    pairs = tuple(
        (as_integer(u, f"{what} endpoint"), as_integer(v, f"{what} endpoint")) for u, v in pairs
    )
    for u, v in pairs:
        if not (0 <= u < vertices and 0 <= v < vertices) or u == v:
            raise InstanceError(f"bad {what} ({u},{v})")
    return pairs


def topological_order(out) -> list[int]:
    """The vertices of the graph whose vertex ``u`` has the ``(arc, head)``
    pairs ``out[u]``, in topological order; raises if it has a cycle."""
    # Kahn's algorithm; leftover vertices with unconsumed in-degree mean a cycle.
    indeg = [0] * len(out)
    for arcs in out:
        for _, v in arcs:
            indeg[v] += 1
    queue = [v for v, d in enumerate(indeg) if d == 0]
    order = []
    while queue:
        u = queue.pop()
        order.append(u)
        for _, v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != len(out):
        raise InstanceError("dag-path graph is not acyclic")
    return order


class SpanningTreeOracle(NominalOracle):
    def __init__(self, vertices: int, edges):
        vertices = as_integer(vertices, "nominal vertices")
        if vertices < 2:
            raise InstanceError("spanning-tree graph needs at least two vertices")
        self.vertices = vertices
        self.edges = _check_pairs(edges, vertices, "edge")
        self.n = len(self.edges)
        self.set_size = vertices - 1
        if len(self._forest(range(self.n))) != vertices - 1:
            raise InstanceError("spanning-tree graph is disconnected")

    def _forest(self, order) -> list[int]:
        """The edges of ``order`` that Kruskal's rule picks: each one that
        joins two components, until ``vertices - 1`` are picked."""
        edges, parent = self.edges, list(range(self.vertices))
        picked = []
        for e in order:
            u, v = edges[e]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                parent[v] = u
                picked.append(e)
                if len(picked) == self.vertices - 1:
                    break
        return picked

    def solve(self, c):
        costs = as_costs(c, self.n)
        # Kruskal; negative weights are fine for the greedy matroid argument.
        picked = self._forest(np.argsort(costs, kind="stable").tolist())
        ind = np.zeros(self.n, dtype=np.int8)
        ind[picked] = 1
        return FeasibleSet(ind), float(costs[picked].sum())

    def is_feasible(self, T):
        # V - 1 edges form a tree exactly when none of them closes a cycle
        if len(T) != self.n or T.size != self.vertices - 1:
            return False
        return len(self._forest(T.indices)) == self.vertices - 1

    def _family_size(self):
        # Kirchhoff's matrix-tree theorem: the tree count is the determinant
        # of the Laplacian with one vertex's row and column removed.
        laplacian = np.zeros((self.vertices, self.vertices))
        for u, v in self.edges:
            laplacian[u, u] += 1.0
            laplacian[v, v] += 1.0
            laplacian[u, v] -= 1.0
            laplacian[v, u] -= 1.0
        _, logdet = np.linalg.slogdet(laplacian[1:, 1:])
        # past e^700 the float overflows; such a family is past any cap
        return round(math.exp(logdet)) if logdet < 700.0 else math.inf

    def _enumerate(self):
        for idx in combinations(range(self.n), self.vertices - 1):
            cand = FeasibleSet.from_indices(self.n, idx)
            if self.is_feasible(cand):
                yield cand


class DagPathOracle(NominalOracle):
    def __init__(self, vertices: int, arcs, source: int, target: int):
        vertices = as_integer(vertices, "nominal vertices")
        source, target = as_integer(source, "nominal source"), as_integer(target, "nominal target")
        if not (0 <= source < vertices and 0 <= target < vertices):
            raise InstanceError("source/target out of range")
        if source == target:
            raise InstanceError("source and target must differ")
        self.vertices = vertices
        self.arcs = _check_pairs(arcs, vertices, "arc")
        self.n = len(self.arcs)
        self.source = source
        self.target = target
        self.out = [[] for _ in range(vertices)]
        for idx, (u, v) in enumerate(self.arcs):
            self.out[u].append((idx, v))
        self.topo = topological_order(self.out)
        if not self._family_size():
            raise InstanceError("target is unreachable from source")

    def solve(self, c):
        costs = as_costs(c, self.n)
        # Relaxation in topological order; among equal-cost paths keep the
        # lexicographically smallest arc-index sequence, which is safe to do
        # per node because prefixes inherit the lexicographic order.
        dist = {self.source: 0.0}
        path = {self.source: ()}
        for u in self.topo:
            if u not in dist:
                continue
            for idx, v in self.out[u]:
                cand = dist[u] + costs[idx]
                cand_path = path[u] + (idx,)
                if (
                    v not in dist
                    or cand < dist[v]
                    or (cand == dist[v] and cand_path < path[v])
                ):
                    dist[v] = cand
                    path[v] = cand_path
        arcs = path[self.target]
        T = FeasibleSet.from_indices(self.n, arcs)
        return T, float(costs[list(arcs)].sum())

    def is_feasible(self, T):
        if len(T) != self.n:
            return False
        chosen = set(T.indices)
        node = self.source
        used = set()
        while node != self.target:
            nxt = [(idx, v) for idx, v in self.out[node] if idx in chosen]
            if len(nxt) != 1:
                return False
            idx, node = nxt[0]
            used.add(idx)
        return used == chosen

    def _family_size(self):
        # paths from the source, counted in topological order
        count = [0] * self.vertices
        count[self.source] = 1
        for u in self.topo:
            for _, v in self.out[u]:
                count[v] += count[u]
        return count[self.target]

    def _enumerate(self):
        def paths(u, arcs):
            if u == self.target:
                yield FeasibleSet.from_indices(self.n, arcs)
                return
            for idx, v in self.out[u]:
                yield from paths(v, arcs + (idx,))

        yield from paths(self.source, ())


class ExplicitOracle(NominalOracle):
    def __init__(self, n: int, sets):
        n = as_integer(n, "nominal n")
        self.sets = tuple(tuple(sorted(as_integer(e, "set item") for e in s)) for s in sets)
        if not self.sets:
            raise InstanceError("explicit feasible family is empty")
        for s in self.sets:
            if any(not 0 <= e < n for e in s):
                raise InstanceError(f"set {s} not a subset of 0..{n - 1}")
            if len(set(s)) != len(s):
                raise InstanceError(f"set {s} repeats an item")
        self.n = n
        # each distinct set once, in index order, so that ``solve`` keeps
        # the lowest of tied sets
        self.family = tuple(FeasibleSet.from_indices(n, s) for s in sorted(set(self.sets)))
        self._members = set(self.family)

    def solve(self, c):
        costs = as_costs(c, self.n)
        best = None
        best_val = np.inf
        for T in self.family:
            val = float(costs @ T.indicator)
            if val < best_val:
                best, best_val = T, val
        return best, best_val

    def is_feasible(self, T):
        return T in self._members

    def _enumerate(self):
        yield from self.family


def build_oracle(instance: Instance) -> NominalOracle:
    """The instance's nominal oracle, ``instance.nominal``, which was built
    and checked with the instance."""
    return instance.nominal
