"""Nominal-problem oracles: minimize total cost over a feasible family.

Every oracle solves ``min over feasible T of sum(c[e] for e in T)`` for
arbitrary-sign cost vectors, tests membership, and (at desk scale) can
enumerate the whole family.  Tie-breaking is deterministic everywhere:
lowest item index first, lexicographic where whole sequences compete.

Only families whose greedy/DP solvers stay correct under negative costs are
shipped, because decomposition duals feed arbitrary-sign costs back into the
oracles.
"""

from __future__ import annotations

import os
from itertools import combinations
from math import comb

import numpy as np

from .core import (
    DagPath,
    EnumerationCapError,
    Explicit,
    FeasibleSet,
    Instance,
    InstanceError,
    KSelection,
    SpanningTree,
    as_costs,
)

DEFAULT_ENUM_CAP = 100_000
ENUM_CAP_ENV = "REGRET_ENUM_CAP"


def enumeration_cap() -> int:
    """Feasible-family enumeration cap; override with REGRET_ENUM_CAP."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InstanceError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InstanceError(f"{ENUM_CAP_ENV} must be positive")
    return cap


class NominalOracle:
    """Interface shared by all nominal solvers."""

    n: int

    def solve(self, c) -> tuple[FeasibleSet, float]:
        raise NotImplementedError

    def is_feasible(self, T: FeasibleSet) -> bool:
        raise NotImplementedError

    def _enumerate(self):
        """Yield every feasible set once, in lexicographic index order."""
        raise NotImplementedError

    def enumerate_feasible(self, cap: int | None = None) -> list[FeasibleSet]:
        cap = enumeration_cap() if cap is None else cap
        out = []
        for T in self._enumerate():
            out.append(T)
            if len(out) > cap:
                raise EnumerationCapError(
                    f"feasible family exceeds enumeration cap {cap}"
                )
        return out


class KSelectionOracle(NominalOracle):
    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise InstanceError(f"k={k} out of range 1..{n}")
        self.n = n
        self.k = k

    def solve(self, c):
        costs = as_costs(c, self.n)
        # Stable sort keeps the lowest indices among equal costs.
        chosen = np.sort(np.argsort(costs, kind="stable")[: self.k])
        ind = np.zeros(self.n, dtype=np.int8)
        ind[chosen] = 1
        return FeasibleSet(ind), float(costs[chosen].sum())

    def is_feasible(self, T):
        return len(T) == self.n and T.size == self.k

    def enumerate_feasible(self, cap: int | None = None) -> list[FeasibleSet]:
        # the family has C(n, k) sets, so an oversized one is refused at once
        cap = enumeration_cap() if cap is None else cap
        if comb(self.n, self.k) > cap:
            raise EnumerationCapError(f"feasible family exceeds enumeration cap {cap}")
        return super().enumerate_feasible(cap)

    def _enumerate(self):
        for idx in combinations(range(self.n), self.k):
            yield FeasibleSet.from_indices(self.n, idx)


class _DisjointSet:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


class SpanningTreeOracle(NominalOracle):
    def __init__(self, vertices: int, edges):
        self.vertices = vertices
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        self.n = len(self.edges)
        if not self._connected():
            raise InstanceError("spanning-tree graph is disconnected")

    def _connected(self):
        ds = _DisjointSet(self.vertices)
        parts = self.vertices
        for u, v in self.edges:
            if ds.union(u, v):
                parts -= 1
        return parts == 1

    def solve(self, c):
        costs = as_costs(c, self.n)
        # Kruskal; negative weights are fine for the greedy matroid argument.
        order = np.argsort(costs, kind="stable")
        ds = _DisjointSet(self.vertices)
        picked = []
        for e in order:
            u, v = self.edges[e]
            if ds.union(u, v):
                picked.append(int(e))
                if len(picked) == self.vertices - 1:
                    break
        T = FeasibleSet.from_indices(self.n, picked)
        return T, float(costs[picked].sum())

    def is_feasible(self, T):
        if len(T) != self.n or T.size != self.vertices - 1:
            return False
        ds = _DisjointSet(self.vertices)
        for e in T.indices:
            u, v = self.edges[e]
            if not ds.union(u, v):
                return False
        return True

    def _enumerate(self):
        for idx in combinations(range(self.n), self.vertices - 1):
            cand = FeasibleSet.from_indices(self.n, idx)
            if self.is_feasible(cand):
                yield cand


class DagPathOracle(NominalOracle):
    def __init__(self, vertices: int, arcs, source: int, target: int):
        self.vertices = vertices
        self.arcs = tuple((int(u), int(v)) for u, v in arcs)
        self.n = len(self.arcs)
        self.source = source
        self.target = target
        self.topo = self._topo_order()
        self.out = [[] for _ in range(vertices)]
        for idx, (u, v) in enumerate(self.arcs):
            self.out[u].append((idx, v))
        if not self._reachable():
            raise InstanceError("target is unreachable from source")

    def _topo_order(self):
        indeg = [0] * self.vertices
        out = [[] for _ in range(self.vertices)]
        for u, v in self.arcs:
            out[u].append(v)
            indeg[v] += 1
        queue = [v for v in range(self.vertices) if indeg[v] == 0]
        order = []
        while queue:
            u = queue.pop()
            order.append(u)
            for v in out[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != self.vertices:
            raise InstanceError("dag-path graph is not acyclic")
        return order

    def _reachable(self):
        seen = {self.source}
        stack = [self.source]
        while stack:
            u = stack.pop()
            for _, v in self.out[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return self.target in seen

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

    def _enumerate(self):
        paths = []

        def dfs(u, arcs):
            if u == self.target:
                paths.append(tuple(arcs))
                return
            for idx, v in self.out[u]:
                arcs.append(idx)
                dfs(v, arcs)
                arcs.pop()

        dfs(self.source, [])
        for arcs in sorted(paths):
            yield FeasibleSet.from_indices(self.n, arcs)


class ExplicitOracle(NominalOracle):
    def __init__(self, n: int, sets):
        seen = set()
        family = []
        for s in sets:
            T = FeasibleSet.from_indices(n, s)
            if T not in seen:
                seen.add(T)
                family.append(T)
        if not family:
            raise InstanceError("explicit feasible family is empty")
        self.n = n
        self.family = tuple(family)
        self._members = seen

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
    """Construct the oracle matching an instance's nominal spec."""
    spec = instance.nominal
    if isinstance(spec, KSelection):
        return KSelectionOracle(spec.n, spec.k)
    if isinstance(spec, SpanningTree):
        return SpanningTreeOracle(spec.vertices, spec.edges)
    if isinstance(spec, DagPath):
        return DagPathOracle(spec.vertices, spec.arcs, spec.source, spec.target)
    if isinstance(spec, Explicit):
        return ExplicitOracle(instance.n, spec.sets)
    raise InstanceError(f"unknown nominal spec {type(spec).__name__}")
