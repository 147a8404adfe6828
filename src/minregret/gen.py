"""Deterministic random-instance generation.

Costs and bounds are drawn uniformly from [0, 10] (interval bounds are the
sorted pair of two draws).  All randomness comes from the package's own
counter-based stream generator, so a given (family, parameters, seed) always
produces byte-identical instances.  The two ``tight-*`` families are the
hand-built worst cases where randomization beats determinism by exactly the
scenario count, respectively by exactly two.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Instance,
    InstanceError,
    Intervals,
    Scenarios,
    UncertaintySpec,
    as_count,
    as_integer,
)
from .nominal import DagPathOracle, KSelectionOracle, SpanningTreeOracle
from .sim import stream_uniform

FAMILIES = ("k-selection", "spanning-tree", "dag-path", "tight-discrete", "tight-interval")

_STRUCT_STREAM = 101
_COST_STREAM = 202


def _smallest_complete(n: int, minimum: int) -> int:
    v = minimum
    while v * (v - 1) // 2 < n:
        v += 1
    return v


def _uncertainty(kind: str, n: int, n_scenarios: int, seed: int) -> UncertaintySpec:
    if kind == "interval":
        draws = stream_uniform(seed, _COST_STREAM, 2 * n) * 10.0
        pairs = np.sort(draws.reshape(n, 2), axis=1)
        return Intervals(pairs[:, 0], pairs[:, 1])
    if kind == "scenarios":
        n_scenarios = as_count(n_scenarios, "n_scenarios")
        draws = stream_uniform(seed, _COST_STREAM, n_scenarios * n) * 10.0
        return Scenarios(draws.reshape(n_scenarios, n))
    raise InstanceError(f"unknown uncertainty kind {kind!r}")


def _with_spare_pairs(
    vertices: int, pairs: list[tuple[int, int]], u: np.ndarray, n: int
) -> list[tuple[int, int]]:
    """``pairs`` followed by the pairs ``(a, b)``, ``a < b``, not among
    them, in the order that sorts their uniforms ``u``, until there are
    ``n``.  The i-th spare pair in lexicographic order takes ``u[i]``; those
    past the end of ``u`` are never taken."""
    present = set(pairs)
    spare = [
        (a, b)
        for a in range(vertices)
        for b in range(a + 1, vertices)
        if (a, b) not in present
    ]
    order = np.argsort(u[: len(spare)], kind="stable")
    return pairs + [spare[int(idx)] for idx in order[: n - len(pairs)]]


def _spanning_tree_edges(n: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    vertices = _smallest_complete(n, 3)
    if n < vertices - 1:
        raise InstanceError(f"spanning-tree family needs n >= {vertices - 1}")
    u = stream_uniform(seed, _STRUCT_STREAM, vertices - 1 + n)
    edges = []
    for v in range(1, vertices):  # random attachment tree keeps it connected
        parent = int(u[v - 1] * v)
        edges.append((min(parent, v), max(parent, v)))
    return vertices, _with_spare_pairs(vertices, edges, u[vertices - 1 :], n)


def _dag_arcs(n: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    vertices = _smallest_complete(n, 2)
    arcs = [(v, v + 1) for v in range(vertices - 1)]  # chain keeps t reachable
    u = stream_uniform(seed, _STRUCT_STREAM, vertices * (vertices - 1) // 2 - len(arcs))
    return vertices, _with_spare_pairs(vertices, arcs, u, n)


def generate_instance(
    family: str,
    n: int | None = None,
    k: int | None = None,
    uncertainty: str = "interval",
    n_scenarios: int = 2,
    seed: int = 0,
) -> Instance:
    """Build a random (or tight) instance; deterministic per seed.  Integer
    arguments may be any integral number; anything else raises
    :class:`InstanceError` naming the argument."""
    seed = as_integer(seed, "seed")
    if family == "tight-discrete":
        k = 0 if k is None else as_integer(k, "k")
        if k < 2:
            raise InstanceError("tight-discrete needs --k at least 2")
        return Instance(f"tight-discrete-k{k}", k, KSelectionOracle(k, 1), Scenarios(np.eye(k)))
    if family == "tight-interval":
        return Instance(
            "tight-interval", 2, KSelectionOracle(2, 1), Intervals(np.zeros(2), np.ones(2))
        )

    if n is None:
        raise InstanceError("random families need --n at least 1")
    n = as_count(n, "n")
    name = f"{family}-n{n}-{uncertainty}-seed{seed}"
    if family == "k-selection":
        nominal = KSelectionOracle(n, max(1, n // 2) if k is None else k)
    elif family == "spanning-tree":
        nominal = SpanningTreeOracle(*_spanning_tree_edges(n, seed))
    elif family == "dag-path":
        vertices, arcs = _dag_arcs(n, seed)
        nominal = DagPathOracle(vertices, arcs, 0, vertices - 1)
    else:
        raise InstanceError(f"unknown family {family!r}")
    return Instance(name, n, nominal, _uncertainty(uncertainty, n, n_scenarios, seed))
