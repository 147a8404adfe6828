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

from .core import Instance, InstanceError, validate_instance
from .sim import stream_uniform

FAMILIES = ("k-selection", "spanning-tree", "dag-path", "tight-discrete", "tight-interval")

_STRUCT_STREAM = 101
_COST_STREAM = 202


def _smallest_complete(n: int, minimum: int) -> int:
    v = minimum
    while v * (v - 1) // 2 < n:
        v += 1
    return v


def _uncertainty_dict(kind: str, n: int, n_scenarios: int, seed: int) -> dict:
    if kind == "interval":
        draws = stream_uniform(seed, _COST_STREAM, 2 * n) * 10.0
        pairs = np.sort(draws.reshape(n, 2), axis=1)
        return {
            "type": "interval",
            "lower": pairs[:, 0].tolist(),
            "upper": pairs[:, 1].tolist(),
        }
    if kind == "scenarios":
        if n_scenarios < 1:
            raise InstanceError("scenario count must be at least 1")
        draws = stream_uniform(seed, _COST_STREAM, n_scenarios * n) * 10.0
        return {"type": "scenarios", "costs": draws.reshape(n_scenarios, n).tolist()}
    raise InstanceError(f"unknown uncertainty kind {kind!r}")


def _spanning_tree_edges(n: int, seed: int) -> tuple[int, list]:
    vertices = _smallest_complete(n, 3)
    if n < vertices - 1:
        raise InstanceError(f"spanning-tree family needs n >= {vertices - 1}")
    u = stream_uniform(seed, _STRUCT_STREAM, vertices - 1 + n)
    edges = []
    present = set()
    for v in range(1, vertices):  # random attachment tree keeps it connected
        parent = int(u[v - 1] * v)
        edges.append((min(parent, v), max(parent, v)))
        present.add(edges[-1])
    spare = [
        (a, b)
        for a in range(vertices)
        for b in range(a + 1, vertices)
        if (a, b) not in present
    ]
    order = np.argsort(u[vertices - 1 : vertices - 1 + len(spare)], kind="stable")
    for idx in order[: n - len(edges)]:
        edges.append(spare[int(idx)])
    return vertices, [list(e) for e in edges]


def _dag_arcs(n: int, seed: int) -> tuple[int, list]:
    vertices = _smallest_complete(n, 2)
    if n < vertices - 1:
        raise InstanceError(f"dag-path family needs n >= {vertices - 1}")
    arcs = [(v, v + 1) for v in range(vertices - 1)]  # chain keeps t reachable
    present = set(arcs)
    spare = [
        (a, b)
        for a in range(vertices)
        for b in range(a + 1, vertices)
        if (a, b) not in present
    ]
    u = stream_uniform(seed, _STRUCT_STREAM, len(spare))
    order = np.argsort(u, kind="stable")
    for idx in order[: n - len(arcs)]:
        arcs.append(spare[int(idx)])
    return vertices, [list(a) for a in arcs]


def generate_instance(
    family: str,
    n: int | None = None,
    k: int | None = None,
    uncertainty: str = "interval",
    n_scenarios: int = 2,
    seed: int = 0,
) -> Instance:
    """Build a random (or tight) instance; deterministic per seed."""
    if family == "tight-discrete":
        if k is None or k < 2:
            raise InstanceError("tight-discrete needs --k at least 2")
        costs = np.eye(k).tolist()
        return validate_instance(
            {
                "name": f"tight-discrete-k{k}",
                "n": k,
                "nominal": {"type": "k-selection", "n": k, "k": 1},
                "uncertainty": {"type": "scenarios", "costs": costs},
            }
        )
    if family == "tight-interval":
        return validate_instance(
            {
                "name": "tight-interval",
                "n": 2,
                "nominal": {"type": "k-selection", "n": 2, "k": 1},
                "uncertainty": {
                    "type": "interval",
                    "lower": [0.0, 0.0],
                    "upper": [1.0, 1.0],
                },
            }
        )

    if n is None or n < 1:
        raise InstanceError("random families need --n at least 1")
    name = f"{family}-n{n}-{uncertainty}-seed{seed}"
    if family == "k-selection":
        kk = max(1, n // 2) if k is None else k
        nominal = {"type": "k-selection", "n": n, "k": kk}
    elif family == "spanning-tree":
        vertices, edges = _spanning_tree_edges(n, seed)
        nominal = {"type": "spanning-tree", "vertices": vertices, "edges": edges}
    elif family == "dag-path":
        vertices, arcs = _dag_arcs(n, seed)
        nominal = {
            "type": "dag-path",
            "vertices": vertices,
            "arcs": arcs,
            "source": 0,
            "target": vertices - 1,
        }
    else:
        raise InstanceError(f"unknown family {family!r}")

    return validate_instance(
        {
            "name": name,
            "n": n,
            "nominal": nominal,
            "uncertainty": _uncertainty_dict(uncertainty, n, n_scenarios, seed),
        }
    )
