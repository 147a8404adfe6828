"""Flat-file JSON formats: instances, strategies, marginals.

Instance files carry exactly the fields of :class:`minregret.core.Instance`;
unknown fields are rejected.  Strategy files use ``{"sets": [[indices]],
"probs": [...]}`` for the player and ``{"costs": [[...]], "probs": [...]}``
(optionally with ``"scenarios"``) for the adversary.  A marginal file is a
bare JSON array of n reals.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import (
    AdversaryMixedStrategy,
    CostVector,
    FeasibleSet,
    Instance,
    InstanceError,
    MarginalVector,
    PlayerMixedStrategy,
    as_integer,
    describe_instance,
    validate_instance,
)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path} is not valid JSON: {exc}") from exc


def load_instance(path) -> Instance:
    return validate_instance(_read_json(path))


def instance_text(instance: Instance) -> str:
    return json.dumps(describe_instance(instance), indent=2, sort_keys=True) + "\n"


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(instance_text(instance), encoding="utf-8")


def player_strategy_to_dict(y: PlayerMixedStrategy) -> dict:
    return {
        "sets": [list(T.indices) for T in y.support],
        "probs": y.probs.tolist(),
    }


def player_strategy_from_dict(d: dict, n: int) -> PlayerMixedStrategy:
    try:
        sets = [
            FeasibleSet.from_indices(n, [as_integer(e, "player set item") for e in s])
            for s in d["sets"]
        ]
        probs = np.asarray(d["probs"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed player strategy: {exc}") from exc
    return PlayerMixedStrategy(tuple(sets), probs)


def adversary_strategy_to_dict(w: AdversaryMixedStrategy) -> dict:
    out = {
        "costs": [c.values.tolist() for c in w.support],
        "probs": w.probs.tolist(),
    }
    if w.scenario_indices is not None:
        out["scenarios"] = list(w.scenario_indices)
    return out


def adversary_strategy_from_dict(d: dict, n: int) -> AdversaryMixedStrategy:
    try:
        costs = tuple(CostVector(np.asarray(c, dtype=float)) for c in d["costs"])
        probs = np.asarray(d["probs"], dtype=float)
        scen = d.get("scenarios")
        scen = None if scen is None else tuple(scen)
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed adversary strategy: {exc}") from exc
    for c in costs:
        if len(c) != n:
            raise InstanceError("adversary cost vector length differs from n")
    return AdversaryMixedStrategy(costs, probs, scenario_indices=scen)


def load_strategies(path, instance: Instance):
    """Read a ``{"player": ..., "adversary": ...}`` strategy file."""
    d = _read_json(path)
    if not isinstance(d, dict) or "player" not in d or "adversary" not in d:
        raise InstanceError("strategy file needs 'player' and 'adversary' entries")
    y = player_strategy_from_dict(d["player"], instance.n)
    w = adversary_strategy_from_dict(d["adversary"], instance.n)
    w.validate_for(instance)
    return y, w


def load_marginal(path, n: int) -> MarginalVector:
    raw = _read_json(path)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"marginal file must hold {n} reals") from exc
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InstanceError(f"marginal file must hold {n} reals")
    return MarginalVector(arr)
