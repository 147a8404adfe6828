"""The package's file formats: instances, strategies, marginals.

This module alone knows them.  An instance file is a JSON object with the
fields ``name``, ``n``, ``nominal`` and ``uncertainty``; the nominal family
and the uncertainty each carry a ``type`` and that type's fields.  One
table per part, ``_NOMINAL`` and ``_UNCERTAINTY``, gives each type's class
and fields, and both reading and writing go through it.  Strategy files use
``{"sets": [[indices]], "probs": [...]}`` for the player and
``{"costs": [[...]], "probs": [...]}`` (optionally with ``"scenarios"``)
for the adversary.  Unknown fields of an instance and of either strategy
are rejected.  A marginal file is a bare JSON array of n reals.  Every real
field must hold JSON numbers: a boolean or a string, even a numeric one, is
rejected, as it is in an integer field.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .core import (
    AdversaryMixedStrategy,
    CostVector,
    FeasibleSet,
    Instance,
    InstanceError,
    Intervals,
    MarginalVector,
    PlayerMixedStrategy,
    Scenarios,
    UncertaintySpec,
    as_integer,
)
from .nominal import DagPathOracle, ExplicitOracle, KSelectionOracle, SpanningTreeOracle

# The instance file's two tables: each type's class and, in order, the
# fields its constructor takes.  ``validate_instance`` reads a type through
# its row and ``describe_instance`` writes one, so a field is named once.
_NOMINAL = {
    "k-selection": (KSelectionOracle, ("n", "k")),
    "spanning-tree": (SpanningTreeOracle, ("vertices", "edges")),
    "dag-path": (DagPathOracle, ("vertices", "arcs", "source", "target")),
    "explicit": (ExplicitOracle, ("sets",)),  # its item count is the instance's n
}

# ... and the noun that names an uncertainty type's real fields in a message
_UNCERTAINTY = {
    "interval": (Intervals, ("lower", "upper"), "interval"),
    "scenarios": (Scenarios, ("costs",), "scenario"),
}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise InstanceError(f"{where} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise InstanceError(f"unknown field(s) {sorted(unknown)} in {where}")


def _reals(value, field: str) -> np.ndarray:
    """``value``, numbers nested in lists, as a float array.  A boolean, a
    string or any other entry that is not a number raises ValueError naming
    ``field``: numpy alone would read ``true`` as 1.0 and ``"0.5"`` as 0.5."""

    def check(items):
        for item in items:
            if isinstance(item, (list, tuple, np.ndarray)):
                check(item)
            elif not isinstance(item, numbers.Real) or isinstance(item, (bool, np.bool_)):
                raise ValueError(f"{field} must hold numbers, got {item!r}")

    check(value if isinstance(value, (list, tuple, np.ndarray)) else [value])
    return np.asarray(value, dtype=float)


def _row(table: dict, what: str, d: dict) -> tuple:
    """The row of ``d``'s type in an instance-file table; ``d`` may hold no
    field but the row's."""
    kind = d.get("type")
    if kind not in table:
        raise InstanceError(f"unknown {what} type {kind!r}")
    _reject_unknown(d, {"type", *table[kind][1]}, f"{what}/{kind}")
    return table[kind]


def validate_instance(description: dict) -> Instance:
    """Build a validated :class:`Instance` from a plain-dict description.

    The description uses the documented JSON schema; unknown fields are
    rejected rather than ignored so that typos fail loudly.  The family's
    oracle is built here and checks the family's integers and structure, so
    a cyclic or disconnected graph, or an unreachable target, is rejected
    here too.
    """
    if not isinstance(description, dict):
        raise InstanceError("instance description must be an object")
    _reject_unknown(description, {"name", "n", "nominal", "uncertainty"}, "instance")
    try:
        name = str(description.get("name", "unnamed"))
        n = as_integer(description["n"], "n")
        nom_d = dict(description["nominal"])
        unc_d = dict(description["uncertainty"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed instance description: {exc}") from exc

    cls, fields = _row(_NOMINAL, "nominal", nom_d)
    try:
        values = [nom_d[f] for f in fields]
        nominal = cls(n, *values) if cls is ExplicitOracle else cls(*values)
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed nominal spec: {exc}") from exc

    cls, fields, noun = _row(_UNCERTAINTY, "uncertainty", unc_d)
    try:
        uncertainty: UncertaintySpec = cls(*[_reals(unc_d[f], f"{noun} {f}") for f in fields])
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed uncertainty spec: {exc}") from exc

    return Instance(name=name, n=n, nominal=nominal, uncertainty=uncertainty)


def _plain(value):
    """A field's value as JSON: tuples become lists, arrays nested lists."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _described(table: dict, what: str, obj) -> dict:
    """``obj`` as the fields of its row of an instance-file table."""
    for kind, (cls, fields, *_) in table.items():
        if isinstance(obj, cls):
            return {"type": kind, **{f: _plain(getattr(obj, f)) for f in fields}}
    raise InstanceError(f"no instance-file type for the {what} {type(obj).__name__}")


def describe_instance(instance: Instance) -> dict:
    """Inverse of :func:`validate_instance`: emit the JSON-schema dict."""
    return {
        "name": instance.name,
        "n": instance.n,
        "nominal": _described(_NOMINAL, "nominal", instance.nominal),
        "uncertainty": _described(_UNCERTAINTY, "uncertainty", instance.uncertainty),
    }


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
        _reject_unknown(d, {"sets", "probs"}, "player strategy")
        sets = [[as_integer(e, "player set item") for e in s] for s in d["sets"]]
        probs = _reals(d["probs"], "player probs")
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed player strategy: {exc}") from exc
    for items in sets:
        if len(set(items)) != len(items):
            raise InstanceError(f"player set {items} repeats an item")
    return PlayerMixedStrategy(tuple(FeasibleSet.from_indices(n, s) for s in sets), probs)


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
        _reject_unknown(d, {"costs", "probs", "scenarios"}, "adversary strategy")
        costs = tuple(CostVector(_reals(c, "adversary costs")) for c in d["costs"])
        probs = _reals(d["probs"], "adversary probs")
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
        arr = _reals(raw, "marginal file")
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"marginal file must hold {n} reals") from exc
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InstanceError(f"marginal file must hold {n} reals")
    return MarginalVector(arr)
