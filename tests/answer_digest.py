"""One SHA-256 over the answers of every solver on a fixed instance set.

Run from the repository root:

    PYTHONPATH=src python3 tests/answer_digest.py

It prints one hex digest.  Two source trees whose solvers give the same
answers to the last bit print the same digest, so a change that claims bit
identity is checked by running this script on both trees.  With
``--fields`` it prints one line per record and field instead,
``<record name> <field> <sha256>``, so a ``diff`` of two trees' output names
what moved.  A solution's or mix's fields are its dataclass fields, a
tuple's are its positions, a file object's are its keys, and any other
answer is one field, ``-``.  It uses the public solvers,
``solvers._double_oracle`` and the writers of ``minregret.io`` only.

The set: k-selection, spanning trees and DAG paths, each under intervals and
under 4 scenarios, at n = 6, 9, 30 and 60 with seeds 1-3.  Each instance
records its instance file's text, ``solve_randomized`` (value, certified
gap, iterations, marginal and both mixes) and both mixes' strategy-file
objects, the decomposition of its marginal, both best responses to its
answer, the approximations of its uncertainty type and, under scenarios,
the adversary LP.  At n <= 9 it also records the brute force, the double
oracle run directly and the deterministic solver.  A raised error is
recorded as its type and message.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import sys

import numpy as np

FAMILIES = ("k-selection", "spanning-tree", "dag-path")
KINDS = ("interval", "scenarios")
SIZES = (6, 9, 30, 60)
SEEDS = (1, 2, 3)
TOL = 1e-7
SMALL = 9  # the exhaustive solvers run up to this n


def _encode(value) -> bytes:
    """Bytes that tell apart any two different answers, floats by their bits."""
    import minregret as mr

    if isinstance(value, mr.MarginalVector):
        value = value.p
    elif isinstance(value, mr.CostVector):
        value = value.values
    elif isinstance(value, mr.FeasibleSet):
        value = ("set", value.indices)
    elif isinstance(value, mr.AdversaryMixedStrategy):
        value = (
            "adversary", [c.values for c in value.support], value.probs,
            value.scenario_indices, value.generators,
        )
    elif isinstance(value, dict):  # a file's JSON object
        value = sorted(value.items())
    elif dataclasses.is_dataclass(value):  # solutions, mixes, best responses
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if value is None or isinstance(value, (bool, str)):
        return repr(value).encode()
    if isinstance(value, (int, np.integer)):
        return b"i" + repr(int(value)).encode()
    if isinstance(value, (float, np.floating)):
        return b"f" + np.float64(value).tobytes()
    if isinstance(value, np.ndarray):
        return b"a" + repr(value.shape).encode() + value.astype(float).tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(_encode(v) for v in value) + b")"
    raise TypeError(f"cannot encode {type(value).__name__}")


def _outcome(run):
    """``run()``, or the type and message of the error it raised."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 -- a raised error is an answer too
        return ("error", type(exc).__name__, str(exc))


def instance_records(family: str, kind: str, n: int, seed: int):
    """The named answers of every solver on one instance, in a fixed order."""
    import minregret as mr
    from minregret.core import MAX_CUTS
    from minregret.io import adversary_strategy_to_dict, instance_text, player_strategy_to_dict
    from minregret.solvers import _double_oracle

    scenarios = kind == "scenarios"
    instance = mr.generate_instance(
        family, n=n, uncertainty=kind, n_scenarios=4, seed=seed
    )
    oracle = mr.build_oracle(instance)
    label = f"{family}/{kind}/n={n}/seed={seed}"
    yield label + " instance file", instance_text(instance)
    game = _outcome(lambda: mr.solve_randomized(instance, tol=TOL, oracle=oracle))
    yield label + " randomized", game
    if isinstance(game, mr.GameSolution):
        yield label + " player file", player_strategy_to_dict(game.player)
        yield label + " adversary file", adversary_strategy_to_dict(game.adversary)
        yield label + " decompose", _outcome(
            lambda: mr.decompose_marginal(game.marginal, oracle, tol=TOL)
        )
        yield label + " adversary response", _outcome(
            lambda: mr.max_expected_regret(game.marginal, instance, oracle)
        )
        yield label + " player response", _outcome(
            lambda: mr.player_best_response(game.adversary, instance, oracle)
        )
        if scenarios:
            yield label + " dual weighted", _outcome(
                lambda: mr.approx_dual_weighted(instance, game.adversary, oracle)
            )
    if scenarios:
        yield label + " adversary LP", _outcome(
            lambda: mr.solve_adversary_lp_discrete(instance, tol=TOL, oracle=oracle)
        )
        yield label + " mean cost", _outcome(lambda: mr.approx_mean_cost(instance, oracle))
    else:
        yield label + " midpoint", _outcome(lambda: mr.approx_midpoint(instance, oracle))
    if n <= SMALL:
        yield label + " brute force", _outcome(
            lambda: mr.bruteforce_game_value(instance, oracle)
        )
        yield label + " double oracle", _outcome(
            lambda: _double_oracle(instance, TOL, MAX_CUTS, oracle)
        )
        yield label + " deterministic", _outcome(
            lambda: mr.solve_deterministic_exact(instance, oracle)
        )


def records(families=FAMILIES, kinds=KINDS, sizes=SIZES, seeds=SEEDS):
    """Every ``(name, answer)`` record of the set, in a fixed order."""
    for family, kind, n, seed in itertools.product(families, kinds, sizes, seeds):
        yield from instance_records(family, kind, n, seed)


def digest(named_answers) -> str:
    """SHA-256 over ``(name, answer)`` records, in their order."""
    h = hashlib.sha256()
    for name, answer in named_answers:
        h.update(_encode((name, answer)))
        h.update(b"\n")
    return h.hexdigest()


def _fields(answer):
    """The ``(field, part)`` pairs of one answer, as the module docstring
    splits them."""
    if isinstance(answer, dict):
        return sorted(answer.items())
    if isinstance(answer, (tuple, list)):
        return list(enumerate(answer))
    if dataclasses.is_dataclass(answer):
        return [(f.name, getattr(answer, f.name)) for f in dataclasses.fields(answer)]
    return [("-", answer)]


def field_lines(named_answers):
    """One ``<name> <field> <sha256>`` line per record and field, in order."""
    for name, answer in named_answers:
        for field, part in _fields(answer):
            yield f"{name} {field} {hashlib.sha256(_encode(part)).hexdigest()}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument(
        "--fields", action="store_true", help="one line per record and field, not one digest"
    )
    if parser.parse_args().fields:
        sys.stdout.writelines(line + "\n" for line in field_lines(records()))
    else:
        sys.stdout.write(digest(records()) + "\n")
