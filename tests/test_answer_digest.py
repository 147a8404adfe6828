import dataclasses
from typing import ClassVar

import numpy as np

import answer_digest


def test_digest_is_repeatable_and_sees_one_ulp():
    subset = dict(families=("spanning-tree",), sizes=(6,), seeds=(1,))
    first = list(answer_digest.records(**subset))
    names = {name.split(" ", 1)[1] for name, _ in first}
    assert {"randomized", "adversary LP", "brute force", "double oracle"} <= names
    assert {"instance file", "player file", "adversary file"} <= names
    digest = answer_digest.digest(first)
    assert answer_digest.digest(answer_digest.records(**subset)) == digest
    # one ulp in the value, then in one marginal entry, moves the digest
    i = next(i for i, (name, _) in enumerate(first) if name.endswith(" randomized"))
    name, game = first[i]

    def digest_with(answer):
        return answer_digest.digest(first[:i] + [(name, answer)] + first[i + 1 :])

    assert digest_with(game) == digest
    assert digest_with(dataclasses.replace(game, value=np.nextafter(game.value, np.inf))) != digest
    p = game.marginal.p.copy()
    p[-1] = np.nextafter(p[-1], -np.inf)
    bumped = dataclasses.replace(game, marginal=dataclasses.replace(game.marginal, p=p))
    assert digest_with(bumped) != digest


def test_field_lines_name_the_field_that_moved():
    subset = dict(families=("dag-path",), kinds=("scenarios",), sizes=(6,), seeds=(2,))
    first = list(answer_digest.records(**subset))
    lines = list(answer_digest.field_lines(first))
    assert len(lines) == len(set(lines)) > len(first)
    i = next(i for i, (name, _) in enumerate(first) if name.endswith(" randomized"))
    name, game = first[i]
    gap = np.nextafter(game.certified_gap, np.inf)
    moved = first[:i] + [(name, dataclasses.replace(game, certified_gap=gap))] + first[i + 1 :]
    changed = set(answer_digest.field_lines(moved)) ^ set(lines)
    assert {line.rsplit(" ", 1)[0] for line in changed} == {f"{name} certified_gap"}
    assert len(changed) == 2


def test_class_variables_are_not_fields():
    @dataclasses.dataclass(frozen=True)
    class Plain:
        value: float

    @dataclasses.dataclass(frozen=True)
    class Annotated:
        value: float
        noun: ClassVar[str] = "points"

    assert answer_digest._encode(Annotated(0.5)) == answer_digest._encode(Plain(0.5))
    assert answer_digest._fields(Annotated(0.5)) == answer_digest._fields(Plain(0.5))
