import dataclasses

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
