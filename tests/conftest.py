import numpy as np
import pytest
from hypothesis import settings

from minregret.gen import generate_instance
from minregret.io import validate_instance
from minregret.nominal import NominalOracle, build_oracle

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def tight_discrete(k):
    return generate_instance("tight-discrete", k=k)


def tight_interval():
    return generate_instance("tight-interval")


def k_selection_instance(n, k, lower=None, upper=None, scenarios=None, name="ksel"):
    if scenarios is not None:
        uncertainty = {"type": "scenarios", "costs": [list(map(float, c)) for c in scenarios]}
    else:
        uncertainty = {
            "type": "interval",
            "lower": list(map(float, lower)),
            "upper": list(map(float, upper)),
        }
    return validate_instance(
        {
            "name": name,
            "n": n,
            "nominal": {"type": "k-selection", "n": n, "k": k},
            "uncertainty": uncertainty,
        }
    )


def brute_min(oracle, costs):
    """Independent nominal optimum: scan the enumerated family."""
    costs = np.asarray(costs, dtype=float)
    best, best_val = None, np.inf
    for T in oracle.enumerate_feasible():
        val = float(costs @ T.indicator)
        if val < best_val:
            best, best_val = T, val
    return best, best_val


def brute_max_regret_interval(T, instance):
    """Max regret over all 2^n corner cost vectors, certified by scanning F'.

    Regret is convex in c, so corners of the box suffice.
    """
    oracle = build_oracle(instance)
    unc = instance.uncertainty
    n = instance.n
    best = -np.inf
    for mask in range(2**n):
        c = np.array(
            [unc.upper[e] if (mask >> e) & 1 else unc.lower[e] for e in range(n)]
        )
        _, opt = brute_min(oracle, c)
        best = max(best, float(c @ T.indicator) - opt)
    return best


class RepeatingOracle(NominalOracle):
    """Solves with ``oracle``, but reports the first set it ever found in
    place of every later one: a growth loop fed by it stalls.  Its
    ``optima`` is the base class's, one ``solve`` per row."""

    def __init__(self, oracle):
        self.oracle, self.n, self.first = oracle, oracle.n, None

    def solve(self, costs):
        T, value = self.oracle.solve(costs)
        self.first = self.first or T
        return self.first, value


def random_support_strategy(oracle, rng, max_support=4):
    from minregret.core import PlayerMixedStrategy

    family = oracle.enumerate_feasible()
    size = int(rng.integers(1, min(max_support, len(family)) + 1))
    idx = rng.choice(len(family), size=size, replace=False)
    probs = rng.dirichlet(np.ones(size))
    return PlayerMixedStrategy.cleaned([family[i] for i in idx], probs)


def suite_instances(family, count=10, start_seed=0):
    """Deterministic mixed-uncertainty instance suite for one family."""
    out = []
    for i in range(count):
        seed = start_seed + i
        out.append(
            generate_instance(
                family,
                n=4 + seed % 7,
                uncertainty="interval" if i % 2 == 0 else "scenarios",
                n_scenarios=2 + seed % 3,
                seed=seed,
            )
        )
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
