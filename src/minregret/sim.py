"""Seeded Monte Carlo play of the regret game.

The generator is a 64-bit mix-and-multiply (splitmix-style) counter stream:
value ``i`` of substream ``s`` is
``mix(mix(seed + s * GAMMA) + (i+1) * GAMMA)`` modulo 2**64, where ``mix``
is the splitmix64 xor-shift/multiply finalizer ``_mix64_vec`` and GAMMA is
the golden 64-bit increment.  Substreams are derived by index, so chunks of
samples are independent and may run in parallel without changing any
draw; the estimate itself is assembled from exact pair counts over the two
strategy supports, which makes the reduction order-independent and
degenerate cases exact.
Fixed ``(seed, inputs)`` reproduce the estimate bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    AdversaryMixedStrategy,
    Instance,
    InstanceError,
    PlayerMixedStrategy,
    as_count,
    as_integer,
)
from .nominal import NominalOracle, build_oracle

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# Fixed chunk width: part of the stream layout, not a tuning knob.
CHUNK = 1 << 16


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    return z ^ (z >> np.uint64(31))


def stream_uniform(seed: int, stream: int, count: int, start: int = 0) -> np.ndarray:
    """``count`` uniforms in [0, 1) from positions start.. of one substream."""
    root = _mix64_vec(np.array([(seed + stream * GAMMA) & MASK64], dtype=np.uint64))
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = _mix64_vec(root + idx * np.uint64(GAMMA))
    return (z >> np.uint64(11)) * (2.0 ** -53)


class SimEstimate(NamedTuple):
    mean: float
    stderr: float


def simulate(
    instance: Instance,
    y: PlayerMixedStrategy,
    w: AdversaryMixedStrategy,
    samples: int,
    seed: int,
    oracle: NominalOracle | None = None,
) -> SimEstimate:
    """Estimate the expected regret of independent draws from y and w.

    Returns the sample mean of ``regret(T_i, c_i)`` over ``samples`` pairs
    and its standard error.  Drawing uses inverse-CDF lookups on the two
    supports; substream 2c drives the player and 2c+1 the adversary within
    chunk c.  A player set the oracle finds infeasible, or an adversary
    vector outside the uncertainty set, raises :class:`InstanceError`.
    """
    samples, seed = as_count(samples, "samples"), as_integer(seed, "seed")
    oracle = build_oracle(instance) if oracle is None else oracle
    w.validate_for(instance)
    if not all(oracle.is_feasible(T) for T in y.support):
        raise InstanceError("regret is defined only for feasible sets")

    X = np.stack([T.indicator for T in y.support]).astype(float)
    C = np.stack([c.values for c in w.support])
    optima = oracle.optima(C)
    regrets = X @ C.T - optima  # (mu, eta) regret of every support pair

    cum_y = np.cumsum(y.probs)
    cum_w = np.cumsum(w.probs)
    mu, eta = regrets.shape

    counts = np.zeros(mu * eta, dtype=np.int64)
    drawn = 0
    chunk_index = 0
    while drawn < samples:
        count = min(CHUNK, samples - drawn)
        u_player = stream_uniform(seed, 2 * chunk_index, count)
        u_adv = stream_uniform(seed, 2 * chunk_index + 1, count)
        i = np.minimum(np.searchsorted(cum_y, u_player, side="right"), mu - 1)
        j = np.minimum(np.searchsorted(cum_w, u_adv, side="right"), eta - 1)
        counts += np.bincount(i * eta + j, minlength=mu * eta)
        drawn += count
        chunk_index += 1

    weights = counts / float(samples)
    flat = regrets.reshape(-1)
    mean = float(weights @ flat)
    if samples == 1:
        return SimEstimate(mean, 0.0)
    var = float(counts @ (flat - mean) ** 2) / (samples - 1)
    return SimEstimate(mean, float(np.sqrt(max(var, 0.0) / samples)))
