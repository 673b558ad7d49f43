"""Deterministic random streams.

Every random quantity in the engine is a pure function of integer seeds run
through numpy's ``SeedSequence``, so a draw never depends on how many other
draws happened before it. This keeps trajectories replayable from their seeds
alone and lets ensembles and sweeps be sharded across workers without shared
state.

Per-step draws are defined block-wise: draw ``t`` of a stream is entry
``t % 256`` of the 256-value uniform block produced by
``default_rng([seed, tag, t // 256])``. The block is an implementation detail
of the derivation rule, not a statefulness: the value at ``t`` is fixed by
``(seed, tag, t)`` alone. ``_draws``, the one reader of the blocks, gives every
draw: the kernel's phases and picks, ``StepStream``'s and so ``realize``'s.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Recorded in output metadata so results can be replayed.
RNG_ALGORITHM = "numpy-PCG64(SeedSequence), 256-draw blocks keyed by (seed, tag, t//256)"

# Stream tags separate draws made for different purposes under one seed.
TAG_ALPHA = 1
TAG_BETA = 2
TAG_CHOICE = 3

_BLOCK = 256


def _check_seed(seed: int) -> int:
    """``seed`` as an int, unless it is a bool or not an integer >= 0: a ``ValueError``."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def _check_count(name: str, value, least: int) -> None:
    """Raise a ``ValueError`` naming ``value`` unless it is a non-bool integer >= ``least``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def child_seed(master_seed: int, *key: int) -> int:
    """Derive a reproducible child seed from a master seed and an index key."""
    entropy = [_check_seed(master_seed)] + [_check_seed(k) for k in key]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@lru_cache(maxsize=4096)
def _uniform_block(seed: int, tag: int, block: int) -> np.ndarray:
    rng = np.random.default_rng([seed, tag, block])
    values = rng.random(_BLOCK)
    values.flags.writeable = False
    return values


def _draws(seeds, tag: int, t: int, stop: int) -> np.ndarray:
    """Draws t to stop - 1, all of one block, of each seed's stream: (R, stop - t)."""
    index, j = divmod(t, _BLOCK)
    return np.array([_uniform_block(int(seed), tag, index)[j : j + stop - t]
                     for seed in seeds])


class StepStream:
    """Per-time-step scalar draws derived from ``(seed, tag, t)``.

    Lookups are order-independent: ``angle(t)`` returns the same value no
    matter which other steps were queried before, and the same value on every
    machine for a given seed.
    """

    def __init__(self, seed: int, tag: int = 0):
        self.seed = _check_seed(seed)
        self.tag = int(tag)

    def uniform(self, t: int) -> float:
        """Uniform draw on [0, 1) for step ``t``, an integer >= 0."""
        _check_count("t", t, 0)
        t = int(t)
        return float(_draws((self.seed,), self.tag, t, t + 1)[0, 0])

    def angle(self, t: int) -> float:
        """Uniform draw on [0, 2*pi) for step ``t``."""
        return 2.0 * np.pi * self.uniform(t)

    def __repr__(self) -> str:
        return f"StepStream(seed={self.seed}, tag={self.tag})"
