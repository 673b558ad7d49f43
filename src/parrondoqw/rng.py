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
draw: the random-phase coins' tables, the kernel's picks and ``StepStream``'s.

The argument rules live here too, the seed's among them: a rule is (kinds, ok,
wanted), and ``_check`` passes a value of ``kinds``, never a bool, for which ``ok``
holds. Each range is stated once, below or in a ``Ruled`` class's ``rules``.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

import numpy as np

from .errors import FieldError

# Recorded in output metadata so results can be replayed.
RNG_ALGORITHM = "numpy-PCG64(SeedSequence), 256-draw blocks keyed by (seed, tag, t//256)"

# Stream tags separate draws made for different purposes under one seed.
TAG_ALPHA = 1
TAG_BETA = 2
TAG_CHOICE = 3

_BLOCK = 256


# The sizes of a run, each bounded well above every recipe (2101 sites, 1000 steps, 50000
# iterations, 101 points an axis) and far inside what numpy can shape, so that a size past
# its bound fails as its key's error, not as an array that cannot be made.
MAX_SITES, MAX_STEPS, MAX_ITERATIONS, MAX_POINTS = 100_001, 100_000, 1_000_000, 1001

_INTEGERS, _REALS = (int, np.integer), (int, float, np.integer, np.floating)
INTEGER = _INTEGERS, lambda v: True, "be an integer"
SEED = _INTEGERS, lambda v: v >= 0, "be a nonnegative integer"
ODD_SITES = (_INTEGERS, lambda v: 3 <= v <= MAX_SITES and v % 2 == 1,
             f"be an odd integer in [3, {MAX_SITES}]")
FINITE = _REALS, math.isfinite, "be finite"
# A real whose sum with three more of its kind stays finite (float64 ends at 1.8e308): a
# tanh coin's blend of its two endpoints and a grid axis's span both need it.
BOUNDED = _REALS, lambda v: abs(v) <= 1e307, "be finite and at most 1e307 in size"


def _check(name: str, value, rule):
    """``value`` if ``rule`` passes it, else a ``FieldError`` naming ``name``."""
    kinds, ok, wanted = rule
    if isinstance(value, bool) or not isinstance(value, kinds) or not ok(value):
        raise FieldError(name, f"{name} must {wanted}, got {value!r}")
    return value


@cache
def at_least(least: int):
    return _INTEGERS, lambda v: v >= least, f"be an integer >= {least}"


def integer_in(least: int, most: int):
    return _INTEGERS, lambda v: least <= v <= most, f"be an integer in [{least}, {most}]"


STEPS, ITERATIONS, POINTS = (integer_in(0, MAX_STEPS), integer_in(1, MAX_ITERATIONS),
                             integer_in(2, MAX_POINTS))


def interval(lo: float, hi: float, shown: str):
    """A real in ``shown``: "[lo, hi]", or "[lo, hi)" without hi."""
    closed = shown.endswith("]")
    return _REALS, lambda v: lo <= v and (v <= hi if closed else v < hi), f"lie in {shown}"


def optional(rule):
    kinds, ok, wanted = rule
    return (*kinds, type(None)), lambda v: v is None or ok(v), wanted


PROBABILITY = interval(0.0, 1.0, "[0, 1]")
TOLERANCE = interval(0.0, np.inf, "[0, inf)")


class Ruled:
    """A dataclass whose fields' ``rules`` (field -> rule) are checked when it is built."""

    rules = {}

    def __post_init__(self):
        for name, rule in self.rules.items():
            _check(name, getattr(self, name), rule)


def child_seed(master_seed: int, *key: int) -> int:
    """Derive a reproducible child seed from a master seed and an index key."""
    entropy = [int(_check("seed", k, SEED)) for k in (master_seed, *key)]
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
        self.seed = int(_check("seed", seed, SEED))
        self.tag = int(_check("tag", tag, SEED))

    def uniform(self, t: int) -> float:
        """Uniform draw on [0, 1) for step ``t``, an integer >= 0."""
        t = int(_check("t", t, at_least(0)))
        return float(_draws((self.seed,), self.tag, t, t + 1)[0, 0])

    def angle(self, t: int) -> float:
        """Uniform draw on [0, 2*pi) for step ``t``."""
        return 2.0 * np.pi * self.uniform(t)

    def __repr__(self) -> str:
        return f"StepStream(seed={self.seed}, tag={self.tag})"
