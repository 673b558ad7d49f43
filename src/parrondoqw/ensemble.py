"""Ensemble averaging of stochastic schedules and the classical baseline.

Ensembles run independent trajectories whose seeds are derived from a
master seed and the iteration index, evolved as the rows of one batched walk
per fixed chunk, read after every step, then average the position
expectation series. The classical random walk is evolved as an exact
probability vector (no sampling), so its variance is noise-free for baseline
comparisons.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnsembleWarning, FieldError, InsufficientDataError
from .evolution import (
    StrategySchedule,
    _seed_slots,
    _series,
    is_stochastic_schedule,
    map_batches,
    with_derived_seeds,
)
from .rng import ITERATIONS, PROBABILITY, RNG_ALGORITHM, SEED, STEPS, _check, at_least
from .rng import optional
from .state import WalkerState


@dataclass
class EnsembleResult:
    """Mean position-expectation series across iterations, with its standard error."""

    times: np.ndarray
    mean_expectation: np.ndarray
    std_error: np.ndarray
    iterations: int
    master_seed: int
    metadata: dict


def _chunk(args):
    initial, schedule, steps, master_seed, start, stop = args
    rows = [with_derived_seeds(schedule, master_seed, i) for i in range(start, stop)]
    up, down = initial.amp_up[None], initial.amp_down[None]
    return _series(up, down, rows, initial.time_step, steps, initial.geometry)[0]


def ensemble_expectation(
    initial: WalkerState,
    schedule: StrategySchedule,
    steps: int,
    iterations: int,
    master_seed: int,
    workers: int = 1,
) -> EnsembleResult:
    """Average <X>(t) over ``iterations`` independently seeded trajectories.

    Iteration i uses seeds derived from (master_seed, i), and its series is
    bit-for-bit that of its own ``run`` whichever batch of iterations it is
    evolved in, and whichever of ``workers`` processes evolves the batch. A
    schedule with no randomness is allowed but warns: all iterations are
    then identical.
    """
    _check("iterations", iterations, ITERATIONS)
    if _check("seed", master_seed, optional(SEED)) is None and _seed_slots(schedule):
        raise FieldError("master_seed", "master_seed is required: each iteration's seeds "
                                        "derive from it")
    if not is_stochastic_schedule(schedule):
        warnings.warn(
            "schedule has no randomness; every ensemble iteration is identical",
            DegenerateEnsembleWarning,
            stacklevel=2,
        )

    # Stacked in iteration order; the reduction order is therefore fixed.
    stacked = map_batches(_chunk, (initial, schedule, steps, master_seed), iterations, workers)
    mean = stacked.mean(axis=0)
    if iterations > 1:
        std_error = stacked.std(axis=0, ddof=1) / np.sqrt(iterations)
    else:
        std_error = np.zeros_like(mean)

    metadata = {
        "schedule": repr(schedule),
        "iterations": iterations,
        "master_seed": master_seed,
        "seed_rule": "child_seed(master_seed, iteration, slot)",
        "rng_algorithm": RNG_ALGORITHM,
    }
    return EnsembleResult(
        times=np.arange(steps + 1),
        mean_expectation=mean,
        std_error=std_error,
        iterations=iterations,
        master_seed=master_seed,
        metadata=metadata,
    )


@dataclass
class ClassicalWalkResult:
    """Exact distribution evolution of the classical +-1 random walk."""

    times: np.ndarray
    positions: np.ndarray
    distributions: np.ndarray  # shape (steps + 1, 2*steps + 1), rows sum to 1
    expectation: np.ndarray
    variance: np.ndarray


def classical_walk(steps: int, p_right: float = 0.5) -> ClassicalWalkResult:
    """Evolve P(x, t+1) = p*P(x-1, t) + (1-p)*P(x+1, t) from P(0, 0) = 1.

    The probability vector is propagated exactly, no sampling. For the
    unbiased walk the variance equals t at every step.
    """
    _check("p_right", p_right, PROBABILITY)
    _check("steps", steps, STEPS)

    width = 2 * steps + 1
    positions = np.arange(-steps, steps + 1)
    dists = np.zeros((steps + 1, width))
    dists[0, steps] = 1.0
    for t in range(steps):
        cur = dists[t]
        nxt = dists[t + 1]
        nxt[1:] += p_right * cur[:-1]
        nxt[:-1] += (1.0 - p_right) * cur[1:]

    x = positions.astype(float)
    expectation = dists @ x
    variance = np.maximum(dists @ (x**2) - expectation**2, 0.0)
    return ClassicalWalkResult(
        times=np.arange(steps + 1),
        positions=positions,
        distributions=dists,
        expectation=expectation,
        variance=variance,
    )


def variance_scaling_exponent(
    variance: np.ndarray, t_min: int, t_max: int
) -> float:
    """Least-squares slope of log(variance) against log(t) on [t_min, t_max].

    The series is indexed by time step (entry t is the variance after t
    steps). Slope 2 marks ballistic spreading, slope 1 diffusive.
    """
    variance = np.asarray(variance, dtype=float)
    _check("t_min", t_min, at_least(1))  # log t is undefined at 0
    _check("t_max", t_max, at_least(1))
    if t_max >= len(variance):
        raise ValueError(
            f"t_max={t_max} beyond the series (length {len(variance)})"
        )
    if t_max < t_min:
        raise FieldError("t_max", f"t_max must be >= t_min, got t_min={t_min}, t_max={t_max}")
    n_points = t_max - t_min + 1
    if n_points < 5:
        raise InsufficientDataError(
            f"fit window [{t_min}, {t_max}] has {n_points} points; need at least 5"
        )
    window = variance[t_min : t_max + 1]
    if np.any(window <= 0.0):
        raise ValueError("variance must be strictly positive on the fit window")
    t = np.arange(t_min, t_max + 1, dtype=float)
    slope, _ = np.polyfit(np.log(t), np.log(window), 1)
    return float(slope)
