"""Brute-force path-sum oracle for small walks.

Enumerates every spin path explicitly (2^T of them for T shift stages,
per initial basis component) and accumulates amplitude products, using its
own scalar matrix arithmetic in pure Python. It shares only the seed-to-draw
derivation (StepStream) with the engine, because those draws define the
stochastic protocol itself; all dynamics are recomputed independently.
"""

from __future__ import annotations

import cmath
import math

from parrondoqw.coins import (
    GeneralCoin,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    SiteTanhRotation,
    UniformRotation,
)
from parrondoqw.evolution import (
    AlternatingEvenOdd,
    Composite,
    ProbabilisticChoice,
    Single,
)
from parrondoqw.rng import TAG_ALPHA, TAG_BETA, TAG_CHOICE, StepStream

Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]


def _rot(theta: float) -> Matrix:
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    return ((c, -s), (s, c))


def _tanh_theta(theta_minus: float, theta_plus: float, x: int) -> float:
    w = math.tanh(x)
    return 0.5 * (theta_plus * (1.0 + w) + theta_minus * (1.0 - w))


def _general(q: float, alpha: float, beta: float) -> Matrix:
    a = math.sqrt(q)
    b = math.sqrt(1.0 - q)
    return (
        (a, b * cmath.exp(1j * alpha)),
        (b * cmath.exp(1j * beta), -a * cmath.exp(1j * (alpha + beta))),
    )


def _matmul(m2: Matrix, m1: Matrix) -> Matrix:
    return tuple(
        tuple(sum(m2[i][k] * m1[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _spec_matrix(spec, x: int, t: int) -> Matrix:
    if isinstance(spec, UniformRotation):
        return _rot(spec.theta)
    if isinstance(spec, SiteTanhRotation):
        return _rot(_tanh_theta(spec.theta_minus, spec.theta_plus, x))
    if isinstance(spec, GeneralCoin):
        return _general(spec.q, spec.alpha, spec.beta)
    if isinstance(spec, RandomPhaseAlpha):
        return _general(0.5, StepStream(spec.seed, TAG_ALPHA).angle(t), 0.0)
    if isinstance(spec, RandomPhaseBeta):
        return _general(0.5, 0.0, StepStream(spec.seed, TAG_BETA).angle(t))
    raise TypeError(f"oracle does not know coin spec {spec!r}")


def _step_specs(schedule, t: int):
    if isinstance(schedule, Single):
        return [schedule.spec]
    if isinstance(schedule, Composite):
        return [schedule.a] * schedule.m + [schedule.b] * schedule.n
    if isinstance(schedule, AlternatingEvenOdd):
        spec = schedule.a if t % 2 == 0 else schedule.b
        return [spec, spec]
    if isinstance(schedule, ProbabilisticChoice):
        u = StepStream(schedule.seed, TAG_CHOICE).uniform(t)
        return [schedule.a if u < schedule.q else schedule.b]
    raise TypeError(f"oracle does not know schedule {schedule!r}")


def _stages(schedule, steps: int, t0: int = 0):
    """Flatten the schedule's steps t0 .. t0 + steps - 1 into stages.

    Default schedules compose all of a step's coins into one matrix followed
    by one shift; an interleaved composite shifts after every coin.
    """
    interleaved = isinstance(schedule, Composite) and schedule.interleaved
    stages = []
    for t in range(t0, t0 + steps):
        specs = _step_specs(schedule, t)
        if interleaved:
            for spec in specs:
                stages.append((spec, t))
        else:
            stages.append((tuple(specs), t))
    return stages, interleaved


def path_sum_amplitudes(initial_components, schedule, steps: int, t0: int = 0):
    """Final amplitudes {(spin, x): amp} by explicit path enumeration.

    ``initial_components`` is an iterable of (spin, x, amplitude) with
    spin 0 = up, 1 = down. Spin-up moves +1 per shift, spin-down -1. The
    walk starts at time index ``t0``.
    """
    stages, interleaved = _stages(schedule, steps, t0)

    # Precompute each stage's composed matrix as a function of position.
    def stage_matrix(stage, x: int) -> Matrix:
        spec_or_specs, t = stage
        if interleaved:
            return _spec_matrix(spec_or_specs, x, t)
        m = ((1.0, 0.0), (0.0, 1.0))
        for spec in spec_or_specs:  # first spec acts first
            m = _matmul(_spec_matrix(spec, x, t), m)
        return m

    amps: dict[tuple[int, int], complex] = {}

    def walk(stage_index: int, spin: int, x: int, amp: complex):
        if amp == 0:
            return
        if stage_index == len(stages):
            key = (spin, x)
            amps[key] = amps.get(key, 0.0) + amp
            return
        m = stage_matrix(stages[stage_index], x)
        for new_spin in (0, 1):
            factor = m[new_spin][spin]
            if factor != 0:
                dx = 1 if new_spin == 0 else -1
                walk(stage_index + 1, new_spin, x + dx, amp * factor)

    for spin, x, amp in initial_components:
        if amp != 0:
            walk(0, spin, x, complex(amp))
    return amps


def path_sum_arrays(initial_components, schedule, steps: int, n_sites: int, t0: int = 0):
    """Same as path_sum_amplitudes but as (amp_up, amp_down) lists over the lattice."""
    half = (n_sites - 1) // 2
    up = [0.0 + 0.0j] * n_sites
    down = [0.0 + 0.0j] * n_sites
    for (spin, x), amp in path_sum_amplitudes(
        initial_components, schedule, steps, t0
    ).items():
        if abs(x) > half:
            raise AssertionError(f"oracle path left the lattice: x={x}")
        if spin == 0:
            up[x + half] += amp
        else:
            down[x + half] += amp
    return up, down
