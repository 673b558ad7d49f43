"""One-step dynamics and full trajectories.

A time step applies a schedule-determined composition of coins to the spin
degree of freedom, then exactly one spin-conditioned shift (spin-up amplitude
moves one site right, spin-down one site left). Four schedules are supported:

- ``Single``: one coin per step.
- ``Composite``: coin A applied m times, then coin B n times, within one step
  (one shift). ``interleaved=True`` is a deliberately non-standard variant
  that shifts after every coin application instead.
- ``AlternatingEvenOdd``: A twice on even step indices, B twice on odd ones;
  step 0 counts as even.
- ``ProbabilisticChoice``: per step, coin A with probability q else coin B,
  applied once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .coins import (
    CoinSpec,
    SiteTanhRotation,
    is_stochastic_spec,
    realize,
    site_theta,
)
from .errors import (
    BoundaryLeakageError,
    GeometryTooSmallError,
    MissingRandomnessError,
)
from .rng import RNG_ALGORITHM, TAG_CHOICE, StepStream, child_seed
from .state import LatticeGeometry, WalkerState

_LEAK_TOL = 1e-14


@dataclass(frozen=True)
class Single:
    """Apply one coin spec every step."""

    spec: CoinSpec


@dataclass(frozen=True)
class Composite:
    """Coin ``a`` m times then coin ``b`` n times per step, then one shift.

    With ``interleaved=True`` a shift follows every coin application; that
    variant is exposed only for sensitivity studies and is never the default
    reading of an m,n composite game.
    """

    a: CoinSpec
    b: CoinSpec
    m: int
    n: int
    interleaved: bool = False

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError(
                f"need m >= 0, n >= 0 and m + n >= 1, got m={self.m}, n={self.n}"
            )


@dataclass(frozen=True)
class AlternatingEvenOdd:
    """Coin ``a`` twice on even step indices, coin ``b`` twice on odd ones."""

    a: CoinSpec
    b: CoinSpec


@dataclass(frozen=True)
class ProbabilisticChoice:
    """Per step, coin ``a`` with probability q, else coin ``b``, applied once."""

    a: CoinSpec
    b: CoinSpec
    q: float
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")


StrategySchedule = Union[Single, Composite, AlternatingEvenOdd, ProbabilisticChoice]


@dataclass
class Trajectory:
    """Observables recorded after each full step, plus the final state.

    ``times``, ``expectation`` and ``variance`` have length steps + 1 and
    include the initial (t = 0) values. ``distributions`` holds the full
    P(x, t) matrix (rows t, columns x) when requested, else None.
    """

    times: np.ndarray
    expectation: np.ndarray
    variance: np.ndarray
    distributions: np.ndarray | None
    final_state: WalkerState
    metadata: dict


# ---------------------------------------------------------------------------
# internal array kernels (step() and run() share these)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _tanh_field(spec: SiteTanhRotation, n_sites: int):
    """Half-angle cosine/sine arrays for a site-dependent rotation; cached,
    treat as read-only."""
    geometry = LatticeGeometry(n_sites)
    half = 0.5 * site_theta(spec.theta_minus, spec.theta_plus, geometry.positions)
    return np.cos(half), np.sin(half)


@lru_cache(maxsize=256)
def _fixed_matrix(spec: CoinSpec):
    """Site- and time-independent 2x2, unpacked to scalars; cached."""
    u = realize(spec, 0, 0)
    return u[0, 0], u[0, 1], u[1, 0], u[1, 1]


def _coin_arrays(up, down, spec: CoinSpec, t: int, n_sites: int, rng=None):
    if isinstance(spec, SiteTanhRotation):
        c, s = _tanh_field(spec, n_sites)
        return c * up - s * down, s * up + c * down
    # Remaining families are site-independent: one 2x2 for the whole lattice.
    if is_stochastic_spec(spec) or rng is not None:
        u = realize(spec, 0, t, rng)
        a, b, c, d = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    else:
        a, b, c, d = _fixed_matrix(spec)
    return a * up + b * down, c * up + d * down


def _shift_arrays(up, down):
    if abs(up[-1]) > _LEAK_TOL or abs(down[0]) > _LEAK_TOL:
        raise BoundaryLeakageError(
            "amplitude reached the lattice edge; enlarge the lattice "
            f"(|up[max]|={abs(up[-1]):.3e}, |down[min]|={abs(down[0]):.3e})"
        )
    new_up = np.empty_like(up)
    new_up[0] = 0.0
    new_up[1:] = up[:-1]
    new_down = np.empty_like(down)
    new_down[-1] = 0.0
    new_down[:-1] = down[1:]
    return new_up, new_down


def _choice_stream(schedule: ProbabilisticChoice, rng: StepStream | None) -> StepStream:
    if rng is not None:
        return rng
    if schedule.seed is None:
        raise MissingRandomnessError(
            "ProbabilisticChoice needs a seed or an explicit random stream"
        )
    return StepStream(schedule.seed, TAG_CHOICE)


def _coin_plan(schedule: StrategySchedule, t: int, choice: StepStream | None):
    """Coin specs to apply, in order, for the step with time index ``t``."""
    if isinstance(schedule, Single):
        return (schedule.spec,)
    if isinstance(schedule, Composite):
        return (schedule.a,) * schedule.m + (schedule.b,) * schedule.n
    if isinstance(schedule, AlternatingEvenOdd):
        return (schedule.a, schedule.a) if t % 2 == 0 else (schedule.b, schedule.b)
    if isinstance(schedule, ProbabilisticChoice):
        pick_a = choice.uniform(t) < schedule.q
        return (schedule.a,) if pick_a else (schedule.b,)
    raise TypeError(f"unknown schedule {schedule!r}")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def apply_coin(
    state: WalkerState,
    spec: CoinSpec,
    t: int | None = None,
    rng: StepStream | None = None,
) -> WalkerState:
    """Apply the coin at every site; does not advance the time step.

    ``t`` defaults to the state's own time index and selects the per-step
    phase draw for random-phase specs.
    """
    if t is None:
        t = state.time_step
    up, down = _coin_arrays(
        state.amp_up, state.amp_down, spec, t, state.geometry.n_sites, rng
    )
    return WalkerState(state.geometry, up, down, state.time_step)


def shift(state: WalkerState) -> WalkerState:
    """Spin-conditioned translation: up-amplitude one site right, down one left.

    Raises ``BoundaryLeakageError`` if amplitude beyond 1e-14 sits on the edge
    sites it would push off the lattice; the shift never wraps or reflects.
    """
    up, down = _shift_arrays(state.amp_up, state.amp_down)
    return WalkerState(state.geometry, up, down, state.time_step)


def step(
    state: WalkerState,
    schedule: StrategySchedule,
    rng: StepStream | None = None,
) -> WalkerState:
    """Advance one full time step: the schedule's coin composition, then one shift.

    ``rng`` overrides the per-step choice stream of a ``ProbabilisticChoice``
    schedule; all other randomness comes from seeds embedded in the specs.
    """
    t = state.time_step
    choice = (
        _choice_stream(schedule, rng)
        if isinstance(schedule, ProbabilisticChoice)
        else rng
    )
    interleaved = isinstance(schedule, Composite) and schedule.interleaved
    up, down = state.amp_up, state.amp_down
    n = state.geometry.n_sites
    for spec in _coin_plan(schedule, t, choice):
        up, down = _coin_arrays(up, down, spec, t, n)
        if interleaved:
            up, down = _shift_arrays(up, down)
    if not interleaved:
        up, down = _shift_arrays(up, down)
    return WalkerState(state.geometry, up, down, t + 1)


def run(
    initial: WalkerState,
    schedule: StrategySchedule,
    steps: int,
    record_full: bool = False,
    rng: StepStream | None = None,
) -> Trajectory:
    """Run ``steps`` full steps, recording position mean and variance at every t.

    Requires every site the walker can reach (see ``reach``) to lie on the
    lattice, so amplitude never touches the boundary; raised before any
    evolution happens.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    n = initial.geometry.n_sites
    occupied = initial.geometry.positions[(initial.amp_up != 0) | (initial.amp_down != 0)]
    furthest = reach(int(np.abs(occupied).max(initial=0)), schedule, steps)
    if furthest > initial.geometry.half_span:
        raise GeometryTooSmallError(
            f"the walker can reach |x|={furthest} in {steps} steps, beyond the "
            f"edge of n_sites={n} at |x|={initial.geometry.half_span}"
        )

    choice = (
        _choice_stream(schedule, rng)
        if isinstance(schedule, ProbabilisticChoice)
        else rng
    )
    interleaved = isinstance(schedule, Composite) and schedule.interleaved

    x = initial.geometry.positions.astype(float)
    x2 = initial.geometry.positions_squared
    expectation = np.empty(steps + 1)
    variance = np.empty(steps + 1)
    dists = np.empty((steps + 1, n)) if record_full else None

    up = initial.amp_up.copy()
    down = initial.amp_down.copy()

    def record(k, u, d):
        p = u.real**2 + u.imag**2 + d.real**2 + d.imag**2
        mean = float(x @ p)
        expectation[k] = mean
        variance[k] = max(float(x2 @ p) - mean * mean, 0.0)
        if dists is not None:
            dists[k] = p

    record(0, up, down)
    t0 = initial.time_step
    for k in range(steps):
        t = t0 + k
        for spec in _coin_plan(schedule, t, choice):
            up, down = _coin_arrays(up, down, spec, t, n)
            if interleaved:
                up, down = _shift_arrays(up, down)
        if not interleaved:
            up, down = _shift_arrays(up, down)
        record(k + 1, up, down)

    final = WalkerState(initial.geometry, up, down, t0 + steps)
    metadata = {
        "schedule": repr(schedule),
        "seeds": collect_seeds(schedule),
        "n_sites": n,
        "steps": steps,
        "rng_algorithm": RNG_ALGORITHM,
    }
    return Trajectory(
        times=np.arange(steps + 1),
        expectation=expectation,
        variance=variance,
        distributions=dists,
        final_state=final,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# schedule introspection and deterministic reseeding
# ---------------------------------------------------------------------------


def coin_specs(schedule: StrategySchedule) -> tuple[CoinSpec, ...]:
    """The schedule's coins: ``(spec,)`` for Single, ``(a, b)`` otherwise."""
    if isinstance(schedule, Single):
        return (schedule.spec,)
    return (schedule.a, schedule.b)


def reach(extent: int, schedule, steps: int) -> int:
    """Largest |x| a walker can occupy after ``steps`` steps of ``schedule``
    when it starts within |x| <= ``extent`` (|x0| for a localized start).
    An interleaved composite shifts m+n times per step, any other schedule once."""
    interleaved = isinstance(schedule, Composite) and schedule.interleaved
    return extent + steps * (schedule.m + schedule.n if interleaved else 1)


def is_stochastic_schedule(schedule: StrategySchedule) -> bool:
    """True if any randomness enters the dynamics (choice or phase draws)."""
    if isinstance(schedule, ProbabilisticChoice) and 0.0 < schedule.q < 1.0:
        return True
    specs = coin_specs(schedule)
    if isinstance(schedule, ProbabilisticChoice):
        # q pinned at 0 or 1 leaves only the surviving coin's randomness.
        specs = specs[1:] if schedule.q == 0.0 else specs[:1]
    return any(is_stochastic_spec(s) for s in specs)


def collect_seeds(schedule: StrategySchedule) -> dict:
    """Seeds embedded in the schedule, for output metadata."""
    seeds = {}
    if isinstance(schedule, ProbabilisticChoice) and schedule.seed is not None:
        seeds["choice"] = schedule.seed
    for name, spec in zip(("coin_a", "coin_b"), coin_specs(schedule)):
        if is_stochastic_spec(spec) and spec.seed is not None:
            seeds[name] = spec.seed
    return seeds


def _reseed_spec(spec: CoinSpec, seed: int) -> CoinSpec:
    if is_stochastic_spec(spec):
        return dataclasses.replace(spec, seed=seed)
    return spec


def with_derived_seeds(
    schedule: StrategySchedule, master_seed: int, index: int
) -> StrategySchedule:
    """Copy of the schedule with every seed slot replaced deterministically.

    Slot k of job ``index`` receives child_seed(master_seed, index, k), so
    ensembles and sweeps can be sharded across workers and still reproduce
    bit-identically. Deterministic specs pass through unchanged.
    """
    if isinstance(schedule, Single):
        return Single(_reseed_spec(schedule.spec, child_seed(master_seed, index, 1)))
    a = _reseed_spec(schedule.a, child_seed(master_seed, index, 1))
    b = _reseed_spec(schedule.b, child_seed(master_seed, index, 2))
    if isinstance(schedule, Composite):
        return dataclasses.replace(schedule, a=a, b=b)
    if isinstance(schedule, AlternatingEvenOdd):
        return AlternatingEvenOdd(a, b)
    if isinstance(schedule, ProbabilisticChoice):
        return dataclasses.replace(
            schedule, a=a, b=b, seed=child_seed(master_seed, index, 0)
        )
    raise TypeError(f"unknown schedule {schedule!r}")
