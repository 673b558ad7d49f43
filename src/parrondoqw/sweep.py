"""2D parameter sweeps over coin parameters or initial spin states.

Each grid point is one walk, of which only the final position expectation
is computed; points are classified winning/losing/neutral by its sign. The
schedule is a ``ScheduleTemplate`` (a coin-parameter sweep) or one fixed
schedule (an initial-state sweep), so every point has the same schedule
shape, and the points are rows of the batched kernel ``evolve_rows``,
evolved together in fixed chunks of consecutive points; with ``workers > 1``
a process pool evolves the chunks. A point's value is bit-for-bit that of
its own ``run``, and all seeds are derived per point, so the output depends
neither on chunking nor on the worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .coins import SiteTanhRotation, UniformRotation
from .errors import ConfigError, GeometryTooSmallError
from .evolution import (
    Composite,
    Single,
    StrategySchedule,
    _check_seeds,
    evolve_rows,
    is_stochastic_schedule,
    map_batches,
    reach,
    with_derived_seeds,
)
from .rng import RNG_ALGORITHM
from .state import SPIN_DOWN, BlochCoinState, LatticeGeometry

WINNING = "winning"
LOSING = "losing"
NEUTRAL = "neutral"

COIN_PARAMETERS = ("theta_a", "theta_b_minus", "theta_b_plus")
BLOCH_PARAMETERS = ("theta", "phi")

_TWO_PI = 2.0 * np.pi


def classify(expectation: float, tie_tolerance: float = 1e-9) -> str:
    """Sign of the final position expectation, with a dead zone for ties."""
    if tie_tolerance < 0.0:
        raise ValueError(f"tie_tolerance must be >= 0, got {tie_tolerance}")
    if expectation > tie_tolerance:
        return WINNING
    if expectation < -tie_tolerance:
        return LOSING
    return NEUTRAL


@dataclass(frozen=True)
class GridAxis:
    """Closed-interval axis: ``count`` evenly spaced values including both ends."""

    name: str
    lower: float
    upper: float
    count: int

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)) or self.count < 2:
            raise ValueError(f"axis '{self.name}' needs an integer count >= 2, "
                             f"got {self.count!r}")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"axis '{self.name}' bounds must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)


@dataclass(frozen=True)
class ScheduleTemplate:
    """Builds the uniform-A / site-tanh-B game family from named coin parameters.

    Kinds: ``single_b`` (site-dependent coin alone), ``composite`` (A m
    times then B n times per step).
    """

    kind: str
    m: int = 0
    n: int = 0

    _KINDS = ("single_b", "composite")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")

    def required_parameters(self) -> tuple[str, ...]:
        if self.kind == "single_b":
            return ("theta_b_minus", "theta_b_plus")
        return COIN_PARAMETERS

    def __call__(self, params: Mapping[str, float]) -> StrategySchedule:
        missing = [p for p in self.required_parameters() if p not in params]
        if missing:
            raise ConfigError(
                f"schedule template '{self.kind}' is missing parameter(s) "
                f"{', '.join(missing)}; bind them to a grid axis or a fixed value"
            )
        coin_b = SiteTanhRotation(params["theta_b_minus"], params["theta_b_plus"])
        if self.kind == "single_b":
            return Single(coin_b)
        return Composite(UniformRotation(params["theta_a"]), coin_b, self.m, self.n)


@dataclass
class GridSpec:
    """One 2D sweep: two axes, a schedule (template or fixed), and run settings."""

    axis1: GridAxis
    axis2: GridAxis
    schedule: Union[StrategySchedule, ScheduleTemplate]
    steps: int
    geometry: LatticeGeometry
    initial: BlochCoinState = SPIN_DOWN
    x0: int = 0
    fixed: dict = field(default_factory=dict)
    master_seed: int | None = None
    tie_tolerance: float = 1e-9


@dataclass
class SweepResult:
    """Final-expectation matrix over the grid plus its win/lose classification.

    ``expectation[i, j]`` belongs to (axis1_values[i], axis2_values[j]).
    """

    axis1_values: np.ndarray
    axis2_values: np.ndarray
    expectation: np.ndarray
    classification: np.ndarray
    grid: GridSpec
    metadata: dict


def _point_inputs(grid: GridSpec, v1: float, v2: float, index: int):
    """Schedule and initial spin at one grid point.

    A template schedule makes this a coin-parameter point; a fixed schedule
    makes it an initial-state point.
    """
    params = dict(grid.fixed)
    params[grid.axis1.name] = v1
    params[grid.axis2.name] = v2
    schedule, bloch = grid.schedule, grid.initial
    if isinstance(schedule, ScheduleTemplate):
        schedule = schedule(params)
    else:
        # 2*pi is the same physical phase as 0; wrap so closed grids are allowed.
        phi = float(params["phi"]) % _TWO_PI
        bloch = BlochCoinState(theta=float(params["theta"]), phi=phi)
    if grid.master_seed is not None and is_stochastic_schedule(schedule):
        schedule = with_derived_seeds(schedule, grid.master_seed, index)
    return schedule, bloch


def _chunk(args):
    """Final <X> at flat point indices [start, stop), in order."""
    grid, start, stop = args
    v1, v2, count = grid.axis1.values(), grid.axis2.values(), grid.axis2.count
    points = [_point_inputs(grid, float(v1[i // count]), float(v2[i % count]), i)
              for i in range(start, stop)]
    psi = np.zeros((2, len(points), grid.geometry.n_sites), dtype=np.complex128)
    psi[:, :, grid.geometry.index_of(grid.x0)] = np.array([b.spinor() for _, b in points]).T
    rows = [schedule for schedule, _ in points]
    return evolve_rows(*psi, rows, 0, grid.steps, grid.geometry, observe="final")[0][:, 0]


def check_grid(grid: GridSpec) -> None:
    """Reject, before any point runs, a grid that does not fit its schedule.

    The schedule is a ``ScheduleTemplate`` or a fixed schedule. A template
    sweeps two coin parameters it reads and may fix the third; a fixed
    schedule sweeps the Bloch angles (theta, phi) and fixes nothing. The four
    corner points are then built, so an axis range the schedule or the
    initial state rejects fails here too: axis values lie between the corners
    and every parameter's valid range is an interval. Raises ConfigError for
    any other schedule, names and unbound parameters, ValueError for ranges
    and a negative tie tolerance, and the kernel's own errors for an ``x0``
    off the lattice, a light cone leaving it and an unseeded seed slot.
    """
    template = isinstance(grid.schedule, ScheduleTemplate)
    if callable(grid.schedule) and not template:
        raise ConfigError(f"the schedule must be a ScheduleTemplate or a fixed schedule, "
                          f"got {grid.schedule!r}")
    if grid.tie_tolerance < 0.0:
        raise ValueError(f"tie_tolerance must be >= 0, got {grid.tie_tolerance}")
    names = (grid.axis1.name, grid.axis2.name)
    allowed = COIN_PARAMETERS if template else BLOCH_PARAMETERS
    swept = grid.schedule.required_parameters() if template else allowed
    if names[0] == names[1] or not set(names) <= set(swept):
        raise ConfigError(f"axis1.name and axis2.name must be two of {swept}, got {names}")
    for name in grid.fixed:
        if name not in set(allowed) - set(names):
            raise ConfigError(f"fixed.{name} is not a coin parameter left free by the axes")
    for v1 in (grid.axis1.lower, grid.axis1.upper):
        for v2 in (grid.axis2.lower, grid.axis2.upper):
            try:
                schedule, _ = _point_inputs(grid, v1, v2, 0)
            except (ConfigError, ValueError) as exc:
                corner = f"{names[0]}={v1}, {names[1]}={v2}"
                raise type(exc)(f"axis1/axis2 corner ({corner}): {exc}") from exc
    grid.geometry.index_of(grid.x0)  # an InvalidPositionError unless x0 is a site
    furthest, half = reach(abs(grid.x0), schedule, grid.steps), grid.geometry.half_span
    if furthest > half:  # every point has this corner's light cone and seed slots
        raise GeometryTooSmallError(f"from x0={grid.x0} the walker can reach |x|={furthest} "
                                    f"in {grid.steps} steps, beyond the edge at |x|={half}")
    _check_seeds([schedule])


def _execute(grid: GridSpec, workers: int) -> SweepResult:
    v1, v2 = grid.axis1.values(), grid.axis2.values()
    shape = (grid.axis1.count, grid.axis2.count)
    started = time.perf_counter()
    expectation = map_batches(_chunk, (grid,), shape[0] * shape[1], workers).reshape(shape)
    classes = np.vectorize(lambda v: classify(v, grid.tie_tolerance), otypes=[object])
    metadata = {
        "runtime_seconds": time.perf_counter() - started,
        "workers": workers,
        "points": expectation.size,
        "master_seed": grid.master_seed,
        "point_seed_rule": "child_seed(master_seed, flat_point_index, slot)",
        "rng_algorithm": RNG_ALGORITHM,
    }
    return SweepResult(
        axis1_values=v1,
        axis2_values=v2,
        expectation=expectation,
        classification=classes(expectation),
        grid=grid,
        metadata=metadata,
    )


def sweep_coin_params(grid: GridSpec, workers: int = 1) -> SweepResult:
    """Final <X> over a coin-parameter plane, e.g. (theta_b_minus, theta_b_plus).

    The grid's schedule must be a ``ScheduleTemplate``, which builds each
    point's schedule from the bound parameter map; axis names must be coin
    parameters. The initial state is the same at every point.
    """
    if not callable(grid.schedule):  # any other callable fails in check_grid
        raise ConfigError("coin-parameter sweeps need a schedule template, "
                          "not a fixed schedule")
    check_grid(grid)
    return _execute(grid, workers)


def sweep_initial_state(grid: GridSpec, workers: int = 1) -> SweepResult:
    """Final <X> over the initial-spin Bloch plane (theta, phi).

    The schedule is fixed across the grid; only the localized initial state
    varies. At theta = 0 or pi the phi angle is an unobservable global phase,
    so whole rows there are degenerate by construction.
    """
    if isinstance(grid.schedule, ScheduleTemplate):  # any other callable fails in check_grid
        raise ConfigError("initial-state sweeps need a fully fixed schedule")
    check_grid(grid)
    return _execute(grid, workers)
