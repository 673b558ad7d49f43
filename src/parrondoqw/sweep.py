"""2D parameter sweeps over coin parameters or initial spin states.

Each grid point runs one full walk and records the final position
expectation; points are classified winning/losing/neutral by its sign. Grid
points are independent jobs: with ``workers > 1`` they are distributed over a
process pool, and because results are written by point index and all seeds
are derived per point, the output never depends on scheduling order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

import numpy as np

from .coins import SiteTanhRotation, UniformRotation
from .errors import ConfigError, GeometryTooSmallError
from .evolution import (
    Composite,
    Single,
    StrategySchedule,
    is_stochastic_schedule,
    reach,
    run,
    with_derived_seeds,
)
from .rng import RNG_ALGORITHM
from .state import SPIN_DOWN, BlochCoinState, LatticeGeometry, WalkerState

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
        if self.count < 2:
            raise ValueError(f"axis '{self.name}' needs count >= 2, got {self.count}")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"axis '{self.name}' bounds must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)


ScheduleFactory = Callable[[Mapping[str, float]], StrategySchedule]


@dataclass(frozen=True)
class ScheduleTemplate:
    """Builds the uniform-A / site-tanh-B game family from named coin parameters.

    Kinds: ``single_a`` (uniform coin alone), ``single_b`` (site-dependent
    coin alone), ``composite`` (A m times then B n times per step).
    """

    kind: str
    m: int = 0
    n: int = 0

    _KINDS = ("single_a", "single_b", "composite")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")

    def required_parameters(self) -> tuple[str, ...]:
        if self.kind == "single_a":
            return ("theta_a",)
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
        if self.kind == "single_a":
            return Single(UniformRotation(params["theta_a"]))
        coin_b = SiteTanhRotation(params["theta_b_minus"], params["theta_b_plus"])
        if self.kind == "single_b":
            return Single(coin_b)
        return Composite(UniformRotation(params["theta_a"]), coin_b, self.m, self.n)


@dataclass
class GridSpec:
    """One 2D sweep: two axes, a schedule (template or fixed), and run settings."""

    axis1: GridAxis
    axis2: GridAxis
    schedule: Union[StrategySchedule, ScheduleFactory]
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
    if callable(schedule):  # a template/factory; fixed schedules are not callable
        schedule = schedule(params)
    else:
        # 2*pi is the same physical phase as 0; wrap so closed grids are allowed.
        phi = float(params["phi"]) % _TWO_PI
        bloch = BlochCoinState(theta=float(params["theta"]), phi=phi)
    if grid.master_seed is not None and is_stochastic_schedule(schedule):
        schedule = with_derived_seeds(schedule, grid.master_seed, index)
    return schedule, bloch


def _point(args):
    grid, i, j, v1, v2 = args
    schedule, bloch = _point_inputs(grid, v1, v2, i * grid.axis2.count + j)
    initial = WalkerState.localized(grid.geometry, bloch, grid.x0)
    traj = run(initial, schedule, grid.steps)
    return i, j, float(traj.expectation[-1])


def check_grid(grid: GridSpec) -> None:
    """Reject, before any point runs, a grid that does not fit its schedule.

    A template schedule sweeps two coin parameters and may fix the third; a
    fixed schedule sweeps the Bloch angles (theta, phi) and fixes nothing.
    The four corner points are then built, so an axis range the schedule or
    the initial state rejects fails here too: axis values lie between the
    corners and every parameter's valid range is an interval. Raises
    ConfigError for names and unbound parameters, ValueError for ranges.
    """
    names = (grid.axis1.name, grid.axis2.name)
    allowed = COIN_PARAMETERS if callable(grid.schedule) else BLOCH_PARAMETERS
    if names[0] == names[1] or not set(names) <= set(allowed):
        raise ConfigError(f"axis1.name and axis2.name must be two of {allowed}, got {names}")
    for name in grid.fixed:
        if name not in set(allowed) - set(names):
            raise ConfigError(f"fixed.{name} is not a coin parameter left free by the axes")
    for v1 in (grid.axis1.lower, grid.axis1.upper):
        for v2 in (grid.axis2.lower, grid.axis2.upper):
            try:
                _point_inputs(grid, v1, v2, 0)
            except (ConfigError, ValueError) as exc:
                corner = f"{names[0]}={v1}, {names[1]}={v2}"
                raise type(exc)(f"axis1/axis2 corner ({corner}): {exc}") from exc


def _execute(grid: GridSpec, workers: int) -> SweepResult:
    furthest = reach(abs(grid.x0), grid.schedule, grid.steps)
    if furthest > grid.geometry.half_span:
        raise GeometryTooSmallError(
            f"the walker can reach |x|={furthest} in {grid.steps} steps, beyond "
            f"the edge of n_sites={grid.geometry.n_sites}"
        )
    v1 = grid.axis1.values()
    v2 = grid.axis2.values()
    jobs = [
        (grid, i, j, float(a), float(b))
        for i, a in enumerate(v1)
        for j, b in enumerate(v2)
    ]
    started = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_point, jobs, chunksize=16))
    else:
        results = [_point(job) for job in jobs]

    expectation = np.empty((grid.axis1.count, grid.axis2.count))
    for i, j, value in results:
        expectation[i, j] = value
    labels = np.array(
        [
            [classify(expectation[i, j], grid.tie_tolerance) for j in range(grid.axis2.count)]
            for i in range(grid.axis1.count)
        ],
        dtype=object,
    )
    metadata = {
        "runtime_seconds": time.perf_counter() - started,
        "workers": workers,
        "points": len(jobs),
        "master_seed": grid.master_seed,
        "point_seed_rule": "child_seed(master_seed, flat_point_index, slot)",
        "rng_algorithm": RNG_ALGORITHM,
    }
    return SweepResult(
        axis1_values=v1,
        axis2_values=v2,
        expectation=expectation,
        classification=labels,
        grid=grid,
        metadata=metadata,
    )


def sweep_coin_params(grid: GridSpec, workers: int = 1) -> SweepResult:
    """Final <X> over a coin-parameter plane, e.g. (theta_b_minus, theta_b_plus).

    The grid's schedule must be a template/factory taking the bound parameter
    map; axis names must be coin parameters. The initial state is the same at
    every point.
    """
    if not callable(grid.schedule):
        raise ConfigError(
            "coin-parameter sweeps need a schedule template (callable), "
            "not a fixed schedule"
        )
    check_grid(grid)
    return _execute(grid, workers)


def sweep_initial_state(grid: GridSpec, workers: int = 1) -> SweepResult:
    """Final <X> over the initial-spin Bloch plane (theta, phi).

    The schedule is fixed across the grid; only the localized initial state
    varies. At theta = 0 or pi the phi angle is an unobservable global phase,
    so whole rows there are degenerate by construction.
    """
    if callable(grid.schedule):
        raise ConfigError("initial-state sweeps need a fully fixed schedule")
    check_grid(grid)
    return _execute(grid, workers)
