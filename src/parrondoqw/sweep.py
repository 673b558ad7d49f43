"""2D parameter sweeps over coin parameters or initial spin states.

Each grid point is one walk, of which only the final position expectation is computed;
points are classified winning/losing/neutral by its sign. The schedule is a
``ScheduleTemplate`` (a coin-parameter sweep) or one fixed schedule (an initial-state
sweep). ``check_grid`` checks each axis end and fixed value by its parameter's rule, and
the walk of a built corner point, before any runs. Points are built from the axis arrays:
a template's schedules, one per point, or all spinors at once from the Bloch angles, phi
wrapped into [0, 2*pi). On a shared-schedule grid, whose every point runs the fixed
schedule itself, the walk is linear in its start: a point's final <X> is |a|^2 E_uu +
|b|^2 E_dd + 2 Re(a* b C) in its spinor (a, b), from one two-row walk from |up> and |down>
at x0, with C = sum_x x <psi_up(x), psi_down(x)>. On any other grid the points are the rows
of one batched walk per chunk (with ``workers > 1``, on a process pool), each bit-for-bit
its own ``run``; a shared-schedule point agrees with it to rounding. Seeds are derived per
point, so no output depends on chunking or the worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Union, get_args

import numpy as np

from .coins import SiteTanhRotation, UniformRotation
from .errors import FieldError
from .evolution import (
    Composite,
    Single,
    StrategySchedule,
    _check_walk,
    _seed_slots,
    _walk,
    map_batches,
    with_derived_seeds,
)
from .rng import BOUNDED, FINITE, POINTS, RNG_ALGORITHM, SEED, STEPS, TOLERANCE, Ruled, _check
from .rng import at_least, optional
from .state import SPIN_DOWN, BlochCoinState, LatticeGeometry, bloch_spinor

WINNING = "winning"
LOSING = "losing"
NEUTRAL = "neutral"

# Each swept parameter and the rule of the field it binds, which each axis end and fixed
# value passes; phi is wrapped into [0, 2*pi) first, so any finite phi binds.
COIN_PARAMETERS = {"theta_a": UniformRotation.rules["theta"],
                   "theta_b_minus": SiteTanhRotation.rules["theta_minus"],
                   "theta_b_plus": SiteTanhRotation.rules["theta_plus"]}
BLOCH_PARAMETERS = {"theta": BlochCoinState.rules["theta"], "phi": FINITE}

_TWO_PI = 2.0 * np.pi
_CLASSES = np.array([NEUTRAL, WINNING, LOSING], dtype=object)


def classify(expectation, tie_tolerance: float = 1e-9) -> str | np.ndarray:
    """The class of each final position expectation by its sign, with a dead zone for ties."""
    _check("tie_tolerance", tie_tolerance, TOLERANCE)
    value = np.asarray(expectation)
    return _CLASSES[(value > tie_tolerance) + 2 * (value < -tie_tolerance)]


@dataclass(frozen=True)
class GridAxis(Ruled):
    """Closed-interval axis: ``count`` evenly spaced values including both ends."""

    name: str
    lower: float
    upper: float
    count: int

    rules = {"lower": BOUNDED, "upper": BOUNDED, "count": POINTS}  # a finite span

    def values(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)


@dataclass(frozen=True)
class ScheduleTemplate(Ruled):
    """Builds the uniform-A / site-tanh-B game family from named coin parameters.

    Kinds: ``single_b`` (site-dependent coin alone), ``composite`` (A m
    times then B n times per step).
    """

    kind: str
    m: int = 0
    n: int = 0

    _KINDS = ("single_b", "composite")
    rules = {"kind": ((str,), _KINDS.__contains__, f"be one of {_KINDS}"),
             "m": Composite.rules["m"], "n": Composite.rules["n"]}

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "composite":  # Composite's rule across m and n, where it is stated
            Composite(UniformRotation(0.0), UniformRotation(0.0), self.m, self.n)
        elif self.m or self.n:  # one coin, so nothing for m or n to repeat
            raise FieldError("m" if self.m else "n", "single_b takes no m or n: both must "
                             f"be 0, got m={self.m!r}, n={self.n!r}")

    def required_parameters(self) -> tuple[str, ...]:
        if self.kind == "single_b":
            return ("theta_b_minus", "theta_b_plus")
        return tuple(COIN_PARAMETERS)

    def __call__(self, params: Mapping[str, float]) -> StrategySchedule:
        missing = [p for p in self.required_parameters() if p not in params]
        if missing:
            raise FieldError(f"fixed.{missing[0]}", f"schedule template '{self.kind}' is "
                             f"missing parameter(s) {', '.join(missing)}; bind them to a "
                             "grid axis or a fixed value")
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

    rules = {"steps": STEPS, "master_seed": optional(SEED), "tie_tolerance": TOLERANCE}


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


def _shares_schedule(grid: GridSpec) -> bool:
    """Whether every point runs the fixed schedule itself: no master_seed seeds a slot."""
    return not callable(grid.schedule) and (grid.master_seed is None
                                            or not _seed_slots(grid.schedule))


def _points(grid: GridSpec, index: np.ndarray) -> tuple[list, np.ndarray]:
    """Schedules and (2, R or 1) start spinors at the R flat point indices ``index``: a
    template's points start in ``grid.initial``, a fixed schedule's at their Bloch angles."""
    rows, cols = np.divmod(index, grid.axis2.count)
    values = {grid.axis1.name: grid.axis1.values()[rows],
              grid.axis2.name: grid.axis2.values()[cols]}
    if isinstance(grid.schedule, ScheduleTemplate):  # its coins have no seed slots
        params, schedules = dict(grid.fixed), []  # one map, each point's values in turn
        for point in zip(*(v.tolist() for v in values.values())):
            params.update(zip(values, point))
            schedules.append(grid.schedule(params))
        return schedules, bloch_spinor(grid.initial.theta, grid.initial.phi)[:, None]
    # 2*pi is the same physical phase as 0; wrap so closed grids are allowed. A tiny
    # negative phi wraps to 2*pi - 1e-16, which rounds to 2*pi: the second % makes it 0.
    spinors = bloch_spinor(values["theta"], values["phi"] % _TWO_PI % _TWO_PI)
    if _shares_schedule(grid):
        return [grid.schedule] * len(index), spinors
    return ([with_derived_seeds(grid.schedule, grid.master_seed, i) for i in index.tolist()],
            spinors)


def _chunk(args):
    """Final <X> at flat point indices [start, stop), in order."""
    grid, start, stop = args
    rows, spinors = _points(grid, np.arange(start, stop))
    psi = np.zeros((2, len(rows), grid.geometry.n_sites), dtype=np.complex128)
    psi[:, :, grid.geometry.index_of(grid.x0)] = spinors
    *_, (moments, _) = _walk(*psi, rows, 0, grid.steps, grid.geometry)  # to its end
    return moments(np.zeros((1, len(rows))))[0]


def _shared(grid: GridSpec, count: int):
    """Final <X> at the ``count`` points of a shared-schedule grid, from two walks."""
    x = grid.geometry.positions
    psi = np.eye(2)[..., None] * (x == grid.x0)  # rows |up> and |down> at x0
    *_, (moments, finals) = _walk(*psi, [grid.schedule] * 2, 0, grid.steps, grid.geometry)
    (e_uu, e_dd), (up, down) = moments(np.zeros((1, 2)))[0], finals()
    c = np.vecdot(up[0] * x, up[1]) + np.vecdot(down[0] * x, down[1])  # conjugates the first
    a, b = _points(grid, np.arange(count))[1]
    return abs(a) ** 2 * e_uu + abs(b) ** 2 * e_dd + 2 * (a.conj() * b * c).real


def check_grid(grid: GridSpec) -> None:
    """Reject, before any point runs, a grid that does not fit its schedule.

    The schedule is a ``ScheduleTemplate`` or a fixed schedule. A template sweeps two
    coin parameters it reads and may fix the third; a fixed schedule sweeps the Bloch
    angles (theta, phi) and fixes nothing. Each axis end and fixed value passes its
    parameter's rule, an interval, so every axis value does too; then one corner point
    is built, which binds every parameter, and its walk checked. Raises only
    ``FieldError``s, each naming a ``GridSpec`` field (``schedule``, ``axis1.name``,
    ``axis2.upper``, ``fixed.theta_a``), last those of ``evolution._check_walk``:
    ``InvalidPositionError``, ``GeometryTooSmallError`` and ``MissingRandomnessError``.
    """
    template = isinstance(grid.schedule, ScheduleTemplate)
    if not (template or isinstance(grid.schedule, get_args(StrategySchedule))):
        raise FieldError("schedule", "the schedule must be a ScheduleTemplate or a fixed "
                                     f"schedule, got {grid.schedule!r}")
    Ruled.__post_init__(grid)  # GridSpec's rules: its fields may change after construction
    names = (grid.axis1.name, grid.axis2.name)
    rules = COIN_PARAMETERS if template else BLOCH_PARAMETERS
    swept = grid.schedule.required_parameters() if template else tuple(rules)
    for i, axis in enumerate((grid.axis1, grid.axis2), 1):  # a name off swept, or a repeat
        if axis.name not in swept or axis.name in names[:i - 1]:
            raise FieldError(f"axis{i}.name",
                             f"axis1.name and axis2.name must be two of {swept}, got {names}")
        for end in ("lower", "upper"):
            _check(f"axis{i}.{end}", getattr(axis, end), rules[axis.name])
    for name, value in grid.fixed.items():
        if name not in set(rules) - set(names):
            raise FieldError(f"fixed.{name}",
                             f"fixed.{name} is not a coin parameter left free by the axes")
        _check(f"fixed.{name}", value, rules[name])
    schedules, _ = _points(grid, np.arange(1))
    _check_walk(schedules, grid.geometry, grid.steps, grid.x0)  # every point's cone and slots


def _execute(grid: GridSpec, workers: int) -> SweepResult:
    check_grid(grid)
    _check("workers", workers, at_least(1))
    v1, v2 = grid.axis1.values(), grid.axis2.values()
    shape = (grid.axis1.count, grid.axis2.count)
    started = time.perf_counter()
    count = shape[0] * shape[1]
    flat = (_shared(grid, count) if _shares_schedule(grid)
            else map_batches(_chunk, (grid,), count, workers))
    expectation = flat.reshape(shape)
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
        classification=classify(expectation, grid.tie_tolerance),
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
        raise FieldError("schedule", "coin-parameter sweeps need a schedule template, "
                                     "not a fixed schedule")
    return _execute(grid, workers)


def sweep_initial_state(grid: GridSpec, workers: int = 1) -> SweepResult:
    """Final <X> over the initial-spin Bloch plane (theta, phi).

    The schedule is fixed across the grid; only the localized initial state varies. At
    theta = 0 or pi phi is an unobservable global phase, so those rows are degenerate. Unless
    a ``master_seed`` derives each point's seeds, two walks give the whole plane (see above).
    """
    if isinstance(grid.schedule, ScheduleTemplate):  # any other callable fails in check_grid
        raise FieldError("schedule", "initial-state sweeps need a fully fixed schedule")
    return _execute(grid, workers)
