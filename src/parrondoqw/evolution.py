"""Schedules, and the one batched light-cone kernel every walk goes through.

A time step applies a schedule-determined composition of coins to the spin
degree of freedom, then one spin-conditioned shift (spin-up amplitude moves
one site right, spin-down one site left). Four schedules are supported:

- ``Single``: one coin per step.
- ``Composite``: coin A m times, then coin B n times, then one shift; with
  ``interleaved=True``, a non-standard variant, a shift follows every coin.
- ``AlternatingEvenOdd``: A twice on even step indices (0 is even), B on odd.
- ``ProbabilisticChoice``: per step, coin A with probability q, else coin B.

``_evolve`` advances R walks of one shape as the rows of (R, n) arrays, on
their light cone only: ``run`` and ``step`` are its one-row calls, ensembles
and sweeps feed it batches of rows through ``evolve_rows``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Union

import numpy as np

from .coins import (
    CoinSpec,
    RandomPhaseAlpha,
    SiteTanhRotation,
    general_coin_matrix,
    is_stochastic_spec,
    realize,
    site_theta,
)
from .errors import (
    BoundaryLeakageError,
    GeometryTooSmallError,
    MissingRandomnessError,
)
from .rng import _BLOCK, RNG_ALGORITHM, TAG_ALPHA, TAG_BETA, TAG_CHOICE, _uniform_block
from .rng import _check_seed, child_seed
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
        if self.seed is not None:
            _check_seed(self.seed)


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
# the batched light-cone kernel: run, step, ensembles and sweeps share it
# ---------------------------------------------------------------------------

_BATCH_ROWS = 64  # rows per kernel call when ensembles and sweeps batch walks


@lru_cache(maxsize=32)  # as many bytes as 128 real cosine/sine pairs
def _tanh_field(spec: SiteTanhRotation, n_sites: int):
    """Coin entries (u00, u01, u10, u11) at every site, a complex (4, n) array;
    cached, treat as read-only."""
    geometry = LatticeGeometry(n_sites)
    half = 0.5 * site_theta(spec.theta_minus, spec.theta_plus, geometry.positions)
    c, s = np.cos(half), np.sin(half)
    return np.array([c, -s, s, c], dtype=np.complex128)


@lru_cache(maxsize=256)
def _fixed_matrix(spec: CoinSpec):
    """Site- and time-independent 2x2, unpacked to scalars; cached."""
    return tuple(realize(spec, 0, 0).ravel())


def _mix(up, down, coin, out, work):
    """(a up + b down, c up + d down) for coin entries (a, b, c, d) into the pair
    ``out``, which may overlap the input, through the products at the start of
    the flat buffer ``work``: reused buffers spare large batches fresh pages."""
    products = work[: 4 * up.size].reshape((4,) + up.shape)
    for entry, amplitudes, product in zip(coin, (up, down, up, down), products):
        np.multiply(entry, amplitudes, product)
    np.add(products[0], products[1], out[0])
    np.add(products[2], products[3], out[1])
    return out


def _pair(work, like):
    """Room for two arrays shaped like ``like`` after ``_mix``'s products in ``work``."""
    return work[4 * like.size : 6 * like.size].reshape((2,) + like.shape)


def _shift(up, down, u, d, a0: int, a1: int, coin=None, work=None) -> tuple[int, int]:
    """Write ``u``, ``d``, the amplitudes of columns [a0, a1) after ``coin`` if
    given, into ``up`` one column right and ``down`` one column left; returns
    the columns occupied after. Amplitude >1e-14 pushed off the lattice raises."""
    n = up.shape[1]
    if coin is not None and 0 < a0 and a1 < n:  # no column leaves the lattice
        _mix(u, d, coin, (up[:, a0 + 1 : a1 + 1], down[:, a0 - 1 : a1 - 1]), work)
    else:
        u, d = (u, d) if coin is None else _mix(u, d, coin, _pair(work, u), work)
        leak_up = abs(u[:, -1]).max() if a1 == n else 0.0
        leak_down = abs(d[:, 0]).max() if a0 == 0 else 0.0
        if max(leak_up, leak_down) > _LEAK_TOL:
            raise BoundaryLeakageError(f"amplitude {max(leak_up, leak_down):.3e} "
                                       "reached the lattice edge; enlarge the lattice")
        up[:, a0 + 1 : a1 + 1] = u[:, : n - a0 - 1]
        down[:, max(a0 - 1, 0) : a1 - 1] = d[:, 1 if a0 == 0 else 0 :]
    up[:, a0] = down[:, a1 - 1] = 0.0
    return max(a0 - 1, 0), min(a1 + 1, n)


class _Coin:
    """One coin of a schedule for the R rows of a batch. ``at(t, cols)`` gives
    its entries at step ``t`` over columns ``cols``: scalars for one fixed
    coin, else a (4, R or 1, w) array, w = 1 for a site-independent coin.
    Phases are drawn for the rest of a block of steps, to ``t_end``, at once."""

    def __init__(self, specs, n_sites: int, t_end: int):
        specs = specs[:1] if all(spec == specs[0] for spec in specs) else specs
        self.site_dependent = isinstance(specs[0], SiteTanhRotation)
        self.seeds = self.block = None
        if is_stochastic_spec(specs[0]):  # seeds checked by _check_seeds
            self.alpha, self.t_end = isinstance(specs[0], RandomPhaseAlpha), t_end
            self.seeds = [int(spec.seed) for spec in specs]
            self.tag = TAG_ALPHA if self.alpha else TAG_BETA
        elif self.site_dependent:
            fields = [_tanh_field(spec, n_sites) for spec in specs]
            self.entries = fields[0][:, None] if len(fields) == 1 else np.stack(fields, 1)
        elif len(specs) > 1:
            self.entries = np.array([_fixed_matrix(spec) for spec in specs]).T[:, :, None]
        else:
            self.entries = _fixed_matrix(specs[0])

    def at(self, t: int, cols: slice):
        if self.seeds is None:
            return self.entries[:, :, cols] if self.site_dependent else self.entries
        index, j = divmod(t, _BLOCK)
        if self.block is None or self.block[0] != index:
            stop = min(_BLOCK, self.t_end - index * _BLOCK)
            draws = [_uniform_block(seed, self.tag, index)[j:stop] for seed in self.seeds]
            phase = 2.0 * np.pi * np.array(draws)
            u = general_coin_matrix(0.5, *((phase, 0.0) if self.alpha else (0.0, phase)))
            self.block = (index, j, u.reshape(4, *phase.shape))
        return self.block[2][:, :, j - self.block[1] : j - self.block[1] + 1]


class _Choice:
    """Per row and step, coin ``a`` where the row's draw is below q, else ``b``."""

    def __init__(self, a: _Coin, b: _Coin, rows: list):
        self.a, self.b, self.seeds = a, b, [int(row.seed) for row in rows]
        self.q, self.block = np.array([row.q for row in rows])[:, None], None

    def at(self, t: int, cols: slice):
        index, j = divmod(t, _BLOCK)
        if self.block is None or self.block[0] != index:
            draws = [_uniform_block(seed, TAG_CHOICE, index) for seed in self.seeds]
            pick = np.array(draws) < self.q
            self.block = (index, pick, pick.all(axis=0), ~pick.any(axis=0))
        _, pick, all_a, all_b = self.block
        if all_a[j] or all_b[j]:
            return (self.a if all_a[j] else self.b).at(t, cols)
        a, b = self.a.at(t, cols), self.b.at(t, cols)
        return [np.where(pick[:, j : j + 1], x, y) for x, y in zip(a, b)]


def _check_seeds(rows) -> None:
    """Raise ``MissingRandomnessError`` at the first unseeded slot, used or not."""
    for row in rows:
        for slot, name, seed in _seed_slots(row):
            if seed is None:
                raise MissingRandomnessError(f"seed slot {slot} ({type(row).__name__}.{name}) "
                                             "has no seed; set it or use with_derived_seeds")


def _plan(rows, n_sites: int, t_end: int):
    """The coins that steps of even and of odd time index apply, in order."""
    _check_seeds(rows)
    first = rows[0]
    a, *b = [_Coin(list(specs), n_sites, t_end) for specs in zip(*map(coin_specs, rows))]
    if isinstance(first, Composite):
        return [a] * first.m + b * first.n, [a] * first.m + b * first.n
    if isinstance(first, AlternatingEvenOdd):
        return [a, a], b * 2
    if isinstance(first, ProbabilisticChoice):
        choice = [_Choice(a, *b, rows)]
        return choice, choice
    return [a], [a]  # Single


def _evolve(
    up, down, rows, t0: int, steps: int, geometry: LatticeGeometry,
    observe="series", variance=False, dists=None, clip=False,
):
    """Advance the walks in the rows of the (R, n) arrays ``up`` and ``down`` in
    place, row i under schedule ``rows[i]`` (all of one shape), computing on
    the light cone only: the columns occupied at the start, grown by one on
    each side per shift. A cone leaving the lattice raises first, unless
    ``clip``. Returns <X> and (if ``variance``) Var(X) per row: (R, steps + 1)
    over t for ``observe`` "series", (R, 1) at the end for "final". ``dists``
    gets row 0's P(x, t). Reductions are per row: a row's bits ignore its batch."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    occupied = np.flatnonzero(((up != 0) | (down != 0)).any(axis=0))
    half = geometry.half_span
    a0, a1 = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (half, half + 1)
    furthest = reach(max(half - a0, a1 - 1 - half), rows[0], steps)
    if furthest > half and not clip:
        raise GeometryTooSmallError(
            f"the walker can reach |x|={furthest} in {steps} steps, beyond the "
            f"edge of n_sites={geometry.n_sites} at |x|={half}")
    even, odd = _plan(rows, geometry.n_sites, t0 + steps)
    interleaved = isinstance(rows[0], Composite) and rows[0].interleaved
    work = np.empty(6 * len(rows) * geometry.n_sites, dtype=np.complex128)  # see _mix
    if observe:  # x and x^2 at each float of the (re, im) pairs, and buffers
        x = np.repeat(geometry.positions.astype(float), 2)
        xs = np.array([x, x * x])[: 2 if variance else 1, None]
        shape = (2 + len(xs), len(rows), len(x))  # fits in ``work``, idle between steps
        squares = work.view(np.float64)[: np.prod(shape)].reshape(shape)
    moments = np.zeros((steps + 1 if observe == "series" else 1, len(rows), 1 + variance))
    for k in range(steps + 1):
        if observe == "series" or (observe and k == steps):
            u, d = up[:, a0:a1], down[:, a0:a1]
            if dists is not None:  # summed in this order, P(x, t) keeps its old bytes
                dists[k, a0:a1] = (u.real**2 + u.imag**2 + d.real**2 + d.imag**2)[0]
            w = 2 * (a1 - a0)
            p = np.square(u.view(np.float64), out=squares[0, :, :w])
            p += np.square(d.view(np.float64), out=squares[1, :, :w])
            terms = np.multiply(p, xs[:, :, 2 * a0 : 2 * a1], out=squares[2:, :, :w])
            np.add.reduce(terms, axis=-1, out=moments[k if observe == "series" else 0].T)
        if k == steps:
            break
        t = t0 + k
        coins = odd if t % 2 else even
        u, d = up[:, a0:a1], down[:, a0:a1]
        for j, coin in enumerate(coins):
            if interleaved or j == len(coins) - 1:
                a0, a1 = _shift(up, down, u, d, a0, a1, coin.at(t, slice(a0, a1)), work)
                u, d = up[:, a0:a1], down[:, a0:a1]
            else:
                u, d = _mix(u, d, coin.at(t, slice(a0, a1)), _pair(work, u), work)
    if steps:  # + 0.0 turns -0.0 into 0.0: zeros match whichever columns were computed
        up += 0.0
        down += 0.0
    mean = moments[:, :, 0].T.copy()
    return mean, np.maximum(moments[:, :, 1].T - mean * mean, 0.0) if variance else None


def map_batches(fn, args: tuple, count: int, workers: int = 1) -> np.ndarray:
    """``fn((*args, start, stop))`` over consecutive batches of at most 64 of
    range(count), on up to ``workers`` processes if there are two or more
    batches; concatenated."""
    jobs = [(*args, i, min(i + _BATCH_ROWS, count)) for i in range(0, count, _BATCH_ROWS)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return np.concatenate(list(pool.map(fn, jobs)))
    return np.concatenate([fn(job) for job in jobs])


def evolve_rows(geometry, up, down, rows, steps: int, t0: int = 0, observe="series"):
    """<X> of walks that start on the same sites, as ``_evolve`` returns it:
    row i from ``up[i]``, ``down[i]`` ((R, n) arrays, or (1, n) for all
    rows) under schedule ``rows[i]``, bit-for-bit what its own ``run`` gives."""
    mean = np.empty((len(rows), steps + 1 if observe == "series" else 1))
    up, down = (np.broadcast_to(a, (len(rows), geometry.n_sites)) for a in (up, down))
    shapes: dict[tuple, list] = {}  # rows of one schedule shape share a call
    for i, s in enumerate(rows):
        counts = (s.m, s.n, s.interleaved) if isinstance(s, Composite) else None
        shapes.setdefault((type(s), counts, *map(type, coin_specs(s))), []).append(i)
    for index in shapes.values():
        rows_i = [rows[i] for i in index]
        mean[index] = _evolve(up[index], down[index], rows_i, t0, steps, geometry, observe)[0]
    return mean


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def apply_coin(state: WalkerState, spec: CoinSpec, t: int | None = None) -> WalkerState:
    """Apply the coin at every site; does not advance the time step.

    ``t`` defaults to the state's own time index and selects the per-step
    phase draw for random-phase specs, which need a seed.
    """
    _check_seeds([Single(spec)])
    n, t = state.geometry.n_sites, state.time_step if t is None else t
    coin = _Coin([spec], n, t + 1)
    up, down = out = np.empty((2, 1, n), dtype=np.complex128)
    work = np.empty(4 * n, dtype=np.complex128)
    _mix(state.amp_up[None], state.amp_down[None], coin.at(t, slice(None)), out, work)
    return WalkerState(state.geometry, up[0], down[0], state.time_step)


def shift(state: WalkerState) -> WalkerState:
    """Spin-conditioned translation: up-amplitude one site right, down one left.

    Raises ``BoundaryLeakageError`` if amplitude beyond 1e-14 sits on the edge
    sites it would push off the lattice; the shift never wraps or reflects.
    """
    n = state.geometry.n_sites
    up, down = np.empty((2, 1, n), dtype=np.complex128)
    _shift(up, down, state.amp_up[None], state.amp_down[None], 0, n)
    return WalkerState(state.geometry, up[0], down[0], state.time_step)


def step(state: WalkerState, schedule: StrategySchedule) -> WalkerState:
    """Advance one full time step: the schedule's coin composition, then one shift.

    All randomness comes from the seeds in the schedule; an unseeded slot
    raises ``MissingRandomnessError`` before the step.
    """
    up, down = state.amp_up[None].copy(), state.amp_down[None].copy()
    _evolve(up, down, [schedule], state.time_step, 1, state.geometry, observe=None, clip=True)
    return WalkerState(state.geometry, up[0], down[0], state.time_step + 1)


def run(
    initial: WalkerState,
    schedule: StrategySchedule,
    steps: int,
    record_full: bool = False,
) -> Trajectory:
    """Run ``steps`` full steps, recording position mean and variance at every t.

    Requires every site the walker can reach (see ``reach``) to lie on the
    lattice, so amplitude never touches the boundary, and a seed in every
    seed slot (see ``with_derived_seeds``); both are checked before any
    evolution happens. This is the one-row call of the batched kernel.
    """
    n = initial.geometry.n_sites
    up, down = initial.amp_up[None].copy(), initial.amp_down[None].copy()
    dists = np.zeros((steps + 1, n)) if record_full else None
    mean, var = _evolve(up, down, [schedule], initial.time_step, steps, initial.geometry,
                        variance=True, dists=dists)
    final = WalkerState(initial.geometry, up[0], down[0], initial.time_step + steps)
    metadata = {"schedule": repr(schedule), "seeds": collect_seeds(schedule), "n_sites": n,
                "steps": steps, "rng_algorithm": RNG_ALGORITHM}
    return Trajectory(np.arange(steps + 1), mean[0], var[0], dists, final, metadata)


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
    """True if any randomness enters the dynamics: a seed slot whose draws
    matter. A q pinned at 0 or 1 leaves only the surviving coin's draws."""
    q = getattr(schedule, "q", 0.5)  # only a ProbabilisticChoice has one
    live = (0.0 < q < 1.0, q > 0.0, q < 1.0)  # by slot: the choice, coin a, coin b
    return any(live[slot] for slot, _, _ in _seed_slots(schedule))


def _seed_slots(schedule: StrategySchedule) -> list[tuple[int, str, int | None]]:
    """The schedule's random sources, the only ones a walk has, as (slot,
    field, seed): slot 0 the choice of a ProbabilisticChoice (field ``seed``,
    TAG_CHOICE), slot 1 coin ``a`` (``spec`` of a Single) and slot 2 coin
    ``b``, each when it is a random-phase coin (TAG_ALPHA or TAG_BETA)."""
    slots = [(0, "seed", schedule.seed)] if isinstance(schedule, ProbabilisticChoice) else []
    for slot, name in enumerate(("spec",) if isinstance(schedule, Single) else ("a", "b"), 1):
        spec = getattr(schedule, name)
        if is_stochastic_spec(spec):
            slots.append((slot, name, spec.seed))
    return slots


def collect_seeds(schedule: StrategySchedule) -> dict:
    """Seeds embedded in the schedule by slot name, for output metadata."""
    names = ("choice", "coin_a", "coin_b")
    return {names[slot]: seed for slot, _, seed in _seed_slots(schedule) if seed is not None}


def with_derived_seeds(
    schedule: StrategySchedule, master_seed: int, index: int
) -> StrategySchedule:
    """Copy of the schedule with every seed slot replaced deterministically.

    Slot k of job ``index`` receives child_seed(master_seed, index, k), so
    ensembles and sweeps can be sharded across workers and still reproduce
    bit-identically. Deterministic specs pass through unchanged, and no seed
    is derived for them.
    """
    changes = {}
    for slot, name, _ in _seed_slots(schedule):
        seed = child_seed(master_seed, index, slot)
        changes[name] = replace(getattr(schedule, name), seed=seed) if slot else seed
    return replace(schedule, **changes)
