"""Schedules, and the one batched light-cone kernel every walk goes through.

A time step applies a schedule-determined composition of coins to the spin
degree of freedom, then one spin-conditioned shift (spin-up amplitude moves
one site right, spin-down one site left). Four schedules are supported:

- ``Single``: one coin per step.
- ``Composite``: coin A m times, then coin B n times, then one shift; with
  ``interleaved=True``, a non-standard variant, a shift follows every coin.
- ``AlternatingEvenOdd``: A twice on even step indices (0 is even), B on odd.
- ``ProbabilisticChoice``: per step, coin A with probability q, else coin B.

``evolve_rows``, the kernel, advances R walks of one shape from the rows of
(R, n) starts, or one (1, n) start for all, on the occupied sublattice of
their light cone only; it only reads the starts and returns <X>, Var and the
final amplitudes. ``run`` and ``step`` are its one-row calls, ensembles and
sweeps pass it batches of rows. Draws become coins only in ``_plan``: the
kernel calls it at its first step and at the first step of each 256-step
block, for the steps up to the end of that block or of the run, and gets
stateless tables (fixed or tanh coins, the window's random-phase coins, the
choice's picks) that each step reads by its offset into that window.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Union

import numpy as np

from .coins import CoinSpec, SiteTanhRotation, is_stochastic_spec, realize, rotation_matrix
from .coins import site_theta
from .errors import (
    BoundaryLeakageError,
    GeometryTooSmallError,
    MissingRandomnessError,
)
from .rng import _BLOCK, RNG_ALGORITHM, TAG_CHOICE, _check_seed, _draws, child_seed
from .state import LatticeGeometry, WalkerState


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
        counts = all(isinstance(v, (int, np.integer)) for v in (self.m, self.n))
        if not counts or self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError(f"need integers m >= 0, n >= 0 with m + n >= 1, "
                             f"got m={self.m!r}, n={self.n!r}")


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


@lru_cache(maxsize=64)  # a batch of fields, as many bytes as 128 cosine/sine pairs
def _tanh_field(spec: SiteTanhRotation, n_sites: int):
    """The coin at every site, a float64 (2, 2, n) array; cached, treat as read-only."""
    theta = site_theta(spec.theta_minus, spec.theta_plus, LatticeGeometry(n_sites).positions)
    return rotation_matrix(theta).real.copy()  # a y-rotation: its imaginary part is 0


@lru_cache(maxsize=256)
def _fixed_matrix(spec: CoinSpec):
    """Site- and time-independent 2x2 as a (2, 2, 1) array, float64 if its imaginary
    part is 0, else complex; cached, treat as read-only."""
    coin = realize(spec, 0, 0).reshape(2, 2, 1)
    return coin if coin.imag.any() else coin.real.copy()


def _mix(psi, coin, work):
    """psi[i] <- coin[i, 0] psi[0] + coin[i, 1] psi[1] in place for the (2, R, w) spin
    pair ``psi``, a (2, 2, R or 1, w or 1) ``coin``, in two ufunc calls through the
    products at the start of ``work``: reused, it spares large batches fresh pages."""
    products = work[: 2 * psi.size].reshape((2,) + psi.shape)
    np.multiply(coin, psi, products)
    np.add(products[:, 0], products[:, 1], psi)


def _pair(buffers, ua: int, da: int, c: int):
    """The up view (columns [ua, ua + c) of ``buffers[0]``) and the down view
    (columns [da, da + c) of ``buffers[1]``) as one strided (2, R, c) array."""
    _, rows, width = buffers.shape
    item, gap = buffers.itemsize, rows * width + da - ua  # from an up to its down element
    return np.ndarray((2, rows, c), buffers.dtype, buffers, ua * item,
                      (gap * item, width * item, item))


def _check_leak(amplitude: float) -> None:
    """Amplitude >1e-14 shifted off the lattice raises; less is dropped."""
    if amplitude > 1e-14:
        raise BoundaryLeakageError(f"amplitude {amplitude:.3e} reached the lattice edge; "
                                   "enlarge the lattice")


def _check_count(name: str, value, least: int) -> None:
    """Raise a ``ValueError`` naming ``value`` unless it is an integer >= ``least``."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_seeds(rows) -> None:
    """Raise ``MissingRandomnessError`` at the first unseeded slot, used or not."""
    for row in rows:
        for slot, name, seed in _seed_slots(row):
            if seed is None:
                raise MissingRandomnessError(f"seed slot {slot} ({type(row).__name__}.{name}) "
                                             "has no seed; set it or use with_derived_seeds")


def _coin(specs, n_sites: int, t: int, stop: int):
    """One coin of the R rows of a batch for steps t to stop - 1, as a function
    of (step - t, the lattice columns read) that gives a (2, 2, R or 1, w) array;
    w = 1 for a site-independent coin."""
    first = specs[0]
    specs = specs[:1] if all(spec == first for spec in specs) else specs
    if is_stochastic_spec(first):  # a phase per row and step
        u = first.coin(2.0 * np.pi * _draws([spec.seed for spec in specs], first.tag, t, stop))
        return lambda k, cols: u[..., k : k + 1]
    tanh = isinstance(first, SiteTanhRotation)
    table = np.stack([_tanh_field(s, n_sites) if tanh else _fixed_matrix(s) for s in specs], 2)
    return lambda k, cols: table[..., cols] if tanh else table


def _plan(rows, n_sites: int, t: int, stop: int):
    """The coins that steps t to stop - 1, all of one block, apply, in order:
    a list for even and one for odd step indices (see ``_coin``). A coin no
    step of the window applies is not built."""
    first, specs = rows[0], list(zip(*map(coin_specs, rows)))
    if isinstance(first, AlternatingEvenOdd):
        return [[_coin(specs[p], n_sites, t, stop)] * 2 if stop - t > 1 or t % 2 == p else []
                for p in (0, 1)]
    a, *b = [_coin(s, n_sites, t, stop) for s in specs]
    if isinstance(first, Composite):
        return [[a] * first.m + b * first.n] * 2
    if not isinstance(first, ProbabilisticChoice):
        return [[a]] * 2  # Single
    pick = _draws([row.seed for row in rows], TAG_CHOICE, t, stop) < [[row.q] for row in rows]
    all_a, all_b = pick.all(axis=0), ~pick.any(axis=0)

    def choice(k, cols):  # coin a where the row's draw is below q, else b
        if all_a[k] or all_b[k]:
            return (a if all_a[k] else b[0])(k, cols)
        return np.where(pick[:, k : k + 1], a(k, cols), b[0](k, cols))

    return [[choice]] * 2


def evolve_rows(
    up, down, rows, t0: int, steps: int, geometry: LatticeGeometry,
    observe="series", variance=False, dists=None, clip=False,
):
    """Advance walk i from row i of the (R, n) starts ``up`` and ``down``, or from
    their one (1, n) row, under schedule ``rows[i]`` (all of one shape, else a
    ``ValueError`` before any step: type, m, n, interleaving, coin classes), on the
    occupied sublattice of the light cone only; the starts are only read. Two
    compact (R, W) buffers hold it: column j of a view stands for lattice column
    ``lo + s j``, with stride s = 2 when the columns occupied at the start share
    one parity (every shift flips it), else 1. Up amplitudes sit right-aligned
    and down ones left-aligned, so the coins mix in place and a shift only grows
    the up view left and the down view right by 2 / s columns. A cone leaving
    the lattice raises first, unless ``clip``: then amplitude shifted off the
    lattice is checked and dropped. A real start under real coin tables runs in
    float64, with the bytes complex128 gives. Returns <X> and Var(X) (if
    ``variance``, else None) per row, (R, steps + 1) over t for ``observe``
    "series", (R, 1) at the end for "final", then the final (R, n) up and down
    amplitudes. ``dists`` gets row 0's P(x, t). A row's bytes are those of its ``run``."""
    _check_count("steps", steps, 0)
    specs, shape = set(), None
    for i, row in enumerate(rows):  # one pass: every row's coins (see ``real``) and shape
        coins = coin_specs(row)
        specs.update(coins)
        key = (type(row), getattr(row, "m", 0), getattr(row, "n", 0),
               getattr(row, "interleaved", False), *map(type, coins))
        if key != (shape := shape or key):
            raise ValueError(f"row {i} ({row!r}) differs in shape from row 0 ({rows[0]!r})")
    n, half = geometry.n_sites, geometry.half_span
    occupied = up.any(axis=0) | down.any(axis=0)
    occupied[half] |= not occupied.any()  # an all-zero state evolves the centre column
    a0, a1 = int(occupied.argmax()), n - int(occupied[::-1].argmax())
    furthest = reach(max(half - a0, a1 - 1 - half), rows[0], steps)
    if furthest > half and not clip:
        raise GeometryTooSmallError(
            f"the walker can reach |x|={furthest} in {steps} steps, beyond the "
            f"edge of n_sites={n} at |x|={half}")
    _check_seeds(rows)
    interleaved = isinstance(rows[0], Composite) and rows[0].interleaved
    s = 1 if occupied[a0 + 1 : a1 : 2].any() else 2
    grow, shifts = 2 // s, reach(0, rows[0], steps)
    lo, c = a0, (a1 - 1 - a0) // s + 1  # the views' first lattice column and width
    initial = up[:, a0:a1:s], down[:, a0:a1:s]
    real = not any(a.imag.any() for a in initial) and all(  # a tanh field is real
        isinstance(spec, SiteTanhRotation)
        or not is_stochastic_spec(spec) and _fixed_matrix(spec).dtype == np.float64
        for spec in specs)
    dtype, e = (np.float64, 2) if real else (np.complex128, 1)  # e: floats per amplitude
    buffers = np.zeros((2, len(rows), c + grow * shifts), dtype)
    ua, da = buffers.shape[2] - c, 0  # where the up and the down view start
    buffers[0, :, ua:], buffers[1, :, :c] = (a.real if real else a for a in initial)
    work = np.empty(2 * buffers.size + 8, dtype)  # see _mix; cut to start on a 64-byte
    work = work[-work.ctypes.data % 64 // work.itemsize :]  # line: ~6% faster mixes
    if observe:  # x and x^2 at each float of the (re, im) pairs, a line per parity
        x = np.repeat(np.arange(a0 - shifts, a1 + shifts) - half, 2).astype(float)
        xs = np.array([x, x * x])[: 1 + variance].reshape(1 + variance, -1, 2)
        lines = [xs[:, p::s].reshape(1 + variance, 1, -1) for p in range(s)]
        # in ``work``, between mixes; a real walk's in zeros of its own: its im floats stay 0
        shape = (3 + variance, len(rows), 2 * buffers.shape[2])
        flat = np.zeros(np.prod(shape)) if real else work.view(np.float64)
        squares = flat[: np.prod(shape)].reshape(shape)
    moments = np.zeros((steps + 1 if observe == "series" else 1, len(rows), 1 + variance))
    psi = _pair(buffers, ua, da, c)
    for k in range(steps + 1):
        if observe == "series" or (observe and k == steps):
            if dists is not None:  # summed in this order, P(x, t) keeps its old bytes
                u, d = psi
                dists[k, lo : lo + s * c : s] = (u.real**2 + u.imag**2
                                                 + d.real**2 + d.imag**2)[0]
            w, (j, p) = 2 * c, divmod(lo - a0 + shifts, s)
            sq = np.square(psi.view(np.float64), out=squares[:2, :, :w:e])
            x, terms = lines[p][..., 2 * j : 2 * j + w : e], squares[2:, :, :w]
            np.multiply(np.add(*sq, out=sq[0]), x, out=terms[..., ::e])
            np.add.reduce(terms, axis=-1, out=moments[k if observe == "series" else 0].T)
        if k == steps:
            break
        t = t0 + k
        if k == 0 or t % _BLOCK == 0:  # draws become coins a block of steps at a time
            start, plan = t, _plan(rows, n, t, min(t0 + steps, (t // _BLOCK + 1) * _BLOCK))
        coins = plan[t % 2]
        for i, coin in enumerate(coins):
            _mix(psi, coin(t - start, slice(lo, lo + s * c, s)), work)
            if interleaved or i == len(coins) - 1:  # the shift
                ua, lo, c = ua - grow, lo - 1, c + grow
                left, right = lo < 0, lo + s * (c - 1) >= n  # off the lattice: clip only
                if left or right:
                    _check_leak(max(abs(buffers[1, :, da]).max() if left else 0.0,
                                    abs(buffers[0, :, ua + c - 1]).max() if right else 0.0))
                    ua, da, lo, c = ua + left, da + left, lo + s * left, c - left - right
                psi = _pair(buffers, ua, da, c)
    finals = np.zeros((len(rows), n), complex), np.zeros((len(rows), n), complex)
    for final, view in zip(finals, psi):  # + 0.0 turns -0.0 into 0.0: zeros match
        np.add(view, 0.0, out=final[:, lo : lo + s * c : s])  # whichever columns were computed
    mean = moments[:, :, 0].T.copy()
    var = np.maximum(moments[:, :, 1].T - mean * mean, 0.0) if variance else None
    return mean, var, *finals


def map_batches(fn, args: tuple, count: int, workers: int = 1) -> np.ndarray:
    """``fn((*args, start, stop))`` over consecutive batches of at most 64 of
    range(count), on up to ``workers`` processes, but no more than there are
    batches or cores; concatenated."""
    _check_count("workers", workers, 1)
    jobs = [(*args, i, min(i + _BATCH_ROWS, count)) for i in range(0, count, _BATCH_ROWS)]
    processes = min(workers, len(jobs), os.cpu_count() or 1)
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return np.concatenate(list(pool.map(fn, jobs)))
    return np.concatenate([fn(job) for job in jobs])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def apply_coin(state: WalkerState, spec: CoinSpec, t: int | None = None) -> WalkerState:
    """Apply the coin at every site; does not advance the time step.

    ``t`` defaults to the state's own time index and selects the per-step
    phase draw for random-phase specs, which need a seed.
    """
    if isinstance(t, (int, np.integer)) and t < 0:  # before _check_count: its older message
        raise ValueError(f"t must be nonnegative, got {t}")
    n, t = state.geometry.n_sites, state.time_step if t is None else t
    _check_count("t", t, 0)
    _check_seeds([Single(spec)])
    (coin,) = _plan([Single(spec)], n, t, t + 1)[t % 2]
    psi = np.array([state.amp_up, state.amp_down])[:, None]
    _mix(psi, coin(0, slice(None)), np.empty(4 * n, np.complex128))
    return WalkerState(state.geometry, psi[0, 0], psi[1, 0], state.time_step)


def shift(state: WalkerState) -> WalkerState:
    """Spin-conditioned translation: up-amplitude one site right, down one left.

    Raises ``BoundaryLeakageError`` if amplitude beyond 1e-14 sits on the edge
    sites it would push off the lattice; the shift never wraps or reflects.
    """
    _check_leak(max(abs(state.amp_up[-1]), abs(state.amp_down[0])))
    up, down = np.zeros((2, state.geometry.n_sites), dtype=np.complex128)
    up[1:], down[:-1] = state.amp_up[:-1], state.amp_down[1:]
    return WalkerState(state.geometry, up, down, state.time_step)


def step(state: WalkerState, schedule: StrategySchedule) -> WalkerState:
    """Advance one full time step: the schedule's coin composition, then one shift.

    All randomness comes from the seeds in the schedule; an unseeded slot
    raises ``MissingRandomnessError`` before the step.
    """
    *_, up, down = evolve_rows(state.amp_up[None], state.amp_down[None], [schedule],
                               state.time_step, 1, state.geometry, observe=None, clip=True)
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
    _check_count("steps", steps, 0)  # before P(x, t) is allocated
    g, t0 = initial.geometry, initial.time_step
    dists = np.zeros((steps + 1, g.n_sites)) if record_full else None
    mean, var, up, down = evolve_rows(initial.amp_up[None], initial.amp_down[None], [schedule],
                                      t0, steps, g, variance=True, dists=dists)
    final = WalkerState(g, up[0], down[0], t0 + steps)
    metadata = {"schedule": repr(schedule), "seeds": collect_seeds(schedule),
                "n_sites": g.n_sites, "steps": steps, "rng_algorithm": RNG_ALGORITHM}
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
