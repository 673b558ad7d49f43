"""Schedules, and the one batched light-cone kernel every walk goes through.

A time step applies a schedule-determined composition of coins to the spin
degree of freedom, then one spin-conditioned shift (spin-up amplitude moves
one site right, spin-down one site left). Each of the four schedules,
``Single``, ``Composite``, ``AlternatingEvenOdd`` and ``ProbabilisticChoice``,
states once what its step does (see ``_Schedule``); nothing else dispatches on
which of them it holds but for the choice, the one whose coin is drawn.

``_walk``, the kernel, is one resumable walk of R rows of one shape on the occupied
sublattice of their light cone only: set up and checked once (by ``_check_walk``, the
one check before a walk, which ``apply_coin``, sweeps and config call too), advanced a
step at a time and read in between: by ``run`` and ensembles after every step
(``_series``), by sweeps at the end, by ``step`` after one. Coins are read only in
``_plan``, from the tables each coin class builds (see ``coins``): the walk calls it at
its first step and, when it draws, at the first of each 256-step block, and gets
stateless tables (the coins', the choice's picks into a stack of its two coins), the
coins of each stage, those a step applies before one of its shifts, multiplied into as
few tables as hold their product, that each step reads by its offset into that window.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import reduce
from typing import Union, get_args

import numpy as np

from .coins import CoinSpec
from .errors import BoundaryLeakageError, FieldError, GeometryTooSmallError
from .errors import MissingRandomnessError
from .rng import _BLOCK, PROBABILITY, RNG_ALGORITHM, SEED, TAG_CHOICE, Ruled, _check, _draws
from .rng import STEPS, at_least, check_cells, child_seed, integer_in, optional
from .state import LatticeGeometry, WalkerState

# The most times a Composite step applies one coin. ``order`` lists a step's m + n coins
# and each plan multiplies them (an interleaved step also shifts after each), so a count
# costs every walk time and memory; the paper's games repeat a coin once or twice.
MAX_REPEATS = 1000
# A schedule's coin field: a spec instance, not its class or name, so that a walk can read it.
COIN = get_args(CoinSpec), lambda v: True, "be a coin spec instance, e.g. UniformRotation(1)"


class _Schedule(Ruled):
    """What a step of a schedule does, stated once per class: ``coins``, its coin
    specs in seed-slot order (each a leading field), and ``order(p)``, the stages of a
    step of parity p: for each of its shifts, the indices into ``coins`` it applies
    before that shift, first to act first."""

    order = staticmethod(lambda p: ((0,),))  # one coin a step: a Single's, a choice's pick
    coins = property(lambda self: (self.a, self.b))
    rules = {"a": COIN, "b": COIN}


@dataclass(frozen=True)
class Single(_Schedule):
    """Apply one coin spec every step."""

    spec: CoinSpec

    coins = property(lambda self: (self.spec,))
    rules = {"spec": COIN}


@dataclass(frozen=True)
class Composite(_Schedule):
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

    rules = {**_Schedule.rules, "m": integer_in(0, MAX_REPEATS),
             "n": integer_in(0, MAX_REPEATS)}

    def __post_init__(self):
        super().__post_init__()
        if self.m + self.n < 1:  # a rule across two fields, which ScheduleTemplate shares
            raise FieldError("m", f"m + n must be >= 1, got m={self.m!r}, n={self.n!r}")

    def order(self, p: int) -> tuple[tuple[int, ...], ...]:
        coins = (0,) * self.m + (1,) * self.n
        return tuple((i,) for i in coins) if self.interleaved else (coins,)


@dataclass(frozen=True)
class AlternatingEvenOdd(_Schedule):
    """Coin ``a`` twice on even step indices (0 is even), coin ``b`` twice on odd ones."""

    a: CoinSpec
    b: CoinSpec

    order = staticmethod(lambda p: ((p, p),))


@dataclass(frozen=True)
class ProbabilisticChoice(_Schedule):
    """Per step, coin ``a`` with probability q, else coin ``b``, applied once."""

    a: CoinSpec
    b: CoinSpec
    q: float
    seed: int | None = None

    rules = {**_Schedule.rules, "q": PROBABILITY, "seed": optional(SEED)}


StrategySchedule = Union[Single, Composite, AlternatingEvenOdd, ProbabilisticChoice]
SCHEDULE = ((_Schedule,), lambda v: True,
            "be a Single, Composite, AlternatingEvenOdd or ProbabilisticChoice")


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
# the batched light-cone walk: run, step, ensembles and sweeps drive it
# ---------------------------------------------------------------------------

_BATCH_ROWS = 64  # rows per walk when ensembles and sweeps batch walks


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


def _check_walk(rows, geometry: LatticeGeometry, steps: int, x0=0, clip=False) -> None:
    """Before any coin, on built schedules: ``steps`` passes its rule, the start ``x0`` is a
    site (else an ``InvalidPositionError``), unless ``clip`` the light cone (see ``reach``) of
    ``steps`` steps of ``rows[0]`` from it fits (a ``GeometryTooSmallError`` naming ``sites``),
    and every seed slot of every row has a seed (a ``MissingRandomnessError``, its field);
    first, that every row is a schedule (a ``FieldError`` naming ``schedule``)."""
    for row in rows:
        _check("schedule", row, SCHEDULE)
    _check("steps", steps, STEPS)
    geometry.index_of(x0, "x0")
    furthest, half = reach(abs(x0), rows[0], steps), geometry.half_span
    if furthest > half and not clip:
        each = " of m+n sites each (schedule.interleaved)" if len(rows[0].order(0)) > 1 else ""
        raise GeometryTooSmallError("sites", (
            f"sites={geometry.n_sites} is too small: from x0={x0} the walker can reach "
            f"|x|={furthest} in steps={steps}{each}, beyond the edge at |x|={half}"))
    for row in rows:
        for slot, name, seed in _seed_slots(row):
            if seed is None:
                raise MissingRandomnessError(f"{name}.seed" if slot else name, (
                    f"seed slot {slot} ({type(row).__name__}.{name}) has no seed; set it, "
                    "or derive every slot's seed from a master seed"))


def _coin(specs, n_sites: int, t: int, stop: int):
    """One coin of a batch's R rows for steps t to stop - 1 (one row if all hold one spec):
    its class's (2, 2, R or 1, w) table and ``axis``, what that table's last axis indexes."""
    first = specs[0]
    specs = specs[:1] if all(spec == first for spec in specs) else specs
    return first.table(specs, n_sites, t, stop), first.axis


def _read(table, axis):
    """A function of (k, cols): the coin a ``_coin`` table holds at step offset k on cols."""
    if axis == "steps":
        return lambda k, cols: table[..., k : k + 1]
    return lambda k, cols: table[..., cols] if axis else table


def _fold(coins):
    """Adjacent (table, axis) coins, first to act first, multiplied into the fewest tables."""
    folded = coins[:1]
    for table, axis in coins[1:]:
        last, was = folded[-1]
        if axis and was and axis != was:  # a random-phase coin next to a tanh field: their
            folded.append((table, axis))  # product would be a (steps, sites) table
        else:  # table @ last, per row and column
            folded[-1] = table[:, :1] * last[:1] + table[:, 1:] * last[1:], axis or was
    return folded


def _plan(rows, n_sites: int, t: int, stop: int):
    """The stages of steps t to stop - 1, or to the end of t's block (draws come a block
    at a time), per parity (None for a parity no step has): for each shift, the coins (see
    ``_read``) applied before it, in order and folded; then per row, if its tables are real."""
    first, specs = rows[0], list(zip(*(row.coins for row in rows)))
    end = min(stop, (t // _BLOCK + 1) * _BLOCK)  # the window: steps t to end - 1
    orders = {first.order(u % 2) for u in range(t, min(stop, t + 2))}
    choice = isinstance(first, ProbabilisticChoice)  # its one coin is a pick of both
    used = (0, 1) if choice else {i for o in orders for g in o for i in g}
    coins = {i: _coin(specs[i], n_sites, t, end) for i in used}
    real = reduce(np.logical_and, (tab.dtype == np.float64 or on != "steps" and  # as alone
                                   ~tab.imag.any((0, 1, 3)) for tab, on in coins.values()))
    if not choice:
        plans = {o: [[_read(*coin) for coin in _fold([coins[i] for i in stage])]
                     for stage in o] for o in orders}
        return [plans.get(first.order(p)) for p in (0, 1)], real
    (a, ax), (b, bx) = coins.values()
    # the one coin: a where the draw is below q, else b; with a random-phase coin, a blend
    pick = _draws([row.seed for row in rows], TAG_CHOICE, t, end) < [[row.q] for row in rows]
    if "steps" in (ax, bx):
        a, b = _read(a, ax), _read(b, bx)
        coin = [lambda k, cols: np.where(pick[:, k, None], a(k, cols), b(k, cols))]
    else:  # fixed or tanh: stacked, and the rows' picks taken
        tables = np.broadcast_arrays(a, b)
        both, r, wide = np.concatenate(tables, 2), tables[0].shape[2], "sites" in (ax, bx)
        index = (~pick).T * r + np.arange(len(rows)) % r  # per step, the picks in ``both``
        coin = [lambda k, cols: (both[..., cols] if wide else both).take(index[k], 2)]
    return [[coin]] * 2, real  # at either parity, one stage of one coin


def _walk(up, down, rows, t0: int, steps: int, geometry: LatticeGeometry, clip=False):
    """A generator: walk i from row i of the (R, n) starts ``up`` and ``down`` (or their one
    (1, n) row) under schedule ``rows[i]``, all of one shape (else a ``ValueError``: type,
    stages, coin classes). Its first ``next`` sets the walk up and checks it, each
    further one takes a step, and each yields ``(moments, finals)`` to read it then:
    ``moments(out, dist=None)`` writes <X> per row into a (1, R) ``out``, or <X> and <X^2>
    into a (2, R) one, and row 0's P(x) into ``dist``; ``finals()`` returns the (R, n) up and
    down amplitudes (after no step, the starts' own bytes). The starts are only read.

    Two compact (R, W) buffers hold the occupied sublattice of the light cone: column j of a
    view is lattice column ``lo + s j``, with s = 2 when the columns occupied at the start
    share one parity (every shift flips it), else 1. Up amplitudes sit right-aligned and down
    ones left-aligned, so the coins mix in place and a shift only grows the up view left and
    the down view right by 2 / s columns. Each stage of a step (see ``_plan``) mixes its coins
    and then shifts. ``_check_walk`` runs first, from the occupied site furthest from the
    centre; with ``clip``, amplitude shifted off the lattice is checked and dropped instead of
    the cone. A real start under real coin tables runs in float64, and a complex batch reads
    such a row as one (see ``moments``): a row's bytes are those of its ``run``."""
    n, half = geometry.n_sites, geometry.half_span
    occupied = up.any(axis=0) | down.any(axis=0)
    occupied[half] |= not occupied.any()  # an all-zero state evolves the centre column
    a0, a1 = int(occupied.argmax()), n - int(occupied[::-1].argmax())
    _check_walk(rows, geometry, steps, max(a0 - half, a1 - 1 - half, key=abs), clip)
    for i, row in enumerate(rows):
        key = (type(row), row.order(0), *map(type, row.coins))
        if key != (shape := shape if i else key):
            raise ValueError(f"row {i} ({row!r}) differs in shape from row 0 ({rows[0]!r})")
    # a 0-step walk reads no plan: it draws nothing and takes its dtype from the starts
    start, (plan, reals) = t0, _plan(rows, n, t0, t0 + steps) if steps else (None, True)
    s = 1 if occupied[a0 + 1 : a1 : 2].any() else 2
    grow = 2 // s
    lo, c = a0, (a1 - 1 - a0) // s + 1  # the views' first lattice column and width
    initial = np.array((up[:, a0:a1:s], down[:, a0:a1:s]))  # (2, R or 1, c)
    real = not initial.imag.any() and np.all(reals)  # mixed: the rows that walk real alone
    mixed = [] if real or len(rows) == 1 else np.flatnonzero(reals & ~initial.imag.any((0, 2)))
    dtype, line = (np.float64, 8) if real else (np.complex128, 4)  # line: 64 bytes of it
    width = -(-(c + grow * steps * len(rows[0].order(0))) // line) * line  # rows start on one
    size = 2 * len(rows) * width  # the buffers'; then ``work`` (see _mix), twice as long
    memory = np.zeros(3 * size + line, dtype)
    cut = -memory.ctypes.data % 64  # both start on a 64-byte line: mixes ran faster there
    buffers = np.ndarray((2, len(rows), width), dtype, memory, cut)
    work = memory[cut // memory.itemsize + size :]
    ua, da = width - c, 0  # where the up and the down view start
    buffers[0, :, ua:], buffers[1, :, :c] = (a.real if real else a for a in initial)
    psi, floats = _pair(buffers, ua, da, c), work.view(np.float64)  # floats: see moments
    lines = []  # per parity of lattice columns: x and x^2, and each x once per float

    def moments(out, dist=None):
        if not lines:  # contiguous, built on the first read
            xs = np.array([geometry.positions, geometry.positions_squared], np.float64)
            lines.extend((x, x.repeat(2, 1)) for x in (xs[:, p::s].copy() for p in range(s)))
        flat, (j, p), k = psi.view(np.float64), divmod(lo, s), len(out)
        sq, (one, two) = np.square(flat, out=floats[: flat.size].reshape(flat.shape)), lines[p]
        if real:  # P(x) = |up|^2 + |down|^2 per row, then one sum against x
            prob = np.add(sq[0], sq[1], out=sq[0])
            if dist is not None:
                dist[lo : lo + s * c : s] = prob[0]
            return np.vecdot(prob, one[:k, None, j : j + c], out=out)
        sums = np.vecdot(sq, two[:k, None, None, 2 * j : 2 * (j + c)])  # per spin, x per float
        np.add(sums[:, 0], sums[:, 1], out=out)
        if len(mixed):  # a row real alone sums its P(x) from its re^2, as it would alone
            out[:, mixed] = np.vecdot(np.add(*sq[:, mixed, ::2]), one[:k, None, j : j + c])
        if dist is not None:  # row 0's P(x), |a|^2 = re^2 + im^2
            pair = np.add(sq[:, 0, ::2], sq[:, 0, 1::2])
            np.add(pair[0], pair[1], out=dist[lo : lo + s * c : s])
        return out

    def finals():
        pair = np.zeros((len(rows), n), complex), np.zeros((len(rows), n), complex)
        for final, view, given in zip(pair, psi, (up, down)):
            if not k:  # the starts' own bytes, -0.0 included
                final[:] = given
            else:  # + 0.0 turns -0.0 into 0.0: zeros match whichever columns were computed
                np.add(view, 0.0, out=final[:, lo : lo + s * c : s])
        return pair

    for k in range(steps + 1):  # k: the steps taken
        yield moments, finals
        if k == steps:
            break
        t = t0 + k
        if k and t % _BLOCK == 0 and _seed_slots(rows[0]):  # draws come a block at a time
            start, (plan, _) = t, _plan(rows, n, t, t0 + steps)
        for stage in plan[t % 2]:
            for coin in stage:
                _mix(psi, coin(t - start, slice(lo, lo + s * c, s)), work)
            ua, lo, c = ua - grow, lo - 1, c + grow  # the shift
            left, right = lo < 0, lo + s * (c - 1) >= n  # off the lattice: clip only
            if left or right:
                _check_leak(max(abs(buffers[1, :, da]).max() if left else 0.0,
                                abs(buffers[0, :, ua + c - 1]).max() if right else 0.0))
                ua, da, lo, c = ua + left, da + left, lo + s * left, c - left - right
            psi = _pair(buffers, ua, da, c)


def _series(up, down, rows, t0: int, steps: int, geometry: LatticeGeometry,
            squares=False, record_full=False):
    """A walk's (see ``_walk``) <X> per row and t, (R, steps + 1), with ``squares`` its
    <X^2> too, with ``record_full`` row 0's P(x, t) (else None), then its ``finals``."""
    walk = _walk(up, down, rows, t0, steps, geometry)
    moments, finals = next(walk)  # set up and checked before anything sized by steps
    out = np.zeros((1 + squares, steps + 1, len(rows)))
    dists = np.zeros((steps + 1, geometry.n_sites)) if record_full else None
    for k in range(steps + 1):
        moments(out[:, k], None if dists is None else dists[k])
        next(walk, None)  # the next step; after the last, the walk's end
    return *out.transpose(0, 2, 1).copy(), dists, finals


def map_batches(fn, args: tuple, count: int, workers: int = 1) -> np.ndarray:
    """``fn((*args, start, stop))`` over consecutive batches of at most 64 of
    range(count), on up to ``workers`` processes, but no more than there are
    batches or cores; concatenated."""
    _check("workers", workers, at_least(1))
    jobs = [(*args, i, min(i + _BATCH_ROWS, count)) for i in range(0, count, _BATCH_ROWS)]
    processes = min(workers, len(jobs), os.cpu_count() or 1)
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a run with a pool loads it

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
    n, t = state.geometry.n_sites, state.time_step if t is None else t
    _check("t", t, at_least(0))
    _check_walk([Single(spec)], state.geometry, 0)  # its seed; a coin moves nothing
    psi = np.array([state.amp_up, state.amp_down])[:, None]  # a one-step table is its coin
    _mix(psi, _coin([spec], n, t, t + 1)[0], np.empty(4 * n, np.complex128))
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
    """Advance one full time step, the schedule's coin composition then one shift, as a
    one-row walk with ``clip``. All randomness comes from the schedule's seeds; an unseeded
    slot raises ``MissingRandomnessError`` before the step."""
    *_, (_, finals) = _walk(state.amp_up[None], state.amp_down[None], [schedule],
                            state.time_step, 1, state.geometry, clip=True)
    up, down = finals()
    return WalkerState(state.geometry, up[0], down[0], state.time_step + 1)


def run(
    initial: WalkerState,
    schedule: StrategySchedule,
    steps: int,
    record_full: bool = False,
) -> Trajectory:
    """Run ``steps`` full steps, recording position mean and variance at every t: a walk
    of one row, read after every step. Every site the walker can reach (see ``reach``)
    must lie on the lattice, so amplitude never touches the boundary, and every seed slot
    needs a seed (see ``with_derived_seeds``); ``_check_walk`` checks both first."""
    g, t0 = initial.geometry, initial.time_step
    check_cells("(steps + 1) x sites of record_full", _check("steps", steps, STEPS) + 1,
                g.n_sites if record_full else 0)
    mean, squares, dists, finals = _series(initial.amp_up[None], initial.amp_down[None],
                                           [schedule], t0, steps, g, True, record_full)
    up, down = finals()
    var = np.maximum(squares - mean * mean, 0.0)
    final = WalkerState(g, up[0], down[0], t0 + steps)
    metadata = {"schedule": repr(schedule), "seeds": collect_seeds(schedule),
                "n_sites": g.n_sites, "steps": steps, "rng_algorithm": RNG_ALGORITHM}
    return Trajectory(np.arange(steps + 1), mean[0], var[0], dists, final, metadata)


# ---------------------------------------------------------------------------
# schedule introspection and deterministic reseeding
# ---------------------------------------------------------------------------


def reach(extent: int, schedule, steps: int) -> int:
    """Largest |x| a walker can occupy after ``steps`` steps of ``schedule``, a shift per
    stage of ``schedule.order``, from within |x| <= ``extent`` (|x0| if localized)."""
    return extent + steps * len(schedule.order(0))


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
    for slot, (name, spec) in enumerate(zip(schedule.__dataclass_fields__, schedule.coins), 1):
        if spec.axis == "steps":  # a random-phase coin; the coins lead the fields
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
