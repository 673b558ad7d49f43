"""Batch invariance of the evolution kernel, bit for bit.

Ensembles and sweeps evolve their walks as rows of one kernel call, in
batches of consecutive rows. Every reduction is per row, so a row must come
out with exactly the bytes of its own ``run``, whichever batch it sits in and
however many worker processes share the batches.
"""

import concurrent.futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondoqw import (
    SPIN_DOWN,
    SYMMETRIC,
    AlternatingEvenOdd,
    BlochCoinState,
    Composite,
    GeneralCoin,
    GridAxis,
    GridSpec,
    LatticeGeometry,
    ProbabilisticChoice,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    ScheduleTemplate,
    Single,
    SiteTanhRotation,
    UniformRotation,
    WalkerState,
    child_seed,
    ensemble_expectation,
    run,
    step,
    sweep_coin_params,
    sweep_initial_state,
    with_derived_seeds,
)
from parrondoqw import evolution
from parrondoqw import sweep as sweep_module
from parrondoqw.coins import general_coin_matrix, realize
from parrondoqw.evolution import _check_walk, collect_seeds, reach

from pathsum import path_sum_arrays
from walks import evolve

COIN_A = UniformRotation(np.pi / 2)
COIN_B = SiteTanhRotation(-np.pi / 8, np.pi / 4)
COUNTS = (1, 63, 64, 65, 150)  # on both sides of the 64-row batch boundary

SCHEDULES = {
    "choice": ProbabilisticChoice(COIN_A, COIN_B, 0.5),
    "choice_phase": ProbabilisticChoice(COIN_A, RandomPhaseAlpha(), 0.3),
    "alternating_phase": AlternatingEvenOdd(RandomPhaseAlpha(), RandomPhaseBeta()),
    "composite_general": Composite(GeneralCoin(0.3, 1.0, 2.0), RandomPhaseBeta(), 2, 1),
}


def start(n=41, coin=SPIN_DOWN, x0=0):
    return WalkerState.localized(LatticeGeometry(n), coin, x0)


def run_rows(initial, schedule, steps, iterations, master_seed):
    rows = [with_derived_seeds(schedule, master_seed, i) for i in range(iterations)]
    return np.vstack([run(initial, row, steps).expectation for row in rows])


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("iterations", COUNTS)
def test_ensemble_equals_its_runs_byte_for_byte(name, iterations):
    initial, steps, seed = start(), 16, 11
    result = ensemble_expectation(initial, SCHEDULES[name], steps, iterations, seed)
    series = run_rows(initial, SCHEDULES[name], steps, iterations, seed)
    assert result.mean_expectation.tobytes() == series.mean(axis=0).tobytes()
    if iterations > 1:
        std_error = series.std(axis=0, ddof=1) / np.sqrt(iterations)
        assert result.std_error.tobytes() == std_error.tobytes()


@pytest.mark.parametrize("name", SCHEDULES)
def test_a_row_is_the_same_bytes_in_every_batch(name):
    # row 5 alone, among the first 63, 64 or 65 rows, and 1 of 150
    initial, steps = start(31, SYMMETRIC, x0=2), 12
    rows = [with_derived_seeds(SCHEDULES[name], 3, i) for i in range(150)]
    alone = run(initial, rows[5], steps).expectation
    up, down = initial.amp_up[None], initial.amp_down[None]
    for count in COUNTS[1:]:
        batch = evolve(up, down, rows[:count], 0, steps, initial.geometry)[0]
        assert batch[5].tobytes() == alone.tobytes()
        for i in (0, count - 1):
            assert batch[i].tobytes() == run(initial, rows[i], steps).expectation.tobytes()


@pytest.mark.parametrize("iterations", COUNTS)
def test_ensemble_workers_do_not_change_bytes(iterations):
    schedule = SCHEDULES["choice_phase"]
    one, two = (
        ensemble_expectation(start(21), schedule, 10, iterations, 4, workers=w)
        for w in (1, 2)
    )
    assert one.mean_expectation.tobytes() == two.mean_expectation.tobytes()
    assert one.std_error.tobytes() == two.std_error.tobytes()


def test_one_batch_starts_no_pool(monkeypatch):
    # with a single batch there is nothing for a second process to share
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started for one batch")

    schedule = SCHEDULES["choice_phase"]
    one = ensemble_expectation(start(21), schedule, 10, 10, 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    two = ensemble_expectation(start(21), schedule, 10, 10, 4, workers=2)
    assert one.mean_expectation.tobytes() == two.mean_expectation.tobytes()


@pytest.mark.parametrize("cores,started", [(2, [2]), (1, []), (None, [])])
def test_pool_is_capped_at_the_core_count(monkeypatch, cores, started):
    # a fake pool records its size and starts nothing: 782 batches, 1000 workers asked
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(evolution.os, "cpu_count", lambda: cores)
    count = 782 * 64
    rows = evolution.map_batches(lambda job: np.arange(*job), (), count, workers=1000)
    assert sizes == started
    assert np.array_equal(rows, np.arange(count))


def coin_grid(count, template=ScheduleTemplate("composite", m=2, n=1)):
    return GridSpec(
        axis1=GridAxis("theta_b_minus", -np.pi, np.pi, count),
        axis2=GridAxis("theta_b_plus", -np.pi, np.pi, count),
        schedule=template,
        steps=12,
        geometry=LatticeGeometry(31),
        initial=BlochCoinState(2.0, 0.5),
        x0=-3,
        fixed={"theta_a": np.pi / 2},
    )


@pytest.mark.parametrize("count", (2, 8, 9))  # 4, 64 and 81 points
def test_coin_sweep_point_is_its_own_run(count):
    grid = coin_grid(count)
    result = sweep_coin_params(grid)
    initial = WalkerState.localized(grid.geometry, grid.initial, grid.x0)
    for i, a in enumerate(result.axis1_values):
        for j, b in enumerate(result.axis2_values):
            schedule = grid.schedule(dict(grid.fixed, theta_b_minus=a, theta_b_plus=b))
            final = run(initial, schedule, grid.steps).expectation[-1]
            assert result.expectation[i, j].tobytes() == final.tobytes()


def test_seeded_initial_sweep_point_is_its_own_run():
    schedule = AlternatingEvenOdd(RandomPhaseAlpha(), RandomPhaseBeta())
    grid = GridSpec(
        axis1=GridAxis("theta", 0.0, np.pi, 9),
        axis2=GridAxis("phi", 0.0, 1.5 * np.pi, 9),
        schedule=schedule,
        steps=10,
        geometry=LatticeGeometry(25),
        master_seed=8,
    )
    result = sweep_initial_state(grid)
    for i, theta in enumerate(result.axis1_values):
        for j, phi in enumerate(result.axis2_values):
            row = with_derived_seeds(schedule, 8, i * 9 + j)
            initial = WalkerState.localized(grid.geometry, BlochCoinState(theta, phi))
            final = run(initial, row, grid.steps).expectation[-1]
            assert result.expectation[i, j].tobytes() == final.tobytes()


@pytest.mark.parametrize("count", (2, 9))
def test_sweep_workers_do_not_change_bytes(count):
    one, two = (sweep_coin_params(coin_grid(count), workers=w) for w in (1, 2))
    assert one.expectation.tobytes() == two.expectation.tobytes()
    assert np.array_equal(one.classification, two.classification)


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("stacked", (False, True))
def test_kernel_only_reads_its_starts_and_returns_each_rows_run(name, stacked):
    # one read-only (1, n) start for every row, or a read-only (R, n) broadcast of it
    initial, steps, count = start(41, SYMMETRIC, x0=1), 12, 70
    rows = [with_derived_seeds(SCHEDULES[name], 6, i) for i in range(count)]
    up, down = initial.amp_up[None].copy(), initial.amp_down[None].copy()
    for a in (up, down):
        a.flags.writeable = False
    if stacked:
        up, down = (np.broadcast_to(a, (count, a.shape[1])) for a in (up, down))
    before = up.tobytes(), down.tobytes()
    mean, var, up_final, down_final = evolve(up, down, rows, 0, steps, initial.geometry)
    assert (up.tobytes(), down.tobytes()) == before
    assert up_final.shape == down_final.shape == (count, initial.geometry.n_sites)
    for i in range(count):
        own = run(initial, rows[i], steps)
        assert mean[i].tobytes() == own.expectation.tobytes()
        assert var[i].tobytes() == own.variance.tobytes()
        assert up_final[i].tobytes() == own.final_state.amp_up.tobytes()
        assert down_final[i].tobytes() == own.final_state.amp_down.tobytes()


def test_phase_draws_come_a_block_at_a_time_with_unchanged_values():
    # array phases give each coin exactly as the scalar call does, bit for bit
    phases = 2.0 * np.pi * np.random.default_rng(0).random((3, 300))
    for alpha, beta in ((phases, 0.0), (0.0, phases)):
        coins = general_coin_matrix(0.5, alpha, beta)
        for k in np.ndindex(phases.shape):
            scalar = general_coin_matrix(0.5, np.broadcast_to(alpha, phases.shape)[k],
                                         np.broadcast_to(beta, phases.shape)[k])
            assert coins[(slice(None), slice(None)) + k].tobytes() == scalar.tobytes()
    # and a random-phase walk past a block boundary matches realize() per step
    for spec in (RandomPhaseAlpha(seed=5), RandomPhaseBeta(seed=5)):
        initial, steps = start(601, SYMMETRIC), 290
        s = initial
        for t in range(steps):
            u = realize(spec, 0, t)
            up = u[0, 0] * s.amp_up + u[0, 1] * s.amp_down
            down = u[1, 0] * s.amp_up + u[1, 1] * s.amp_down
            s = evolution.shift(WalkerState(s.geometry, up, down, t))
        final = run(initial, Single(spec), steps).final_state
        assert final.amp_up.tobytes() == s.amp_up.tobytes()
        assert final.amp_down.tobytes() == s.amp_down.tobytes()


MIXED_SHAPES = {
    # from spin down, read as a Single, the composite row would give -2.453, alone +2.503
    "type": [Single(COIN_A), Composite(COIN_A, SiteTanhRotation(-0.3, 0.9), 2, 1)],
    # from SYMMETRIC, as an alpha coin, the beta row would give -0.268, alone -0.169
    "phase_coin_class": [Single(RandomPhaseAlpha(seed=1)), Single(RandomPhaseBeta(seed=2))],
    "m": [Composite(COIN_A, COIN_B, 2, 1), Composite(COIN_A, COIN_B, 1, 1)],
    "n": [Composite(COIN_A, COIN_B, 1, 2), Composite(COIN_A, COIN_B, 1, 1)],
    "interleaved": [Composite(COIN_A, COIN_B, 1, 1), Composite(COIN_A, COIN_B, 1, 1, True)],
    "coin_class": [AlternatingEvenOdd(COIN_A, COIN_B), AlternatingEvenOdd(COIN_B, COIN_A)],
    "later_row": [Single(COIN_A), Single(COIN_A), Single(GeneralCoin(0.5, 0.0, 0.0))],
}


@pytest.mark.parametrize("name", MIXED_SHAPES)
def test_rows_of_different_shapes_fail_before_the_first_step(name, monkeypatch):
    def no_mix(*args, **kwargs):
        raise AssertionError("evolution started")

    monkeypatch.setattr(evolution, "_mix", no_mix)
    rows, initial = MIXED_SHAPES[name], start(41, SYMMETRIC if "phase" in name else SPIN_DOWN)
    with pytest.raises(ValueError, match=f"^row {len(rows) - 1} .* in shape from row 0"):
        evolve(initial.amp_up[None], initial.amp_down[None], rows, 0, 10, initial.geometry)


def test_seeds_are_derived_only_for_slots_that_read_them(monkeypatch):
    calls = []

    def counting(master, index, slot):
        calls.append(slot)
        return child_seed(master, index, slot)

    monkeypatch.setattr(evolution, "child_seed", counting)
    cases = [
        (Single(COIN_A), []),
        (Single(RandomPhaseBeta()), [1]),
        (Composite(COIN_A, COIN_B, 2, 1), []),
        (Composite(RandomPhaseAlpha(), RandomPhaseBeta(seed=3), 2, 1), [1, 2]),
        (AlternatingEvenOdd(RandomPhaseAlpha(), COIN_B), [1]),
        (AlternatingEvenOdd(COIN_A, RandomPhaseBeta()), [2]),
        (ProbabilisticChoice(COIN_A, COIN_B, 0.5), [0]),
        (ProbabilisticChoice(COIN_A, RandomPhaseBeta(), 0.0), [0, 2]),
        (ProbabilisticChoice(RandomPhaseAlpha(), RandomPhaseBeta(), 0.5), [1, 2, 0]),
    ]
    names = {0: "choice", 1: "coin_a", 2: "coin_b"}
    for schedule, slots in cases:
        calls.clear()
        derived = with_derived_seeds(schedule, 21, 7)
        assert sorted(calls) == sorted(slots)
        # the metadata and the one pre-run check read the same slots
        assert sorted(collect_seeds(derived)) == sorted(names[slot] for slot in slots)
        _check_walk([derived], LatticeGeometry(3), 0)
        for name, slot in (("a", 1), ("b", 2), ("spec", 1)):
            spec = getattr(derived, name, None)
            if getattr(spec, "seed", None) is not None:
                assert spec.seed == child_seed(21, 7, slot)
        if isinstance(derived, ProbabilisticChoice):
            assert derived.seed == child_seed(21, 7, 0)


def spread_start(n, sites, time_step=0, amps=None):
    """A normalized start over ``sites``, up then down amplitudes, at ``time_step``."""
    g = LatticeGeometry(n)
    if amps is None:
        amps = np.exp(1j * np.arange(2 * len(sites))) * np.linspace(1.0, 2.0, 2 * len(sites))
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    up, down = np.zeros((2, n), dtype=complex)
    index = [g.index_of(x) for x in sites]
    up[index], down[index] = amps[: len(sites)], amps[len(sites) :]
    return WalkerState(g, up, down, time_step)


# Starts and schedules that move the kernel's sublattice views off the usual
# centred, even, t0 = 0 case: (start, schedule, steps).
EQUIVALENCE = {
    # occupied columns of both parities: the kernel keeps every column
    "two_sublattices": (spread_start(31, [-2, -1, 1]), SCHEDULES["choice_phase"], 6),
    "off_centre": (spread_start(31, [7]), Composite(COIN_A, COIN_B, 2, 1), 6),
    "off_centre_spread": (spread_start(31, [-9, -7, -3]), SCHEDULES["choice"], 5),
    "odd_t0": (spread_start(31, [0], time_step=7), SCHEDULES["alternating_phase"], 6),
    "odd_t0_two_sublattices": (spread_start(31, [2, 3], time_step=259),
                               SCHEDULES["composite_general"], 5),
    # a shift after every coin: the parity still flips on each one
    "interleaved": (spread_start(31, [1]),
                    Composite(COIN_A, RandomPhaseBeta(), 2, 1, interleaved=True), 3),
    "interleaved_two_sublattices": (spread_start(31, [0, 1]),
                                    Composite(COIN_B, COIN_A, 1, 1, interleaved=True), 4),
    # diag(1, -1) on a negative real amplitude computes -0.0 parts, which must not survive
    "signed_zeros": (spread_start(31, [-1], amps=np.array([-0.6, 0.8j])),
                     Single(GeneralCoin(1.0, 0.0, 0.0)), 3),
}


@pytest.mark.parametrize("name", EQUIVALENCE)
def test_sublattice_kernel_matches_path_sum_and_batches(name):
    initial, schedule, steps = EQUIVALENCE[name]
    g, rows = initial.geometry, [with_derived_seeds(schedule, 5, i) for i in range(70)]
    batch = evolve(initial.amp_up[None], initial.amp_down[None], rows,
                   initial.time_step, steps, g)[0]
    components = [(spin, int(x), amp)
                  for spin, amps in enumerate((initial.amp_up, initial.amp_down))
                  for x, amp in zip(g.positions, amps) if amp != 0]
    shifts = reach(0, schedule, steps)
    off = np.array([all(abs(x - x0) > shifts or (x - x0 - shifts) % 2
                        for _, x0, _ in components)
                    for x in g.positions])  # no start reaches x in that many shifts
    assert off.any()
    for i in (0, 1, 69):
        trajectory = run(initial, rows[i], steps)
        assert batch[i].tobytes() == trajectory.expectation.tobytes()
        final = trajectory.final_state
        up, down = path_sum_arrays(components, rows[i], steps, g.n_sites, initial.time_step)
        assert np.max(np.abs(final.amp_up - np.array(up))) < 1e-10
        assert np.max(np.abs(final.amp_down - np.array(down))) < 1e-10
        for amps in (final.amp_up, final.amp_down):
            assert not amps[off].any()
            floats = amps.view(np.float64)
            assert not np.signbit(floats[floats == 0]).any()  # every zero is +0.0


def test_real_and_complex_starts_share_a_sweep_byte_for_byte():
    # the phi = 0 column starts real but shares its batches with complex starts;
    # a real walk alone evolves in float64, so each point checks both arithmetics. A
    # master seed derives each point's choice seed: every point is a row of its own
    schedule = ProbabilisticChoice(COIN_A, COIN_B, 0.5)
    grid = GridSpec(
        axis1=GridAxis("theta", 0.0, np.pi, 5),
        axis2=GridAxis("phi", 0.0, 1.5 * np.pi, 4),
        schedule=schedule,
        steps=60,
        geometry=LatticeGeometry(201),
        master_seed=13,
    )
    result = sweep_initial_state(grid)
    for i, theta in enumerate(result.axis1_values):
        for j, phi in enumerate(result.axis2_values):
            initial = WalkerState.localized(grid.geometry, BlochCoinState(theta, phi))
            own = with_derived_seeds(schedule, 13, i * grid.axis2.count + j)
            final = run(initial, own, grid.steps).expectation[-1]
            assert result.expectation[i, j].tobytes() == final.tobytes()


def test_real_coin_row_in_a_complex_batch_is_its_own_run():
    initial = start(61, BlochCoinState(1.0, 0.0))
    rows = [Single(GeneralCoin(0.5, 0.0, 0.0)), Single(GeneralCoin(0.5, 1.0, 0.3))]
    batch = evolve(initial.amp_up[None], initial.amp_down[None], rows, 0, 25,
                   initial.geometry)[0]
    for i, row in enumerate(rows):
        assert batch[i].tobytes() == run(initial, row, 25).expectation.tobytes()


def test_choice_rows_with_coins_of_their_own_are_their_own_runs():
    # each row's fixed and tanh tables differ, some rows share them, row 0's are real
    initial, steps = start(61, BlochCoinState(1.0, 0.0)), 30
    rows = [ProbabilisticChoice(GeneralCoin(0.5, 0.4 * (i % 3), 0.0),
                                SiteTanhRotation(-np.pi / 8 * (1 + i % 2), np.pi / 4), 0.5,
                                seed=child_seed(4, i))
            for i in range(7)]
    mean, _, up, down = evolve(initial.amp_up[None], initial.amp_down[None], rows, 0,
                               steps, initial.geometry)
    for i, row in enumerate(rows):
        own = run(initial, row, steps)
        assert mean[i].tobytes() == own.expectation.tobytes()
        assert up[i].tobytes() == own.final_state.amp_up.tobytes()
        assert down[i].tobytes() == own.final_state.amp_down.tobytes()


RESUMED = {
    # the choice's picks and the phase coin's draws both cross the 256-step block
    "choice_phase": ProbabilisticChoice(RandomPhaseAlpha(seed=3), UniformRotation(np.pi / 3),
                                        0.4, seed=8),
    "composite_tanh": Composite(COIN_A, COIN_B, 2, 1),
    "composite_phase_tanh": Composite(RandomPhaseBeta(seed=5), COIN_B, 2, 1),
}


@pytest.mark.parametrize("name", RESUMED)
def test_a_walk_read_after_every_step_is_its_run_and_its_chained_steps(name):
    # 300 steps, read between every two: the walk resumes across the 256-step draw block
    schedule, steps, initial = RESUMED[name], 300, start(601, SYMMETRIC)
    own, state = run(initial, schedule, steps), initial
    walk = evolution._walk(initial.amp_up[None], initial.amp_down[None], [schedule], 0,
                           steps, initial.geometry)
    for t, (moments, finals) in enumerate(walk):
        read = np.zeros((2, 1))
        moments(read)
        assert read[0].tobytes() == own.expectation[t : t + 1].tobytes()
        var = np.maximum(read[1] - read[0] * read[0], 0.0)
        assert var.tobytes() == own.variance[t : t + 1].tobytes()
        up, down = finals()
        assert up[0].tobytes() == state.amp_up.tobytes()
        assert down[0].tobytes() == state.amp_down.tobytes()
        if t < steps:
            state = step(state, schedule)
    assert t == steps
    assert up[0].tobytes() == own.final_state.amp_up.tobytes()
    assert down[0].tobytes() == own.final_state.amp_down.tobytes()


def test_ensembles_and_per_point_sweeps_never_read_final_amplitudes(monkeypatch):
    def no_finals():
        raise AssertionError("final amplitudes were read")

    walk = evolution._walk

    def walk_without_finals(*args, **kwargs):
        for moments, _ in walk(*args, **kwargs):
            yield moments, no_finals

    bloch = GridSpec(GridAxis("theta", 0.0, np.pi, 3), GridAxis("phi", 0.0, np.pi, 3),
                     SCHEDULES["alternating_phase"], 10, LatticeGeometry(25), master_seed=8)
    calls = {
        "ensemble": lambda: ensemble_expectation(start(), SCHEDULES["choice_phase"], 16,
                                                 iterations=70, master_seed=11),
        "sweep_coin": lambda: sweep_coin_params(coin_grid(9)),
        "sweep_initial": lambda: sweep_initial_state(bloch),
    }
    read = {name: call() for name, call in calls.items()}
    monkeypatch.setattr(evolution, "_walk", walk_without_finals)
    monkeypatch.setattr(sweep_module, "_walk", walk_without_finals)
    for name, call in calls.items():
        result, before = call(), read[name]
        if name == "ensemble":
            assert result.mean_expectation.tobytes() == before.mean_expectation.tobytes()
            assert result.std_error.tobytes() == before.std_error.tobytes()
        else:
            assert result.expectation.tobytes() == before.expectation.tobytes()


# Coins by class, each from its draw and whether the row's coins are to be real: the rows of
# a batch share each coin's class, not its values. Only a GeneralCoin can be either: real
# with zero phases, complex with others. Random phases are always complex.
ANGLES = st.sampled_from([-2.0, -0.4, 0.3, 1.1, np.pi / 2, 2.9])
PHASES = st.sampled_from([(1.0, 0.3), (0.0, 2.0), (np.pi, 0.0)])
COINS = {
    "general": lambda draw, real: GeneralCoin(draw(st.sampled_from([0.3, 0.5])),
                                              *((0.0, 0.0) if real else draw(PHASES))),
    "uniform": lambda draw, real: UniformRotation(draw(ANGLES)),
    "tanh": lambda draw, real: SiteTanhRotation(draw(ANGLES), draw(ANGLES)),
    "alpha": lambda draw, real: RandomPhaseAlpha(draw(st.integers(0, 9))),
    "beta": lambda draw, real: RandomPhaseBeta(draw(st.integers(0, 9))),
}
SHAPES = ("single", "composite", "interleaved", "alternating", "choice")


@st.composite
def mixed_batches(draw):
    """(rows, up, down, t0, steps): 1-5 rows of one shape, each with its own coins and a
    real or complex start on the batch's one or two occupied sites. Most walks are long:
    BLAS sums a short row in one order whatever its layout, a long one by blocks."""
    shape = draw(st.sampled_from(SHAPES))
    kinds = [draw(st.sampled_from(list(COINS))) for _ in "ab"]
    m, n = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1)]))
    x0, gap = draw(st.integers(-2, 2)), draw(st.sampled_from([0, 1, 2]))  # gap 0: one site
    steps, half = draw(st.sampled_from([0, 1, 2, 17, 31, 40])), 124  # 4 + 40 steps x 3 shifts
    sites = [x0 + half] + ([x0 + half + gap] if gap else [])
    count = draw(st.integers(1, 5))
    rows, (up, down) = [], np.zeros((2, count, 2 * half + 1), complex)
    for i in range(count):
        real_coins, real_start = draw(st.booleans()), draw(st.booleans())
        a, b = (COINS[kind](draw, real_coins) for kind in kinds)
        rows.append({
            "single": lambda: Single(a),
            "composite": lambda: Composite(a, b, m, n),
            "interleaved": lambda: Composite(a, b, m, n, interleaved=True),
            "alternating": lambda: AlternatingEvenOdd(a, b),
            "choice": lambda: ProbabilisticChoice(a, b, draw(st.sampled_from([0.4, 0.0, 1.0])),
                                                  draw(st.integers(0, 9))),
        }[shape]())
        for site in sites:
            phi = 0.0 if real_start else draw(st.sampled_from([0.7, np.pi / 2, np.pi]))
            spin = BlochCoinState(draw(st.sampled_from([0.8, 0.0, np.pi / 2, 2.5])), phi)
            up[i, site], down[i, site] = np.array(spin.spinor()) / np.sqrt(len(sites))
    return rows, up, down, draw(st.sampled_from([0, 251])), steps


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mixed_batches())
def test_every_row_of_a_mixed_batch_reads_as_its_own_run(batch):
    # a row that would walk real alone keeps its real run's bytes in a complex batch, read
    # after every step for <X> alone and for <X> with <X^2>, and row 0's P(x) too
    rows, up, down, t0, steps = batch
    n = up.shape[1]
    geometry = LatticeGeometry(n)
    own = [run(WalkerState(geometry, up[i], down[i], t0), row, steps, record_full=i == 0)
           for i, row in enumerate(rows)]
    for t, (moments, _) in enumerate(evolution._walk(up, down, rows, t0, steps, geometry)):
        alone, both, dist = np.zeros((1, len(rows))), np.zeros((2, len(rows))), np.zeros(n)
        moments(alone)
        moments(both, dist)
        assert alone[0].tobytes() == both[0].tobytes()
        var = np.maximum(both[1] - both[0] * both[0], 0.0)
        for i, trajectory in enumerate(own):
            assert both[0, i].tobytes() == trajectory.expectation[t].tobytes()
            assert var[i].tobytes() == trajectory.variance[t].tobytes()
        assert dist.tobytes() == own[0].distributions[t].tobytes()


def test_a_random_phase_row_is_complex_even_when_its_phases_are_zero(monkeypatch):
    # every phase drawn as 0 gives a coin with no imaginary part; its table and so its own
    # run are complex all the same, and its batch must read it as such
    monkeypatch.setattr("parrondoqw.coins._draws",
                        lambda seeds, tag, t, stop: np.zeros((len(seeds), stop - t)))
    real, complex_ = start(201, BlochCoinState(1.0, 0.0)), start(201, SYMMETRIC)
    rows = [Single(RandomPhaseAlpha(seed=1)), Single(RandomPhaseAlpha(seed=2))]
    up, down = (np.stack([a, b]) for a, b in ((real.amp_up, complex_.amp_up),
                                             (real.amp_down, complex_.amp_down)))
    mean = evolve(up, down, rows, 0, 40, real.geometry)[0]
    for i, initial in enumerate((real, complex_)):
        assert mean[i].tobytes() == run(initial, rows[i], 40).expectation.tobytes()
