"""Batch invariance of the evolution kernel, bit for bit.

Ensembles and sweeps evolve their walks as rows of one kernel call, in
batches of consecutive rows. Every reduction is per row, so a row must come
out with exactly the bytes of its own ``run``, whichever batch it sits in and
however many worker processes share the batches.
"""

import numpy as np
import pytest

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
    collect_seeds,
    ensemble_expectation,
    general_coin_matrix,
    realize,
    run,
    sweep_coin_params,
    sweep_initial_state,
    with_derived_seeds,
)
from parrondoqw import evolution
from parrondoqw.config import _slot_key
from parrondoqw.evolution import evolve_rows, reach

from pathsum import path_sum_arrays

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
        batch = evolve_rows(up, down, rows[:count], 0, steps, initial.geometry)[0]
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
    monkeypatch.setattr(evolution, "ProcessPoolExecutor", no_pool)
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

    monkeypatch.setattr(evolution, "ProcessPoolExecutor", FakePool)
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
    mean, var, up_final, down_final = evolve_rows(up, down, rows, 0, steps, initial.geometry,
                                                  variance=True)
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
        evolve_rows(initial.amp_up[None], initial.amp_down[None], rows, 0, 10,
                    initial.geometry)


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
        # the metadata and the config's missing-seed check read the same slots
        assert sorted(collect_seeds(derived)) == sorted(names[slot] for slot in slots)
        assert _slot_key(derived, seeded=False) is None
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
    batch = evolve_rows(initial.amp_up[None], initial.amp_down[None], rows,
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
    # a real walk alone evolves in float64, so each point checks both arithmetics
    tanh = SiteTanhRotation(-np.pi / 8, np.pi / 4)
    schedule = Composite(UniformRotation(np.pi / 2), tanh, 2, 1)
    grid = GridSpec(
        axis1=GridAxis("theta", 0.0, np.pi, 5),
        axis2=GridAxis("phi", 0.0, 1.5 * np.pi, 4),
        schedule=schedule,
        steps=60,
        geometry=LatticeGeometry(201),
    )
    result = sweep_initial_state(grid)
    for i, theta in enumerate(result.axis1_values):
        for j, phi in enumerate(result.axis2_values):
            initial = WalkerState.localized(grid.geometry, BlochCoinState(theta, phi))
            final = run(initial, schedule, grid.steps).expectation[-1]
            assert result.expectation[i, j].tobytes() == final.tobytes()


def test_real_coin_row_in_a_complex_batch_is_its_own_run():
    initial = start(61, BlochCoinState(1.0, 0.0))
    rows = [Single(GeneralCoin(0.5, 0.0, 0.0)), Single(GeneralCoin(0.5, 1.0, 0.3))]
    batch = evolve_rows(initial.amp_up[None], initial.amp_down[None], rows, 0, 25,
                        initial.geometry)[0]
    for i, row in enumerate(rows):
        assert batch[i].tobytes() == run(initial, row, 25).expectation.tobytes()
