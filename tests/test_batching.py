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
from parrondoqw.config import _unseeded
from parrondoqw.evolution import evolve_rows

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
        batch = evolve_rows(initial.geometry, up, down, rows[:count], steps)
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


def test_mixed_schedule_shapes_share_a_sweep():
    # a factory may return a different schedule shape at each point
    def factory(params):
        a = UniformRotation(params["theta_a"])
        if params["theta_b_plus"] > 0:
            return Composite(a, SiteTanhRotation(params["theta_b_minus"], 0.3), 1, 2)
        return Single(a)

    grid = coin_grid(4, template=factory)
    grid.axis1 = GridAxis("theta_a", -1.0, 1.0, 4)
    grid.axis2 = GridAxis("theta_b_plus", -1.0, 1.0, 4)
    grid.fixed = {"theta_b_minus": 0.2}
    result = sweep_coin_params(grid)
    initial = WalkerState.localized(grid.geometry, grid.initial, grid.x0)
    for i, a in enumerate(result.axis1_values):
        for j, b in enumerate(result.axis2_values):
            schedule = factory({"theta_a": a, "theta_b_plus": b, "theta_b_minus": 0.2})
            final = run(initial, schedule, grid.steps).expectation[-1]
            assert result.expectation[i, j].tobytes() == final.tobytes()


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
    spec = RandomPhaseAlpha(seed=5)
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
        assert _unseeded(derived) is None
        for name, slot in (("a", 1), ("b", 2), ("spec", 1)):
            spec = getattr(derived, name, None)
            if getattr(spec, "seed", None) is not None:
                assert spec.seed == child_seed(21, 7, slot)
        if isinstance(derived, ProbabilisticChoice):
            assert derived.seed == child_seed(21, 7, 0)
