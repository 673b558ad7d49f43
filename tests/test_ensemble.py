import numpy as np
import pytest

from parrondoqw import (
    SPIN_DOWN,
    DegenerateEnsembleWarning,
    FieldError,
    GridAxis,
    GridSpec,
    InsufficientDataError,
    LatticeGeometry,
    ProbabilisticChoice,
    RandomPhaseAlpha,
    ScheduleTemplate,
    Single,
    SiteTanhRotation,
    UniformRotation,
    WalkerState,
    classical_walk,
    ensemble_expectation,
    run,
    sweep_coin_params,
    variance_scaling_exponent,
)

COIN_A = UniformRotation(np.pi / 2)
COIN_B = SiteTanhRotation(-np.pi / 8, np.pi / 4)


def down(n=41):
    return WalkerState.localized(LatticeGeometry(n), SPIN_DOWN, 0)


def test_degenerate_q_one_matches_single_run():
    init = down()
    with pytest.warns(DegenerateEnsembleWarning):
        res = ensemble_expectation(
            init, ProbabilisticChoice(COIN_A, COIN_B, 1.0, seed=3), 20, 8, master_seed=1
        )
    ref = run(init, Single(COIN_A), 20)
    # iterations are identical; only the mean's summation rounding remains
    assert np.allclose(res.mean_expectation, ref.expectation, atol=1e-14, rtol=0)
    assert np.all(res.std_error < 1e-12)


def test_degenerate_q_zero_matches_single_run():
    init = down()
    with pytest.warns(DegenerateEnsembleWarning):
        res = ensemble_expectation(
            init, ProbabilisticChoice(COIN_A, COIN_B, 0.0, seed=3), 20, 8, master_seed=1
        )
    ref = run(init, Single(COIN_B), 20)
    assert np.allclose(res.mean_expectation, ref.expectation, atol=1e-14, rtol=0)


def test_deterministic_schedule_warns_but_works():
    init = down()
    with pytest.warns(DegenerateEnsembleWarning):
        res = ensemble_expectation(init, Single(COIN_A), 10, 4, master_seed=0)
    ref = run(init, Single(COIN_A), 10)
    assert np.array_equal(res.mean_expectation, ref.expectation)


def test_bit_reproducible_mean_series():
    init = down(31)
    sched = ProbabilisticChoice(COIN_A, COIN_B, 0.4)
    r1 = ensemble_expectation(init, sched, 15, 50, master_seed=123)
    r2 = ensemble_expectation(init, sched, 15, 50, master_seed=123)
    assert np.array_equal(r1.mean_expectation, r2.mean_expectation)
    assert np.array_equal(r1.std_error, r2.std_error)
    r3 = ensemble_expectation(init, sched, 15, 50, master_seed=124)
    assert not np.array_equal(r1.mean_expectation, r3.mean_expectation)


def test_mean_bounded_by_elapsed_time():
    init = down(31)
    sched = ProbabilisticChoice(COIN_A, COIN_B, 0.5)
    res = ensemble_expectation(init, sched, 15, 40, master_seed=7)
    assert np.all(np.abs(res.mean_expectation) <= res.times + 1e-12)


def test_standard_error_shrinks_with_iterations():
    init = down(31)
    sched = ProbabilisticChoice(COIN_A, COIN_B, 0.5)
    small = ensemble_expectation(init, sched, 12, 60, master_seed=5)
    large = ensemble_expectation(init, sched, 12, 240, master_seed=5)
    assert large.std_error[-1] < small.std_error[-1]


def test_random_phase_singles_reseeded_per_iteration():
    init = down(31)
    res = ensemble_expectation(init, Single(RandomPhaseAlpha()), 12, 30, master_seed=2)
    # the iterations genuinely differ, so the spread is nonzero
    assert res.std_error[-1] > 0.0


def test_iterations_must_be_positive():
    with pytest.raises(ValueError):
        ensemble_expectation(down(), Single(COIN_A), 5, 0, master_seed=1)


# ---------------------------------------------------------------------------
# classical baseline
# ---------------------------------------------------------------------------


def test_classical_one_step():
    res = classical_walk(1, 0.5)
    assert res.distributions[1, res.positions == 1] == pytest.approx(0.5)
    assert res.distributions[1, res.positions == -1] == pytest.approx(0.5)
    assert res.variance[1] == pytest.approx(1.0, abs=1e-12)


def test_classical_unbiased_variance_is_t():
    res = classical_walk(100, 0.5)
    assert np.allclose(res.variance, res.times, atol=1e-10)
    assert np.allclose(res.distributions.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(res.distributions >= 0.0)


def test_classical_deterministic_drift():
    res = classical_walk(100, 1.0)
    assert res.distributions[100, res.positions == 100] == pytest.approx(1.0)
    assert res.variance[100] == pytest.approx(0.0, abs=1e-12)
    assert res.expectation[100] == pytest.approx(100.0)


def test_classical_rejects_bad_probability():
    with pytest.raises(ValueError):
        classical_walk(5, 1.5)


# ---------------------------------------------------------------------------
# variance scaling exponent
# ---------------------------------------------------------------------------


def test_exponent_classical_is_one():
    res = classical_walk(100, 0.5)
    assert variance_scaling_exponent(res.variance, 50, 100) == pytest.approx(
        1.0, abs=0.01
    )


def test_exponent_constant_series_is_zero():
    series = np.full(50, 3.7)
    assert variance_scaling_exponent(series, 10, 40) == pytest.approx(0.0, abs=1e-12)


def test_exponent_pure_quadratic_is_two():
    t = np.arange(101, dtype=float)
    series = 0.3 * t**2
    series[0] = 0.0
    assert variance_scaling_exponent(series, 50, 100) == pytest.approx(2.0, abs=1e-10)


def test_exponent_window_too_short():
    series = np.arange(1.0, 30.0)
    with pytest.raises(InsufficientDataError):
        variance_scaling_exponent(series, 10, 13)


def test_exponent_names_an_inverted_window():
    # once read as a window of -4 points
    with pytest.raises(FieldError, match=r"^t_max must be >= t_min, got t_min=10, t_max=5$"
                       ) as caught:
        variance_scaling_exponent(np.ones(20), 10, 5)
    assert caught.value.field == "t_max"


def test_exponent_rejects_nonpositive_window():
    series = np.zeros(30)
    with pytest.raises(ValueError):
        variance_scaling_exponent(series, 5, 20)


def test_worker_count_does_not_change_results():
    # several pool chunks per run: 64 iterations and 16 points per chunk
    schedule = ProbabilisticChoice(COIN_A, RandomPhaseAlpha(), 0.5)
    ensembles = [
        ensemble_expectation(down(21), schedule, 10, 150, master_seed=4, workers=w)
        for w in (1, 2)
    ]
    assert np.array_equal(ensembles[0].mean_expectation, ensembles[1].mean_expectation)
    assert np.array_equal(ensembles[0].std_error, ensembles[1].std_error)

    grid = GridSpec(
        axis1=GridAxis("theta_b_minus", -np.pi, np.pi, 6),
        axis2=GridAxis("theta_b_plus", -np.pi, np.pi, 6),
        schedule=ScheduleTemplate("composite", m=2, n=1),
        steps=10,
        geometry=LatticeGeometry(21),
        fixed={"theta_a": np.pi / 2},
    )
    sweeps = [sweep_coin_params(grid, workers=w) for w in (1, 2)]
    assert np.array_equal(sweeps[0].expectation, sweeps[1].expectation)
    assert np.array_equal(sweeps[0].classification, sweeps[1].classification)


def test_bad_arguments_fail_before_any_walk(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a walk ran")

    monkeypatch.setattr("parrondoqw.ensemble._series", no_run)
    monkeypatch.setattr("parrondoqw.sweep._walk", no_run)
    schedule = Single(RandomPhaseAlpha())
    with pytest.raises(ValueError, match="master_seed"):
        ensemble_expectation(down(), schedule, 5, 3, master_seed=None)
    grid = GridSpec(
        axis1=GridAxis("theta_b_minus", -np.pi, np.pi, 3),
        axis2=GridAxis("theta_b_plus", -np.pi, np.pi, 3),
        schedule=ScheduleTemplate("single_b"),
        steps=5,
        geometry=LatticeGeometry(21),
        tie_tolerance=-1.0,
    )
    with pytest.raises(ValueError, match="tie_tolerance"):
        sweep_coin_params(grid)
    grid.tie_tolerance = 1e-9
    for workers in (0, -5):
        with pytest.raises(ValueError, match="workers"):
            ensemble_expectation(down(), schedule, 5, 3, master_seed=1, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            sweep_coin_params(grid, workers=workers)


@pytest.mark.parametrize("master_seed", [2.5, -1, True])
def test_a_master_seed_is_checked_without_seed_slots_too(master_seed):
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got "):
        ensemble_expectation(down(), Single(COIN_A), 5, 3, master_seed=master_seed)
