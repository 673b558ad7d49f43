import numpy as np
import pytest

from parrondoqw import (
    LOSING,
    NEUTRAL,
    SPIN_DOWN,
    WINNING,
    AlternatingEvenOdd,
    Composite,
    ConfigError,
    GeometryTooSmallError,
    GridAxis,
    GridSpec,
    InvalidPositionError,
    LatticeGeometry,
    MissingRandomnessError,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    ScheduleTemplate,
    Single,
    UniformRotation,
    WalkerState,
    classify,
    run,
    sweep_coin_params,
    sweep_initial_state,
)
from parrondoqw.sweep import check_grid


def test_classify_signs():
    assert classify(3.7, 1e-9) == WINNING
    assert classify(-3.7, 1e-9) == LOSING
    assert classify(0.0, 1e-9) == NEUTRAL
    assert classify(5e-10, 1e-9) == NEUTRAL
    with pytest.raises(ValueError):
        classify(1.0, -1.0)


def test_grid_axis_closed_endpoints():
    ax = GridAxis("theta_a", -np.pi, np.pi, 5)
    v = ax.values()
    assert v[0] == -np.pi and v[-1] == np.pi
    with pytest.raises(ValueError):
        GridAxis("theta_a", 0, 1, 1)


def test_grid_axis_rejects_a_non_integer_count():
    with pytest.raises(ValueError, match=r"'theta_b_minus' needs an integer count"):
        GridAxis("theta_b_minus", -1, 1, 3.0)
    assert GridAxis("theta_b_minus", -1, 1, np.int64(3)).values().tolist() == [-1, 0, 1]


def test_schedule_template_binding_check():
    tpl = ScheduleTemplate("composite", m=2, n=1)
    with pytest.raises(ConfigError):
        tpl({"theta_a": 1.0})  # tanh endpoint angles unbound
    sched = tpl({"theta_a": 1.0, "theta_b_minus": 0.1, "theta_b_plus": 0.2})
    assert sched.m == 2 and sched.n == 1


def coin_grid(schedule, count=5, steps=12, n=31, **kwargs):
    return GridSpec(
        axis1=GridAxis("theta_b_minus", -np.pi, np.pi, count),
        axis2=GridAxis("theta_b_plus", -np.pi, np.pi, count),
        schedule=schedule,
        steps=steps,
        geometry=LatticeGeometry(n),
        initial=SPIN_DOWN,
        fixed={"theta_a": np.pi / 2},
        **kwargs,
    )


def test_sweep_requires_template_for_coin_axes():
    with pytest.raises(ConfigError):
        sweep_coin_params(coin_grid(Single(UniformRotation(1.0))))


def test_sweep_rejects_unknown_axis_name():
    grid = coin_grid(ScheduleTemplate("single_b"))
    grid.axis1 = GridAxis("phi", 0, 1, 3)
    with pytest.raises(ConfigError):
        sweep_coin_params(grid)


def test_sweep_unbound_parameter_is_config_error():
    grid = coin_grid(ScheduleTemplate("composite", m=2, n=1))
    grid.fixed = {}  # drop theta_a
    with pytest.raises(ConfigError):
        sweep_coin_params(grid)


def test_degenerate_grid_matches_uniform_walk():
    # with theta_b- = theta_b+ = theta the tanh coin is uniform; check one cell
    grid = coin_grid(ScheduleTemplate("single_b"), count=3)
    res = sweep_coin_params(grid)
    g = grid.geometry
    for k, theta in enumerate(res.axis1_values):
        ref = run(
            WalkerState.localized(g, SPIN_DOWN, 0),
            Single(UniformRotation(theta if theta < 2 * np.pi else theta - 4 * np.pi)),
            grid.steps,
        )
        assert res.expectation[k, k] == pytest.approx(ref.expectation[-1], abs=1e-12)


def test_sweep_matrix_shape_and_bounds():
    res = sweep_coin_params(coin_grid(ScheduleTemplate("composite", m=2, n=1)))
    assert res.expectation.shape == (5, 5)
    assert res.classification.shape == (5, 5)
    assert np.all(np.isfinite(res.expectation))
    assert np.all(np.abs(res.expectation) <= 12.0)


def test_sweep_deterministic_repeat():
    grid = coin_grid(ScheduleTemplate("composite", m=2, n=1))
    r1 = sweep_coin_params(grid)
    r2 = sweep_coin_params(grid)
    assert np.array_equal(r1.expectation, r2.expectation)
    assert np.array_equal(r1.classification, r2.classification)


def bloch_grid(schedule, count_theta=3, count_phi=4, steps=10, n=21, **kwargs):
    return GridSpec(
        axis1=GridAxis("theta", 0.0, np.pi, count_theta),
        axis2=GridAxis("phi", 0.0, 2 * np.pi, count_phi),
        schedule=schedule,
        steps=steps,
        geometry=LatticeGeometry(n),
        **kwargs,
    )


def test_initial_sweep_rejects_template():
    with pytest.raises(ConfigError):
        sweep_initial_state(bloch_grid(ScheduleTemplate("single_b")))


def test_template_has_no_single_a_family():
    # a uniform coin alone reads only theta_a, so it has no plane to sweep
    with pytest.raises(ValueError, match="single_a"):
        ScheduleTemplate("single_a")


def test_initial_sweep_rejects_coin_axes():
    grid = bloch_grid(Single(UniformRotation(np.pi / 2)))
    grid.axis1 = GridAxis("theta_a", 0, 1, 3)
    with pytest.raises(ConfigError):
        sweep_initial_state(grid)


def test_initial_sweep_pole_rows_phi_independent():
    res = sweep_initial_state(bloch_grid(Single(UniformRotation(np.pi / 2))))
    # axis1 holds theta; rows at theta=0 and theta=pi must not depend on phi
    for row in (0, res.expectation.shape[0] - 1):
        spread = np.ptp(res.expectation[row])
        assert spread < 1e-10


def test_initial_sweep_stochastic_points_reproducible():
    sched = AlternatingEvenOdd(RandomPhaseAlpha(), RandomPhaseBeta())
    grid = bloch_grid(sched, master_seed=6)
    r1 = sweep_initial_state(grid)
    r2 = sweep_initial_state(grid)
    assert np.array_equal(r1.expectation, r2.expectation)
    # neighboring points use distinct derived streams
    assert r1.expectation[1, 0] != r1.expectation[1, 1]


def test_mirror_property_on_coarse_coin_grid():
    # negating all angles and spin-swapping the start mirrors the matrix
    from parrondoqw import BlochCoinState

    up_start = BlochCoinState(theta=0.0)  # spin-up is the mirror of spin-down
    base = coin_grid(ScheduleTemplate("composite", m=2, n=1), count=3, steps=8, n=21)
    res = sweep_coin_params(base)
    mirrored = GridSpec(
        axis1=GridAxis("theta_b_minus", -np.pi, np.pi, 3),
        axis2=GridAxis("theta_b_plus", -np.pi, np.pi, 3),
        schedule=ScheduleTemplate("composite", m=2, n=1),
        steps=8,
        geometry=LatticeGeometry(21),
        initial=up_start,
        fixed={"theta_a": -np.pi / 2},
    )
    res_m = sweep_coin_params(mirrored)
    # (tm, tp) -> (-tp, -tm) maps grid cell (i, j) to (count-1-j, count-1-i)
    want = -res.expectation[::-1, ::-1].T
    assert np.allclose(res_m.expectation, want, atol=1e-10)


def test_bad_axis_range_fails_before_any_point_runs(monkeypatch):
    # theta_a = 7 is outside [-2*pi, 2*pi); only the upper corner shows it
    grid = coin_grid(ScheduleTemplate("composite", m=2, n=1))
    grid.axis1 = GridAxis("theta_a", 0.0, 7.0, 3)
    grid.fixed = {"theta_b_minus": 0.5}

    def no_run(*args, **kwargs):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr("parrondoqw.sweep.evolve_rows", no_run)
    with pytest.raises(ValueError, match="theta_a=7.0"):
        sweep_coin_params(grid)
    bloch = bloch_grid(Single(UniformRotation(np.pi / 2)))
    bloch.axis1 = GridAxis("theta", 0.0, 4.0, 3)
    with pytest.raises(ValueError, match="theta=4.0"):
        sweep_initial_state(bloch)


def test_a_plain_callable_schedule_fails_before_any_point_runs(monkeypatch):
    # only a ScheduleTemplate builds a schedule per point: every batch has one shape
    def no_run(*args, **kwargs):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr("parrondoqw.sweep.evolve_rows", no_run)
    grid = coin_grid(lambda params: ScheduleTemplate("composite", m=2, n=1)(params))
    for check in (check_grid, sweep_coin_params, sweep_initial_state):
        with pytest.raises(ConfigError, match="a ScheduleTemplate or a fixed schedule"):
            check(grid)


def test_axis_the_template_never_reads_fails_before_any_point_runs(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr("parrondoqw.sweep.evolve_rows", no_run)
    # single_b has no uniform coin: every theta_a would give the same walk
    grid = coin_grid(ScheduleTemplate("single_b"))
    grid.axis1 = GridAxis("theta_a", -np.pi, np.pi, 3)
    grid.fixed = {"theta_b_minus": 0.5}
    with pytest.raises(ConfigError, match="two of \\('theta_b_minus', 'theta_b_plus'\\)"):
        sweep_coin_params(grid)



FIXED_INTERLEAVED = Composite(UniformRotation(1.0), UniformRotation(0.5), 2, 1, True)
SINGLE_B = ScheduleTemplate("single_b")


@pytest.mark.parametrize("grid, sweep, error", [
    pytest.param(coin_grid(SINGLE_B, steps=30, n=41), sweep_coin_params, GeometryTooSmallError,
                 id="light_cone"),
    pytest.param(bloch_grid(FIXED_INTERLEAVED, steps=8, n=41), sweep_initial_state,
                 GeometryTooSmallError, id="interleaved_light_cone"),
    pytest.param(coin_grid(SINGLE_B, n=41, x0=0.5), sweep_coin_params, InvalidPositionError,
                 id="x0_not_an_integer"),
    pytest.param(coin_grid(SINGLE_B, n=41, x0=30), sweep_coin_params, InvalidPositionError,
                 id="x0_off_the_lattice"),
    pytest.param(bloch_grid(Single(RandomPhaseAlpha())), sweep_initial_state,
                 MissingRandomnessError, id="no_master_seed"),
])
def test_a_grid_whose_walks_cannot_run_fails_before_any_point_runs(grid, sweep, error,
                                                                   monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr("parrondoqw.sweep.evolve_rows", no_run)
    for check in (check_grid, sweep):
        with pytest.raises(error):
            check(grid)
