import numpy as np
import pytest

from parrondoqw import (
    LOSING,
    NEUTRAL,
    SPIN_DOWN,
    WINNING,
    AlternatingEvenOdd,
    BlochCoinState,
    Composite,
    FieldError,
    GeneralCoin,
    GeometryTooSmallError,
    GridAxis,
    GridSpec,
    InvalidPositionError,
    LatticeGeometry,
    MissingRandomnessError,
    ProbabilisticChoice,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    ScheduleTemplate,
    Single,
    SiteTanhRotation,
    UniformRotation,
    WalkerState,
    classify,
    run,
    sweep_coin_params,
    sweep_initial_state,
    with_derived_seeds,
)
from parrondoqw import evolution
from parrondoqw import sweep as sweep_module
from parrondoqw.sweep import check_grid


def test_classify_signs():
    assert classify(3.7, 1e-9) == WINNING
    assert classify(-3.7, 1e-9) == LOSING
    assert classify(0.0, 1e-9) == NEUTRAL
    assert classify(5e-10, 1e-9) == NEUTRAL
    with pytest.raises(ValueError):
        classify(1.0, -1.0)
    for tolerance in (np.nan, np.inf):  # nan once called every point neutral
        with pytest.raises(FieldError, match="^tie_tolerance must lie in"):
            classify(5.0, tolerance)


def test_classify_of_an_array_is_classify_of_each_cell():
    tie = 1e-9
    cells = np.array([[tie, -tie, np.nextafter(tie, 1), np.nextafter(-tie, -1)],
                      [np.nan, 0.0, -0.0, np.inf], [-np.inf, 3.7, -3.7, 5e-10]])
    classes = classify(cells, tie)
    assert classes.shape == cells.shape and classes.dtype == object
    for cell, name in zip(cells.flat, classes.flat):
        own = classify(float(cell), tie)
        assert type(own) is str and name == own
    assert classify(np.float64(np.nan), tie) == NEUTRAL
    assert classes.tolist()[0] == [NEUTRAL, NEUTRAL, WINNING, LOSING]


def test_grid_axis_closed_endpoints():
    ax = GridAxis("theta_a", -np.pi, np.pi, 5)
    v = ax.values()
    assert v[0] == -np.pi and v[-1] == np.pi
    with pytest.raises(ValueError):
        GridAxis("theta_a", 0, 1, 1)


def test_grid_axis_rejects_a_non_integer_count():
    with pytest.raises(FieldError,
                       match=r"^count must be an integer in \[2, 1001\], got 3.0$"):
        GridAxis("theta_b_minus", -1, 1, 3.0)
    assert GridAxis("theta_b_minus", -1, 1, np.int64(3)).values().tolist() == [-1, 0, 1]


def test_schedule_template_binding_check():
    tpl = ScheduleTemplate("composite", m=2, n=1)
    missing = "missing parameter\\(s\\) theta_b_minus, theta_b_plus;"
    with pytest.raises(FieldError, match=missing) as caught:
        tpl({"theta_a": 1.0})  # tanh endpoint angles unbound
    assert caught.value.field == "fixed.theta_b_minus"
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
    with pytest.raises(FieldError, match="need a schedule template") as caught:
        sweep_coin_params(coin_grid(Single(UniformRotation(1.0))))
    assert caught.value.field == "schedule"


def test_sweep_rejects_unknown_axis_name():
    grid = coin_grid(ScheduleTemplate("single_b"))
    grid.axis1 = GridAxis("phi", 0, 1, 3)
    with pytest.raises(FieldError,
                       match="^axis1.name and axis2.name must be two of") as caught:
        sweep_coin_params(grid)
    assert caught.value.field == "axis1.name"


def test_sweep_unbound_parameter_names_its_fixed_field():
    grid = coin_grid(ScheduleTemplate("composite", m=2, n=1))
    grid.fixed = {}  # drop theta_a
    with pytest.raises(FieldError, match="missing parameter\\(s\\) theta_a;") as caught:
        sweep_coin_params(grid)
    assert caught.value.field == "fixed.theta_a"


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
    with pytest.raises(FieldError, match="need a fully fixed schedule") as caught:
        sweep_initial_state(bloch_grid(ScheduleTemplate("single_b")))
    assert caught.value.field == "schedule"


def test_template_has_no_single_a_family():
    # a uniform coin alone reads only theta_a, so it has no plane to sweep
    with pytest.raises(ValueError, match="single_a"):
        ScheduleTemplate("single_a")


def test_initial_sweep_rejects_coin_axes():
    grid = bloch_grid(Single(UniformRotation(np.pi / 2)))
    grid.axis1 = GridAxis("theta_a", 0, 1, 3)
    with pytest.raises(FieldError,
                       match="^axis1.name and axis2.name must be two of") as caught:
        sweep_initial_state(grid)
    assert caught.value.field == "axis1.name"


def test_initial_sweep_pole_rows_phi_independent():
    res = sweep_initial_state(bloch_grid(Single(UniformRotation(np.pi / 2))))
    # axis1 holds theta; rows at theta=0 and theta=pi must not depend on phi
    for row in (0, res.expectation.shape[0] - 1):
        spread = np.ptp(res.expectation[row])
        assert spread < 1e-10


def phi_just_below_zero(schedule, **kwargs):
    # linspace puts -1.1e-16 at index 10, whose % 2*pi rounds to 2*pi, off the [0, 2*pi)
    # range of BlochCoinState: once a FieldError mid-run
    grid = bloch_grid(schedule, **kwargs)
    grid.axis2 = GridAxis("phi", -1.0, 0.7, 18)
    phi = grid.axis2.values()[10]
    assert -1e-15 < phi < 0 and phi % (2 * np.pi) == 2 * np.pi
    return grid


def test_a_phi_just_below_zero_is_the_point_at_phi_zero():
    grid = phi_just_below_zero(Single(UniformRotation(np.pi / 2)))
    res = sweep_initial_state(grid)
    grid.axis2 = GridAxis("phi", 0.0, 0.7, 2)  # the same sweep's phi = 0 column
    at_zero = sweep_initial_state(grid).expectation[:, 0]
    assert res.expectation[:, 10].tobytes() == at_zero.tobytes()
    assert res.expectation[1, 10] != res.expectation[1, 0]  # at theta = pi/2, phi matters


def test_a_phi_just_below_zero_is_the_point_at_phi_zero_on_a_seeded_grid():
    schedule = ProbabilisticChoice(UniformRotation(np.pi / 2), RandomPhaseAlpha(), 0.5)
    grid = phi_just_below_zero(schedule, master_seed=4)
    res = sweep_initial_state(grid)
    for i, theta in enumerate(res.axis1_values):
        start = WalkerState.localized(grid.geometry, BlochCoinState(theta, 0.0))
        own = with_derived_seeds(schedule, 4, i * grid.axis2.count + 10)
        assert res.expectation[i, 10] == run(start, own, grid.steps).expectation[-1]
    assert res.expectation[1, 10] != res.expectation[1, 0]


TANH = SiteTanhRotation(-np.pi / 8, np.pi / 4)
COMPLEX = GeneralCoin(0.3, 1.0, 2.0)
# a schedule of each kind, with real coins and with complex ones; the choice and the
# random-phase coins carry seeds of their own, so every point of a grid runs the same walk
SHARED = {
    "single_real": Single(UniformRotation(np.pi / 2)),
    "single_complex": Single(COMPLEX),
    "composite_real": Composite(UniformRotation(np.pi / 2), TANH, 2, 2),
    "composite_complex": Composite(COMPLEX, TANH, 2, 1),
    "interleaved_real": Composite(UniformRotation(1.0), TANH, 2, 1, True),
    "interleaved_complex": Composite(COMPLEX, UniformRotation(0.5), 1, 2, True),
    "alternating_real": AlternatingEvenOdd(UniformRotation(1.0), TANH),
    "alternating_complex": AlternatingEvenOdd(COMPLEX, TANH),
    "choice_real": ProbabilisticChoice(UniformRotation(np.pi / 2), TANH, 0.5, seed=5),
    "choice_complex": ProbabilisticChoice(COMPLEX, TANH, 0.3, seed=6),
    "random_phase": AlternatingEvenOdd(RandomPhaseAlpha(seed=3), RandomPhaseBeta(seed=4)),
    "random_phase_choice": ProbabilisticChoice(RandomPhaseAlpha(seed=7), TANH, 0.5, seed=8),
}


@pytest.mark.parametrize("x0", [0, 3])
@pytest.mark.parametrize("schedule", SHARED.values(), ids=SHARED.keys())
def test_a_shared_schedule_point_is_its_own_run_to_rounding(schedule, x0, monkeypatch):
    paths = []
    for name in ("_shared", "map_batches"):
        original = getattr(sweep_module, name)
        monkeypatch.setattr(sweep_module, name,
                            lambda *a, f=original, n=name: paths.append(n) or f(*a))
    # phi runs past 2*pi and below 0: each point's spinor is that of its wrapped phi
    grid = bloch_grid(schedule, count_theta=4, count_phi=5, steps=12, n=81, x0=x0)
    grid.axis2 = GridAxis("phi", -1.0, 7.0, 5)
    res = sweep_initial_state(grid)
    assert paths == ["_shared"]
    for i, theta in enumerate(res.axis1_values):
        for j, phi in enumerate(res.axis2_values):
            start = WalkerState.localized(grid.geometry,
                                          BlochCoinState(theta, phi % (2 * np.pi)), x0)
            own = run(start, schedule, grid.steps).expectation[-1]
            assert abs(res.expectation[i, j] - own) <= 1e-12 * max(1.0, abs(own))
    again = sweep_initial_state(grid, workers=2)
    assert again.expectation.tobytes() == res.expectation.tobytes()
    # a master seed derives each point's seeds where the schedule has seed slots
    seeded = bloch_grid(schedule, steps=12, n=81, x0=x0, master_seed=2)
    paths.clear()
    sweep_initial_state(seeded)
    assert paths == (["map_batches"] if evolution._seed_slots(schedule) else ["_shared"])


def test_the_spinors_of_a_plane_are_each_points_own_byte_for_byte():
    grid = bloch_grid(SHARED["single_real"], count_theta=101, count_phi=101)
    grid.axis2 = GridAxis("phi", -1.0, 7.0, 101)
    schedules, spinors = sweep_module._points(grid, np.arange(101 * 101))
    assert schedules == [grid.schedule] * 101 * 101 and spinors.shape == (2, 101 * 101)
    thetas, phis = np.meshgrid(grid.axis1.values(), grid.axis2.values(), indexing="ij")
    own = [BlochCoinState(theta, phi % (2 * np.pi)).spinor()
           for theta, phi in zip(thetas.flat, phis.flat)]
    assert spinors.tobytes() == np.array(own).T.tobytes()


@pytest.mark.parametrize("schedule, master_seed, path", [
    (AlternatingEvenOdd(RandomPhaseAlpha(), RandomPhaseBeta()), 9, "map_batches"),
    (SHARED["random_phase"], None, "_shared"),
], ids=["seeded", "shared"])
def test_an_initial_state_sweep_builds_no_bloch_state_per_point(schedule, master_seed, path,
                                                                monkeypatch):
    grid = bloch_grid(schedule, count_theta=5, count_phi=5, master_seed=master_seed)
    built, paths = [], []
    monkeypatch.setattr(BlochCoinState, "__post_init__", built.append)
    for name in ("_shared", "map_batches"):
        original = getattr(sweep_module, name)
        monkeypatch.setattr(sweep_module, name,
                            lambda *a, f=original, n=name: paths.append(n) or f(*a))
    assert sweep_initial_state(grid).expectation.shape == (5, 5)
    assert paths == [path] and built == []


def test_every_sweep_path_checks_workers():
    # a coin sweep, a shared-schedule plane and a plane of per-point seeds
    cases = [(sweep_coin_params, coin_grid(ScheduleTemplate("single_b"))),
             (sweep_initial_state, bloch_grid(SHARED["composite_real"])),
             (sweep_initial_state, bloch_grid(SHARED["random_phase"], master_seed=1))]
    for sweep, grid in cases:
        for workers in (0, -1, True):
            with pytest.raises(FieldError, match="^workers must be an integer >= 1") as caught:
                sweep(grid, workers=workers)
            assert caught.value.field == "workers"


def test_an_axis_whose_span_overflows_is_rejected():
    with pytest.raises(FieldError, match=r"^lower must be finite and at most 1e307 in size"):
        GridAxis("phi", -1e308, 1e308, 3)
    assert np.isfinite(GridAxis("phi", -1e307, 1e307, 3).values()).all()


def test_initial_sweep_stochastic_points_reproducible():
    sched = AlternatingEvenOdd(RandomPhaseAlpha(), RandomPhaseBeta())
    grid = bloch_grid(sched, master_seed=6)
    r1 = sweep_initial_state(grid)
    r2 = sweep_initial_state(grid)
    assert np.array_equal(r1.expectation, r2.expectation)
    # neighboring points use distinct derived streams
    assert r1.expectation[1, 0] != r1.expectation[1, 1]


@pytest.mark.parametrize("schedule", [
    # q = 0: the choice and the random-phase coin a are seed slots no step reads
    ProbabilisticChoice(RandomPhaseAlpha(), UniformRotation(np.pi / 2), 0.0),
    # q = 1: the random-phase coin b is a seed slot no step reads
    ProbabilisticChoice(UniformRotation(np.pi / 2), RandomPhaseBeta(), 1.0),
])
def test_initial_sweep_derives_seeds_for_slots_no_step_reads(schedule):
    # as an ensemble does: every slot needs a seed, read or not
    grid = bloch_grid(schedule, master_seed=3)
    result = sweep_initial_state(grid)
    count = grid.axis2.count
    for i, value in enumerate(result.expectation.flat):
        theta, phi = result.axis1_values[i // count], result.axis2_values[i % count]
        start = WalkerState.localized(grid.geometry, BlochCoinState(theta, phi % (2 * np.pi)))
        own = run(start, with_derived_seeds(schedule, 3, i), grid.steps)
        assert value == own.expectation[-1]


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

    monkeypatch.setattr("parrondoqw.sweep._walk", no_run)
    message = r"^axis1.upper must lie in \[-2\*pi, 2\*pi\), got 7.0$"
    with pytest.raises(FieldError, match=message) as caught:
        sweep_coin_params(grid)
    assert caught.value.field == "axis1.upper"
    bloch = bloch_grid(Single(UniformRotation(np.pi / 2)))
    bloch.axis1 = GridAxis("theta", 0.0, 4.0, 3)
    with pytest.raises(FieldError, match=r"^axis1.upper must lie in \[0, pi\], got 4.0$"):
        sweep_initial_state(bloch)


def test_a_plain_callable_schedule_fails_before_any_point_runs(monkeypatch):
    # only a ScheduleTemplate builds a schedule per point: every batch has one shape
    def no_run(*args, **kwargs):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr("parrondoqw.sweep._walk", no_run)
    grid = coin_grid(lambda params: ScheduleTemplate("composite", m=2, n=1)(params))
    for check in (check_grid, sweep_coin_params, sweep_initial_state):
        with pytest.raises(FieldError,
                           match="a ScheduleTemplate or a fixed schedule") as caught:
            check(grid)
        assert caught.value.field == "schedule"


def test_axis_the_template_never_reads_fails_before_any_point_runs(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr("parrondoqw.sweep._walk", no_run)
    # single_b has no uniform coin: every theta_a would give the same walk
    grid = coin_grid(ScheduleTemplate("single_b"))
    grid.axis1 = GridAxis("theta_a", -np.pi, np.pi, 3)
    grid.fixed = {"theta_b_minus": 0.5}
    with pytest.raises(FieldError, match="two of \\('theta_b_minus', 'theta_b_plus'\\)"
                       ) as caught:
        sweep_coin_params(grid)
    assert caught.value.field == "axis1.name"



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
    pytest.param(coin_grid(SINGLE_B, steps=2.5, n=41), sweep_coin_params, ValueError,
                 id="fractional_steps"),
    pytest.param(coin_grid(SINGLE_B, steps=-3, n=41), sweep_coin_params, ValueError,
                 id="negative_steps"),
    # a master seed is checked even where no point derives a seed from it
    pytest.param(coin_grid(SINGLE_B, n=41, master_seed=2.5), sweep_coin_params, ValueError,
                 id="fractional_master_seed"),
    pytest.param(bloch_grid(FIXED_INTERLEAVED, steps=3, master_seed=-1), sweep_initial_state,
                 ValueError, id="negative_master_seed"),
    pytest.param(bloch_grid(Single(RandomPhaseAlpha()), master_seed=True), sweep_initial_state,
                 ValueError, id="bool_master_seed"),
    # a tolerance no expectation can exceed, or none can fall within
    pytest.param(coin_grid(SINGLE_B, n=41, tie_tolerance=np.nan), sweep_coin_params,
                 FieldError, id="nan_tie_tolerance"),
    pytest.param(bloch_grid(FIXED_INTERLEAVED, steps=3, tie_tolerance=np.inf),
                 sweep_initial_state, FieldError, id="inf_tie_tolerance"),
])
def test_a_grid_whose_walks_cannot_run_fails_before_any_point_runs(grid, sweep, error,
                                                                   monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr("parrondoqw.sweep._walk", no_run)
    for check in (check_grid, sweep):
        with pytest.raises(error):
            check(grid)
