import functools
import inspect
import re
from dataclasses import replace

import numpy as np
import pytest

from parrondoqw import (
    SPIN_DOWN,
    SPIN_UP,
    SYMMETRIC,
    AlternatingEvenOdd,
    BlochCoinState,
    BoundaryLeakageError,
    Composite,
    ConfigError,
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
    RunConfig,
    ScheduleTemplate,
    Single,
    SiteTanhRotation,
    StepStream,
    UniformRotation,
    WalkerState,
    apply_coin,
    child_seed,
    classical_walk,
    classify,
    ensemble_expectation,
    is_stochastic_schedule,
    run,
    shift,
    step,
    sweep_coin_params,
    sweep_initial_state,
    variance_scaling_exponent,
    with_derived_seeds,
)
from parrondoqw import evolution
from parrondoqw.coins import general_coin_matrix, realize, rotation_matrix
from parrondoqw.config import config_from_flat, validate
from parrondoqw.evolution import collect_seeds
from parrondoqw.sweep import check_grid

from pathsum import _stages, path_sum_arrays
from walks import evolve


def down_at_origin(n=7):
    return WalkerState.localized(LatticeGeometry(n), SPIN_DOWN, 0)


def random_state(geometry, rng, margin=2):
    """Normalized random state supported away from the boundary."""
    n = geometry.n_sites
    up = np.zeros(n, dtype=complex)
    down = np.zeros(n, dtype=complex)
    sl = slice(margin, n - margin)
    up[sl] = rng.normal(size=n - 2 * margin) + 1j * rng.normal(size=n - 2 * margin)
    down[sl] = rng.normal(size=n - 2 * margin) + 1j * rng.normal(size=n - 2 * margin)
    w = np.sqrt(np.sum(np.abs(up) ** 2 + np.abs(down) ** 2))
    return WalkerState(geometry, up / w, down / w)


# ---------------------------------------------------------------------------
# apply_coin / shift / step basics
# ---------------------------------------------------------------------------


def test_identity_coin_leaves_state():
    s = down_at_origin()
    s2 = apply_coin(s, UniformRotation(0.0))
    assert np.allclose(s2.amp_up, s.amp_up, atol=1e-15)
    assert np.allclose(s2.amp_down, s.amp_down, atol=1e-15)
    assert s2.time_step == s.time_step


def test_quarter_rotation_amplitudes():
    s = apply_coin(down_at_origin(), UniformRotation(np.pi / 2))
    i = s.geometry.index_of(0)
    assert s.amp_up[i] == pytest.approx(-1 / np.sqrt(2), abs=1e-15)
    assert s.amp_down[i] == pytest.approx(1 / np.sqrt(2), abs=1e-15)


def test_degenerate_tanh_equals_uniform():
    rng = np.random.default_rng(0)
    g = LatticeGeometry(11)
    s = random_state(g, rng)
    theta = 0.83
    a = apply_coin(s, SiteTanhRotation(theta, theta))
    b = apply_coin(s, UniformRotation(theta))
    assert np.allclose(a.amp_up, b.amp_up, atol=1e-14)
    assert np.allclose(a.amp_down, b.amp_down, atol=1e-14)


@pytest.mark.parametrize("spec", [UniformRotation(1.0), RandomPhaseAlpha(seed=3)])
def test_apply_coin_rejects_negative_t(spec):
    with pytest.raises(ValueError, match=r"^t must be an integer >= 0, got -1$"):
        apply_coin(down_at_origin(), spec, t=-1)


def test_shift_moves_spins_opposite_ways():
    g = LatticeGeometry(5)
    up = shift(WalkerState.localized(g, SPIN_UP, 0))
    assert up.amp_up[g.index_of(1)] == pytest.approx(1.0, abs=1e-15)
    down = shift(WalkerState.localized(g, SPIN_DOWN, 0))
    assert down.amp_down[g.index_of(-1)] == pytest.approx(1.0, abs=1e-15)


def test_shift_is_linear_on_superpositions():
    g = LatticeGeometry(5)
    s = shift(WalkerState.localized(g, SYMMETRIC, 0))
    assert s.amp_up[g.index_of(1)] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert s.amp_down[g.index_of(-1)] == pytest.approx(1j / np.sqrt(2), abs=1e-15)
    assert s.norm() == pytest.approx(1.0, abs=1e-15)


def test_shift_boundary_leakage():
    g = LatticeGeometry(5)
    s = WalkerState.localized(g, SPIN_UP, 2)  # on the right edge, moving right
    with pytest.raises(BoundaryLeakageError):
        shift(s)


def edge_state(n, edge, amplitude):
    """Spin-down at the origin plus ``amplitude`` on an edge site, in the spin that
    the shift moves off the lattice: up on the right edge, down on the left."""
    s = WalkerState.localized(LatticeGeometry(n), SPIN_DOWN, 0)
    up, down = s.amp_up.copy(), s.amp_down.copy()
    if edge == "right":
        up[-1] = amplitude
    else:
        down[0] = amplitude
    return WalkerState(s.geometry, up, down, 3)


# n = 11: the edges have the other parity than the origin (every column kept);
# n = 13: the same parity (every other column kept)
EDGES = [(n, edge) for n in (11, 13) for edge in ("left", "right")]
# coins that keep |up| and |down| at each site: what leaves is the edge amplitude
DIAGONAL = [Single(UniformRotation(0.0)), Single(GeneralCoin(1.0, 0.5, 1.0))]


@pytest.mark.parametrize("n,edge", EDGES)
@pytest.mark.parametrize("schedule", DIAGONAL + [Single(RandomPhaseAlpha(seed=4))])
def test_step_raises_on_edge_amplitude_above_tolerance(n, edge, schedule):
    # 3e-14, or 2.1e-14 of it after the mixing phase coin, leaves the lattice
    with pytest.raises(BoundaryLeakageError, match="lattice edge"):
        step(edge_state(n, edge, 3e-14), schedule)


@pytest.mark.parametrize("n,edge", EDGES)
@pytest.mark.parametrize("schedule", DIAGONAL)
def test_step_drops_edge_amplitude_within_tolerance(n, edge, schedule):
    start = edge_state(n, edge, 1e-14)
    stepped, clean = step(start, schedule), step(edge_state(n, edge, 0.0), schedule)
    # the step is that of the start without the edge amplitude, so the norm it
    # lost is that amplitude's weight
    assert stepped.amp_up.tobytes() == clean.amp_up.tobytes()
    assert stepped.amp_down.tobytes() == clean.amp_down.tobytes()
    assert 0.0 < abs(start.amp_up[-1]) ** 2 + abs(start.amp_down[0]) ** 2 <= 1e-28
    assert stepped.time_step == 4


def test_step_identity_coin_drifts_down_left():
    s = step(down_at_origin(), Single(UniformRotation(0.0)))
    assert s.position_expectation() == pytest.approx(-1.0, abs=1e-14)
    assert s.time_step == 1


def test_three_step_expectation():
    traj = run(down_at_origin(9), Single(UniformRotation(np.pi / 2)), 3)
    assert traj.expectation[-1] == pytest.approx(-0.5, abs=1e-12)


def test_composite_same_axis_rotations_collapse():
    # A applied m times then B n times equals a single rotation by m*ta + n*tb
    g = LatticeGeometry(21)
    init = WalkerState.localized(g, SYMMETRIC, 0)
    ta, tb, m, n = 0.9, -0.35, 2, 1
    comp = run(init, Composite(UniformRotation(ta), UniformRotation(tb), m, n), 8)
    single = run(init, Single(UniformRotation(m * ta + n * tb)), 8)
    assert np.allclose(comp.expectation, single.expectation, atol=1e-12)
    f1, f2 = comp.final_state, single.final_state
    assert np.allclose(f1.amp_up, f2.amp_up, atol=1e-12)
    assert np.allclose(f1.amp_down, f2.amp_down, atol=1e-12)


def test_alternation_starts_with_coin_a_doubled():
    ta, tb = 0.7, 1.9
    alt = step(
        down_at_origin(), AlternatingEvenOdd(UniformRotation(ta), UniformRotation(tb))
    )
    want = step(down_at_origin(), Single(UniformRotation(2 * ta)))
    assert np.allclose(alt.amp_up, want.amp_up, atol=1e-14)
    assert np.allclose(alt.amp_down, want.amp_down, atol=1e-14)
    # the second step (t=1) must use coin b twice
    alt2 = step(alt, AlternatingEvenOdd(UniformRotation(ta), UniformRotation(tb)))
    want2 = step(want, Single(UniformRotation(2 * tb)))
    assert np.allclose(alt2.amp_down, want2.amp_down, atol=1e-14)


@pytest.mark.parametrize("q,which", [(1.0, "a"), (0.0, "b")])
def test_probabilistic_choice_degenerate_endpoints(q, which):
    g = LatticeGeometry(15)
    init = WalkerState.localized(g, SPIN_DOWN, 0)
    a, b = UniformRotation(np.pi / 2), SiteTanhRotation(-np.pi / 8, np.pi / 4)
    mix = run(init, ProbabilisticChoice(a, b, q, seed=4), 7)
    pure = run(init, Single(a if which == "a" else b), 7)
    assert np.array_equal(mix.expectation, pure.expectation)


def test_probabilistic_choice_without_seed_raises():
    with pytest.raises(MissingRandomnessError):
        step(down_at_origin(), ProbabilisticChoice(
            UniformRotation(0.1), UniformRotation(0.2), 0.5))


def test_random_phase_schedule_without_seed_raises():
    with pytest.raises(MissingRandomnessError):
        step(down_at_origin(), Single(RandomPhaseAlpha()))


@pytest.mark.parametrize("q", [0.5, 0.0])
def test_unseeded_slot_fails_before_the_first_step(q, monkeypatch):
    # every slot needs a seed, even that of a coin the choice never picks
    schedule = ProbabilisticChoice(RandomPhaseAlpha(), UniformRotation(np.pi / 2), q, seed=0)
    with pytest.raises(MissingRandomnessError, match="slot 1"):
        step(down_at_origin(), schedule)

    def no_mix(*args, **kwargs):
        raise AssertionError("evolution started")

    monkeypatch.setattr(evolution, "_mix", no_mix)
    with pytest.raises(MissingRandomnessError, match="slot 1"):
        run(down_at_origin(41), schedule, 15)
    with pytest.raises(MissingRandomnessError, match="slot 1"):
        apply_coin(down_at_origin(), RandomPhaseAlpha())


# One defect each: (sites, steps, x0, seed of the walk's random-phase coin a), then the
# error and field every library path gives and the key a config's error starts with.
DEFECTS = {
    "light_cone": ((21, 11, 0, 1), GeometryTooSmallError, "sites", "sites"),
    "unseeded_slot": ((21, 5, 0, None), MissingRandomnessError, "spec.seed",
                      "schedule.a.seed"),
    "x0_off_the_lattice": ((21, 5, 30, 1), InvalidPositionError, "x0", "initial.x0"),
}


def _localized(g, x0):
    return WalkerState.localized(g, SPIN_DOWN, x0)


def _plane(g, steps, x0, schedule, bloch):
    names, ends = (("theta", "phi"), (np.pi, 2 * np.pi)) if bloch else (
        ("theta_b_minus", "theta_b_plus"), (np.pi, np.pi))
    axes = [GridAxis(name, 0.0, end, 2) for name, end in zip(names, ends)]
    return GridSpec(*axes, schedule, steps, g, x0=x0)


# Each path from (geometry, steps, x0, coin); the library's take the start as a state
# localized at x0 or as a grid's x0.
DEFECT_PATHS = {
    "run": lambda g, steps, x0, coin: run(_localized(g, x0), Single(coin), steps),
    "step": lambda g, steps, x0, coin: step(_localized(g, x0), Single(coin)),
    "ensemble_expectation": lambda g, steps, x0, coin: ensemble_expectation(
        _localized(g, x0), Single(coin), steps, 3, master_seed=1),
    "sweep_coin_params": lambda g, steps, x0, coin: sweep_coin_params(
        _plane(g, steps, x0, ScheduleTemplate("single_b"), bloch=False)),
    "sweep_initial_state": lambda g, steps, x0, coin: sweep_initial_state(
        _plane(g, steps, x0, Single(coin), bloch=True)),
    "apply_coin": lambda g, steps, x0, coin: apply_coin(_localized(g, x0), coin),
}
# Where a defect cannot arise: step clips its one step to the lattice and a coin moves
# nothing; an ensemble derives every slot's seed from its master seed, and no template
# coin draws; an ensemble config needs the top-level seed that derives every slot's.
NOT_A_PATH = {("light_cone", "step"), ("light_cone", "apply_coin"),
              ("unseeded_slot", "ensemble_expectation"),
              ("unseeded_slot", "sweep_coin_params"),
              ("unseeded_slot", "ensemble"), ("unseeded_slot", "sweep-coin")}


def _defect_flat(mode, sites, steps, x0, seed):
    flat = {"mode": mode, "sites": str(sites), "steps": str(steps), "initial.x0": str(x0)}
    if mode == "sweep-coin":
        return flat | {"sweep.family": "single_b", "grid.axis1.name": "theta_b_minus",
                       "grid.axis1.min": "0", "grid.axis1.max": "pi", "grid.axis1.count": "2",
                       "grid.axis2.name": "theta_b_plus", "grid.axis2.min": "0",
                       "grid.axis2.max": "pi", "grid.axis2.count": "2"}
    flat |= {"schedule.kind": "single", "schedule.a.kind": "random-alpha"}
    flat |= {} if seed is None else {"seed": str(seed)}
    if mode == "sweep-initial":
        flat |= {"grid.axis1.name": "theta", "grid.axis1.min": "0", "grid.axis1.max": "pi",
                 "grid.axis1.count": "2", "grid.axis2.name": "phi", "grid.axis2.min": "0",
                 "grid.axis2.max": "pi", "grid.axis2.count": "2"}
    return flat | ({"iterations": "3"} if mode == "ensemble" else {})


@pytest.mark.parametrize("defect,path", [
    (defect, path) for defect in DEFECTS
    for path in (*DEFECT_PATHS, "walk", "ensemble", "sweep-coin", "sweep-initial")
    if (defect, path) not in NOT_A_PATH])
def test_one_defect_gives_one_error_and_field_on_every_path(defect, path, monkeypatch):
    # every path raises before the first coin is applied, a start off the lattice where
    # the start is built (localized) and every other defect in the one pre-run check
    def no_mix(*args, **kwargs):
        raise AssertionError("evolution started")

    monkeypatch.setattr(evolution, "_mix", no_mix)
    (sites, steps, x0, seed), error, field, key = DEFECTS[defect]
    if path in DEFECT_PATHS:
        with pytest.raises(error) as raised:
            DEFECT_PATHS[path](LatticeGeometry(sites), steps, x0, RandomPhaseAlpha(seed))
        assert type(raised.value) is error and raised.value.field == field
        assert isinstance(raised.value, FieldError)
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            validate(config_from_flat(_defect_flat(path, sites, steps, x0, seed)))


def test_a_zero_step_call_builds_no_plan(monkeypatch):
    # no step reads the plan, so a 0-step call draws no phases or picks and stacks no table
    rows = [ProbabilisticChoice(RandomPhaseAlpha(seed=i), UniformRotation(1.0), 0.5, seed=i)
            for i in range(3)]
    start = down_at_origin(41)

    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(evolution, "_plan", no_plan)
    mean, var, up, down = evolve(start.amp_up[None], start.amp_down[None], rows, 0, 0,
                                 start.geometry)
    assert mean.shape == var.shape == (3, 1) and not mean.any() and not var.any()
    assert (up == start.amp_up).all() and (down == start.amp_down).all()
    assert run(start, rows[0], 0).final_state.amp_down.tobytes() == start.amp_down.tobytes()


def test_randomness_enters_only_through_seeds():
    for fn in (run, step, apply_coin, realize):
        assert "rng" not in inspect.signature(fn).parameters


SEEDED = [
    RandomPhaseAlpha, RandomPhaseBeta,
    functools.partial(ProbabilisticChoice, UniformRotation(0.1), UniformRotation(0.2), 0.5),
]


@pytest.mark.parametrize("make", SEEDED)
def test_negative_seed_is_rejected_at_construction(make):
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
        make(seed=-3)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, False])
def test_a_seed_that_is_not_an_integer_is_rejected(seed):
    # truncated, 1.5 would run as seed 1 while the run's metadata reports 1.5
    for make in SEEDED:
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
            make(seed=seed)
    for key in ((seed, 1), (2, seed)):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
            child_seed(*key)
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
        ensemble_expectation(down_at_origin(21), Single(RandomPhaseAlpha()), 5, 2, seed)


def test_a_numpy_integer_seed_is_accepted():
    assert StepStream(np.int64(3), 1).uniform(4) == StepStream(3, 1).uniform(4)
    assert child_seed(np.uint32(2), np.int64(1)) == child_seed(2, 1)
    runs = [run(down_at_origin(21), Single(RandomPhaseAlpha(seed=seed)), 8).expectation
            for seed in (np.int64(5), 5)]
    assert np.array_equal(*runs)


DESCRIBED_A, DESCRIBED_B = UniformRotation(0.3), SiteTanhRotation(-0.2, 0.7)


@pytest.mark.parametrize("schedule", [
    Single(DESCRIBED_B),
    Composite(DESCRIBED_A, DESCRIBED_B, 2, 1),
    Composite(DESCRIBED_A, DESCRIBED_B, 0, 2),
    Composite(DESCRIBED_A, DESCRIBED_B, 3, 0),
    Composite(DESCRIBED_A, DESCRIBED_B, 2, 1, interleaved=True),
    Composite(DESCRIBED_A, DESCRIBED_B, 0, 1, interleaved=True),
    Composite(DESCRIBED_A, DESCRIBED_B, 1, 0, interleaved=True),
    AlternatingEvenOdd(DESCRIBED_A, DESCRIBED_B),
], ids=["single", "composite_2_1", "composite_0_2", "composite_3_0", "interleaved_2_1",
        "interleaved_0_1", "interleaved_1_0", "alternating"])
@pytest.mark.parametrize("t", [0, 1])
def test_each_schedule_describes_the_step_the_oracle_applies(schedule, t):
    # the oracle derives its stages on its own; the kernel, reach and seed slots read
    # coins and order's stages, each its coins then one shift
    stages, interleaved = _stages(schedule, 1, t0=t)
    oracle = [(specs,) if interleaved else tuple(specs) for specs, _ in stages]
    described = [tuple(schedule.coins[i] for i in stage) for stage in schedule.order(t % 2)]
    assert described == oracle


def test_coin_application_preserves_norm():
    rng = np.random.default_rng(3)
    g = LatticeGeometry(13)
    s = random_state(g, rng)
    for spec in (
        UniformRotation(1.1),
        SiteTanhRotation(-0.5, 0.9),
        GeneralCoin(0.3, 1.0, 2.0),
        RandomPhaseAlpha(seed=8),
        RandomPhaseBeta(seed=8),
    ):
        out = apply_coin(s, spec, t=2)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# run(): trajectory contract and errors
# ---------------------------------------------------------------------------


def test_run_zero_steps():
    traj = run(down_at_origin(), Single(UniformRotation(1.0)), 0)
    assert len(traj.times) == 1
    assert traj.expectation[0] == pytest.approx(0.0)
    assert traj.final_state.time_step == 0


def test_run_geometry_too_small():
    with pytest.raises(GeometryTooSmallError):
        run(down_at_origin(5), Single(UniformRotation(1.0)), 3)


def test_run_series_lengths_and_final_norm():
    traj = run(down_at_origin(41), Single(UniformRotation(np.pi / 2)), 20, record_full=True)
    assert traj.times.shape == (21,)
    assert traj.expectation.shape == (21,)
    assert traj.variance.shape == (21,)
    assert traj.distributions.shape == (21, 41)
    assert np.allclose(traj.distributions.sum(axis=1), 1.0, atol=1e-12)
    assert abs(traj.final_state.norm() - 1.0) < 1e-12



def spread(n, sites, amps):
    """A normalized start with up then down amplitudes ``amps`` over ``sites``."""
    g = LatticeGeometry(n)
    up, down = np.zeros((2, n), dtype=complex)
    index = [g.index_of(x) for x in sites]
    up[index], down[index] = np.reshape(amps, (2, len(sites))) / np.linalg.norm(amps)
    return WalkerState(g, up, down)


TANH = SiteTanhRotation(-np.pi / 8, np.pi / 4)
CHOICE_SEEDED = ProbabilisticChoice(UniformRotation(np.pi / 2), TANH, 0.4, seed=5)
# (start, schedule, steps): real and complex starts, one occupied parity (stride 2) and
# both (stride 1), coins real and complex, and a shift after every coin
MOMENT_WALKS = {
    "real_stride_2": (down_at_origin(101), Composite(UniformRotation(np.pi / 2), TANH, 2, 1),
                      40),
    "complex_stride_2": (WalkerState.localized(LatticeGeometry(101), SYMMETRIC, 3),
                         CHOICE_SEEDED, 40),
    "real_stride_1": (spread(101, [-2, -1, 1], [0.3, -0.5, 0.2, 0.6, -0.1, 0.4]),
                      CHOICE_SEEDED, 40),
    "complex_stride_1": (spread(101, [0, 1], [0.3, 0.5j, -0.2, 0.6 + 0.1j]),
                         AlternatingEvenOdd(RandomPhaseAlpha(seed=3), RandomPhaseBeta(seed=4)),
                         40),
    "interleaved": (WalkerState.localized(LatticeGeometry(101), BlochCoinState(1.0, 2.0), -1),
                    Composite(GeneralCoin(0.4, 1.0, 0.3), TANH, 2, 1, interleaved=True), 12),
}


def assert_moments_of(distributions, positions, expectation, variance):
    """<X> and Var(X) against sum x P and sum x^2 P - mean^2 of P(x, t)."""
    mean = distributions @ positions
    assert np.max(np.abs(expectation - mean)) < 1e-12
    assert np.max(np.abs(variance - (distributions @ positions**2 - mean**2))) < 1e-12


@pytest.mark.parametrize("name", MOMENT_WALKS)
def test_moments_are_those_of_the_recorded_distributions(name):
    initial, schedule, steps = MOMENT_WALKS[name]
    traj = run(initial, schedule, steps, record_full=True)
    assert_moments_of(traj.distributions, initial.geometry.positions, traj.expectation,
                      traj.variance)


def test_moments_of_a_clipped_walk_are_those_of_its_distributions():
    # cos(theta / 2) = 0.05: the amplitude that leaves the 29-site lattice in 16
    # steps stays below 1e-14, so the clipped views are checked and dropped, not raised
    g, steps = LatticeGeometry(29), 16
    schedule = Single(UniformRotation(2.0 * np.arccos(0.05)))
    initial = WalkerState.localized(g, SYMMETRIC, 0)
    with pytest.raises(GeometryTooSmallError):
        run(initial, schedule, steps)
    dists = np.zeros((steps + 1, g.n_sites))
    mean, var, up, down = evolve(initial.amp_up[None], initial.amp_down[None], [schedule], 0,
                                 steps, g, dists=dists, clip=True)
    assert_moments_of(dists, g.positions, mean[0], var[0])
    state = initial
    for _ in range(steps):
        state = step(state, schedule)
    assert (state.amp_up.tobytes(), state.amp_down.tobytes()) == (up.tobytes(), down.tobytes())

def test_run_quarter_rotation_left_bias_long():
    # from spin-down the uniform quarter-turn walk drifts left monotonically
    traj = run(down_at_origin(201), Single(UniformRotation(np.pi / 2)), 100)
    diffs = np.diff(traj.expectation[2:])
    assert np.all(diffs <= 1e-12)
    assert traj.expectation[-1] < 0


def test_trajectory_metadata_mentions_seeds():
    sched = ProbabilisticChoice(
        UniformRotation(1.0), RandomPhaseBeta(seed=5), 0.5, seed=9
    )
    traj = run(down_at_origin(11), sched, 2)
    assert traj.metadata["seeds"] == {"choice": 9, "coin_b": 5}
    assert "PCG64" in traj.metadata["rng_algorithm"]


# ---------------------------------------------------------------------------
# structural invariants: light cone, parity, mirror symmetry
# ---------------------------------------------------------------------------

SCHEDULE_POOL = [
    Single(UniformRotation(np.pi / 2)),
    Single(SiteTanhRotation(-np.pi / 8, np.pi / 4)),
    Single(GeneralCoin(0.5, 1.2, 0.4)),
    Single(RandomPhaseAlpha(seed=2)),
    Composite(UniformRotation(np.pi / 2), SiteTanhRotation(-np.pi / 8, np.pi / 4), 2, 1),
    AlternatingEvenOdd(RandomPhaseAlpha(seed=3), RandomPhaseBeta(seed=4)),
    ProbabilisticChoice(
        UniformRotation(np.pi / 2), SiteTanhRotation(-np.pi / 8, np.pi / 4), 0.4, seed=5
    ),
]


@pytest.mark.parametrize("schedule", SCHEDULE_POOL)
def test_light_cone_and_parity_exact(schedule):
    g = LatticeGeometry(15)
    x0 = 1
    init = WalkerState.localized(g, BlochCoinState(1.0, 2.0), x0)
    traj = run(init, schedule, 5, record_full=True)
    for t in range(6):
        p = traj.distributions[t]
        for x in g.positions:
            if abs(x - x0) > t or (x - x0 + t) % 2 != 0:
                assert p[g.index_of(x)] == 0.0


def mirror(state):
    return WalkerState(
        state.geometry,
        state.amp_down[::-1].copy(),
        state.amp_up[::-1].copy(),
        state.time_step,
    )


@pytest.mark.parametrize("case", range(20))
def test_mirror_symmetry_uniform_and_tanh(case):
    rng = np.random.default_rng(100 + case)
    g = LatticeGeometry(17)
    init = random_state(g, rng, margin=5)
    t = 4
    theta = rng.uniform(-np.pi, np.pi)
    tm, tp = rng.uniform(-np.pi, np.pi, size=2)
    for sched_pos, sched_neg in [
        (Single(UniformRotation(theta)), Single(UniformRotation(-theta))),
        (Single(SiteTanhRotation(tm, tp)), Single(SiteTanhRotation(-tp, -tm))),
    ]:
        p_mirror = run(mirror(init), sched_pos, t, record_full=True).distributions
        p_neg = run(init, sched_neg, t, record_full=True).distributions
        assert np.allclose(p_mirror, p_neg[:, ::-1], atol=1e-12)


# ---------------------------------------------------------------------------
# oracle equivalence: explicit 2^T path enumeration
# ---------------------------------------------------------------------------

ORACLE_SCHEDULES = SCHEDULE_POOL + [
    Single(RandomPhaseBeta(seed=6)),
    Composite(UniformRotation(0.8), UniformRotation(-1.3), 1, 2),
    Composite(
        UniformRotation(np.pi / 2), SiteTanhRotation(-np.pi / 8, np.pi / 4), 2, 2
    ),
    Composite(UniformRotation(0.9), SiteTanhRotation(0.2, -0.7), 2, 1, interleaved=True),
    # a random-phase coin next to a tanh field: their product is no one table
    Composite(RandomPhaseAlpha(seed=9), SiteTanhRotation(-0.4, 1.1), 2, 1),
]


@pytest.mark.parametrize("schedule", ORACLE_SCHEDULES)
def test_path_sum_oracle_agreement(schedule):
    g = LatticeGeometry(15)
    coin = BlochCoinState(0.8, 5.1)
    # an interleaved composite travels m+n sites per step; keep it on-lattice
    steps = 2 if isinstance(schedule, Composite) and schedule.interleaved else 6
    init = WalkerState.localized(g, coin, 0)
    final = run(init, schedule, steps).final_state
    a_up, a_dn = coin.spinor()
    oracle_up, oracle_dn = path_sum_arrays(
        [(0, 0, a_up), (1, 0, a_dn)], schedule, steps, g.n_sites
    )
    assert np.max(np.abs(final.amp_up - np.array(oracle_up))) < 1e-10
    assert np.max(np.abs(final.amp_down - np.array(oracle_dn))) < 1e-10


def test_run_agrees_with_repeated_step():
    # run() uses an internal array loop; it must match the public step() path
    g = LatticeGeometry(15)
    init = WalkerState.localized(g, BlochCoinState(2.0, 0.3), 0)
    sched = ProbabilisticChoice(
        RandomPhaseAlpha(seed=11), SiteTanhRotation(0.3, -0.9), 0.6, seed=12
    )
    traj = run(init, sched, 6)
    s = init
    for _ in range(6):
        s = step(s, sched)
    assert np.array_equal(traj.final_state.amp_up, s.amp_up)
    assert np.array_equal(traj.final_state.amp_down, s.amp_down)
    assert traj.final_state.time_step == s.time_step == 6


# ---------------------------------------------------------------------------
# schedule helpers
# ---------------------------------------------------------------------------


def test_is_stochastic_schedule():
    a = UniformRotation(1.0)
    b = SiteTanhRotation(0.1, 0.2)
    assert not is_stochastic_schedule(Single(a))
    assert is_stochastic_schedule(Single(RandomPhaseAlpha(seed=1)))
    assert is_stochastic_schedule(ProbabilisticChoice(a, b, 0.5, seed=1))
    # pinned q leaves only the surviving coin's randomness
    assert not is_stochastic_schedule(ProbabilisticChoice(a, b, 1.0, seed=1))
    pinned = ProbabilisticChoice(RandomPhaseAlpha(seed=1), b, 0.0, seed=1)
    assert not is_stochastic_schedule(pinned)


def test_with_derived_seeds_deterministic_and_distinct():
    sched = ProbabilisticChoice(
        RandomPhaseAlpha(), RandomPhaseBeta(), 0.5
    )
    r1 = with_derived_seeds(sched, 99, 0)
    r2 = with_derived_seeds(sched, 99, 0)
    r3 = with_derived_seeds(sched, 99, 1)
    assert r1 == r2
    assert r1 != r3
    assert r1.seed is not None and r1.a.seed is not None and r1.b.seed is not None
    assert len({r1.seed, r1.a.seed, r1.b.seed}) == 3
    # deterministic coins pass through untouched
    plain = with_derived_seeds(Single(UniformRotation(1.0)), 99, 0)
    assert plain == Single(UniformRotation(1.0))


def test_composite_requires_at_least_one_application():
    with pytest.raises(FieldError, match=r"^m \+ n must be >= 1, got m=0, n=0$") as caught:
        Composite(UniformRotation(0.1), UniformRotation(0.2), 0, 0)
    assert caught.value.field == "m"


@pytest.mark.parametrize("m, n", [(evolution.MAX_REPEATS + 1, 1), (1, 10**20), (10**20, 0)])
def test_a_count_past_the_bound_fails_before_any_coin_list_is_built(m, n):
    # (0,) * 10**20 once raised OverflowError in order(); no walk runs here
    message = r"^[mn] must be an integer in \[0, 1000\], got "
    for build in (lambda: Composite(UniformRotation(0.1), UniformRotation(0.2), m, n),
                  lambda: ScheduleTemplate("composite", m=m, n=n)):
        with pytest.raises(FieldError, match=message) as caught:
            build()
        assert caught.value.field == ("m" if m > 1 else "n")
    top = Composite(UniformRotation(0.1), UniformRotation(0.2), evolution.MAX_REPEATS, 1)
    assert len(top.order(0)[0]) == evolution.MAX_REPEATS + 1


@pytest.mark.parametrize("m, n", [(1.5, 1), (1, 2.0), (True, 1), (1, False)])
def test_composite_rejects_non_integer_counts(m, n):
    with pytest.raises(FieldError, match=r"^[mn] must be an integer in \[0, 1000\], got "):
        Composite(UniformRotation(1.0), UniformRotation(2.0), m, n)
    assert Composite(UniformRotation(1.0), UniformRotation(2.0), np.int64(2), 1).m == 2


@pytest.mark.parametrize("q", [-0.1, 1.5, True, False])
def test_choice_rejects_a_q_that_is_not_a_probability(q):
    with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\]"):
        ProbabilisticChoice(UniformRotation(1.0), UniformRotation(2.0), q)


CHOICE = ProbabilisticChoice(UniformRotation(1.0), SiteTanhRotation(0.1, 0.2), 0.5)
ENSEMBLE = functools.partial(ensemble_expectation, down_at_origin(), CHOICE, master_seed=1)
RUN = functools.partial(run, down_at_origin(), Single(UniformRotation(1.0)))


COUNTS = [
    pytest.param("steps", lambda: RUN(2.0), id="run"),
    pytest.param("steps", lambda: RUN(1.5, record_full=True), id="run_record_full"),
    pytest.param("steps", lambda: next(evolution._walk(*np.zeros((2, 1, 7)), [CHOICE], 0, 1.5,
                                                       LatticeGeometry(7))), id="walk"),
    pytest.param("steps", lambda: ENSEMBLE(2.5, 3), id="ensemble_steps"),
    pytest.param("iterations", lambda: ENSEMBLE(2, 3.0), id="ensemble_iterations"),
    pytest.param("workers", lambda: ENSEMBLE(2, 3, workers=2.0), id="ensemble_workers"),
    pytest.param("steps", lambda: classical_walk(2.5), id="classical"),
    pytest.param("time_step", lambda: WalkerState(LatticeGeometry(7), np.zeros(7), np.zeros(7),
                                                  time_step=1.5), id="time_step"),
    pytest.param("t", lambda: apply_coin(down_at_origin(), RandomPhaseAlpha(seed=1), t=1.5),
                 id="apply_coin_phase"),
    pytest.param("t", lambda: apply_coin(down_at_origin(), UniformRotation(1.0), t=2.5),
                 id="apply_coin_uniform"),
    pytest.param("t", lambda: StepStream(7, 1).uniform(1.5), id="step_stream"),
    pytest.param("t", lambda: StepStream(7, 1).angle(-1), id="step_stream_negative"),
    pytest.param("steps", lambda: RUN(True), id="run_bool"),
    pytest.param("steps", lambda: ENSEMBLE(False, 3), id="ensemble_steps_bool"),
    pytest.param("iterations", lambda: ENSEMBLE(2, True), id="ensemble_iterations_bool"),
    pytest.param("workers", lambda: ENSEMBLE(2, 3, workers=True), id="ensemble_workers_bool"),
]

# Valid arguments of each class whose fields have rules. Each ruled field of these, of a
# GridSpec (which check_grid checks) and each ruled argument below rejects every MISUSED
# value with a FieldError naming it.
A, B = UniformRotation(1.0), UniformRotation(2.0)
VALID = {
    UniformRotation: dict(theta=1.0),
    SiteTanhRotation: dict(theta_minus=0.1, theta_plus=0.2),
    GeneralCoin: dict(q=0.5, alpha=1.0, beta=2.0),
    RandomPhaseAlpha: {},
    RandomPhaseBeta: {},
    Single: dict(spec=A),
    Composite: dict(a=A, b=B, m=1, n=1),
    AlternatingEvenOdd: dict(a=A, b=B),
    ProbabilisticChoice: dict(a=A, b=B, q=0.5),
    BlochCoinState: dict(theta=1.0),
    GridAxis: dict(name="theta_a", lower=0.0, upper=1.0, count=3),
    ScheduleTemplate: dict(kind="single_b"),
    RunConfig: dict(mode="walk"),
}
GRID = GridSpec(GridAxis("theta_b_minus", -1.0, 1.0, 2),
                GridAxis("theta_b_plus", -1.0, 1.0, 2),
                ScheduleTemplate("single_b"), 2, LatticeGeometry(7))
RULED = [  # (id, name, a call that passes it one value)
    *[(f"{cls.__name__}.{name}", name,
       lambda v, cls=cls, name=name: cls(**{**VALID[cls], name: v}))
      for cls in VALID for name in cls.rules],
    *[(f"GridSpec.{name}", name, lambda v, name=name: check_grid(replace(GRID, **{name: v})))
      for name in GridSpec.rules],
    ("LatticeGeometry", "n_sites", LatticeGeometry),
    ("WalkerState", "time_step",
     lambda v: WalkerState(LatticeGeometry(7), np.zeros(7), np.zeros(7), v)),
    ("general_coin_matrix", "q", lambda v: general_coin_matrix(v, 0.0, 0.0)),
    ("realize.x", "x", lambda v: realize(SiteTanhRotation(0.1, 0.5), v, 0)),
    ("realize.t", "t", lambda v: realize(UniformRotation(1.0), 0, v)),
    ("classical_walk.p_right", "p_right", lambda v: classical_walk(2, v)),
    ("classical_walk.steps", "steps", classical_walk),
    ("classify", "tie_tolerance", lambda v: classify(5.0, v)),
    ("variance_scaling_exponent", "t_min",
     lambda v: variance_scaling_exponent(np.ones(20), v, 10)),
    ("variance_scaling_exponent.t_max", "t_max",
     lambda v: variance_scaling_exponent(np.ones(20), 1, v)),
    ("run", "steps", RUN),
    ("walk", "steps", lambda v: next(evolution._walk(*np.zeros((2, 1, 7)), [CHOICE], 0, v,
                                                     LatticeGeometry(7)))),
    ("ensemble.steps", "steps", lambda v: ENSEMBLE(v, 3)),
    ("ensemble.iterations", "iterations", lambda v: ENSEMBLE(2, v)),
    ("ensemble.workers", "workers", lambda v: ENSEMBLE(2, 3, workers=v)),
    ("ensemble.master_seed", "seed", lambda v: ENSEMBLE(2, 3, master_seed=v)),
    ("apply_coin", "t", lambda v: apply_coin(down_at_origin(), UniformRotation(1.0), t=v)),
    ("StepStream", "seed", lambda v: StepStream(v, 1)),
    ("StepStream.tag", "tag", lambda v: StepStream(7, v)),
    ("StepStream.uniform", "t", lambda v: StepStream(7, 1).uniform(v)),
    ("child_seed", "seed", lambda v: child_seed(1, v)),
]
MISUSED = {"bool": True, "np_bool": np.True_, "str": "1", "complex": 1j, "nan": np.nan}


@pytest.mark.parametrize("name, call, must", [
    pytest.param(*p.values, r"be an integer (>= [01]|in \[[01], \d+\]), got ", id=p.id)
    for p in COUNTS
] + [
    pytest.param(name, functools.partial(call, value), f".+, got {re.escape(repr(value))}$",
                 id=f"{at}-{kind}")
    for at, name, call in RULED for kind, value in MISUSED.items()
])
def test_a_non_integer_count_raises_a_value_error_naming_it(name, call, must):
    # each count, then each ruled field and argument, given values no rule passes
    with pytest.raises(FieldError, match=f"^{name} must {must}") as caught:
        call()
    assert caught.value.field == name


FIXED_GRID = GridSpec(GridAxis("theta", 0.0, 1.0, 2), GridAxis("phi", 0.0, 1.0, 2),
                      Single(A), 2, LatticeGeometry(7))


@pytest.mark.parametrize("field, call", [
    pytest.param("spec", lambda: Single("x"), id="single_name"),
    pytest.param("spec", lambda: Single(UniformRotation), id="single_class"),
    pytest.param("a", lambda: Composite(UniformRotation, B, 1, 1), id="composite_class"),
    pytest.param("b", lambda: AlternatingEvenOdd(A, "uniform"), id="alternating_name"),
    pytest.param("b", lambda: ProbabilisticChoice(A, RandomPhaseAlpha, 0.5),
                 id="choice_class"),
    pytest.param("schedule", lambda: run(down_at_origin(), "single", 3), id="run"),
    pytest.param("schedule", lambda: run(down_at_origin(), Single, 3), id="run_class"),
    pytest.param("schedule", lambda: step(down_at_origin(), "single"), id="step"),
    pytest.param("schedule", lambda: ensemble_expectation(down_at_origin(), "single", 3, 2, 1),
                 id="ensemble"),
    pytest.param("schedule", lambda: sweep_initial_state(replace(FIXED_GRID, schedule="x")),
                 id="sweep"),
])
def test_a_coin_or_schedule_of_another_type_is_named_before_any_walk(field, call,
                                                                     monkeypatch):
    # once an AttributeError or TypeError from inside the walk, naming no field
    def no_plan(*args):
        raise AssertionError("a walk built its coins")

    monkeypatch.setattr(evolution, "_plan", no_plan)
    with pytest.raises(FieldError, match=f"^(the )?{field} must be ") as caught:
        call()
    assert caught.value.field == field


def test_real_coins_have_float64_tables():
    def table(spec):  # the spec's own one-row table on 21 sites at step 0
        return spec.table([spec], 21, 0, 1)

    assert table(UniformRotation(1.0)).dtype == np.float64
    assert table(GeneralCoin(0.5, 0.0, 0.0)).dtype == np.float64
    assert table(SiteTanhRotation(-1.0, 2.0)).dtype == np.float64
    assert table(GeneralCoin(0.5, 1.0, 0.0)).dtype == np.complex128
    for spec, coin in ((UniformRotation(1.0), rotation_matrix(1.0)),  # the same numbers
                       (GeneralCoin(0.5, 0.0, 0.0), general_coin_matrix(0.5, 0.0, 0.0))):
        assert np.array_equal(table(spec)[..., 0, 0], coin)


def test_collect_seeds_empty_for_deterministic():
    assert collect_seeds(Single(UniformRotation(1.0))) == {}


@pytest.mark.parametrize(
    "x0,schedule,steps",
    [
        (8, Single(UniformRotation(1.0)), 3),  # off-center start, 8 + 3 > 10
        (0, Composite(UniformRotation(1.0), UniformRotation(0.5), 2, 1, interleaved=True), 4),
    ],
)
def test_run_checks_reach_before_evolving(x0, schedule, steps):
    init = WalkerState.localized(LatticeGeometry(21), SPIN_DOWN, x0)
    with pytest.raises(GeometryTooSmallError, match="reach"):
        run(init, schedule, steps)
    run(init, schedule, steps - 1)  # one step less stays on the lattice


# ---------------------------------------------------------------------------
# a step's coins folded into as few tables as hold their product
# ---------------------------------------------------------------------------

FOLD_A, FOLD_B = GeneralCoin(0.3, 1.0, 2.0), SiteTanhRotation(-0.4, 1.1)
ALPHA, BETA = RandomPhaseAlpha(seed=4), RandomPhaseBeta(seed=5)


def complex_start(t, n=15, margin=2):
    s = random_state(LatticeGeometry(n), np.random.default_rng(t), margin)
    return WalkerState(s.geometry, s.amp_up, s.amp_down, t)


@pytest.mark.parametrize("schedule, coins", [
    (Composite(FOLD_A, FOLD_B, 2, 1), {2: [FOLD_A, FOLD_A, FOLD_B]}),
    (Composite(ALPHA, BETA, 2, 1), {2: [ALPHA, ALPHA, BETA]}),
    (Composite(ALPHA, FOLD_B, 1, 2), {2: [ALPHA, FOLD_B, FOLD_B]}),
    (AlternatingEvenOdd(FOLD_B, BETA), {2: [FOLD_B, FOLD_B], 3: [BETA, BETA]}),
], ids=["fixed_tanh", "phases", "phase_tanh", "alternating"])
def test_a_folded_step_is_its_coins_then_its_shift(schedule, coins):
    for t, specs in coins.items():
        s = manual = complex_start(t)
        for spec in specs:
            manual = apply_coin(manual, spec)
        manual, stepped = shift(manual), step(s, schedule)
        assert np.max(np.abs(stepped.amp_up - manual.amp_up)) <= 1e-15
        assert np.max(np.abs(stepped.amp_down - manual.amp_down)) <= 1e-15


@pytest.mark.parametrize("t", [2, 3])
def test_an_interleaved_step_is_its_coin_and_shift_sequence_bit_for_bit(t):
    s = manual = complex_start(t, margin=3)
    for spec in (FOLD_A, FOLD_A, FOLD_B):
        manual = shift(apply_coin(manual, spec))
    stepped = step(s, Composite(FOLD_A, FOLD_B, 2, 1, interleaved=True))
    assert stepped.amp_up.tobytes() == manual.amp_up.tobytes()
    assert stepped.amp_down.tobytes() == manual.amp_down.tobytes()


def count_mixes(monkeypatch):
    """The spin pairs' dtypes, one per ``_mix`` call from now on."""
    dtypes, mix = [], evolution._mix

    def counted(psi, coin, work):
        dtypes.append(psi.dtype)
        mix(psi, coin, work)

    monkeypatch.setattr(evolution, "_mix", counted)
    return dtypes


@pytest.mark.parametrize("schedule, mixes", [
    (Single(FOLD_B), 1),
    (Composite(UniformRotation(0.7), FOLD_B, 2, 1), 1),
    (Composite(FOLD_A, FOLD_B, 2, 2), 1),
    (Composite(FOLD_B, UniformRotation(0.7), 1, 3), 1),
    (Composite(ALPHA, BETA, 2, 1), 1),
    (Composite(ALPHA, UniformRotation(0.7), 2, 2), 1),
    (AlternatingEvenOdd(FOLD_A, FOLD_B), 1),
    (AlternatingEvenOdd(ALPHA, BETA), 1),
    (AlternatingEvenOdd(ALPHA, FOLD_B), 1),
    (ProbabilisticChoice(FOLD_A, FOLD_B, 0.5, seed=3), 1),
    (ProbabilisticChoice(ALPHA, FOLD_B, 0.5, seed=3), 1),
    (Composite(ALPHA, FOLD_B, 2, 1), 2),  # a phase per step next to a field per site
    (Composite(FOLD_B, ALPHA, 1, 1), 2),
    (Composite(FOLD_A, FOLD_B, 2, 1, interleaved=True), 3),
])
def test_a_step_mixes_once_per_table_its_coins_fold_into(schedule, mixes, monkeypatch):
    # from t = 250 the walk crosses a block boundary, where the coins are planned anew
    start = WalkerState.localized(LatticeGeometry(81), SYMMETRIC, 0)
    start = WalkerState(start.geometry, start.amp_up, start.amp_down, 250)
    dtypes = count_mixes(monkeypatch)
    run(start, schedule, 12)
    assert len(dtypes) == 12 * mixes


@pytest.mark.parametrize("a, b", [
    (UniformRotation(0.7), GeneralCoin(0.4, 1.0, 0.3)),
    (GeneralCoin(0.4, 1.0, 0.3), UniformRotation(0.7)),
    (UniformRotation(0.7), BETA),
    (ALPHA, UniformRotation(0.7)),
], ids=["real_a_complex_b", "complex_a_real_b", "real_a_phase_b", "phase_a_real_b"])
def test_a_walk_from_a_one_step_window_runs_in_the_arithmetic_of_all_its_coins(a, b,
                                                                               monkeypatch):
    # from t0 = 255 the first block has one (odd) step, which applies coin b only
    schedule, start = AlternatingEvenOdd(a, b), down_at_origin(21)
    start = WalkerState(start.geometry, start.amp_up, start.amp_down, 255)
    dtypes = count_mixes(monkeypatch)
    final = run(start, schedule, 6).final_state
    assert dtypes == [np.dtype(np.complex128)] * 6
    s = start
    for _ in range(6):
        s = step(s, schedule)
    assert (final.amp_up.tobytes(), final.amp_down.tobytes()) == (s.amp_up.tobytes(),
                                                                  s.amp_down.tobytes())
