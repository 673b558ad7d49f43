import functools
import inspect

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
    GeneralCoin,
    GeometryTooSmallError,
    LatticeGeometry,
    MissingRandomnessError,
    ProbabilisticChoice,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    Single,
    SiteTanhRotation,
    UniformRotation,
    WalkerState,
    apply_coin,
    classical_walk,
    collect_seeds,
    ensemble_expectation,
    is_stochastic_schedule,
    realize,
    run,
    shift,
    step,
    with_derived_seeds,
)
from parrondoqw import evolution

from pathsum import path_sum_arrays


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
    with pytest.raises(ValueError, match=r"^t must be nonnegative, got -1$"):
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


def test_randomness_enters_only_through_seeds():
    for fn in (run, step, apply_coin, realize):
        assert "rng" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("make", [
    RandomPhaseAlpha, RandomPhaseBeta,
    functools.partial(ProbabilisticChoice, UniformRotation(0.1), UniformRotation(0.2), 0.5),
])
def test_negative_seed_is_rejected_at_construction(make):
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
        make(seed=-3)


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
    with pytest.raises(ValueError):
        Composite(UniformRotation(0.1), UniformRotation(0.2), 0, 0)


@pytest.mark.parametrize("m, n", [(1.5, 1), (1, 2.0)])
def test_composite_rejects_non_integer_counts(m, n):
    with pytest.raises(ValueError, match=r"need integers m >= 0, n >= 0"):
        Composite(UniformRotation(1.0), UniformRotation(2.0), m, n)
    assert Composite(UniformRotation(1.0), UniformRotation(2.0), np.int64(2), 1).m == 2


CHOICE = ProbabilisticChoice(UniformRotation(1.0), SiteTanhRotation(0.1, 0.2), 0.5)
ENSEMBLE = functools.partial(ensemble_expectation, down_at_origin(), CHOICE, master_seed=1)
RUN = functools.partial(run, down_at_origin(), Single(UniformRotation(1.0)))


@pytest.mark.parametrize("name, call", [
    pytest.param("steps", lambda: RUN(2.0), id="run"),
    pytest.param("steps", lambda: RUN(1.5, record_full=True), id="run_record_full"),
    pytest.param("steps", lambda: evolution.evolve_rows(*np.zeros((2, 1, 7)), [CHOICE], 0, 1.5,
                                                        LatticeGeometry(7)), id="evolve_rows"),
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
])
def test_a_non_integer_count_raises_a_value_error_naming_it(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= [01], got "):
        call()


def test_real_coins_have_float64_tables():
    assert evolution._fixed_matrix(UniformRotation(1.0)).dtype == np.float64
    assert evolution._fixed_matrix(GeneralCoin(0.5, 0.0, 0.0)).dtype == np.float64
    assert evolution._tanh_field(SiteTanhRotation(-1.0, 2.0), 21).dtype == np.float64
    assert evolution._fixed_matrix(GeneralCoin(0.5, 1.0, 0.0)).dtype == np.complex128
    for spec in (UniformRotation(1.0), GeneralCoin(0.5, 0.0, 0.0)):  # the same numbers
        assert np.array_equal(evolution._fixed_matrix(spec)[..., 0], realize(spec, 0, 0))


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
