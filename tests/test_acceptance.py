"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single `ACCEPTANCE <n>: PASS` line (visible with
``pytest -rA`` or ``-s``) after its assertions; a failed test simply fails.
"""

import contextlib
import time

import numpy as np
import pytest

from parrondoqw import (
    SPIN_DOWN,
    SYMMETRIC,
    AlternatingEvenOdd,
    BlochCoinState,
    Composite,
    DegenerateEnsembleWarning,
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
    classical_walk,
    ensemble_expectation,
    run,
    step,
    sweep_coin_params,
    variance_scaling_exponent,
)
from parrondoqw.cli import main as cli_main

from pathsum import path_sum_arrays

COIN_A = UniformRotation(np.pi / 2)
COIN_B = SiteTanhRotation(-np.pi / 8, np.pi / 4)

# Documented seeds for the random-phase alternation criterion. The true
# phase-averaged drift of these walks at the symmetric initial state is
# statistically indistinguishable from zero (and exactly zero for the
# alpha coin alone), so the sign pattern is pinned to fixed seeds here,
# matching the criterion's "under at least one documented seed" phrasing.
ALTERNATION_SINGLE_SEED = 24
ALTERNATION_ENSEMBLE_MASTER_SEED = 2


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def random_schedule(rng):
    """One of the four schedule kinds with random valid parameters."""
    def random_spec():
        kind = rng.integers(5)
        if kind == 0:
            return UniformRotation(rng.uniform(-2 * np.pi, 2 * np.pi))
        if kind == 1:
            return SiteTanhRotation(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        if kind == 2:
            return GeneralCoin(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        if kind == 3:
            return RandomPhaseAlpha(seed=int(rng.integers(1 << 31)))
        return RandomPhaseBeta(seed=int(rng.integers(1 << 31)))

    kind = rng.integers(4)
    if kind == 0:
        return Single(random_spec())
    if kind == 1:
        m, n = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        if m + n == 0:
            m = 1
        return Composite(random_spec(), random_spec(), m, n)
    if kind == 2:
        return AlternatingEvenOdd(random_spec(), random_spec())
    return ProbabilisticChoice(
        random_spec(), random_spec(), float(rng.uniform(0, 1)),
        seed=int(rng.integers(1 << 31)),
    )


def random_initial(rng, geometry):
    bloch = BlochCoinState(
        theta=float(rng.uniform(0, np.pi)),
        phi=float(rng.uniform(0, 2 * np.pi)),
    )
    return WalkerState.localized(geometry, bloch, 0)


def test_criterion_01_unitarity_500_steps():
    started = time.perf_counter()
    rng = np.random.default_rng(20240801)
    geometry = LatticeGeometry(1001)
    for _ in range(50):
        schedule = random_schedule(rng)
        state = random_initial(rng, geometry)
        for _ in range(500):
            state = step(state, schedule)
            assert abs(state.norm() - 1.0) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(1, f"50 configs x 500 steps, |norm-1| < 1e-12 throughout ({elapsed:.1f}s)")


ORACLE_SCHEDULES = [
    Single(COIN_A),
    Single(COIN_B),
    Single(GeneralCoin(0.3, 0.7, 2.5)),
    Single(RandomPhaseAlpha(seed=5)),
    Single(RandomPhaseBeta(seed=5)),
    Composite(COIN_A, COIN_B, 1, 1),
    Composite(COIN_A, COIN_B, 2, 1),
    Composite(COIN_A, COIN_B, 2, 2),
    AlternatingEvenOdd(RandomPhaseAlpha(seed=6), RandomPhaseBeta(seed=7)),
    AlternatingEvenOdd(COIN_A, COIN_B),
    ProbabilisticChoice(COIN_A, COIN_B, 0.5, seed=8),
    ProbabilisticChoice(RandomPhaseAlpha(seed=9), COIN_B, 0.3, seed=10),
]


def test_criterion_02_path_sum_oracle():
    started = time.perf_counter()
    geometry = LatticeGeometry(15)
    coin = BlochCoinState(1.1, 0.6)
    a_up, a_dn = coin.spinor()
    for schedule in ORACLE_SCHEDULES:
        for steps in (1, 3, 6):
            final = run(
                WalkerState.localized(geometry, coin, 0), schedule, steps
            ).final_state
            o_up, o_dn = path_sum_arrays(
                [(0, 0, a_up), (1, 0, a_dn)], schedule, steps, 15
            )
            assert np.max(np.abs(final.amp_up - np.array(o_up))) < 1e-10
            assert np.max(np.abs(final.amp_down - np.array(o_dn))) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"{len(ORACLE_SCHEDULES)} schedules vs 2^T enumeration ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def losing_winning_runs():
    geometry = LatticeGeometry(801)
    init = WalkerState.localized(geometry, SPIN_DOWN, 0)
    schedules = {
        "single_a": Single(COIN_A),
        "single_b": Single(COIN_B),
        "composite_1_1": Composite(COIN_A, COIN_B, 1, 1),
        "composite_2_1": Composite(COIN_A, COIN_B, 2, 1),
        "composite_2_2": Composite(COIN_A, COIN_B, 2, 2),
    }
    started = time.perf_counter()
    runs = {name: run(init, sched, 400) for name, sched in schedules.items()}
    return runs, time.perf_counter() - started


def test_criterion_03_individual_games_lose(losing_winning_runs):
    runs, elapsed = losing_winning_runs
    finals = {}
    for name in ("single_a", "single_b", "composite_1_1"):
        finals[name] = runs[name].expectation[-1]
        assert finals[name] < 0.0
    assert elapsed < 10.0
    report(
        3,
        "losing games: "
        + ", ".join(f"{k} <X>(400)={v:.1f}" for k, v in finals.items()),
    )


def test_criterion_04_composites_win_with_sustained_drift(losing_winning_runs):
    runs, elapsed = losing_winning_runs
    finals = {}
    for name in ("composite_2_1", "composite_2_2"):
        traj = runs[name]
        half, full = traj.expectation[200], traj.expectation[400]
        assert full > 0.0
        assert full > half > 0.0
        finals[name] = full
    assert elapsed < 10.0
    report(
        4,
        "winning composites: "
        + ", ".join(f"{k} <X>(400)={v:.1f}" for k, v in finals.items()),
    )


def test_criterion_05_phase_diagram_spot_checks():
    started = time.perf_counter()
    kwargs = dict(
        axis1=GridAxis("theta_b_minus", -np.pi, np.pi, 41),
        axis2=GridAxis("theta_b_plus", -np.pi, np.pi, 41),
        steps=200,
        geometry=LatticeGeometry(501),
        initial=SPIN_DOWN,
        fixed={"theta_a": np.pi / 2},
    )
    composite = sweep_coin_params(
        GridSpec(schedule=ScheduleTemplate("composite", m=2, n=1), **kwargs)
    )
    single_b = sweep_coin_params(
        GridSpec(schedule=ScheduleTemplate("single_b"), **kwargs)
    )
    # grid cell nearest the reference losing coin pair (-pi/8, pi/4)
    i = int(np.argmin(np.abs(composite.axis1_values + np.pi / 8)))
    j = int(np.argmin(np.abs(composite.axis2_values - np.pi / 4)))
    assert composite.classification[i, j] == "winning"
    assert single_b.classification[i, j] == "losing"
    assert (composite.classification == "winning").any()
    assert (composite.classification == "losing").any()
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(
        5,
        f"41x41 plane: composite(2,1) wins at the reference pair "
        f"({composite.expectation[i, j]:.1f}), single B loses "
        f"({single_b.expectation[i, j]:.1f}); both regions present ({elapsed:.0f}s)",
    )


def test_criterion_06_variance_scaling():
    started = time.perf_counter()
    init = WalkerState.localized(LatticeGeometry(201), SYMMETRIC, 0)
    quantum = run(init, Single(COIN_A), 100)
    slope_q = variance_scaling_exponent(quantum.variance, 50, 100)
    assert 1.85 <= slope_q <= 2.05
    classical = classical_walk(100, 0.5)
    slope_c = variance_scaling_exponent(classical.variance, 50, 100)
    assert 0.99 <= slope_c <= 1.01
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(6, f"ballistic slope {slope_q:.3f}, diffusive slope {slope_c:.4f}")


def test_criterion_07_probabilistic_parrondo():
    started = time.perf_counter()
    init = WalkerState.localized(LatticeGeometry(401), SPIN_DOWN, 0)

    def mean_final(q, iterations):
        ctx = (
            pytest.warns(DegenerateEnsembleWarning)
            if q in (0.0, 1.0)
            else contextlib.nullcontext()
        )
        with ctx:
            res = ensemble_expectation(
                init,
                ProbabilisticChoice(COIN_A, COIN_B, q),
                steps=200,
                iterations=iterations,
                master_seed=7,
            )
        return res.mean_expectation[-1], res.std_error[-1]

    # degenerate endpoints: all iterations identical, sign is what matters
    for q in (0.0, 1.0):
        mean, _ = mean_final(q, 3)
        assert mean < 0.0
    winners = []
    for q in (0.25, 0.5, 0.75):
        mean, se = mean_final(q, 5000)
        if mean > 3.0 * se:
            winners.append((q, mean, se))
    assert winners, "no mixing weight exceeded 3 standard errors above zero"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    q, mean, se = winners[0]
    report(
        7,
        f"{len(winners)}/3 mixing weights win; e.g. q={q}: "
        f"mean={mean:.2f} (se={se:.3f}, {mean / se:.0f} sigma) ({elapsed:.0f}s)",
    )


def test_criterion_08_random_phase_alternation():
    """Random-phase alternation under documented seeds.

    The ensemble half is a pinned-seed regression, not evidence of a paradox
    in the ensemble mean: at this size the exact phase-averaged mean of the
    alternation is zero, and the three 200-seed means asserted below
    sit within 1.2 standard errors of zero (single alpha -0.73 SE, single
    beta -0.12 SE, alternation +1.15 SE). Their signs follow the seeds.
    """
    started = time.perf_counter()
    geometry = LatticeGeometry(1001)
    init = WalkerState.localized(geometry, SYMMETRIC, 0)
    steps = 450

    s = ALTERNATION_SINGLE_SEED
    final_a = run(init, Single(RandomPhaseAlpha(seed=s)), steps).expectation[-1]
    final_b = run(init, Single(RandomPhaseBeta(seed=s)), steps).expectation[-1]
    final_alt = run(
        init,
        AlternatingEvenOdd(RandomPhaseAlpha(seed=s), RandomPhaseBeta(seed=s)),
        steps,
    ).expectation[-1]
    assert final_a <= 0.0
    assert final_b <= 0.0
    assert final_alt > 0.0

    ms = ALTERNATION_ENSEMBLE_MASTER_SEED
    means = {}
    for name, sched in (
        ("single_alpha", Single(RandomPhaseAlpha())),
        ("single_beta", Single(RandomPhaseBeta())),
        ("alternation", AlternatingEvenOdd(RandomPhaseAlpha(), RandomPhaseBeta())),
    ):
        res = ensemble_expectation(init, sched, steps, 200, master_seed=ms)
        means[name] = res.mean_expectation[-1]
    assert means["single_alpha"] <= 0.0
    assert means["single_beta"] <= 0.0
    assert means["alternation"] > 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(
        8,
        f"seed {s}: A={final_a:.2f}, B={final_b:.2f}, alt={final_alt:.2f}; "
        f"200-seed means: A={means['single_alpha']:.3f}, "
        f"B={means['single_beta']:.3f}, alt={means['alternation']:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_09_symmetry_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    geometry = LatticeGeometry(15)

    def pool_schedule():
        return random_schedule(rng)

    # light cone and parity, 200 randomized cases each (checked per run)
    for _ in range(200):
        x0 = int(rng.integers(-2, 3))
        state = WalkerState.localized(
            geometry, BlochCoinState(float(rng.uniform(0, np.pi)),
                                     float(rng.uniform(0, 2 * np.pi))), x0
        )
        traj = run(state, pool_schedule(), 4, record_full=True)
        for t in range(5):
            p = traj.distributions[t]
            for idx, x in enumerate(geometry.positions):
                if abs(x - x0) > t or (x - x0 + t) % 2 != 0:
                    assert p[idx] == 0.0

    # mirror symmetry, 200 cases (uniform and tanh alternate)
    g17 = LatticeGeometry(17)
    for case in range(200):
        theta = float(rng.uniform(-np.pi, np.pi))
        tm, tp = rng.uniform(-np.pi, np.pi, size=2)
        if case % 2 == 0:
            pos = Single(UniformRotation(theta))
            neg = Single(UniformRotation(-theta))
        else:
            pos = Single(SiteTanhRotation(tm, tp))
            neg = Single(SiteTanhRotation(-tp, -tm))
        bloch = BlochCoinState(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
        init = WalkerState.localized(g17, bloch, 0)
        mirrored = WalkerState(g17, init.amp_down[::-1].copy(), init.amp_up[::-1].copy())
        p_m = run(mirrored, pos, 4, record_full=True).distributions
        p_n = run(init, neg, 4, record_full=True).distributions
        assert np.max(np.abs(p_m - p_n[:, ::-1])) < 1e-12

    # pole degeneracy: phi is a global phase at theta in {0, pi}, 200 cases
    g25 = LatticeGeometry(25)
    for _ in range(200):
        theta_pole = 0.0 if rng.integers(2) == 0 else np.pi
        phis = rng.uniform(0, 2 * np.pi, size=2)
        sched = Single(UniformRotation(float(rng.uniform(-np.pi, np.pi))))
        finals = [
            run(
                WalkerState.localized(g25, BlochCoinState(theta_pole, float(phi)), 0),
                sched,
                8,
            ).expectation[-1]
            for phi in phis
        ]
        assert abs(finals[0] - finals[1]) < 1e-10

    # composite collapse: same-axis rotations add, 200 cases
    g21 = LatticeGeometry(21)
    for _ in range(200):
        ta = float(rng.uniform(-np.pi / 2, np.pi / 2))
        tb = float(rng.uniform(-np.pi / 2, np.pi / 2))
        m, n = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        total = m * ta + n * tb
        total = (total + 2 * np.pi) % (4 * np.pi) - 2 * np.pi  # same rotation, in range
        bloch = BlochCoinState(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
        init = WalkerState.localized(g21, bloch, 0)
        comp = run(init, Composite(UniformRotation(ta), UniformRotation(tb), m, n), 8)
        single = run(init, Single(UniformRotation(total)), 8)
        assert np.max(np.abs(comp.expectation - single.expectation)) < 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(9, f"light-cone/parity, mirror, pole, collapse x200 each ({elapsed:.0f}s)")


MODE_CONFIGS = {
    "walk": {
        "sites": "101",
        "steps": "50",
        "initial.theta": "pi",
        "schedule.kind": "composite",
        "schedule.m": "2",
        "schedule.n": "1",
        "schedule.a.kind": "uniform",
        "schedule.a.theta": "pi/2",
        "schedule.b.kind": "tanh",
        "schedule.b.theta_minus": "-pi/8",
        "schedule.b.theta_plus": "pi/4",
        "record_full": "true",
    },
    "ensemble": {
        "sites": "101",
        "steps": "50",
        "initial.theta": "pi",
        "schedule.kind": "probabilistic",
        "schedule.q": "0.5",
        "schedule.a.kind": "uniform",
        "schedule.a.theta": "pi/2",
        "schedule.b.kind": "tanh",
        "schedule.b.theta_minus": "-pi/8",
        "schedule.b.theta_plus": "pi/4",
        "iterations": "40",
        "seed": "11",
    },
    "sweep-coin": {
        "sites": "41",
        "steps": "15",
        "initial.theta": "pi",
        "sweep.family": "composite",
        "sweep.m": "2",
        "sweep.n": "1",
        "grid.axis1.name": "theta_b_minus",
        "grid.axis1.min": "-pi",
        "grid.axis1.max": "pi",
        "grid.axis1.count": "5",
        "grid.axis2.name": "theta_b_plus",
        "grid.axis2.min": "-pi",
        "grid.axis2.max": "pi",
        "grid.axis2.count": "5",
        "grid.fixed.theta_a": "pi/2",
    },
    "sweep-initial": {
        "sites": "41",
        "steps": "15",
        "schedule.kind": "alternating",
        "schedule.a.kind": "random-alpha",
        "schedule.b.kind": "random-beta",
        "seed": "13",
        "grid.axis1.name": "theta",
        "grid.axis1.min": "0",
        "grid.axis1.max": "pi",
        "grid.axis1.count": "4",
        "grid.axis2.name": "phi",
        "grid.axis2.min": "0",
        "grid.axis2.max": "2pi",
        "grid.axis2.count": "4",
    },
    "classical": {"steps": "60", "p_right": "0.3", "record_full": "true"},
}


def test_criterion_10_determinism_byte_identical_csv(tmp_path):
    for mode, mapping in MODE_CONFIGS.items():
        cfg_path = tmp_path / f"{mode}.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{mode}_{tag}"
            code = cli_main([mode, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            outs.append(out)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs, f"no csv written for {mode}"
        for name in csvs:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                f"{mode}/{name} differs between identical runs"
            )
    report(10, f"all {len(MODE_CONFIGS)} modes re-run byte-identically")
