"""Property tests over random coins, schedules and starting states.

Starts include spread (non-localized) states, off-center sites and nonzero
time indices, and schedules include interleaved composites, so the light-cone
bounds of the kernel are exercised away from the usual centered start.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrondoqw import (
    AlternatingEvenOdd,
    Composite,
    GeneralCoin,
    LatticeGeometry,
    ProbabilisticChoice,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    Single,
    SiteTanhRotation,
    UniformRotation,
    WalkerState,
    run,
    step,
)
from parrondoqw.evolution import reach

from pathsum import path_sum_arrays

TWO_PI = 2.0 * np.pi
angles = st.floats(-np.pi, np.pi)
seeds = st.integers(0, 2**32)

uniform = st.builds(UniformRotation, st.floats(-TWO_PI, TWO_PI, exclude_min=True,
                                               exclude_max=True))
tanh = st.builds(SiteTanhRotation, angles, angles)
general = st.builds(GeneralCoin, st.floats(0.0, 1.0), st.floats(0.0, TWO_PI),
                    st.floats(0.0, TWO_PI))
random_phase = st.builds(RandomPhaseAlpha, seeds) | st.builds(RandomPhaseBeta, seeds)
fixed_coins = uniform | tanh | general


def schedules(coins):
    counts = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda mn: sum(mn) > 0)
    return st.one_of(
        st.builds(Single, coins),
        st.builds(lambda a, b, mn, inter: Composite(a, b, *mn, interleaved=inter),
                  coins, coins, counts, st.booleans()),
        st.builds(AlternatingEvenOdd, coins, coins),
        st.builds(ProbabilisticChoice, coins, coins, st.floats(0.0, 1.0), seeds),
    )


@st.composite
def walks(draw, coins=fixed_coins | random_phase, max_steps=6):
    """(initial state, schedule, steps) on a lattice that holds the light cone."""
    schedule = draw(schedules(coins))
    steps = draw(st.integers(0, max_steps))
    if isinstance(schedule, Composite) and schedule.interleaved:
        steps = min(steps, 2)
    width = draw(st.integers(1, 4))  # occupied sites at the start
    x0 = draw(st.integers(-3, 3))  # leftmost of them
    extent = max(abs(x0), abs(x0 + width - 1))
    half = reach(extent, schedule, steps) + draw(st.integers(1, 2))
    geometry = LatticeGeometry(2 * half + 1)
    raw = draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * width, max_size=4 * width))
    amps = np.array(raw[0::2]) + 1j * np.array(raw[1::2])
    if not np.any(np.abs(amps) > 1e-3):
        amps[0] = 1.0
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    up, down = np.zeros((2, geometry.n_sites), dtype=complex)
    sites = slice(geometry.index_of(x0), geometry.index_of(x0) + width)
    up[sites], down[sites] = amps[:width], amps[width:]
    t0 = draw(st.integers(0, 600))  # crosses 256-step draw blocks
    return WalkerState(geometry, up, down, t0), schedule, steps


@settings(max_examples=150, deadline=None)
@given(walks(max_steps=30))
def test_norm_is_conserved(walk):
    initial, schedule, steps = walk
    assert abs(run(initial, schedule, steps).final_state.norm() - 1.0) < 1e-12


def zero_step_walk(up, down):
    """A walk of no steps from a 3-site start whose amplitudes carry a -0.0."""
    state = WalkerState(LatticeGeometry(3), np.array(up), np.array(down), 0)
    return state, Single(UniformRotation(0.0)), 0


@settings(max_examples=150, deadline=None)
@given(walks(max_steps=12))
@example(zero_step_walk([0, 0, 0], [0, -0.0 - 1j, 0]))  # -0.0 real part, complex walk
@example(zero_step_walk([0, -0.0 - 1j, 0], [0, 0, 0]))
@example(zero_step_walk([0, complex(1.0, -0.0), 0], [0, 0, 0]))  # -0.0 imag, real walk
def test_step_loop_equals_run_bitwise(walk):
    initial, schedule, steps = walk
    state = initial
    for _ in range(steps):
        state = step(state, schedule)
    final = run(initial, schedule, steps).final_state
    assert final.amp_up.tobytes() == state.amp_up.tobytes()
    assert final.amp_down.tobytes() == state.amp_down.tobytes()
    assert final.time_step == state.time_step == initial.time_step + steps


@settings(max_examples=100, deadline=None)
@given(walks(max_steps=4))
def test_light_cone_run_matches_path_sum(walk):
    initial, schedule, steps = walk
    g = initial.geometry
    components = [(spin, int(x), amp)
                  for spin, amps in enumerate((initial.amp_up, initial.amp_down))
                  for x, amp in zip(g.positions, amps) if amp != 0]
    up, down = path_sum_arrays(components, schedule, steps, g.n_sites, initial.time_step)
    final = run(initial, schedule, steps).final_state
    assert np.max(np.abs(final.amp_up - np.array(up))) < 1e-10
    assert np.max(np.abs(final.amp_down - np.array(down))) < 1e-10


def mirror_coin(spec):
    """The coin sigma_x C(-x) sigma_x, up to a global phase."""
    if isinstance(spec, UniformRotation):
        return UniformRotation(-spec.theta)
    if isinstance(spec, SiteTanhRotation):
        return SiteTanhRotation(-spec.theta_plus, -spec.theta_minus)
    return GeneralCoin(spec.q, (np.pi - spec.alpha) % TWO_PI, (np.pi - spec.beta) % TWO_PI)


def mirror_schedule(schedule):
    if isinstance(schedule, Single):
        return Single(mirror_coin(schedule.spec))
    return type(schedule)(**{**vars(schedule), "a": mirror_coin(schedule.a),
                             "b": mirror_coin(schedule.b)})


@settings(max_examples=150, deadline=None)
@given(walks(coins=fixed_coins, max_steps=12))
def test_mirror_symmetry(walk):
    # reflecting the start and the coins reflects P(x, t)
    initial, schedule, steps = walk
    mirrored = WalkerState(initial.geometry, initial.amp_down[::-1], initial.amp_up[::-1],
                           initial.time_step)
    p = run(initial, schedule, steps, record_full=True).distributions
    p_mirror = run(mirrored, mirror_schedule(schedule), steps, record_full=True).distributions
    assert np.allclose(p_mirror, p[:, ::-1], rtol=0, atol=1e-12)
