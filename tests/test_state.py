import numpy as np
import pytest

from parrondoqw import (
    SPIN_DOWN,
    SPIN_UP,
    SYMMETRIC,
    BlochCoinState,
    InvalidPositionError,
    LatticeGeometry,
    Single,
    UniformRotation,
    WalkerState,
    step,
)


def test_geometry_rejects_even_or_tiny():
    with pytest.raises(ValueError):
        LatticeGeometry(200)
    with pytest.raises(ValueError):
        LatticeGeometry(1)
    g = LatticeGeometry(5)
    assert g.half_span == 2
    assert list(g.positions) == [-2, -1, 0, 1, 2]
    assert g.index_of(-2) == 0 and g.index_of(2) == 4


def test_index_of_outside_lattice():
    g = LatticeGeometry(5)
    with pytest.raises(InvalidPositionError):
        g.index_of(3)


@pytest.mark.parametrize("x", [1.5, -0.7, 0.0, np.float64(1.0), "1", None])
def test_index_of_rejects_a_label_that_is_not_an_integer(x):
    # int(x) would truncate 1.5 to 1 and -0.7 to 0
    g = LatticeGeometry(5)
    with pytest.raises(InvalidPositionError, match="is not an integer in"):
        g.index_of(x)
    with pytest.raises(InvalidPositionError):
        WalkerState.localized(g, SPIN_DOWN, x)
    assert g.index_of(np.int64(-1)) == 1 and g.index_of(True) == 3


def test_bloch_ranges():
    with pytest.raises(ValueError):
        BlochCoinState(theta=-0.1)
    with pytest.raises(ValueError):
        BlochCoinState(theta=0.5, phi=2 * np.pi)
    up, down = SYMMETRIC.spinor()
    assert up == pytest.approx(1 / np.sqrt(2))
    assert down == pytest.approx(1j / np.sqrt(2))


def test_localized_south_pole():
    # theta=pi puts the whole amplitude on spin-down
    s = WalkerState.localized(LatticeGeometry(5), SPIN_DOWN, 0)
    assert s.amp_down[2] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(np.delete(s.amp_down, 2), 0.0)
    assert np.allclose(s.amp_up, 0.0)
    assert s.time_step == 0


def test_localized_north_pole():
    s = WalkerState.localized(LatticeGeometry(5), SPIN_UP, 0)
    assert s.amp_up[2] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(s.amp_down, 0.0)


def test_localized_outside_lattice():
    with pytest.raises(InvalidPositionError):
        WalkerState.localized(LatticeGeometry(5), SPIN_DOWN, 3)


def test_localized_observables():
    s = WalkerState.localized(LatticeGeometry(7), SPIN_DOWN, 0)
    assert s.norm() == pytest.approx(1.0, abs=1e-15)
    p = s.probability_distribution()
    assert p[3] == pytest.approx(1.0, abs=1e-15)
    assert s.position_expectation() == pytest.approx(0.0, abs=1e-15)
    assert s.position_variance() == pytest.approx(0.0, abs=1e-15)


def test_zero_state_norm():
    g = LatticeGeometry(5)
    z = WalkerState(g, np.zeros(5), np.zeros(5))
    assert z.norm() == 0.0


def test_two_step_distribution():
    # hand-enumerated distribution of the theta=pi/2 walk from spin-down
    g = LatticeGeometry(7)
    s = WalkerState.localized(g, SPIN_DOWN, 0)
    sched = Single(UniformRotation(np.pi / 2))
    s = step(step(s, sched), sched)
    p = s.probability_distribution()
    want = {2: 0.25, 0: 0.5, -2: 0.25}
    for x, v in want.items():
        assert p[g.index_of(x)] == pytest.approx(v, abs=1e-12)
    assert s.position_expectation() == pytest.approx(0.0, abs=1e-12)
    assert s.position_variance() == pytest.approx(2.0, abs=1e-12)


def test_probability_sums_to_one_after_steps():
    g = LatticeGeometry(31)
    s = WalkerState.localized(g, SYMMETRIC, 0)
    sched = Single(UniformRotation(np.pi / 3))
    for _ in range(10):
        s = step(s, sched)
        assert s.probability_distribution().sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(s.norm() - 1.0) < 1e-12


def test_symmetric_distribution_has_zero_mean():
    rng = np.random.default_rng(5)
    g = LatticeGeometry(9)
    for _ in range(25):
        half = rng.normal(size=4) + 1j * rng.normal(size=4)
        up = np.concatenate([half, [rng.normal()], half[::-1]])
        # mirror-symmetric |amplitude| profile on both components
        down = up[::-1]
        norm = np.sqrt(np.sum(np.abs(up) ** 2 + np.abs(down) ** 2))
        s = WalkerState(g, up / norm, down / norm)
        assert s.position_expectation() == pytest.approx(0.0, abs=1e-10)
        assert s.position_variance() >= 0.0


def test_wrong_array_lengths_rejected():
    g = LatticeGeometry(5)
    with pytest.raises(ValueError):
        WalkerState(g, np.zeros(4), np.zeros(5))
