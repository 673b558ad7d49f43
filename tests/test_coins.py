import pickle

import numpy as np
import pytest

from parrondoqw import (
    GeneralCoin,
    MissingRandomnessError,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    SiteTanhRotation,
    UniformRotation,
    general_coin_matrix,
    realize,
    rotation_matrix,
    site_theta,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
FOURIER = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)


def assert_unitary(u, tol=1e-12):
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < tol


def test_rotation_identity_and_double_cover():
    assert np.allclose(rotation_matrix(0.0), np.eye(2), atol=1e-15)
    assert np.allclose(rotation_matrix(2 * np.pi), -np.eye(2), atol=1e-12)


def test_rotation_quarter_turn():
    want = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
    got = rotation_matrix(np.pi / 2)
    assert np.allclose(got, want, atol=1e-15)
    assert np.linalg.det(got) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("theta", np.linspace(-2 * np.pi, 2 * np.pi, 17, endpoint=False))
def test_rotation_spin_flip_conjugation(theta):
    # R(-theta) = sx R(theta) sx
    lhs = rotation_matrix(-theta)
    rhs = SX @ rotation_matrix(theta) @ SX
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_site_theta_center_and_tails():
    tm, tp = -np.pi / 8, np.pi / 4
    assert site_theta(tm, tp, 0) == pytest.approx((tm + tp) / 2, abs=1e-15)
    assert site_theta(tm, tp, 20) == pytest.approx(tp, abs=1e-12)
    assert site_theta(tm, tp, -20) == pytest.approx(tm, abs=1e-12)


def test_site_theta_monotone_and_bounded():
    x = np.arange(-10, 11)
    th = site_theta(-0.4, 1.1, x)
    assert np.all(np.diff(th) > 0)
    assert np.all(th >= -0.4 - 1e-15) and np.all(th <= 1.1 + 1e-15)
    flat = site_theta(0.7, 0.7, x)
    assert np.allclose(flat, 0.7, atol=1e-15)


def test_general_coin_special_cases():
    assert np.allclose(general_coin_matrix(0.5, 0.0, 0.0), HADAMARD, atol=1e-15)
    assert np.allclose(
        general_coin_matrix(0.5, np.pi / 2, np.pi / 2), FOURIER, atol=1e-15
    )
    assert np.allclose(
        general_coin_matrix(1.0, 0.0, 0.0), np.diag([1.0, -1.0]), atol=1e-15
    )


def test_general_coin_rejects_bad_q():
    with pytest.raises(ValueError):
        general_coin_matrix(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        GeneralCoin(q=-0.1, alpha=0.0, beta=0.0)


def test_unitarity_over_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(200):
        assert_unitary(rotation_matrix(rng.uniform(-2 * np.pi, 2 * np.pi)))
        assert_unitary(
            general_coin_matrix(
                rng.uniform(0, 1), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
            )
        )
        x = int(rng.integers(-30, 31))
        spec = SiteTanhRotation(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        assert_unitary(realize(spec, x, 0))


def test_hadamard_equals_quarter_rotation_up_to_column_phase():
    # the directly testable statement: general(1/2,0,0) is the Hadamard matrix
    assert np.allclose(general_coin_matrix(0.5, 0.0, 0.0), HADAMARD, atol=1e-15)
    # and it differs from rotation(pi/2) only by a sign on the second column
    r = rotation_matrix(np.pi / 2)
    assert np.allclose(r[:, 0], HADAMARD[:, 0], atol=1e-15)
    assert np.allclose(r[:, 1], -HADAMARD[:, 1], atol=1e-15)


def test_realize_uniform_ignores_site_and_time():
    spec = UniformRotation(np.pi / 2)
    assert np.array_equal(realize(spec, -3, 0), realize(spec, 5, 99))


def test_realize_site_tanh_composition():
    spec = SiteTanhRotation(-np.pi / 8, np.pi / 4)
    want = rotation_matrix(np.pi / 16)
    assert np.allclose(realize(spec, 0, 7), want, atol=1e-15)


def test_random_phase_same_step_same_matrix_everywhere():
    spec = RandomPhaseAlpha(seed=42)
    m0 = realize(spec, 0, 3)
    m5 = realize(spec, 5, 3)
    assert np.array_equal(m0, m5)
    assert not np.allclose(m0, realize(spec, 0, 4))


def test_random_phase_deterministic_across_runs():
    a = RandomPhaseAlpha(seed=7)
    b = RandomPhaseBeta(seed=7)
    for t in range(20):
        assert np.array_equal(realize(a, 0, t), realize(a, 0, t))
        assert np.array_equal(realize(b, 0, t), realize(b, 0, t))
    # alpha and beta streams are tagged apart even under a shared seed
    assert not np.allclose(realize(a, 0, 0), realize(b, 0, 0))


def test_random_phase_structure():
    # alpha spec: beta pinned to 0, so the (2,1) entry stays real positive
    m = realize(RandomPhaseAlpha(seed=3), 0, 11)
    assert m[1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    # beta spec: alpha pinned to 0, so the (1,2) entry stays real positive
    m = realize(RandomPhaseBeta(seed=3), 0, 11)
    assert m[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_random_phase_pair_keeps_its_value_semantics():
    # sidecars print the reprs under trajectory.schedule; pool workers pickle the specs
    alpha, beta = RandomPhaseAlpha(seed=3), RandomPhaseBeta(seed=3)
    assert alpha != beta and alpha == RandomPhaseAlpha(seed=3)
    assert (repr(alpha), repr(beta)) == ("RandomPhaseAlpha(seed=3)", "RandomPhaseBeta(seed=3)")
    assert repr(RandomPhaseBeta()) == "RandomPhaseBeta(seed=None)"
    for spec in (alpha, beta, RandomPhaseAlpha()):
        copy = pickle.loads(pickle.dumps(spec))
        assert type(copy) is type(spec) and copy == spec
        if spec.seed is not None:
            assert realize(copy, 0, 300).tobytes() == realize(spec, 0, 300).tobytes()


def test_random_phase_without_seed_or_stream_raises():
    with pytest.raises(MissingRandomnessError):
        realize(RandomPhaseAlpha(), 0, 0)


def test_uniform_rotation_range_check():
    with pytest.raises(ValueError):
        UniformRotation(2 * np.pi)
    UniformRotation(-2 * np.pi)  # closed lower endpoint


@pytest.mark.parametrize("angles", [(np.nan, 0.5), (0.5, np.inf)])
def test_site_tanh_rejects_non_finite(angles):
    with pytest.raises(ValueError, match="finite"):
        SiteTanhRotation(*angles)
