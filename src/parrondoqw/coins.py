"""Coin operators: 2x2 spin unitaries, possibly site- and/or time-dependent.

A coin family is described declaratively by a ``CoinSpec``; ``realize`` turns
a spec into the concrete 2x2 matrix acting at one lattice site and time step.
Four families are supported:

- ``UniformRotation``: one rotation angle everywhere.
- ``SiteTanhRotation``: rotation angle interpolating between a far-left and a
  far-right value through tanh weights on the site label.
- ``GeneralCoin``: the three-parameter (q, alpha, beta) unitary.
- ``RandomPhaseAlpha`` / ``RandomPhaseBeta``: q = 1/2 coins whose alpha (resp.
  beta) phase is drawn uniformly on [0, 2*pi) once per time step, shared by
  all sites at that step. Each states its draw stream (``tag``) and where its
  phase goes (``coin``), and the two share the ``seed`` field and its check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .errors import MissingRandomnessError
from .rng import TAG_ALPHA, TAG_BETA, StepStream, _check_seed

# A 2x2 unitary acting on (amp_up, amp_down) at one site.
LocalCoin = NDArray[np.complex128]

_TWO_PI = 2.0 * np.pi


def rotation_matrix(theta: float) -> LocalCoin:
    """Spin rotation about the y-axis by ``theta``.

    Returns [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]],
    a real unitary with determinant 1.
    """
    half = 0.5 * theta
    c, s = np.cos(half), np.sin(half)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def site_theta(theta_minus: float, theta_plus: float, x) -> float | np.ndarray:
    """Rotation angle at site ``x``: tanh-weighted blend of the two endpoint angles.

    Far to the left the angle approaches ``theta_minus``, far to the right
    ``theta_plus``; at the origin it is their arithmetic mean. ``x`` may be a
    scalar or an array of site labels.
    """
    w = np.tanh(x)
    return 0.5 * (theta_plus * (1.0 + w) + theta_minus * (1.0 - w))


def general_coin_matrix(q: float, alpha, beta) -> LocalCoin:
    """Three-parameter coin, unitary for every q in [0, 1].

    [[sqrt(q),                sqrt(1-q) e^{i alpha}       ],
     [sqrt(1-q) e^{i beta},  -sqrt(q)   e^{i (alpha+beta)}]]

    q = 1/2 with zero phases gives the Hadamard coin; alpha = beta = pi/2
    gives the Fourier coin. Array phases give an array of coins, of shape
    (2, 2) + their broadcast shape.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    a, b = np.sqrt(q), np.sqrt(1.0 - q)
    coins = np.empty((2, 2, *np.broadcast(alpha, beta).shape), np.complex128)
    coins[0, 0], coins[0, 1] = a, b * np.exp(1j * alpha)  # filled in place: cheap for one coin
    coins[1, 0], coins[1, 1] = b * np.exp(1j * beta), -a * np.exp(1j * (alpha + beta))
    return coins


@dataclass(frozen=True)
class UniformRotation:
    """Same rotation angle at every site and step."""

    theta: float

    def __post_init__(self):
        if not -_TWO_PI <= self.theta < _TWO_PI:
            raise ValueError(f"theta must lie in [-2*pi, 2*pi), got {self.theta}")


@dataclass(frozen=True)
class SiteTanhRotation:
    """Site-dependent rotation angle, tanh-interpolated between two endpoint values."""

    theta_minus: float
    theta_plus: float

    def __post_init__(self):
        if not (np.isfinite(self.theta_minus) and np.isfinite(self.theta_plus)):
            raise ValueError(
                f"theta_minus and theta_plus must be finite, got "
                f"{self.theta_minus}, {self.theta_plus}"
            )


@dataclass(frozen=True)
class GeneralCoin:
    """Fixed (q, alpha, beta) coin."""

    q: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not 0.0 <= v <= _TWO_PI:
                raise ValueError(f"{name} must lie in [0, 2*pi], got {v}")


@dataclass(frozen=True)
class _RandomPhase:
    """q = 1/2 coin with one phase drawn uniformly on [0, 2*pi) per time step. A
    subclass states the stream ``tag`` of the draws and ``coin``, which places
    the phase (or an array of phases) in ``general_coin_matrix``.

    Draws come from ``seed`` alone; while it is None (to be derived, see
    ``with_derived_seeds``) walks and ``realize`` raise ``MissingRandomnessError``.
    """

    seed: int | None = None

    def __post_init__(self):
        if self.seed is not None:
            _check_seed(self.seed)


@dataclass(frozen=True)
class RandomPhaseAlpha(_RandomPhase):
    """q = 1/2 coin with alpha drawn uniformly per time step, beta = 0."""

    tag = TAG_ALPHA
    coin = staticmethod(lambda phase: general_coin_matrix(0.5, phase, 0.0))


@dataclass(frozen=True)
class RandomPhaseBeta(_RandomPhase):
    """q = 1/2 coin with beta drawn uniformly per time step, alpha = 0."""

    tag = TAG_BETA
    coin = staticmethod(lambda phase: general_coin_matrix(0.5, 0.0, phase))


CoinSpec = Union[
    UniformRotation, SiteTanhRotation, GeneralCoin, RandomPhaseAlpha, RandomPhaseBeta
]


def is_stochastic_spec(spec: CoinSpec) -> bool:
    return isinstance(spec, _RandomPhase)


def realize(spec: CoinSpec, x: int, t: int) -> LocalCoin:
    """Concrete 2x2 coin for lattice site ``x`` at time step ``t``.

    Random-phase specs draw their phase once per time step (the same value
    for every site at that step) from ``(spec.seed, spec.tag, t)`` and place it
    by ``spec.coin``; an unset seed raises ``MissingRandomnessError``.
    """
    if isinstance(spec, UniformRotation):
        return rotation_matrix(spec.theta)
    if isinstance(spec, SiteTanhRotation):
        return rotation_matrix(site_theta(spec.theta_minus, spec.theta_plus, x))
    if isinstance(spec, GeneralCoin):
        return general_coin_matrix(spec.q, spec.alpha, spec.beta)
    if isinstance(spec, _RandomPhase):
        if spec.seed is None:
            raise MissingRandomnessError(f"{type(spec).__name__} needs a seed")
        return spec.coin(StepStream(spec.seed, spec.tag).angle(t))
    raise TypeError(f"unknown coin spec {spec!r}")
