"""Coin operators: 2x2 spin unitaries, possibly site- and/or time-dependent.

Each ``CoinSpec`` class states once how its specs become numbers: ``axis``
(None, ``"sites"`` or ``"steps"``) and ``table(specs, n_sites, t, stop)``, the
coins of R specs for steps t to stop - 1 as one (2, 2, R, w) array, float64
when real, whose last axis indexes ``axis`` (w = 1 for None). The kernel and
``realize``, a one-site, one-step read, only read tables. Four families:

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
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import MissingRandomnessError
from .rng import BOUNDED, INTEGER, PROBABILITY, SEED, TAG_ALPHA, TAG_BETA, Ruled, _check
from .rng import _draws, at_least, interval, optional

_TWO_PI = 2.0 * np.pi
_PHASE = interval(0.0, _TWO_PI, "[0, 2*pi]")


def rotation_matrix(theta: float) -> np.ndarray:
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


def general_coin_matrix(q: float, alpha, beta) -> np.ndarray:
    """Three-parameter coin, unitary for every q in [0, 1].

    [[sqrt(q),                sqrt(1-q) e^{i alpha}       ],
     [sqrt(1-q) e^{i beta},  -sqrt(q)   e^{i (alpha+beta)}]]

    q = 1/2 with zero phases gives the Hadamard coin; alpha = beta = pi/2
    gives the Fourier coin. Array phases give an array of coins, of shape
    (2, 2) + their broadcast shape.
    """
    _check("q", q, PROBABILITY)
    a, b = np.sqrt(q), np.sqrt(1.0 - q)
    coins = np.empty((2, 2, *np.broadcast(alpha, beta).shape), np.complex128)
    coins[0, 0], coins[0, 1] = a, b * np.exp(1j * alpha)  # filled in place: cheap for one coin
    coins[1, 0], coins[1, 1] = b * np.exp(1j * beta), -a * np.exp(1j * (alpha + beta))
    return coins


@lru_cache(maxsize=64)  # a batch of tanh fields, as many bytes as 128 cosine/sine pairs
def _column(spec, n_sites: int):
    """``spec.column(n_sites)``, float64 if its imaginary part is 0; cached, read-only."""
    coins = spec.column(n_sites)
    return coins if coins.dtype == np.float64 or coins.imag.any() else coins.real.copy()


class _Stacked(Ruled):
    """A coin without draws: its table stacks each spec's (2, 2, w) ``column(n_sites)``."""

    axis = None

    @classmethod
    def table(cls, specs, n_sites: int, t: int, stop: int):
        return np.stack([_column(spec, n_sites) for spec in specs], 2)

    def column(self, n_sites: int):  # a fixed coin's: its 2x2 ``matrix``, at every site
        return self.matrix[..., None]


@dataclass(frozen=True)
class UniformRotation(_Stacked):
    """Same rotation angle at every site and step."""

    theta: float

    rules = {"theta": interval(-_TWO_PI, _TWO_PI, "[-2*pi, 2*pi)")}
    matrix = property(lambda self: rotation_matrix(self.theta))


@dataclass(frozen=True)
class SiteTanhRotation(_Stacked):
    """Site-dependent rotation angle, tanh-interpolated between two endpoint values."""

    theta_minus: float
    theta_plus: float

    rules = {"theta_minus": BOUNDED, "theta_plus": BOUNDED}  # site_theta's blend stays finite
    axis = "sites"

    def column(self, n_sites: int):  # a y-rotation at each site, so real
        x = np.arange(-(n_sites // 2), n_sites // 2 + 1)  # the site labels
        return rotation_matrix(site_theta(self.theta_minus, self.theta_plus, x)).real.copy()


@dataclass(frozen=True)
class GeneralCoin(_Stacked):
    """Fixed (q, alpha, beta) coin."""

    q: float
    alpha: float
    beta: float

    rules = {"q": PROBABILITY, "alpha": _PHASE, "beta": _PHASE}
    matrix = property(lambda self: general_coin_matrix(self.q, self.alpha, self.beta))


@dataclass(frozen=True)
class _RandomPhase(Ruled):
    """q = 1/2 coin with one phase drawn uniformly on [0, 2*pi) per time step. A
    subclass states the stream ``tag`` of the draws and ``coin``, which places
    the phase (or an array of phases) in ``general_coin_matrix``.

    Draws come from ``seed`` alone; while it is None (to be derived, see
    ``with_derived_seeds``) walks and ``realize`` raise ``MissingRandomnessError``.
    """

    seed: int | None = None

    rules = {"seed": optional(SEED)}
    axis = "steps"

    @classmethod
    def table(cls, specs, n_sites: int, t: int, stop: int):
        seeds = [spec.seed for spec in specs]
        if None in seeds:
            raise MissingRandomnessError("seed", f"{cls.__name__} needs a seed")
        return cls.coin(2.0 * np.pi * _draws(seeds, cls.tag, t, stop))  # in one draw block


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


def realize(spec: CoinSpec, x: int, t: int) -> np.ndarray:
    """The 2x2 coin at lattice site ``x``, an integer, and time step ``t``, an integer >= 0:
    the spec's own one-row table read there, float64 when real."""
    _check("x", x, INTEGER)
    _check("t", t, at_least(0))
    half = abs(int(x)) + 1  # x on a lattice of 2 |x| + 3 sites, 3 at least
    table = spec.table([spec], 2 * half + 1, t, t + 1)
    return table[:, :, 0, half + x if spec.axis == "sites" else 0]
