"""Walker wavefunction on a 1D lattice and its position observables.

The walker carries a two-component spin; its state is stored as two parallel
complex amplitude arrays (spin-up and spin-down), one entry per lattice site.
Positions are integer labels symmetric about the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidPositionError
from .rng import ODD_SITES, Ruled, _check, at_least, interval


@dataclass(frozen=True)
class LatticeGeometry:
    """Odd-sized 1D lattice with integer positions -(N-1)/2 ... +(N-1)/2."""

    n_sites: int

    def __post_init__(self):
        object.__setattr__(self, "n_sites", int(_check("n_sites", self.n_sites, ODD_SITES)))

    @property
    def half_span(self) -> int:
        """Largest position label; the lattice spans [-half_span, +half_span]."""
        return (self.n_sites - 1) // 2

    @cached_property
    def positions(self) -> np.ndarray:
        """Position labels as an int array of length n_sites."""
        h = self.half_span
        return np.arange(-h, h + 1)

    @cached_property
    def positions_squared(self) -> np.ndarray:
        return self.positions.astype(float) ** 2

    def index_of(self, x: int, field: str = "x") -> int:
        """Array index of the integer position label ``x`` (no bool), given as ``field``."""
        if (not isinstance(x, (int, np.integer)) or isinstance(x, bool)
                or abs(x) > self.half_span):
            raise InvalidPositionError(field, f"position {x!r} is not an integer in "
                                              f"[-{self.half_span}, {self.half_span}]")
        return int(x) + self.half_span


@dataclass(frozen=True)
class BlochCoinState(Ruled):
    """Initial spin state cos(theta/2)|up> + e^{i phi} sin(theta/2)|down>."""

    theta: float
    phi: float = 0.0

    rules = {"theta": interval(0.0, np.pi, "[0, pi]"),
             "phi": interval(0.0, 2.0 * np.pi, "[0, 2*pi)")}

    def spinor(self) -> tuple[complex, complex]:
        """Unit spinor (amplitude_up, amplitude_down)."""
        half = 0.5 * self.theta
        return complex(np.cos(half)), complex(np.exp(1j * self.phi) * np.sin(half))


SPIN_UP = BlochCoinState(theta=0.0)
SPIN_DOWN = BlochCoinState(theta=np.pi)
# (|up> + i|down>)/sqrt(2): the spin state whose uniform-rotation walk spreads
# symmetrically about the origin.
SYMMETRIC = BlochCoinState(theta=np.pi / 2, phi=np.pi / 2)


@dataclass
class WalkerState:
    """Spin-up/spin-down amplitude fields over the lattice at one time step.

    Observables treat the state as a value; only the evolution operations
    produce new states. There is no internal locking, so concurrent mutation
    requires external coordination (independent runs share nothing).
    """

    geometry: LatticeGeometry
    amp_up: np.ndarray = field(repr=False)
    amp_down: np.ndarray = field(repr=False)
    time_step: int = 0

    def __post_init__(self):
        self.amp_up = np.asarray(self.amp_up, dtype=np.complex128)
        self.amp_down = np.asarray(self.amp_down, dtype=np.complex128)
        n = self.geometry.n_sites
        if self.amp_up.shape != (n,) or self.amp_down.shape != (n,):
            raise ValueError(
                f"amplitude arrays must have shape ({n},), got "
                f"{self.amp_up.shape} and {self.amp_down.shape}"
            )
        _check("time_step", self.time_step, at_least(0))

    @classmethod
    def localized(
        cls,
        geometry: LatticeGeometry,
        coin: BlochCoinState = SPIN_DOWN,
        x0: int = 0,
    ) -> "WalkerState":
        """Unit-norm state with all amplitude on site ``x0`` in spin state ``coin``."""
        i = geometry.index_of(x0, "x0")
        up = np.zeros(geometry.n_sites, dtype=np.complex128)
        down = np.zeros(geometry.n_sites, dtype=np.complex128)
        up[i], down[i] = coin.spinor()
        return cls(geometry, up, down, time_step=0)

    def norm(self) -> float:
        """Total probability weight, sum over sites and both spin components."""
        return float(self.probability_distribution().sum())

    def probability_distribution(self) -> np.ndarray:
        """P(x) = |amp_up(x)|^2 + |amp_down(x)|^2, indexed like geometry.positions."""
        up, down = self.amp_up, self.amp_down
        return up.real**2 + up.imag**2 + down.real**2 + down.imag**2

    def position_expectation(self) -> float:
        """Mean position sum_x x P(x)."""
        p = self.probability_distribution()
        return float(self.geometry.positions @ p)

    def position_variance(self) -> float:
        """sum_x x^2 P(x) - (sum_x x P(x))^2, clamped at zero against roundoff."""
        p = self.probability_distribution()
        mean = float(self.geometry.positions @ p)
        second = float(self.geometry.positions_squared @ p)
        return max(second - mean * mean, 0.0)
