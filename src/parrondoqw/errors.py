"""Exception and warning types shared across the walk engine."""


class WalkError(Exception):
    """Base class for all engine errors."""


class InvalidPositionError(WalkError):
    """A position label is not an integer or lies outside the lattice."""


class GeometryTooSmallError(WalkError):
    """The lattice cannot contain the walker's light cone for the requested steps."""


class BoundaryLeakageError(WalkError):
    """Amplitude would be pushed past the lattice edge by the conditional shift."""


class MissingRandomnessError(WalkError):
    """A seed slot of a schedule, or a random-phase coin, has no seed."""


class InsufficientDataError(WalkError):
    """Not enough data points for the requested fit."""


class ConfigError(WalkError):
    """A run configuration is malformed or violates a validation rule."""


class OutputError(WalkError):
    """Writing an output file failed."""


class DegenerateEnsembleWarning(UserWarning):
    """Ensemble averaging was requested for a schedule with no randomness."""
