"""Exception and warning types shared across the walk engine."""


class WalkError(Exception):
    """Base class for all engine errors."""


class BoundaryLeakageError(WalkError):
    """Amplitude would be pushed past the lattice edge by the conditional shift."""


class InsufficientDataError(WalkError):
    """Not enough data points for the requested fit."""


class FieldError(ValueError):
    """A value a rule or the pre-run check rejects: ``FieldError(field, message)``, in args."""

    field = property(lambda self: self.args[0])  # the argument's name

    def __str__(self):
        return self.args[1]


class InvalidPositionError(FieldError, WalkError):
    """A position label is not an integer or lies outside the lattice."""


class GeometryTooSmallError(FieldError, WalkError):
    """The lattice cannot contain the walker's light cone for the requested steps."""


class MissingRandomnessError(FieldError, WalkError):
    """A seed slot of a schedule, or a random-phase coin, has no seed."""


class ConfigError(WalkError):
    """A config fails parsing or validation: ``ConfigError(key, message)``, in args, of the key
    at fault (``config`` for the file itself); ``str()`` is ``key: message``."""

    key = property(lambda self: self.args[0])

    def __str__(self):
        return f"{self.args[0]}: {self.args[1]}"


class OutputError(WalkError):
    """Writing an output file failed."""


class DegenerateEnsembleWarning(UserWarning):
    """Ensemble averaging was requested for a schedule with no randomness."""
