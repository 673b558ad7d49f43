"""Run configuration: flat key-value files, validation, and domain-object builders.

Config sources are flat ``key = value`` text with dotted keys for nesting
(``schedule.a.theta = pi/2``) plus command-line overrides, which win. Angle
values accept plain radians or symbolic fractions of pi ("pi/8", "-pi/8",
"3pi/4").

Each section parses straight into the domain class it describes:
``schedule.*`` into a schedule, ``schedule.a.*`` and ``schedule.b.*`` into
coin specs, ``initial.*`` into a ``BlochCoinState``, ``grid.axisN.*`` into a
``GridAxis`` and ``sweep.*`` into a ``ScheduleTemplate``. A section's ``kind``
key picks the class from its family's table; every other key names a field
of that class and is parsed by the field's annotation. Keys the chosen class
does not have are rejected, and so are keys the mode does not read (a
``schedule.*`` section in a classical run, say). Dumping walks the same
fields and leaves out what the mode does not read, so a parsed ``RunConfig``
dumps to flat text that parses back to an equal config, which is what makes
output sidecars replayable.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .coins import (
    CoinSpec,
    GeneralCoin,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    SiteTanhRotation,
    UniformRotation,
)
from .errors import ConfigError
from .evolution import (
    AlternatingEvenOdd,
    Composite,
    ProbabilisticChoice,
    Single,
    StrategySchedule,
    _seed_slots,
    reach,
    with_derived_seeds,
)
from .state import SPIN_DOWN, BlochCoinState, LatticeGeometry, WalkerState
from .sweep import GridAxis, GridSpec, ScheduleTemplate, check_grid

MODES = ("walk", "ensemble", "sweep-coin", "sweep-initial", "classical")

COIN_KINDS = {
    "uniform": UniformRotation,
    "tanh": SiteTanhRotation,
    "general": GeneralCoin,
    "random-alpha": RandomPhaseAlpha,
    "random-beta": RandomPhaseBeta,
}
SCHEDULE_KINDS = {
    "single": Single,
    "composite": Composite,
    "alternating": AlternatingEvenOdd,
    "probabilistic": ProbabilisticChoice,
}
_KIND_NAMES = {
    cls: name for table in (COIN_KINDS, SCHEDULE_KINDS) for name, cls in table.items()
}

# Field name -> config key, where the two differ.
_KEYS = {
    "spec": "a",
    "lower": "min",
    "upper": "max",
    "kind": "family",
    "out_dir": "out",
    "x0": "initial.x0",
    "axis1": "grid.axis1",
    "axis2": "grid.axis2",
    "grid_fixed": "grid.fixed",
}
# String fields whose values name a choice; matched case-insensitively.
_CHOICE_FIELDS = ("mode", "kind")

_PI_FORM = re.compile(
    r"^(?P<sign>[+-]?)\s*(?P<coef>\d+(?:\.\d+)?)?\s*pi(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?$",
    re.IGNORECASE,
)


def parse_angle(text: str, key: str = "angle") -> float:
    """Radians from a plain number or a pi-fraction string like '-pi/8' or '3pi/4'.

    Non-finite values are rejected.
    """
    text = str(text).strip()
    try:
        value = float(text)
    except ValueError:
        m = _PI_FORM.match(text)
        if not m:
            raise ConfigError(
                f"{key}={text!r} is neither a number nor a pi fraction"
            ) from None
        value = math.pi * float(m.group("coef") or 1.0)
        den = float(m.group("den") or 1.0)
        if den == 0.0:
            raise ConfigError(f"{key}={text!r} divides by zero") from None
        value = -value / den if m.group("sign") == "-" else value / den
    if not math.isfinite(value):
        raise ConfigError(f"{key}={text!r} is not a finite number")
    return value


def _parse_bool(text: str, key: str) -> bool:
    t = str(text).strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}={text!r} is not a boolean")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(str(text).strip())
    except ValueError:
        raise ConfigError(f"{key}={text!r} is not an integer") from None


_SCALARS = {
    float: parse_angle,
    int: _parse_int,
    bool: _parse_bool,
    str: lambda text, key: str(text).strip(),
}


@dataclass
class RunConfig:
    mode: str
    sites: int | None = None
    steps: int = 0
    seed: int | None = None
    iterations: int = 5000
    workers: int = 1
    record_full: bool = False
    tie_tolerance: float = 1e-9
    p_right: float = 0.5
    out_dir: str = "out"
    initial: BlochCoinState = SPIN_DOWN
    x0: int = 0
    schedule: StrategySchedule | None = None
    sweep: ScheduleTemplate | None = None
    axis1: GridAxis | None = None
    axis2: GridAxis | None = None
    grid_fixed: dict[str, float] = field(default_factory=dict)
    # The flat keys the config was parsed from, in order; not a config key.
    given: tuple = field(default=(), init=False, compare=False, repr=False)


# For the keys only some modes read (a name covers the keys below it), each mode's.
_MODE_READS = {
    "walk": ("schedule", "initial"),
    "ensemble": ("schedule", "initial", "iterations"),
    "sweep-coin": ("sweep", "grid", "initial"),
    "sweep-initial": ("schedule", "grid", "initial.x0"),
    "classical": ("p_right",),
}
_MODE_KEYS = ("schedule", "sweep", "grid", "initial", "iterations", "p_right")


def _unread(mode: str, keys) -> list[str]:
    """The keys in ``keys`` that ``mode`` does not read."""
    reads = _MODE_READS.get(mode, _MODE_KEYS)
    return [k for k in keys if k.split(".")[0] in _MODE_KEYS
            and not any(k == r or k.startswith(r + ".") for r in reads)]


# ---------------------------------------------------------------------------
# flat text <-> domain objects
# ---------------------------------------------------------------------------


def read_flat_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        values[key] = value
    return values


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


@functools.cache
def _fields(cls) -> tuple:
    """(name, key suffix, type, default) per dataclass field; the default is
    MISSING for a required field. ``X | None`` types are reduced to X."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        tp = hints[f.name]
        if type(None) in typing.get_args(tp):
            tp = typing.Union[tuple(a for a in typing.get_args(tp) if a is not type(None))]
        default = f.default
        if f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        out.append((f.name, _KEYS.get(f.name, f.name), tp, default))
    return tuple(out)


def _parse_field(tp, flat: dict[str, str], key: str, default):
    """Value of one field from the ``key`` entries of ``flat``, which are
    removed; None when there are none."""
    if tp == CoinSpec:
        return build_coin(flat, key)
    if tp == StrategySchedule:
        return _parse_kind(SCHEDULE_KINDS, flat, key)
    if dataclasses.is_dataclass(tp) or typing.get_origin(tp) is dict:
        prefix = f"{key}."
        section = [k for k in flat if k.startswith(prefix)]
        if not section:
            return None
        if typing.get_origin(tp) is dict:
            parse = _SCALARS[typing.get_args(tp)[1]]
            return {k[len(prefix):]: parse(flat.pop(k), k) for k in section}
        base = default if isinstance(default, tp) else None
        return _parse_section(tp, flat, key, base=base)
    if key not in flat:
        return None
    return _SCALARS[tp](flat.pop(key), key)


def _parse_section(cls, flat: dict[str, str], prefix: str, context: str = "", base=None):
    """Instance of ``cls`` from the ``prefix.*`` entries of ``flat``, which
    are removed. Fields without an entry keep their default, or ``base``'s
    value when ``base`` is given."""
    values = {}
    for name, suffix, tp, default in _fields(cls):
        key = _join(prefix, suffix)
        value = _parse_field(tp, flat, key, default)
        if value is None:
            if base is None and default is dataclasses.MISSING:
                raise ConfigError(f"{key} is required{context}")
            continue
        values[name] = value.lower() if name in _CHOICE_FIELDS else value
    try:
        if base is not None:
            return dataclasses.replace(base, **values)
        return cls(**values)
    except ValueError as exc:
        # Domain errors start with the field they reject; name its key instead.
        head, _, tail = str(exc).partition(" ")
        if head in (f.name for f in dataclasses.fields(cls)):
            raise ConfigError(f"{_join(prefix, _KEYS.get(head, head))} {tail}") from exc
        raise ConfigError(f"{prefix}: {exc}") from exc


def _parse_kind(table: dict, flat: dict[str, str], key: str):
    """Instance of the class ``flat[key + '.kind']`` names in ``table``, from
    the ``key.*`` entries, which are removed; None when there are none."""
    kind_key = f"{key}.kind"
    if kind_key not in flat:
        if any(k.startswith(f"{key}.") for k in flat):
            raise ConfigError(f"{kind_key} is required; expected one of {tuple(table)}")
        return None
    kind = flat.pop(kind_key).strip().lower()
    if kind not in table:
        raise ConfigError(f"{kind_key}={kind!r}; expected one of {tuple(table)}")
    return _parse_section(table[kind], flat, key, f" for {kind_key}={kind}")


def build_coin(flat: dict[str, str], key: str) -> CoinSpec | None:
    """Coin spec from the ``key.*`` entries of ``flat`` (e.g. key='schedule.a'),
    which are removed; None when there are none."""
    return _parse_kind(COIN_KINDS, flat, key)


def config_from_flat(flat: Mapping[str, str]) -> RunConfig:
    """Parse a flat key/value mapping into a RunConfig of domain objects.

    The domain constructors check their own ranges; the rules that depend
    on the mode are left to ``validate``.
    """
    rest = dict(flat)
    cfg = _parse_section(RunConfig, rest, "")
    if rest:
        raise ConfigError(f"unknown config key {next(iter(rest))!r}")
    cfg.given = tuple(flat)
    return cfg


def _dump(value, key: str, out: dict[str, str]):
    if value is None:
        return
    if dataclasses.is_dataclass(value):
        if type(value) in _KIND_NAMES:
            out[f"{key}.kind"] = _KIND_NAMES[type(value)]
        for name, suffix, _, _ in _fields(type(value)):
            _dump(getattr(value, name), _join(key, suffix), out)
    elif isinstance(value, dict):
        for name, item in sorted(value.items()):
            _dump(item, f"{key}.{name}", out)
    elif isinstance(value, bool):
        out[key] = "true" if value else "false"
    elif isinstance(value, float):
        out[key] = repr(float(value))
    else:
        out[key] = str(value)


def config_to_flat(cfg: RunConfig) -> dict[str, str]:
    """Flat key/value echo of a RunConfig, without the keys its mode does not
    read; parsing it back gives an equal config."""
    out: dict[str, str] = {}
    _dump(cfg, "", out)
    for key in _unread(cfg.mode, list(out)):
        del out[key]
    return out


def dumps_config(cfg: RunConfig) -> str:
    return "".join(f"{k} = {v}\n" for k, v in config_to_flat(cfg).items())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _validate_quantum_geometry(cfg: RunConfig):
    _require(cfg.sites is not None, f"mode={cfg.mode} requires 'sites'")
    _require(cfg.sites % 2 == 1, f"sites={cfg.sites} is even; the lattice must be odd")
    _require(cfg.sites >= 3, f"sites={cfg.sites} is too small; need at least 3")
    _require(cfg.steps >= 0, f"steps={cfg.steps} must be nonnegative")
    _require(
        cfg.sites >= 2 * cfg.steps + 1,
        f"sites={cfg.sites} < 2*steps+1={2 * cfg.steps + 1} for steps={cfg.steps}",
    )
    schedule = cfg.sweep if cfg.mode == "sweep-coin" else cfg.schedule
    furthest = reach(abs(cfg.x0), schedule, cfg.steps)
    _require(
        furthest <= (cfg.sites - 1) // 2,
        f"sites={cfg.sites} is too small: from initial.x0={cfg.x0} the walker can "
        f"reach |x|={furthest} in steps={cfg.steps}"
        + (" of m+n sites each (schedule.interleaved)" if furthest > abs(cfg.x0) + cfg.steps
           else ""),
    )


def _unseeded(schedule: StrategySchedule) -> str | None:
    """Key of the first seed slot in the schedule that has no seed."""
    for slot, name, seed in _seed_slots(schedule):
        if seed is None:
            return f"schedule.{_KEYS.get(name, name)}" + (".seed" if slot else "")
    return None


def build_schedule(cfg: RunConfig) -> StrategySchedule:
    """The configured schedule, ready to run: with a top-level seed, every
    stochastic seed slot is derived from it unless all are set explicitly."""
    _require(cfg.schedule is not None, f"mode={cfg.mode} requires a schedule section")
    missing = _unseeded(cfg.schedule)
    if missing and cfg.seed is not None:
        return with_derived_seeds(cfg.schedule, cfg.seed, 0)
    _require(
        missing is None,
        f"the schedule draws random numbers and needs {missing} or a top-level seed",
    )
    return cfg.schedule


def build_geometry(cfg: RunConfig) -> LatticeGeometry:
    return LatticeGeometry(cfg.sites)


def build_initial_state(cfg: RunConfig) -> WalkerState:
    return WalkerState.localized(build_geometry(cfg), cfg.initial, cfg.x0)


def build_grid_spec(cfg: RunConfig) -> GridSpec:
    _require(cfg.axis1 is not None and cfg.axis2 is not None,
             f"mode={cfg.mode} requires grid.axis1 and grid.axis2")
    if cfg.mode == "sweep-coin":
        _require(cfg.sweep is not None, "mode=sweep-coin requires sweep.family")
    grid = GridSpec(
        axis1=cfg.axis1,
        axis2=cfg.axis2,
        schedule=cfg.sweep if cfg.mode == "sweep-coin" else build_schedule(cfg),
        steps=cfg.steps,
        geometry=build_geometry(cfg),
        initial=cfg.initial,
        x0=cfg.x0,
        fixed=dict(cfg.grid_fixed),
        master_seed=cfg.seed,
        tie_tolerance=cfg.tie_tolerance,
    )
    try:
        check_grid(grid)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"grid.{exc}") from exc
    return grid


def validate(cfg: RunConfig) -> RunConfig:
    """Check every invariant the mode requires; raises ConfigError on the first."""
    _require(cfg.mode in MODES, f"mode={cfg.mode!r}; expected one of {MODES}")
    _require(cfg.workers >= 1, f"workers={cfg.workers} must be >= 1")
    _require(cfg.tie_tolerance >= 0.0, f"tie_tolerance={cfg.tie_tolerance} must be >= 0")
    if cfg.seed is not None:
        _require(cfg.seed >= 0, f"seed={cfg.seed} must be nonnegative")

    if cfg.mode == "classical":
        _require(cfg.steps >= 0, f"steps={cfg.steps} must be nonnegative")
        _require(
            0.0 <= cfg.p_right <= 1.0, f"p_right={cfg.p_right} outside [0, 1]"
        )
    else:
        _validate_quantum_geometry(cfg)
        if cfg.mode in ("walk", "ensemble"):
            build_schedule(cfg)
            if cfg.mode == "ensemble":
                _require(cfg.iterations >= 1, f"iterations={cfg.iterations} must be >= 1")
                _require(cfg.seed is not None, "mode=ensemble requires a master seed")
        else:
            build_grid_spec(cfg)
    unread = _unread(cfg.mode, cfg.given)
    if unread:
        raise ConfigError(f"{unread[0]} is not read in mode={cfg.mode}; remove it")
    return cfg


def parse_and_validate(
    config_path: str | Path | None = None,
    overrides: Mapping[str, str] | None = None,
) -> RunConfig:
    """Read the config file (if any), apply flag overrides, and validate.

    Overrides use the same flat keys as the file and take precedence.
    """
    flat: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        flat.update(read_flat_text(path.read_text()))
    if overrides:
        flat.update({k: str(v) for k, v in overrides.items() if v is not None})
    if "mode" not in flat:
        raise ConfigError("mode is required (config file key 'mode' or subcommand)")
    return validate(config_from_flat(flat))
