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
does not have are rejected, and a required section given none of its keys is
named by the key that starts it (``schedule.a.kind``, ``grid.axis1.name``).
Each class, ``RunConfig`` too, checks the rule of each field as it is built
(``rng.Ruled``); the ``FieldError`` of a value a rule rejects names its field,
and ``_rejected`` makes it the ``ConfigError(key, message)`` of its key,
as every validation error is (``config`` names the file). So it does those of
``sweep.check_grid``, which name ``GridSpec`` fields, and of the walk's one pre-run check
(``evolution._check_walk``: light cone, start and seeds) of a walk's schedule.

``MODES`` describes each run mode once: its help line, the keys it reads and
the function that runs it. Validation rejects every other key (``seed`` in a
classical run, say), the command line offers flags only for the keys read,
and dumping leaves out the keys not read, so a parsed ``RunConfig`` dumps to
flat text that parses back to an equal config, which is what makes output
sidecars replayable.

Only ``validate`` calls ``build_schedule``, ``build_initial_state`` and ``build_grid_spec``,
once per run; the mode's runner takes what they built, kept in ``RunConfig.built``.
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

from . import ensemble, output, sweep
from .coins import (
    CoinSpec,
    GeneralCoin,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    SiteTanhRotation,
    UniformRotation,
)
from .errors import ConfigError, FieldError, MissingRandomnessError, WalkError
from .evolution import (
    AlternatingEvenOdd,
    Composite,
    ProbabilisticChoice,
    Single,
    StrategySchedule,
    _check_walk,
    _seed_slots,
    run,
    with_derived_seeds,
)
from .rng import ITERATIONS, ODD_SITES, PROBABILITY, SEED, STEPS, TOLERANCE, Ruled, at_least
from .rng import MAX_CELLS, optional
from .state import SPIN_DOWN, BlochCoinState, LatticeGeometry, WalkerState
from .sweep import GridAxis, GridSpec, ScheduleTemplate

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
    "fixed": "grid.fixed",
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
            raise ConfigError(key, f"{text!r} is neither a number nor a pi fraction") from None
        value = math.pi * float(m.group("coef") or 1.0)
        den = float(m.group("den") or 1.0)
        if den == 0.0:
            raise ConfigError(key, f"{text!r} divides by zero") from None
        value = -value / den if m.group("sign") == "-" else value / den
    if not math.isfinite(value):
        raise ConfigError(key, f"{text!r} is not a finite number")
    return value


def _parse_bool(text: str, key: str) -> bool:
    t = str(text).strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(key, f"{text!r} is not a boolean")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(str(text).strip())
    except ValueError:
        raise ConfigError(key, f"{text!r} is not an integer") from None


_SCALARS = {
    float: parse_angle,
    int: _parse_int,
    bool: _parse_bool,
    str: lambda text, key: str(text).strip(),
}


@dataclass
class RunConfig(Ruled):
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
    # The run objects validate built, by the mode runner's argument names.
    built: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # Every default passes its rule, so a key the mode does not read fails as unread.
    rules = {"sites": optional(ODD_SITES), "steps": STEPS, "seed": optional(SEED),
             "iterations": ITERATIONS, "workers": at_least(1),
             "tie_tolerance": TOLERANCE, "p_right": PROBABILITY}


# ---------------------------------------------------------------------------
# flat text <-> domain objects
# ---------------------------------------------------------------------------


def read_flat_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines, each key once; '#' starts a comment. A fault that is
    no key's is named by ``config``, the flag that gives the file."""
    values, lines = {}, {}  # key -> value, key -> line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError("config", f"line {lineno}: empty key or value in {raw!r}")
        if key in lines:
            raise ConfigError(key, f"line {lineno} repeats line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def _key(path: str, prefix: str = "") -> str:
    """The key of the field, or dotted field path, ``path`` below ``prefix``."""
    return _join(prefix, ".".join(_KEYS.get(name, name) for name in path.split(".")))


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


def _first_key(tp, key: str) -> str:
    """The key that starts a section of type ``tp`` at ``key``: its kind's for a coin or
    a schedule, else that of its first field without a default, else ``key`` itself."""
    if tp in (CoinSpec, StrategySchedule):
        return f"{key}.kind"
    for _, suffix, field_tp, default in _fields(tp) if dataclasses.is_dataclass(tp) else ():
        if default is dataclasses.MISSING:
            return _first_key(field_tp, _join(key, suffix))
    return key


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
                raise ConfigError(_first_key(tp, key), f"required{context}")
            continue
        values[name] = value.lower() if name in _CHOICE_FIELDS else value
    try:
        if base is not None:
            return dataclasses.replace(base, **values)
        return cls(**values)
    except FieldError as exc:
        raise _rejected(exc, prefix) from exc


def _parse_kind(table: dict, flat: dict[str, str], key: str):
    """Instance of the class ``flat[key + '.kind']`` names in ``table``, from
    the ``key.*`` entries, which are removed; None when there are none."""
    kind_key = f"{key}.kind"
    if kind_key not in flat:
        if any(k.startswith(f"{key}.") for k in flat):
            raise ConfigError(kind_key, f"required; expected one of {tuple(table)}")
        return None
    kind = flat.pop(kind_key).strip().lower()
    if kind not in table:
        raise ConfigError(kind_key, f"must be one of {tuple(table)}, got {kind!r}")
    return _parse_section(table[kind], flat, key, f" for {kind_key}={kind}")


def build_coin(flat: dict[str, str], key: str) -> CoinSpec | None:
    """Coin spec from the ``key.*`` entries of ``flat`` (e.g. key='schedule.a'),
    which are removed; None when there are none."""
    return _parse_kind(COIN_KINDS, flat, key)


def config_from_flat(flat: Mapping[str, str]) -> RunConfig:
    """Parse a flat key/value mapping into a RunConfig of domain objects; the
    rules that depend on the mode are left to ``validate``."""
    rest = dict(flat)
    cfg = _parse_section(RunConfig, rest, "")
    if rest:
        raise ConfigError(next(iter(rest)), "unknown config key")
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
    for key in MODES[cfg.mode].unread(list(out)):
        del out[key]
    return out


def dumps_config(cfg: RunConfig) -> str:
    return "".join(f"{k} = {v}\n" for k, v in config_to_flat(cfg).items())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _require(condition: bool, key: str, message: str):
    if not condition:
        raise ConfigError(key, message)


def _rejected(exc: FieldError, section: str = "") -> ConfigError:
    """The ConfigError of a rejected value, led by its key: a pre-run error's (a ``WalkError``
    from ``evolution._check_walk``) is a run key, a seed slot's below ``schedule``, any other's
    its field below ``section`` (a grid's needs none). Each ``name=`` is spelled by its key."""
    if isinstance(exc, WalkError):
        section = "schedule" if isinstance(exc, MissingRandomnessError) else ""
    text = re.sub(r"(?<!\S)(\w+)=", lambda match: f"{_key(match[1])}=", str(exc))
    return ConfigError(_key(exc.field, section), text)


def build_schedule(cfg: RunConfig) -> StrategySchedule:
    """The configured schedule: with a top-level seed, every stochastic seed slot
    is derived from it, and none may be set."""
    _require(cfg.schedule is not None, "schedule.kind", f"mode={cfg.mode} requires a schedule")
    if cfg.seed is None:
        return cfg.schedule
    for slot, name, seed in _seed_slots(cfg.schedule):
        _require(seed is None, _key(f"{name}.seed" if slot else name, "schedule"), "excludes "
                 "the top-level seed: every seed slot is derived from seed; remove one")
    return with_derived_seeds(cfg.schedule, cfg.seed, 0)


def build_geometry(cfg: RunConfig) -> LatticeGeometry:
    _require(cfg.sites is not None, "sites", f"mode={cfg.mode} requires it")
    return LatticeGeometry(cfg.sites)


def build_initial_state(cfg: RunConfig) -> WalkerState:
    return WalkerState.localized(build_geometry(cfg), cfg.initial, cfg.x0)


def build_grid_spec(cfg: RunConfig) -> GridSpec:
    for name, axis in (("axis1", cfg.axis1), ("axis2", cfg.axis2)):
        _require(axis is not None, _first_key(GridAxis, _key(name)),
                 f"mode={cfg.mode} requires two grid axes")
    coins = "sweep" in MODES[cfg.mode].reads
    _require(cfg.sweep is not None or not coins, "sweep.family",
             f"mode={cfg.mode} requires it")
    grid = GridSpec(
        axis1=cfg.axis1, axis2=cfg.axis2,
        schedule=cfg.sweep if coins else build_schedule(cfg),
        steps=cfg.steps,
        geometry=build_geometry(cfg),
        initial=cfg.initial,
        x0=cfg.x0,
        fixed=dict(cfg.grid_fixed),
        master_seed=cfg.seed,
        tie_tolerance=cfg.tie_tolerance,
    )
    sweep.check_grid(grid)  # a built corner's walk too: its light cone, start and seeds
    return grid


def validate(cfg: RunConfig) -> RunConfig:
    """Check every invariant the mode requires, raising ConfigError on the
    first, and keep the run objects the mode's runner takes in ``cfg.built``."""
    _require(cfg.mode in MODES, "mode", f"must be one of {tuple(MODES)}, got {cfg.mode!r}")
    _require(cfg.out_dir != "", "out", "must name an output directory, got ''")
    mode = MODES[cfg.mode]
    if "iterations" in mode.reads:  # each iteration's seeds derive from the master seed
        _require(cfg.seed is not None, "seed", f"mode={cfg.mode} requires a master seed")
    try:  # a grid's field or the pre-run check's argument, named by its key
        if "grid" in mode.reads:
            cfg.built = {"grid": build_grid_spec(cfg)}
        elif "schedule" in mode.reads:
            schedule = build_schedule(cfg)
            _check_walk([schedule], build_geometry(cfg), cfg.steps, cfg.x0)
            cfg.built = {"schedule": schedule, "initial": build_initial_state(cfg)}
    except FieldError as exc:
        raise _rejected(exc) from exc
    kept, rows, cols = mode.keeps(cfg)
    _require(rows * cols <= MAX_CELLS, "steps", f"the run would keep {kept} = {rows} x {cols} "
             f"= {rows * cols} float64 cells, more than {MAX_CELLS}")
    unread = mode.unread(cfg.given)
    if unread:
        raise ConfigError(unread[0], f"not read in mode={cfg.mode}; remove it")
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
        _require(path.is_file(), "config", f"file not found: {path}")
        flat.update(read_flat_text(path.read_text()))
    if overrides:
        flat.update({k: str(v) for k, v in overrides.items() if v is not None})
    return validate(config_from_flat(flat))


# ---------------------------------------------------------------------------
# run modes
# ---------------------------------------------------------------------------


def _run_walk(cfg: RunConfig, initial: WalkerState, schedule: StrategySchedule):
    result = run(initial, schedule, cfg.steps, record_full=cfg.record_full)
    return result, output.emit_trajectory, (
        f"walk: {cfg.steps} steps, final <X> = {result.expectation[-1]:.6g}")


def _run_ensemble(cfg: RunConfig, initial: WalkerState, schedule: StrategySchedule):
    result = ensemble.ensemble_expectation(initial, schedule, cfg.steps, cfg.iterations,
                                           master_seed=cfg.seed, workers=cfg.workers)
    return result, output.emit_ensemble, (
        f"ensemble: {cfg.iterations} iterations, final mean <X> = "
        f"{result.mean_expectation[-1]:.6g} (std error {result.std_error[-1]:.3g})")


def _run_sweep(cfg: RunConfig, grid: GridSpec):
    coins = callable(grid.schedule)  # a template; a fixed schedule sweeps initial states
    run_sweep = sweep.sweep_coin_params if coins else sweep.sweep_initial_state
    result = run_sweep(grid, workers=cfg.workers)
    wins, losses = (int((result.classification == c).sum()) for c in ("winning", "losing"))
    return result, output.emit_sweep, (
        f"{cfg.mode}: {result.expectation.size} points, {wins} winning / {losses} losing")


def _run_classical(cfg: RunConfig):
    result = ensemble.classical_walk(cfg.steps, cfg.p_right)
    return result, functools.partial(output.emit_classical, record_full=cfg.record_full), (
        f"classical: {cfg.steps} steps, final variance = {result.variance[-1]:.6g}")


@dataclass(frozen=True)
class Mode:
    """A run mode: its subcommand's help line, the keys it reads besides
    ``mode`` and ``out`` (a section name covers every key below it), and the
    function ``run(cfg, **cfg.built)`` that runs a validated config on the
    objects ``validate`` built, returning the result, its emitter and a
    one-line summary. Sweeps and emitters are looked up by module name at call
    time, so rebinding a name (as ``bench/tracing.py`` does) reaches every call.
    ``keeps(cfg)`` is the largest table the run keeps, as (what, rows, columns)."""

    help: str
    reads: tuple[str, ...]
    run: typing.Callable
    keeps: typing.Callable = lambda cfg: ("nothing", 0, 0)  # a sweep's are its points

    def unread(self, keys) -> list[str]:
        """The keys in ``keys`` this mode does not read."""
        reads = ("mode", "out", *self.reads)
        return [k for k in keys if not any(k == r or k.startswith(f"{r}.") for r in reads)]


MODES = {
    "walk": Mode("one trajectory: expectation and variance per step",
                 ("sites", "steps", "seed", "record_full", "schedule", "initial"), _run_walk,
                 lambda cfg: ("(steps + 1) x sites of record_full", cfg.steps + 1,
                              cfg.sites if cfg.record_full else 0)),
    "ensemble": Mode("mean expectation over independently seeded iterations",
                     ("sites", "steps", "seed", "iterations", "workers", "schedule",
                      "initial"), _run_ensemble,
                     lambda cfg: ("iterations x (steps + 1)", cfg.iterations, cfg.steps + 1)),
    "sweep-coin": Mode("final expectation over a coin-parameter grid",
                       ("sites", "steps", "workers", "tie_tolerance", "sweep", "grid",
                        "initial"), _run_sweep),
    "sweep-initial": Mode("final expectation over the initial-state Bloch grid",
                          ("sites", "steps", "seed", "workers", "tie_tolerance", "schedule",
                           "grid", "initial.x0"), _run_sweep),
    "classical": Mode("exact classical random-walk baseline",
                      ("steps", "record_full", "p_right"), _run_classical,
                      lambda cfg: ("(steps + 1) x (2 steps + 1)", cfg.steps + 1,
                                   2 * cfg.steps + 1)),
}
