"""Plot-ready CSV emission with JSON sidecars.

Every emit writes a primary CSV (full double precision, 17 significant
digits, '.' decimal separator) plus a JSON sidecar carrying the flat config
echo, the RNG algorithm identifier, the seeds actually consumed, the package
version, and the wall-clock runtime. Re-running the sidecar's config echo
reproduces the CSV byte for byte; only the sidecar's runtime stamp varies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .ensemble import ClassicalWalkResult, EnsembleResult
from .errors import OutputError
from .evolution import Trajectory
from .sweep import SweepResult


@dataclass
class OutputBundle:
    """Paths written by one emit call: primary CSV, sidecar, extra CSVs by name."""

    data_path: Path
    sidecar_path: Path
    extra_paths: dict


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _table(corner: str, columns, row_labels, matrix, cell=_fmt):
    """Header ``[corner, *columns]``, then one row per label: the label and
    its formatted matrix row."""
    rows = ([label] + [cell(v) for v in row] for label, row in zip(row_labels, matrix))
    return [corner] + list(columns), rows


def _int_labels(values):
    return [str(int(v)) for v in values]


def _emit(kind, out_dir, basename, tables: dict, config_echo, extra: dict) -> OutputBundle:
    """Write ``{basename}{suffix}.csv`` for each ``suffix: (header, rows)``
    (the first is the primary data file), then the JSON sidecar."""
    if out_dir is None or str(out_dir) == "":
        raise OutputError("output directory path is empty")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out}: {exc}") from exc
    paths = {suffix: out / f"{basename}{suffix}.csv" for suffix in tables}
    sidecar = out / f"{basename}.json"
    metadata = {"kind": kind, "version": __version__,
                "config": dict(config_echo) if config_echo else None, **extra}
    try:
        for suffix, (header, rows) in tables.items():
            path = paths[suffix]
            with open(path, "w", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(row) + "\n")
        path = sidecar
        with open(sidecar, "w") as fh:
            json.dump(metadata, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    (_, data_path), *extras = paths.items()
    return OutputBundle(data_path, sidecar, {s[1:]: p for s, p in extras})


def emit_trajectory(
    trajectory: Trajectory,
    out_dir,
    basename: str = "trajectory",
    config_echo=None,
    runtime_seconds: float | None = None,
) -> OutputBundle:
    """Write t/expectation/variance columns, the optional P(x, t) matrix, and
    the sidecar."""
    times = _int_labels(trajectory.times)
    tables = {"": _table("t", ["expectation", "variance"], times,
                         zip(trajectory.expectation, trajectory.variance))}
    if trajectory.distributions is not None:
        positions = _int_labels(trajectory.final_state.geometry.positions)
        tables["_distribution"] = _table("t", positions, times, trajectory.distributions)
    extra = {"trajectory": trajectory.metadata, "runtime_seconds": runtime_seconds}
    return _emit("trajectory", out_dir, basename, tables, config_echo, extra)


def emit_ensemble(
    result: EnsembleResult,
    out_dir,
    basename: str = "ensemble",
    config_echo=None,
    runtime_seconds: float | None = None,
) -> OutputBundle:
    times = _int_labels(result.times)
    tables = {"": _table("t", ["mean_expectation", "std_error"], times,
                         zip(result.mean_expectation, result.std_error))}
    extra = {"ensemble": result.metadata, "runtime_seconds": runtime_seconds}
    return _emit("ensemble", out_dir, basename, tables, config_echo, extra)


def emit_classical(
    result: ClassicalWalkResult,
    out_dir,
    basename: str = "classical",
    record_full: bool = False,
    config_echo=None,
    runtime_seconds: float | None = None,
) -> OutputBundle:
    times = _int_labels(result.times)
    tables = {"": _table("t", ["expectation", "variance"], times,
                         zip(result.expectation, result.variance))}
    if record_full:
        tables["_distribution"] = _table(
            "t", _int_labels(result.positions), times, result.distributions
        )
    extra = {"runtime_seconds": runtime_seconds}
    return _emit("classical", out_dir, basename, tables, config_echo, extra)


def emit_sweep(
    result: SweepResult,
    out_dir,
    basename: str = "sweep",
    config_echo=None,
    runtime_seconds: float | None = None,
) -> OutputBundle:
    """Write the expectation matrix (one row per axis1 value, axis value
    headers), the parallel classification matrix, and the sidecar."""
    corner = f"{result.grid.axis1.name}\\{result.grid.axis2.name}"
    columns = [_fmt(v) for v in result.axis2_values]
    rows = [_fmt(v) for v in result.axis1_values]
    tables = {
        "_expectation": _table(corner, columns, rows, result.expectation),
        "_classification": _table(corner, columns, rows, result.classification, str),
    }
    extra = {
        "sweep": result.metadata,
        "tie_tolerance": result.grid.tie_tolerance,
        "steps": result.grid.steps,
        "n_sites": result.grid.geometry.n_sites,
        "runtime_seconds": runtime_seconds,
    }
    return _emit("sweep", out_dir, basename, tables, config_echo, extra)
