"""Plot-ready CSV emission with JSON sidecars.

Every emit writes a primary CSV plus a JSON sidecar carrying the flat config
echo, the RNG algorithm identifier, the seeds actually consumed, the package
version, and the wall-clock runtime. The emitters only name columns and pass
arrays; ``_emit`` alone turns numbers into text, with 17 significant digits
and a '.' separator. Re-running the sidecar's config echo reproduces the CSV
byte for byte; only the sidecar's runtime stamp varies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


_NUMBER = "%.17g"  # integers print without a decimal point, and -0 stays -0


def _emit(kind, out_dir, basename, tables: dict, config_echo, extra: dict) -> OutputBundle:
    """Write ``{basename}{suffix}.csv`` for each ``suffix: (header, labels, matrix)``
    (the first is the primary data file), then the JSON sidecar. Row i is
    ``labels[i]`` then ``matrix[i]``; every number, in the header too, prints as _NUMBER.
    A matrix cell that is an exact +0.0 or int 0, as most P(x, t) cells are (off the
    light cone's sublattice), is written as the "0" that gives, without formatting it."""
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
        for path, (header, labels, matrix) in zip(paths.values(), tables.values()):
            head = ",".join(h if isinstance(h, str) else _NUMBER % h for h in header)
            text = matrix.dtype.kind in "OSU"  # e.g. "winning"
            cell = "%s" if text else _NUMBER
            # the cells formatted: all text; every number but an exact +0.0 (-0.0 is kept)
            keeps = np.full(matrix.shape, True) if text else (matrix != 0) | np.signbit(matrix)
            with open(path, "w", newline="") as fh:
                fh.write(head + "\n")
                for label, row, keep in zip(labels, matrix, keeps):
                    line = ",".join([_NUMBER, *[cell if k else "0" for k in keep.tolist()]])
                    fh.write(line % (label, *row[keep].tolist()) + "\n")
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
    times, positions = trajectory.times, trajectory.final_state.geometry.positions
    tables = {"": (("t", "expectation", "variance"), times,
                   np.column_stack((trajectory.expectation, trajectory.variance)))}
    if trajectory.distributions is not None:
        tables["_distribution"] = (("t", *positions), times, trajectory.distributions)
    extra = {"trajectory": trajectory.metadata, "runtime_seconds": runtime_seconds}
    return _emit("trajectory", out_dir, basename, tables, config_echo, extra)


def emit_ensemble(
    result: EnsembleResult,
    out_dir,
    basename: str = "ensemble",
    config_echo=None,
    runtime_seconds: float | None = None,
) -> OutputBundle:
    tables = {"": (("t", "mean_expectation", "std_error"), result.times,
                   np.column_stack((result.mean_expectation, result.std_error)))}
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
    tables = {"": (("t", "expectation", "variance"), result.times,
                   np.column_stack((result.expectation, result.variance)))}
    if record_full:
        tables["_distribution"] = (("t", *result.positions), result.times,
                                   result.distributions)
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
    header = (f"{result.grid.axis1.name}\\{result.grid.axis2.name}", *result.axis2_values)
    tables = {
        "_expectation": (header, result.axis1_values, result.expectation),
        "_classification": (header, result.axis1_values, result.classification),
    }
    extra = {
        "sweep": result.metadata,
        "tie_tolerance": result.grid.tie_tolerance,
        "steps": result.grid.steps,
        "n_sites": result.grid.geometry.n_sites,
        "runtime_seconds": runtime_seconds,
    }
    return _emit("sweep", out_dir, basename, tables, config_echo, extra)
