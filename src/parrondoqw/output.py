"""Plot-ready CSV emission with JSON sidecars.

Every emit writes a primary CSV plus a JSON sidecar carrying the flat config
echo, the RNG algorithm identifier, the seeds actually consumed, the package
version, and the wall-clock runtime. The emitters only name columns and pass
arrays; ``_emit`` alone turns numbers into text, each as Python's ``"%.17g"``
would print it (17 significant digits, a '.' separator), through the numpy
renderer in ``render``, which falls back to ``%`` cell by cell only where it
cannot prove its digits exact. Re-running the sidecar's config echo
reproduces the CSV byte for byte; only the sidecar's runtime stamp varies.
Each file is rewritten in place and cut where its text ends, as a fresh run would
leave it; files a run does not write are left as they are.
"""

from __future__ import annotations

import itertools
import json
import os
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


def _emit(kind, out_dir, basename, tables: dict, config_echo, extra: dict) -> OutputBundle:
    """Write ``{basename}{suffix}.csv`` for each ``suffix: (header, labels, matrix)``
    (the first is the primary data file), then the JSON sidecar. The header's items are
    names and numbers, an array of numbers a cell each; row i is ``labels[i]`` then
    ``matrix[i]``. Every number prints as ``"%.17g"`` would print it: the numbers of all
    the tables go through ``render.parts`` a batch of lines at a time, a part a write; an
    int table goes as float64, whose text is that of the int, and a text table's cells
    join with "%s". Each file, the sidecar too, is written in place and cut at its end."""
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
    from . import render  # its tables load with the first emit, not with the package

    parts = itertools.chain(render.parts(paths.values(), tables.values()), [(sidecar, (
        json.dumps(metadata, indent=2, sort_keys=True, default=str) + "\n").encode())])
    try:
        for path, file_parts in itertools.groupby(parts, key=lambda part: part[0]):
            # in place: a rewritten file keeps its cached pages, which O_TRUNC would free
            with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
                try:  # no byte of an old, longer file stays after the new ones
                    fh.writelines(part for _, part in file_parts)
                finally:
                    fh.truncate()
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
        tables["_distribution"] = (("t", positions), times, trajectory.distributions)
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
        tables["_distribution"] = (("t", result.positions), result.times,
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
    header = (f"{result.grid.axis1.name}\\{result.grid.axis2.name}", result.axis2_values)
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
