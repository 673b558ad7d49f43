"""Command-line entry point.

Subcommands: ``walk``, ``ensemble``, ``sweep-coin``, ``sweep-initial``,
``classical``. Each reads an optional flat config file plus flag overrides
(flags win), runs the computation, and writes CSV data with a JSON sidecar.
Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import (
    RunConfig,
    build_grid_spec,
    build_initial_state,
    build_schedule,
    config_to_flat,
    parse_and_validate,
)
from .ensemble import classical_walk, ensemble_expectation
from .errors import ConfigError, WalkError
from .evolution import run
from .output import (
    emit_classical,
    emit_ensemble,
    emit_sweep,
    emit_trajectory,
)
from .sweep import sweep_coin_params, sweep_initial_state


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parrondoqw",
        description="Discrete-time quantum walks with inhomogeneous coins",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, help_text in (
        ("walk", "one trajectory: expectation and variance per step"),
        ("ensemble", "mean expectation over independently seeded iterations"),
        ("sweep-coin", "final expectation over a coin-parameter grid"),
        ("sweep-initial", "final expectation over the initial-state Bloch grid"),
        ("classical", "exact classical random-walk baseline"),
    ):
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--steps", type=int, help="number of time steps")
        p.add_argument("--sites", type=int, help="lattice size (odd)")
        p.add_argument(
            "--record-full",
            action="store_true",
            default=None,
            help="also write the full P(x, t) matrix",
        )
        p.add_argument("--iterations", type=int, help="ensemble iteration count")
        p.add_argument("--workers", type=int, help="parallel worker processes")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    names = ("mode", "out", "seed", "steps", "sites", "iterations", "workers")
    flags = {name: getattr(args, name) for name in names}
    if args.record_full:
        flags["record_full"] = "true"
    return {k: v for k, v in flags.items() if v is not None}


def _execute(cfg: RunConfig):
    started = time.perf_counter()
    options = {}
    if cfg.mode == "walk":
        initial, schedule = build_initial_state(cfg), build_schedule(cfg)
        result = run(initial, schedule, cfg.steps, record_full=cfg.record_full)
        emit = emit_trajectory
        summary = f"walk: {cfg.steps} steps, final <X> = {result.expectation[-1]:.6g}"
    elif cfg.mode == "ensemble":
        initial, schedule = build_initial_state(cfg), build_schedule(cfg)
        result = ensemble_expectation(initial, schedule, cfg.steps, cfg.iterations,
                                      master_seed=cfg.seed, workers=cfg.workers)
        emit = emit_ensemble
        summary = (
            f"ensemble: {cfg.iterations} iterations, final mean <X> = "
            f"{result.mean_expectation[-1]:.6g} "
            f"(std error {result.std_error[-1]:.3g})"
        )
    elif cfg.mode in ("sweep-coin", "sweep-initial"):
        grid = build_grid_spec(cfg)
        sweep_fn = sweep_coin_params if cfg.mode == "sweep-coin" else sweep_initial_state
        result = sweep_fn(grid, workers=cfg.workers)
        emit = emit_sweep
        wins = int((result.classification == "winning").sum())
        losses = int((result.classification == "losing").sum())
        summary = (
            f"{cfg.mode}: {result.expectation.size} points, "
            f"{wins} winning / {losses} losing"
        )
    else:
        result = classical_walk(cfg.steps, cfg.p_right)
        emit, options = emit_classical, {"record_full": cfg.record_full}
        summary = f"classical: {cfg.steps} steps, final variance = {result.variance[-1]:.6g}"
    bundle = emit(result, cfg.out_dir, config_echo=config_to_flat(cfg),
                  runtime_seconds=time.perf_counter() - started, **options)
    print(summary)
    print(f"wrote {bundle.data_path}")
    return bundle


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_and_validate(args.config, _overrides(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        _execute(cfg)
    except WalkError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
