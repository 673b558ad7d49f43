"""Command-line entry point.

One subcommand per run mode in ``config.MODES``: ``walk``, ``ensemble``,
``sweep-coin``, ``sweep-initial``, ``classical``. Each reads an optional flat
config file plus flags for the keys its mode reads (flags win), runs the
computation, and writes CSV data with a JSON sidecar. A warning the run raises
prints as one ``warning: <message>`` line on stderr. Exit codes: 0 success,
1 usage or validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import warnings

from .config import MODES, config_to_flat, parse_and_validate
from .errors import ConfigError, WalkError

# The config keys that have a flag. Each subcommand shows those its mode reads and
# hides the rest, which then fail validation as in a file; values stay strings.
_FLAGS = {
    "sites": {"help": "lattice size (odd)"},
    "steps": {"help": "number of time steps"},
    "seed": {"help": "master seed"},
    "record_full": {"help": "also write the full P(x, t) matrix",
                    "action": "store_const", "const": "true"},
    "iterations": {"help": "ensemble iteration count"},
    "workers": {"help": "parallel worker processes"},
}


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parrondoqw",
        description="Discrete-time quantum walks with inhomogeneous coins",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, mode in MODES.items():
        p = sub.add_parser(name, help=mode.help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (default: out)")
        for key, flag in _FLAGS.items():
            shown = flag if key in mode.reads else dict(flag, help=argparse.SUPPRESS)
            p.add_argument("--" + key.replace("_", "-"), **shown)
    return parser


def main(argv=None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        cfg = parse_and_validate(flags.pop("config"), flags)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            result, emit, summary = MODES[cfg.mode].run(cfg, **cfg.built)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        bundle = emit(result, cfg.out_dir, config_echo=config_to_flat(cfg),
                      runtime_seconds=time.perf_counter() - started)
    except WalkError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    print(f"wrote {bundle.data_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
