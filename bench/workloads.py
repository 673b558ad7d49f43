"""The benchmark workloads: seeded inputs, timed calls and the outputs checked.

A workload is a list of operations, one per op kind. An operation is one
user-level call into the program: one ``ensemble_expectation``, one
``sweep_*`` or one ``cli.main`` invocation. The workload seed chooses the
master seeds, from a pool of ``POOL`` sets whose reference outputs are
committed in ``refs.npz``, and the order in which the op kinds are called.
The program receives only those generated inputs.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
fails if the program source is not there, so the benchmark never measures an
installed copy by accident.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "parrondoqw" / "__init__.py").is_file():
    raise ImportError(f"program source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import parrondoqw as pq  # noqa: E402
from parrondoqw import cli  # noqa: E402
from parrondoqw import rng as pq_rng  # noqa: E402

from gate import class_codes  # noqa: E402

if not Path(pq.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"parrondoqw imported from {pq.__file__}, not from {SRC}")

REFS = Path(__file__).resolve().parent / "refs.npz"
RECIPES = ROOT / "recipes"

# Master-seed sets with committed references; --seed picks one of them.
POOL = 4

COIN_A = pq.UniformRotation(np.pi / 2)
COIN_B = pq.SiteTanhRotation(-np.pi / 8, np.pi / 4)

# Per-call repetitions, chosen so that one call takes 20-60 ms on a 2-core VM:
# a run then holds hundreds of calls of each kind, each paired with the host
# speed measured right after it (``hostspeed.py``).
CHOICE_ITERATIONS = 10
PHASE_ITERATIONS = 2
SWEEP_COUNT = 3


@dataclass
class Op:
    """One user-level call with fixed inputs, and how to read its result."""

    kind: str  # unique within a workload
    ref_key: str  # reference entry: the kind, prefixed by the pool index if seeded
    steps: int  # walker time-steps one call completes (walks x steps)
    coin_mix: tuple[float, float]  # (fixed-matrix, tanh-field) coins per step
    call: Callable[[], object]
    outputs: Callable[[object], dict]  # arrays compared with the reference
    fingerprint: Callable[[object], bytes]  # must not change between reruns
    residuals: Callable[[object], dict] = lambda result: {}  # must vanish
    reset: Callable[[], None] = lambda: None  # untimed, before every call


@dataclass
class Workload:
    name: str
    sites: int  # lattice size the layer probes use
    ops: list[Op]  # in call order

    def __post_init__(self):
        # The set-up measurement's warm-up call: the first op declared, so
        # the same kind for every seed.
        self.warmup = self.ops[0]


def _master(pool_index: int, slot: int) -> int:
    return 7919 * (pool_index + 1) + 101 * slot


def _digest(outputs: Callable[[object], dict]) -> Callable[[object], bytes]:
    def fingerprint(result) -> bytes:
        h = hashlib.sha256()
        for name, value in sorted(outputs(result).items()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(value).tobytes())
        return h.digest()

    return fingerprint


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


def _ensemble_outputs(result) -> dict:
    return {"mean": result.mean_expectation, "std_error": result.std_error}


def _sweep_outputs(result) -> dict:
    return {
        "axis1": result.axis1_values,
        "axis2": result.axis2_values,
        "expectation": result.expectation,
        "classification": class_codes(result.classification),
    }


def _cold_rng_blocks():
    """Drop cached per-step draws, so a call starts as in a fresh process."""
    block = getattr(pq_rng, "_uniform_block", None)
    if hasattr(block, "cache_clear"):
        block.cache_clear()


def _ensemble_op(kind, ref_key, initial, schedule, steps, iterations, master,
                 coin_mix, reset=lambda: None) -> Op:
    def call():
        return pq.ensemble_expectation(
            initial, schedule, steps, iterations, master_seed=master
        )

    return Op(kind, ref_key, iterations * steps, coin_mix, call,
              _ensemble_outputs, _digest(_ensemble_outputs), reset=reset)


def _ensemble_choice(p: int, workdir: Path) -> Workload:
    initial = pq.WalkerState.localized(pq.LatticeGeometry(401), pq.SPIN_DOWN, 0)
    ops = [
        _ensemble_op(
            f"q{q}", f"p{p}/q{q}", initial,
            pq.ProbabilisticChoice(COIN_A, COIN_B, q), 200, CHOICE_ITERATIONS,
            _master(p, slot), coin_mix=(q, 1.0 - q),
        )
        for slot, q in enumerate((0.25, 0.5, 0.75))
    ]
    return Workload("ensemble_choice", 401, ops)


def _ensemble_phase(p: int, workdir: Path) -> Workload:
    initial = pq.WalkerState.localized(pq.LatticeGeometry(1001), pq.SYMMETRIC, 0)
    schedules = (
        ("alpha", pq.Single(pq.RandomPhaseAlpha()), (1.0, 0.0)),
        ("beta", pq.Single(pq.RandomPhaseBeta()), (1.0, 0.0)),
        ("alternating",
         pq.AlternatingEvenOdd(pq.RandomPhaseAlpha(), pq.RandomPhaseBeta()),
         (2.0, 0.0)),
    )
    ops = [
        _ensemble_op(
            kind, f"p{p}/{kind}", initial, schedule, 450, PHASE_ITERATIONS,
            _master(p, slot), coin_mix=mix, reset=_cold_rng_blocks,
        )
        for slot, (kind, schedule, mix) in enumerate(schedules)
    ]
    return Workload("ensemble_phase", 1001, ops)


def _sweep_coin(p: int, workdir: Path) -> Workload:
    ops = []
    for kind, template, mix in (
        ("single_b", pq.ScheduleTemplate("single_b"), (0.0, 1.0)),
        ("composite21", pq.ScheduleTemplate("composite", m=2, n=1), (2.0, 1.0)),
    ):
        grid = pq.GridSpec(
            axis1=pq.GridAxis("theta_b_minus", -np.pi, np.pi, SWEEP_COUNT),
            axis2=pq.GridAxis("theta_b_plus", -np.pi, np.pi, SWEEP_COUNT),
            schedule=template,
            steps=200,
            geometry=pq.LatticeGeometry(501),
            initial=pq.SPIN_DOWN,
            fixed={"theta_a": np.pi / 2},
        )
        ops.append(Op(
            kind, kind, SWEEP_COUNT**2 * 200, mix,
            lambda grid=grid: pq.sweep_coin_params(grid),
            _sweep_outputs, _digest(_sweep_outputs),
        ))
    return Workload("sweep_coin", 501, ops)


# ---------------------------------------------------------------------------
# CLI workload: generated configs taken from recipes/
# ---------------------------------------------------------------------------


def _read_recipe(name: str) -> dict[str, str]:
    flat = {}
    for line in (RECIPES / f"{name}.cfg").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            flat[key.strip()] = value.strip()
    return flat


def _walker_steps(flat: dict[str, str]) -> int:
    steps = int(flat["steps"])
    if flat["mode"] == "ensemble":
        return steps * int(flat["iterations"])
    if flat["mode"].startswith("sweep"):
        return steps * int(flat["grid.axis1.count"]) * int(flat["grid.axis2.count"])
    return steps


_BASENAME = {"walk": "trajectory", "classical": "classical"}


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _cli_outputs(mode: str, out: Path) -> Callable[[object], dict]:
    def outputs(exit_status) -> dict:
        code, stderr = exit_status
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.strip()}")
        if mode in ("walk", "classical"):
            _, table = _read_table(out / f"{_BASENAME[mode]}.csv")
            return {"t": table[:, 0], "expectation": table[:, 1],
                    "variance": table[:, 2]}
        if mode == "ensemble":
            _, table = _read_table(out / "ensemble.csv")
            return {"t": table[:, 0], "mean": table[:, 1], "std_error": table[:, 2]}
        header, table = _read_table(out / "sweep_expectation.csv")
        with open(out / "sweep_classification.csv") as fh:
            labels = [line.rstrip("\n").split(",")[1:] for line in fh][1:]
        return {
            "axis1": table[:, 0],
            "axis2": np.array([float(v) for v in header[1:]]),
            "expectation": table[:, 1:],
            "classification": class_codes(labels),
        }

    return outputs


def _cli_residuals(mode: str, out: Path) -> Callable[[object], dict]:
    """Invariants of the P(x, t) matrix every walk and classical case writes."""

    def residuals(exit_status) -> dict:
        if mode not in _BASENAME:
            return {}
        header, dist = _read_table(out / f"{_BASENAME[mode]}_distribution.csv")
        _, series = _read_table(out / f"{_BASENAME[mode]}.csv")
        x = np.array([float(v) for v in header[1:]])
        p = dist[:, 1:]
        return {
            "distribution.t": dist[:, 0] - series[:, 0],
            "distribution.norm": p.sum(axis=1) - 1.0,
            "distribution.mean": p @ x - series[:, 1],
        }

    return residuals


def _csv_digest(out: Path) -> Callable[[object], bytes]:
    def fingerprint(exit_status) -> bytes:
        h = hashlib.sha256(str(exit_status[0]).encode())
        for path in sorted(out.glob("*.csv")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.digest()

    return fingerprint


def _run_cli(argv: list[str]) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


def _cli_modes(p: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    small_grid = {"grid.axis1.count": 3, "grid.axis2.count": 3}
    cases = (
        # kind, recipe, overrides, seeded, coins per step
        ("walk_alternating", "random_phase_alternating_walk",
         {"schedule.a.seed": _master(p, 0), "schedule.b.seed": _master(p, 1)},
         True, (2.0, 0.0)),
        ("walk_composite21", "winning_composite_2_1", {}, False, (2.0, 1.0)),
        ("walk_first_steps22", "first_steps_composite_2_2", {}, False, (2.0, 2.0)),
        ("classical", "classical_unbiased", {}, False, (0.0, 0.0)),
        ("ensemble", "probabilistic_mix_q50",
         {"iterations": 5, "seed": _master(p, 2)}, True, (0.5, 0.5)),
        ("sweep_coin", "sweep_tanh_plane_composite_2_1", small_grid, False,
         (2.0, 1.0)),
        ("sweep_initial", "sweep_initial_composite_2_2",
         {"sites": 401, "steps": 200, **small_grid}, False, (2.0, 2.0)),
    )
    ops = []
    for kind, recipe, overrides, seeded, mix in cases:
        out = workdir / kind
        flat = _read_recipe(recipe)
        flat.update({k: str(v) for k, v in overrides.items()}, out=str(out))
        config = workdir / f"{kind}.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()))
        mode = flat["mode"]
        argv = [mode, "--config", str(config)]
        ops.append(Op(
            kind, f"p{p}/{kind}" if seeded else kind, _walker_steps(flat), mix,
            lambda argv=argv: _run_cli(argv),
            _cli_outputs(mode, out), _csv_digest(out),
            residuals=_cli_residuals(mode, out),
        ))
    return Workload("cli_modes", 1001, ops)


WORKLOADS = {
    "ensemble_choice": _ensemble_choice,
    "ensemble_phase": _ensemble_phase,
    "sweep_coin": _sweep_coin,
    "cli_modes": _cli_modes,
}


def build(name: str, seed: int, workdir) -> Workload:
    """The workload's inputs for ``seed``: master seeds and call order."""
    workload = WORKLOADS[name](seed % POOL, Path(workdir))
    random.Random(seed).shuffle(workload.ops)
    return workload


def load_references() -> dict[str, np.ndarray]:
    with np.load(REFS) as data:
        return {key: data[key] for key in data.files}


def reference_for(references: dict, workload: str, op: Op) -> dict[str, np.ndarray]:
    prefix = f"{workload}/{op.ref_key}/"
    found = {k[len(prefix):]: v for k, v in references.items() if k.startswith(prefix)}
    if not found:
        raise KeyError(f"no reference for {prefix}")
    return found
