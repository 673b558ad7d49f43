"""Benchmark of the parrondoqw engine, driven from outside the package.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports the program from ``src/`` and
fails on import, without a result, when that is missing. Each call's result is
checked: the first call of each op kind against the committed references
(``gate.py``), every later call for byte equality with the first. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's provenance.

With ``--trace 0`` the calls run untraced and the metrics are the end-to-end
ones. Every call is followed by one run of a fixed reference kernel
(``hostspeed.py``); a set-up's imports are referred to numpy's import and its
warm-up call to the kernel, both in the same fresh interpreter. Each time is
scaled to the host speed at which its reference takes a fixed
nominal time: on a shared 2-core VM, slow phases (1.5-1.7x) lasting seconds
to whole runs moved raw latencies, even per-run minima, by 30-60%, while
these ratios moved by a few percent. Raw per-kind latencies, set-up times and
reference times are printed with the provenance.

- ``steps_per_s``: walker time-steps per call summed over kinds, divided by
  the sum of the kinds' median scaled latencies;
- ``op_p50_s``: mean over kinds of each kind's median scaled latency;
- ``peak_rss_mb``: peak resident memory of this process;
- ``setup_s``: median scaled time over fresh interpreters of imports, input
  generation and one warm-up call (``setup_once.py``).

With ``--trace 1`` untraced and traced cycles alternate for the run time and
the metrics are per-layer: self times and counts per cycle (``tracing.py``),
layer probes and the worker-pool check (``probes.py``) and the failure ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import gate
import hostspeed
import probes
import tracing
import workloads  # fails without the program's source in the checkout

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class Runner:
    """Calls ops, times them and checks every result."""

    def __init__(self, workload, references):
        self.workload = workload
        self.references = references
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, bytes] = {}  # kind -> digest of a checked result

    def call(self, op) -> float | None:
        """Call ``op`` once and check it; its latency, or None if it raised."""
        op.reset()
        if self.tracer:
            self.tracer.begin_op()
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.record(op.kind, [f"raised {exc!r}"])
            return None
        elapsed = perf_counter() - start
        if self.tracer:
            self.tracer.end_op()
        checking = self.tracer.span("bench.check") if self.tracer else contextlib.nullcontext()
        with checking:
            self.record(op.kind, self._check(op, result))
        return elapsed

    def cycle(self, ops):
        for op in ops:
            self.call(op)

    def _check(self, op, result) -> list[str]:
        try:
            digest = op.fingerprint(result)
            if op.kind in self._first:
                if digest == self._first[op.kind]:
                    return []
                return ["output bytes differ from an earlier call with the same inputs"]
            reference = workloads.reference_for(self.references, self.workload.name, op)
            problems = gate.compare(op.outputs(result), reference)
            problems += gate.residuals_vanish(op.residuals(result))
        except Exception as exc:  # unreadable output is a failed operation
            return [f"check raised {exc!r}"]
        if not problems:
            self._first[op.kind] = digest
        return problems

    def record(self, label: str, problems: list[str]):
        """Count one checked operation; it failed if ``problems`` is not empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def setup_once(args, workdir: Path, runner: Runner) -> dict | None:
    """One set-up's parts and references (``setup_once.py``), or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_once.py"), args.workload,
         str(args.seed), str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        runner.record("set-up", [proc.stderr.strip()[-500:]])
        return None
    runner.record("set-up", [])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, workload, runner: Runner, workdir: Path):
    """Call the ops round-robin for the run time and time each call.

    Each call is paired with the reference kernel's time right after it.
    The set-up measurements are spread evenly over the run,
    on a paused clock, so that a slow phase of the host does not decide
    their median.
    """
    samples = defaultdict(list)  # kind -> [(latency, kernel seconds)]
    setups: list[dict | None] = []
    start = perf_counter()
    paused = 0.0
    for i, op in enumerate(itertools.cycle(workload.ops)):
        elapsed = perf_counter() - start - paused
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            began = perf_counter()
            setups.append(setup_once(args, workdir / f"setup-{len(setups)}", runner))
            paused += perf_counter() - began
        if i >= len(workload.ops) and elapsed >= args.seconds:
            break
        latency = runner.call(op)
        if latency is not None:
            samples[op.kind].append((latency, hostspeed.kernel_seconds()))
    setups = [setup for setup in setups if setup is not None]
    if not setups:
        raise RuntimeError("every set-up measurement failed")
    scaled = {kind: scaled_median(pairs, hostspeed.REFERENCE_S)
              for kind, pairs in samples.items()}
    steps = sum(op.steps for op in workload.ops if op.kind in scaled)
    metrics = {
        "steps_per_s": (steps / sum(scaled.values()), "1/s"),
        "op_p50_s": (statistics.fmean(scaled.values()), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(map(scaled_setup, setups)), "s"),
    }
    kernel_times = [k for pairs in samples.values() for _, k in pairs]
    counts = {
        "op_latency_s": {
            kind: {"n": len(pairs), "scaled_median": scaled[kind],
                   "raw_min": min(t for t, _ in pairs),
                   "raw_median": statistics.median(t for t, _ in pairs)}
            for kind, pairs in samples.items()
        },
        "setup": {"n": len(setups), **{
            f"{part}_median": statistics.median(setup[part] for setup in setups)
            for part in ("import_s", "warmup_s", "numpy_s", "kernel_s")}},
        "reference_kernel_s": {"n": len(kernel_times), "min": min(kernel_times),
                               "median": statistics.median(kernel_times),
                               "reference": hostspeed.REFERENCE_S},
    }
    return metrics, counts


def scaled_median(pairs, reference_s: float) -> float:
    """Median time at the reference host speed, from (time, reference) pairs."""
    return statistics.median(t / k for t, k in pairs) * reference_s


def scaled_setup(setup: dict) -> float:
    """One set-up's time at the reference host speed, each part by its reference."""
    return (setup["import_s"] / setup["numpy_s"] * hostspeed.NUMPY_IMPORT_REFERENCE_S
            + setup["warmup_s"] / setup["kernel_s"] * hostspeed.REFERENCE_S)


def per_layer(args, workload, runner: Runner):
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    cycles = 0
    deadline = perf_counter() + args.seconds
    while cycles == 0 or perf_counter() < deadline:
        start = perf_counter()
        runner.cycle(workload.ops)
        untraced += perf_counter() - start
        with tracer.installed():
            runner.tracer = tracer
            start = perf_counter()
            runner.cycle(workload.ops)
            traced += perf_counter() - start
            runner.tracer = None
        cycles += 1
    metrics = tracing.layer_metrics(tracer, cycles, traced, untraced)
    metrics.update(probes.layer_probes(workload, args.seed))
    speedup, problems = probes.pool_probe()
    runner.record("worker pool", problems)
    metrics["probe.pool_speedup"] = (speedup, "ratio")
    metrics["fail_ratio"] = (runner.failed / runner.attempted, "ratio")
    counts = {"traced_cycles": cycles, "untraced_cycles": cycles,
              "probe_batches": probes.BATCHES}
    return metrics, counts


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, counts: dict) -> dict:
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": workloads.np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "traced_runs": args.trace,
        "samples": counts,
    }
    if args.trace:
        info["layer_moves"] = tracing.EXPECTED_MOVES
    return info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        workload = workloads.build(args.workload, args.seed, workdir / "main")
        runner = Runner(workload, workloads.load_references())
        runner.cycle(workload.ops)  # warm caches; checks each kind once
        if args.trace:
            metrics, counts = per_layer(args, workload, runner)
        else:
            metrics, counts = end_to_end(args, workload, runner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    info = provenance(args, counts)
    info["problems"] = runner.problems[:20]
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
