"""Layer probes: single kernels timed through public functions, at workload size.

``run`` inlines the coin, shift and observable kernels, so until spans move
inside the program these probes are the only per-kernel view. They run after
the timed section, as does the worker-pool check.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

import numpy as np

from workloads import COIN_A, COIN_B, Workload, pq

BATCHES = 5

# Bytes one kernel moves per lattice site, computed from array sizes (complex
# amplitudes 16 B, real fields 8 B, counting numpy's temporaries), not measured.
FIXED_COIN_BYTES = 4 * (16 + 16) + 2 * (32 + 16)  # scalar*array products, adds
TANH_COIN_BYTES = 4 * (24 + 16) + 2 * (32 + 16)  # real-field*array products, adds
SHIFT_BYTES = 2 * (16 + 16)  # two shifted copies
RECORD_BYTES = 4 * (8 + 8) + 3 * (16 + 8) + 2 * 16  # |amp|^2, sums, two dots


def _seconds_per_call(fn, reps: int) -> float:
    """Median over batches of the mean time of one call."""
    times = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(reps):
            fn()
        times.append((perf_counter() - start) / reps)
    return statistics.median(times)


def _spread_state(sites: int, seed: int):
    """Unit-norm state with amplitude on every site but the two edges."""
    rng = np.random.default_rng(seed)
    up, down = rng.normal(size=(2, sites)) + 1j * rng.normal(size=(2, sites))
    up[[0, -1]] = 0.0
    down[[0, -1]] = 0.0
    norm = np.sqrt(np.sum(np.abs(up) ** 2 + np.abs(down) ** 2))
    return pq.WalkerState(pq.LatticeGeometry(sites), up / norm, down / norm)


def computed_bytes_per_step(workload: Workload) -> float:
    """Bytes one walker step moves at the probe size, averaged over op kinds."""
    per_site = [
        fixed * FIXED_COIN_BYTES + tanh * TANH_COIN_BYTES + SHIFT_BYTES + RECORD_BYTES
        for fixed, tanh in (op.coin_mix for op in workload.ops)
        if fixed + tanh > 0
    ]
    return workload.sites * statistics.fmean(per_site)


def layer_probes(workload: Workload, seed: int) -> dict[str, tuple[float, str]]:
    n = workload.sites
    state = _spread_state(n, seed)
    phase_seed = 1000 + seed
    metrics = {}
    for family, spec in (
        ("uniform", COIN_A),
        ("tanh", COIN_B),
        ("general", pq.GeneralCoin(0.5, np.pi / 3, np.pi / 5)),
        ("random_alpha", pq.RandomPhaseAlpha(seed=phase_seed)),
    ):
        t = _seconds_per_call(lambda: pq.apply_coin(state, spec), 200)
        metrics[f"probe.apply_coin.{family}.ns_per_site"] = (t / n * 1e9, "ns")
    t = _seconds_per_call(lambda: pq.shift(state), 200)
    metrics["probe.shift.ns_per_site"] = (t / n * 1e9, "ns")
    t = _seconds_per_call(
        lambda: (state.position_expectation(), state.position_variance()), 200)
    metrics["probe.observables.ns_per_site"] = (t / n * 1e9, "ns")
    for kind, schedule in (
        ("single", pq.Single(COIN_A)),
        ("composite", pq.Composite(COIN_A, COIN_B, 2, 1)),
        ("alternating", pq.AlternatingEvenOdd(
            pq.RandomPhaseAlpha(seed=phase_seed), pq.RandomPhaseBeta(seed=phase_seed))),
        ("probabilistic", pq.ProbabilisticChoice(COIN_A, COIN_B, 0.5, seed=phase_seed)),
    ):
        t = _seconds_per_call(lambda: pq.step(state, schedule), 100)
        metrics[f"probe.step.{kind}.us"] = (t * 1e6, "us")
    keys = iter(range(10**9))
    t = _seconds_per_call(lambda: pq.child_seed(seed, next(keys), 1), 200)
    metrics["probe.child_seed.us"] = (t * 1e6, "us")
    # Seeds no workload uses, so every draw generates a fresh block.
    fresh = iter(range(10**12 + 10**6 * seed, 10**12 + 10**6 * (seed + 1)))
    t = _seconds_per_call(lambda: pq.StepStream(next(fresh), 1).uniform(0), 200)
    metrics["probe.block_cold.us"] = (t * 1e6, "us")
    metrics["probe.kernel.computed_bytes_per_step"] = (
        computed_bytes_per_step(workload), "B")
    return metrics


def _pool_calls(workers: int) -> bytes:
    """A small ensemble and a small coin sweep; digest of their outputs."""
    initial = pq.WalkerState.localized(pq.LatticeGeometry(401), pq.SPIN_DOWN, 0)
    ensemble = pq.ensemble_expectation(
        initial, pq.ProbabilisticChoice(COIN_A, COIN_B, 0.5), 200, 128,
        master_seed=5, workers=workers,
    )
    sweep = pq.sweep_coin_params(pq.GridSpec(
        axis1=pq.GridAxis("theta_b_minus", -np.pi, np.pi, 6),
        axis2=pq.GridAxis("theta_b_plus", -np.pi, np.pi, 6),
        schedule=pq.ScheduleTemplate("composite", m=2, n=1),
        steps=200,
        geometry=pq.LatticeGeometry(501),
        fixed={"theta_a": np.pi / 2},
    ), workers=workers)
    h = hashlib.sha256()
    for array in (ensemble.mean_expectation, ensemble.std_error, sweep.expectation):
        h.update(array.tobytes())
    h.update(repr(sweep.classification.tolist()).encode())
    return h.digest()


def pool_probe() -> tuple[float, list[str]]:
    """(workers=1 time / workers=2 time, problems). Outputs must be equal bytes."""
    seconds, digests = {}, {}
    for workers in (1, 2):
        start = perf_counter()
        digests[workers] = _pool_calls(workers)
        seconds[workers] = perf_counter() - start
    problems = []
    if digests[1] != digests[2]:
        problems.append("workers=2 output bytes differ from workers=1")
    return seconds[1] / seconds[2], problems
