"""Spans around calls into each module of the program, recorded from outside it.

``Tracer.installed()`` replaces the public functions listed in ``TARGETS``
with wrappers that record a span (name, start, end, parent) per call, in
every ``parrondoqw`` module that imported them, and restores the originals
on exit. Spans are kept in memory and reduced to per-layer metrics at the
end. A layer's self time is its spans' duration minus the time covered by
their child spans. The program itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). Several attributes may share a span name;
# a call nested directly in a span of the same name is folded into it.
TARGETS = (
    ("evolution", "run", "evolution.run"),
    ("evolution", "with_derived_seeds", "evolution.with_derived_seeds"),
    ("coins", "realize", "coins.realize"),
    ("rng", "StepStream.uniform", "rng.uniform"),
    ("rng", "StepStream.angle", "rng.uniform"),
    ("rng", "child_seed", "rng.child_seed"),
    ("state", "WalkerState.localized", "state.localized"),
    ("ensemble", "ensemble_expectation", "ensemble.ensemble_expectation"),
    ("sweep", "sweep_coin_params", "sweep.sweep_coin_params"),
    ("sweep", "sweep_initial_state", "sweep.sweep_initial_state"),
    ("config", "parse_and_validate", "config.parse_and_validate"),
    ("config", "build_schedule", "config.build"),
    ("config", "build_initial_state", "config.build"),
    ("config", "build_geometry", "config.build"),
    ("config", "build_grid_spec", "config.build"),
    ("config", "build_coin", "config.build"),
    ("config", "config_to_flat", "config.build"),
    ("output", "emit_trajectory", "output.emit"),
    ("output", "emit_ensemble", "output.emit"),
    ("output", "emit_sweep", "output.emit"),
    ("output", "emit_classical", "output.emit"),
    ("cli", "main", "cli.main"),
)

# lru caches whose hit ratios are reported: metric prefix -> (module, function)
CACHES = {
    "evolution.tanh_field": ("evolution", "_tanh_field"),
    "evolution.fixed_matrix": ("evolution", "_fixed_matrix"),
    "rng.block": ("rng", "_uniform_block"),
}

PACKAGE = "parrondoqw"

# Which end-to-end metric each layer's metrics should move, and on which
# workload; recorded in the provenance of every traced run.
EXPECTED_MOVES = {
    "evolution": "steps_per_s on ensemble_choice, ensemble_phase and sweep_coin;"
                 " barely cli_modes",
    "coins": "steps_per_s on ensemble_phase only",
    "rng": "steps_per_s on ensemble_phase, a little on ensemble_choice,"
           " not on sweep_coin",
    "state": "op_p50_s on cli_modes (sweep-initial)",
    "ensemble": "steps_per_s and peak_rss_mb on ensemble_choice and ensemble_phase",
    "sweep": "steps_per_s on sweep_coin and op_p50_s on cli_modes",
    "config": "op_p50_s on cli_modes; nothing on the library workloads",
    "output": "op_p50_s on cli_modes; nothing on the library workloads",
    "cli": "op_p50_s on cli_modes; nothing on the library workloads",
}


def _module(name: str):
    return sys.modules[f"{PACKAGE}.{name}"]


def _coins_per_step(schedule) -> int:
    kind = type(schedule).__name__
    if kind == "Composite":
        return schedule.m + schedule.n
    return 2 if kind == "AlternatingEvenOdd" else 1


def _run_work(signature):
    def count(args, kwargs, result) -> dict:
        bound = signature.bind(*args, **kwargs).arguments
        sites = bound["initial"].geometry.n_sites
        work = sites * bound["steps"] * _coins_per_step(bound["schedule"])
        return {"evolution.run.site_coin_steps": work}

    return count


def _sweep_points(args, kwargs, result) -> dict:
    return {"sweep.points": result.expectation.size}


def _emitted_bytes(args, kwargs, bundle) -> dict:
    paths = [bundle.data_path, bundle.sidecar_path, *bundle.extra_paths.values()]
    return {"output.bytes": sum(os.path.getsize(p) for p in paths)}


def _hook(span: str, original):
    if span == "evolution.run":
        return _run_work(inspect.signature(original))
    if span.startswith("sweep."):
        return _sweep_points
    if span == "output.emit":
        return _emitted_bytes
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache_start: dict = {}

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                self.counts.update(hook(args, kwargs, result))
            return result

        return traced

    def begin_op(self):
        """Snapshot cache statistics before one user-level call."""
        self._cache_start = self._cache_infos()

    def end_op(self):
        for name, info in self._cache_infos().items():
            start = self._cache_start.get(name)
            if start is not None:
                self.counts[f"{name}.hits"] += info.hits - start.hits
                self.counts[f"{name}.misses"] += info.misses - start.misses

    @staticmethod
    def _cache_infos() -> dict:
        infos = {}
        for name, (module, attr) in CACHES.items():
            fn = getattr(_module(module), attr, None)
            if hasattr(fn, "cache_info"):
                infos[name] = fn.cache_info()
        return infos

    # -- patching ----------------------------------------------------------

    @contextmanager
    def installed(self):
        try:
            for module, attr, name in TARGETS:
                self._patch(_module(module), attr, name)
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    def _patch(self, module, attr: str, name: str):
        if "." in attr:  # a method or classmethod on a class of the module
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__))
            else:
                wrapped = self.wrap(name, original)
            self._restore.append((cls, method, original))
            setattr(cls, method, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, _hook(name, original))
        # Rebind every module-level name bound to the original, so calls made
        # through ``from .module import name`` are traced too.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    # -- reduction ---------------------------------------------------------

    def layer_times(self) -> tuple[Counter, Counter, float]:
        """(self seconds by span name, calls by span name, root-span seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, calls, roots = Counter(), Counter(), 0.0
        for (name, start, end, parent), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
            if parent is None:
                roots += end - start
        return self_s, calls, roots


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cycles: int, traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per workload cycle (one call of every op kind).

    A hit ratio is 0 when the cache was not consulted.
    """
    self_s, calls, roots = tracer.layer_times()
    n = tracer.counts
    emit_s = self_s["output.emit"]
    site_steps = n["evolution.run.site_coin_steps"]
    metrics = {
        "evolution.run.calls": (calls["evolution.run"] / cycles, "count"),
        "evolution.run.self_s": (self_s["evolution.run"] / cycles, "s"),
        "evolution.run.ns_per_site_step": (
            _ratio(self_s["evolution.run"], site_steps) * 1e9, "ns"),
        "evolution.with_derived_seeds.self_s": (
            self_s["evolution.with_derived_seeds"] / cycles, "s"),
    }
    for cache in CACHES:
        hits, misses = n[f"{cache}.hits"], n[f"{cache}.misses"]
        metrics[f"{cache}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    metrics["rng.block.misses"] = (n["rng.block.misses"] / cycles, "count")
    for span in ("coins.realize", "rng.uniform", "rng.child_seed",
                 "state.localized", "cli.main"):
        metrics[f"{span}.calls"] = (calls[span] / cycles, "count")
    for span in ("coins.realize", "rng.uniform", "rng.child_seed",
                 "state.localized", "ensemble.ensemble_expectation",
                 "sweep.sweep_coin_params", "sweep.sweep_initial_state",
                 "config.parse_and_validate", "config.build", "output.emit",
                 "cli.main"):
        metrics[f"{span}.self_s"] = (self_s[span] / cycles, "s")
    metrics["sweep.points"] = (n["sweep.points"] / cycles, "count")
    metrics["output.bytes"] = (n["output.bytes"] / cycles, "B")
    metrics["output.mb_per_s"] = (_ratio(n["output.bytes"], emit_s) / 1e6, "MB/s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.top_coverage"] = (roots / traced_wall, "ratio")
    return metrics
