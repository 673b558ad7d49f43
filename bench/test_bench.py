"""Tests of the benchmark itself: the correctness gate, seeding and tracing.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def references():
    return workloads.load_references()


def _perturbed(reference: dict, name: str, delta: float) -> dict:
    changed = dict(reference)
    changed[name] = reference[name] + delta
    return changed


@pytest.mark.parametrize("workload,seed", [
    ("ensemble_choice", 1), ("sweep_coin", 0), ("cli_modes", 2),
])
def test_gate_passes_at_this_commit_and_fails_on_a_1e6_perturbation(
        workload, seed, references, tmp_path):
    op = workloads.build(workload, seed, tmp_path).ops[0]
    result = op.call()
    outputs = op.outputs(result)
    reference = workloads.reference_for(references, workload, op)
    assert gate.compare(outputs, reference) == []
    assert gate.residuals_vanish(op.residuals(result)) == []
    for name in reference:
        if name != "classification":
            assert gate.compare(outputs, _perturbed(reference, name, 1e-6)), name


def test_gate_rejects_non_finite_values_and_missing_outputs():
    reference = {"mean": np.zeros(3)}
    assert gate.compare({"mean": np.array([0.0, np.nan, 0.0])}, reference)
    assert gate.compare({}, reference)
    assert gate.residuals_vanish({"norm": np.array([0.0, 1e-6])})
    assert gate.residuals_vanish({"norm": np.array([0.0, 1e-12])}) == []


def test_classes_are_compared_outside_the_tie_band_only():
    reference = {
        "expectation": np.array([5.0, -3.0, 1e-10]),
        "classification": np.array([1, -1, 0]),
    }
    tie_flip = {"expectation": reference["expectation"],
                "classification": np.array([1, -1, 1])}
    assert gate.compare(tie_flip, reference) == []
    sign_flip = {"expectation": reference["expectation"],
                 "classification": np.array([-1, -1, 0])}
    assert gate.compare(sign_flip, reference)


def test_seed_fixes_the_inputs_and_the_call_order(tmp_path):
    def inputs(seed):
        ops = workloads.build("cli_modes", seed, tmp_path / str(seed)).ops
        configs = {op.kind: (tmp_path / str(seed) / f"{op.kind}.cfg").read_text()
                   for op in ops}
        return [op.kind for op in ops], [op.ref_key for op in ops], configs

    order, keys, configs = inputs(6)
    assert inputs(6) == (order, keys, configs)
    assert inputs(7)[0] != order or inputs(7)[1] != keys


def test_every_pool_entry_has_references(references, tmp_path):
    for name in workloads.WORKLOADS:
        for p in range(workloads.POOL):
            for op in workloads.build(name, p, tmp_path / f"{name}{p}").ops:
                assert workloads.reference_for(references, name, op)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["root", 0.0, 10.0, None],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 6.0, 0],
        ["other_root", 11.0, 12.0, None],
    ]
    self_s, calls, roots = tracer.layer_times()
    assert self_s == {"root": 6.0, "child": 3.0, "grandchild": 1.0, "other_root": 1.0}
    assert calls["child"] == 2
    assert roots == 11.0


def test_tracing_restores_the_program_and_records_each_layer(tmp_path):
    pq = workloads.pq
    run_before, localized_before = pq.run, pq.WalkerState.__dict__["localized"]
    op = workloads.build("sweep_coin", 0, tmp_path).ops[0]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert pq.run is not run_before
        op.call()
    assert pq.run is run_before
    assert pq.WalkerState.__dict__["localized"] is localized_before
    _, calls, _ = tracer.layer_times()
    points = workloads.SWEEP_COUNT**2
    assert calls["sweep.sweep_coin_params"] == 1
    assert calls["evolution.run"] == calls["state.localized"] == points
    assert tracer.counts["sweep.points"] == points


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_coin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_the_spec(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ensemble_choice",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}
