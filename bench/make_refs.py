"""Regenerate ``refs.npz``, the reference outputs the correctness gate uses.

Runs every operation of every workload once for each master-seed set in the
pool and stores its outputs. Regenerate only at a commit whose results are
trusted; the gate then holds later commits to them within ``gate.ATOL``.

    python3 bench/make_refs.py
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np

import gate
import workloads


def main() -> int:
    arrays: dict[str, np.ndarray] = {}
    work_root = workloads.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="refs-", dir=work_root)
    try:
        for name in workloads.WORKLOADS:
            for p in range(workloads.POOL):
                for op in workloads.build(name, p, workdir).ops:
                    prefix = f"{name}/{op.ref_key}/"
                    if any(key.startswith(prefix) for key in arrays):
                        continue  # unseeded op, already stored
                    op.reset()
                    result = op.call()
                    problems = gate.residuals_vanish(op.residuals(result))
                    if problems:
                        raise RuntimeError(f"{prefix}: {problems}")
                    for key, value in op.outputs(result).items():
                        arrays[prefix + key] = np.asarray(value)
                    print(f"{prefix} stored")
    finally:
        shutil.rmtree(workdir)
    np.savez_compressed(workloads.REFS, **arrays)
    print(f"wrote {len(arrays)} arrays to {workloads.REFS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
