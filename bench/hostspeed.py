"""A fixed reference computation that gauges how fast the host runs right now.

On a shared VM the same code runs 1.5-1.7x slower for seconds to minutes at a
time while neighbours load the host, and no statistic over one run's calls
removes a slow phase that lasts the whole run. The benchmark therefore times
this kernel right after every call and reports each call as
``latency / kernel_time * REFERENCE_S``: its latency at the host speed at
which the kernel takes ``REFERENCE_S``. The kernel is a small two-component
walk on 1001 sites in plain numpy, close in kind to the program's step loop
(elementwise complex arithmetic, shifts and a reduction per step), and it
lives here, outside the program, so that no change to the program moves it.

A set-up's imports follow the host's page-fault and file-system speed more
than the kernel's, so they are scaled instead by the import of numpy timed in
the same fresh interpreter: ``imports / numpy_import * NUMPY_IMPORT_REFERENCE_S``
(``setup_once.py``).

On a shared 2-core VM the medians of these ratios moved by 2-5% between
windows of 4-20 seconds, while raw latencies and set-up times moved by up to
50% and 30%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on an unloaded 2-core VM (Intel Xeon, Python 3.11.7,
# numpy 2.4.6), and the import of numpy in a fresh interpreter there. Constants:
# they fix the scale of the reported times only.
REFERENCE_S = 0.0035
NUMPY_IMPORT_REFERENCE_S = 0.07

_SITES = 1001
_STEPS = 150
_X = np.arange(_SITES) - _SITES // 2
_PHASE = np.exp(1j * np.linspace(0.0, 6.0, _SITES))
_COS = np.cos(np.linspace(0.1, 3.0, _SITES))
_SIN = np.sin(np.linspace(0.1, 3.0, _SITES))


def kernel() -> float:
    """Walk ``_STEPS`` steps from the origin; the final mean position."""
    up = np.zeros(_SITES, complex)
    down = np.zeros(_SITES, complex)
    up[_SITES // 2] = 1.0
    mean = 0.0
    for _ in range(_STEPS):
        up, down = _PHASE * (_COS * up + 1j * _SIN * down), 1j * _SIN * up + _COS * down
        up = np.concatenate((up[1:], up[:1]))
        down = np.concatenate((down[-1:], down[:-1]))
        p = up.real**2 + up.imag**2 + down.real**2 + down.imag**2
        mean = float(_X @ p)
    return mean


def kernel_seconds() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
