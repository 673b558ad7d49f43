"""Read a batched walk (``evolution._walk``) as ``run`` reads one row of it.

Tests of the kernel drive the walk directly, for any batch of rows, with or
without ``clip``, and compare what it reads against each row's own ``run``
and against chained ``step`` calls.
"""

from __future__ import annotations

import numpy as np

from parrondoqw.evolution import _walk


def evolve(up, down, rows, t0, steps, geometry, dists=None, clip=False):
    """The walk's <X> and Var(X) per row and t, (R, steps + 1) each, read after every
    step (``dists`` gets row 0's P(x, t)), then its final (R, n) up and down amplitudes."""
    series = []
    for t, (moments, finals) in enumerate(_walk(up, down, rows, t0, steps, geometry, clip)):
        series.append(np.zeros((2, len(rows))))
        moments(series[-1], None if dists is None else dists[t])
    mean, squares = np.stack(series, axis=2)
    return mean, np.maximum(squares - mean * mean, 0.0), *finals()
