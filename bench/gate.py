"""Correctness gate: compare an operation's outputs with committed references.

A tolerance is used rather than byte equality because a faster kernel may
change the order of floating-point reductions. Byte equality is required only
between reruns of one operation within a run (see ``run.py``).
"""

from __future__ import annotations

import numpy as np

ATOL = 1e-9
# Sweep points whose reference |<X>| lies inside this band may change class
# under a change of reduction order; classes are compared outside it only.
TIE_BAND = 1e-9 + ATOL

CLASS_CODES = {"winning": 1, "losing": -1, "neutral": 0}


def class_codes(labels) -> np.ndarray:
    """Integer codes for a matrix of winning/losing/neutral labels."""
    return np.vectorize(CLASS_CODES.__getitem__, otypes=[np.int8])(np.asarray(labels))


def compare(outputs: dict, reference: dict, atol: float = ATOL) -> list[str]:
    """Problems found comparing ``outputs`` with ``reference``; empty if it passes.

    Every reference array must be present with the same shape. Numeric arrays
    must be finite and within ``atol`` of the reference. ``classification``
    must equal the reference wherever the reference ``expectation`` lies
    outside the tie band.
    """
    problems = []
    for name, ref in reference.items():
        if name not in outputs:
            problems.append(f"{name}: missing")
            continue
        got = np.asarray(outputs[name])
        if got.shape != ref.shape:
            problems.append(f"{name}: shape {got.shape} != reference {ref.shape}")
        elif name == "classification":
            band = np.abs(reference["expectation"]) > TIE_BAND
            wrong = int(np.count_nonzero((got != ref) & band))
            if wrong:
                problems.append(f"{name}: {wrong} point(s) changed class")
        else:
            problems += _close(name, got, ref, atol)
    return problems


def residuals_vanish(residuals: dict, atol: float = ATOL) -> list[str]:
    """Problems with invariants that must hold to ``atol`` (reference zero)."""
    problems = []
    for name, value in residuals.items():
        value = np.asarray(value, dtype=float)
        problems += _close(name, value, np.zeros_like(value), atol)
    return problems


def _close(name: str, got: np.ndarray, ref: np.ndarray, atol: float) -> list[str]:
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite values"]
    worst = float(np.max(np.abs(got - ref), initial=0.0))
    if worst > atol:
        return [f"{name}: max |diff| {worst:.3g} > {atol:g}"]
    return []
