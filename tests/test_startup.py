"""What a fresh process pays for before its first walk or CSV.

Each CLI run is a new interpreter, so what importing the package loads counts
toward every run. The process pool is imported only by a run that starts one,
and the renderer builds its exponent table once, when it is imported, from
Python ints that these tests check against exact fractions.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import parrondoqw
from parrondoqw import render

POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


def fresh(code):
    """The modules a new interpreter has loaded after running ``code``."""
    src = str(Path(parrondoqw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", f"import sys\n{code}\nprint(*sys.modules)"],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_importing_the_package_and_cli_loads_no_process_pool():
    loaded = fresh("import parrondoqw, parrondoqw.cli")
    assert "parrondoqw.cli" in loaded
    assert not loaded.intersection(POOL_MODULES)


def test_a_first_render_loads_no_masked_arrays():
    values = 1.2345 * 10.0 ** np.arange(-300, 10)
    assert np.unique(np.floor(np.log10(values))).size >= 300
    loaded = fresh("""
import numpy as np
from parrondoqw import render
values = 1.2345 * 10.0 ** np.arange(-300, 10)
text = b"".join(part for _, part in render.parts(
    ["t.csv"], [(("x", "v"), np.arange(values.size), values[:, None])]))
assert text.decode().splitlines()[1:] == [
    "%d,%.17g" % (i, v) for i, v in enumerate(values.tolist())]
""")
    assert "parrondoqw.render" in loaded
    assert "numpy.ma" not in loaded


def test_two_workers_still_start_a_pool():
    # two batches on two cores: the pool is imported by the run that starts it
    loaded = fresh("""
import os
from parrondoqw import (SPIN_DOWN, LatticeGeometry, ProbabilisticChoice, RandomPhaseAlpha,
                        UniformRotation, WalkerState, ensemble_expectation)
os.cpu_count = lambda: 2
initial = WalkerState.localized(LatticeGeometry(21), SPIN_DOWN, 0)
schedule = ProbabilisticChoice(UniformRotation(1.0), RandomPhaseAlpha(), 0.3)
one = ensemble_expectation(initial, schedule, 10, 65, 4)
assert "concurrent.futures.process" not in sys.modules
two = ensemble_expectation(initial, schedule, 10, 65, 4, workers=2)
assert one.mean_expectation.tobytes() == two.mean_expectation.tobytes()
""")
    assert loaded.issuperset(POOL_MODULES)


def significant_bits(x):
    n, _ = x.as_integer_ratio()
    return (n // (n & -n)).bit_length()


def test_the_exponent_table_is_exact():
    # per p: hi = 10**p * 2**-s correctly rounded, lo the rest, and hi's Dekker halves
    assert render._POW.shape == (633, 4) and not np.isnan(render._POW).any()
    for p, s, (hh, hl, hi, lo) in zip(render._P.tolist(), render._SHIFT.tolist(),
                                      render._POW.tolist()):
        exact = Fraction(10) ** p * Fraction(2) ** -s
        assert hi == float(exact)
        assert lo == float(exact - Fraction(hi))
        assert Fraction(hh) + Fraction(hl) == Fraction(hi)
        assert significant_bits(hh) <= 26
