"""The command line's contract on generated configs.

Each config is a recipe at a small size with one or two keys dropped, set to another
recipe's value or set to an edge value. Run through ``cli.main`` with a numpy overflow or
invalid-value warning as an error, it either exits 0 with only finite numbers in its CSVs,
or exits 1 with one ``configuration error: <key>: `` line and no output directory, where
``<key>`` is a config key or ``config``. No exception escapes.
"""

import contextlib
import csv
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrondoqw.cli import main
from parrondoqw.config import read_flat_text

RECIPES_DIR = Path(__file__).resolve().parent.parent / "recipes"
# Sizes that allocate little: no run here starts at a large size.
SMALL = {"sites": "61", "steps": "12", "iterations": "3", "grid.axis1.count": "2",
         "grid.axis2.count": "2"}
RECIPES = {
    path.stem: {k: SMALL.get(k, v) for k, v in read_flat_text(path.read_text()).items()}
    for path in sorted(RECIPES_DIR.glob("*.cfg"))
}
# Keys some mode reads that no recipe sets, and valid values of each.
UNSET = {"workers": ["1"], "tie_tolerance": ["0.1"], "initial.x0": ["-2", "1"],
         "schedule.interleaved": ["false", "true"]}
# mode comes from the subcommand and out from --out, which win over the file
GIVEN = {k for flat in RECIPES.values() for k in flat} - {"mode", "out"}
KEYS = sorted(GIVEN | set(UNSET))
VALID = {**UNSET, **{k: sorted({flat[k] for flat in RECIPES.values() if k in flat})
                     for k in GIVEN}}
HUGE = "99999999999999999999"
KIND_NAMES = ["uniform", "tanh", "general", "random-alpha", "single", "composite",
              "alternating", "probabilistic", "single_b", "theta", "phi", "theta_a",
              "theta_b_plus"]
EDGES = ["0", "-1", "1e308", "-1e308", "nan", "pi/0", "true", "3.5", HUGE, *KIND_NAMES]
# A size takes only small or invalid values, a size past its bound among them (and
# workers never starts a pool).
SIZES = {"sites": ["0", "-1", "3.5", "true", "60", "41", HUGE],
         "steps": ["0", "-1", "3.5", "true", "1", HUGE],
         "iterations": ["0", "-1", "3.5", "true", "1", HUGE],
         "workers": ["0", "-1", "3.5", "true", "1"],
         "grid.axis1.count": ["0", "-1", "3.5", "true", "1", "3", HUGE],
         "grid.axis2.count": ["0", "-1", "3.5", "true", "1", "3", HUGE]}
# The first part of every config key.
TOP_KEYS = {"mode", "out", "sites", "steps", "seed", "iterations", "workers", "record_full",
            "tie_tolerance", "p_right", "initial", "schedule", "sweep", "grid"}
ERROR = re.compile(r"configuration error: ([\w.-]+): .*\n")


@st.composite
def configs(draw):
    """(subcommand, flat config): a small recipe with one or two keys changed."""
    flat = dict(RECIPES[draw(st.sampled_from(sorted(RECIPES)))])
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(KEYS))
        change = draw(st.sampled_from(["drop", "valid", "edge"]))
        if change == "drop":
            flat.pop(key, None)
        else:
            values = VALID[key] if change == "valid" else SIZES.get(key, EDGES)
            flat[key] = draw(st.sampled_from(values))
    return flat["mode"], flat


def changed(recipe, **values):
    return RECIPES[recipe]["mode"], dict(RECIPES[recipe], **values)


def is_key(key, flat):
    """A key the config gives, or a dotted name below a top-level key, or ``config``."""
    parts = key.split(".")
    return key in ("config", *flat) or (parts[0] in TOP_KEYS and all(
        re.fullmatch(r"[a-z_][a-z0-9_]*", part) for part in parts))


def finite_cells(path):
    """False if any cell of the CSV at ``path`` reads as a number that is not finite."""
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:  # a text cell: a column name or a class
                    continue
                if not math.isfinite(value):
                    return False
    return True


@settings(max_examples=250, derandomize=True, deadline=None)
@given(configs())
# a tanh endpoint whose blend overflows: once NaN output, or the warning escaping main
@example(changed("winning_composite_2_1", **{"schedule.b.theta_plus": "-1e308"}))
@example(changed("sweep_tanh_plane_composite_2_1", **{"grid.axis2.max": "1e308"}))
# a count too large for a step's coin list: once an OverflowError in validation
@example(changed("winning_composite_2_1", **{"schedule.m": "99999999999999999999"}))
# sizes with no upper bound: once a ValueError from numpy, in validation or mid-run
@example(changed("walk_symmetric", sites=HUGE))
@example(changed("sweep_initial_single_uniform", **{"grid.axis1.count": HUGE}))
# linspace puts -1.1e-16 on a phi axis, which once wrapped to 2*pi mid-run
@example(changed("sweep_initial_single_uniform", **{
    "grid.axis2.min": "-1.0", "grid.axis2.max": "0.7", "grid.axis2.count": "18"}))
# a phi axis whose span overflowed in linspace: once the warning escaping main
@example(changed("sweep_initial_single_uniform", **{
    "grid.axis2.min": "-1e308", "grid.axis2.max": "1e308"}))
def test_a_config_runs_clean_or_fails_validation_naming_its_key(case):
    mode, flat = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp, "run.cfg"), Path(tmp, "o")
        path.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([mode, "--config", str(path), "--out", str(out_dir)])
        if code == 1:
            error = ERROR.fullmatch(stderr.getvalue())
            assert error and is_key(error[1], flat), stderr.getvalue()
            assert stdout.getvalue() == "" and not out_dir.exists()
        else:
            assert code == 0, stderr.getvalue()
            written = sorted(out_dir.glob("*.csv"))
            assert written and all(finite_cells(csv_path) for csv_path in written)
