"""The CSV renderer: the bytes of every cell are those of Python's "%.17g"."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondoqw import (
    SPIN_DOWN,
    AlternatingEvenOdd,
    BlochCoinState,
    Composite,
    LatticeGeometry,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    SiteTanhRotation,
    UniformRotation,
    WalkerState,
    emit_trajectory,
    run,
)
from parrondoqw import render
from parrondoqw.output import _emit

WIDTH = 7


def rows_of(values):
    """``values`` and their negatives, padded with +0.0 into rows of WIDTH cells."""
    cells = np.concatenate((values, -np.asarray(values, dtype=np.float64)))
    return np.concatenate((cells, np.zeros(-cells.size % WIDTH))).reshape(-1, WIDTH)


def assert_renders_as_percent(values):
    block = rows_of(values)
    expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist())
    stops = np.arange(WIDTH, block.size + 1, WIDTH)
    assert render.render(block.ravel(), stops)[0].tobytes().decode() == expected


def test_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-323, 309)
    assert_renders_as_percent(np.concatenate(
        (powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf))))


def test_every_power_of_two():
    assert_renders_as_percent(np.ldexp(1.0, np.arange(-1074, 1024)))


def exact_ties(rng, count):
    """Doubles whose exact decimal value has 18 significant digits, the last a 5: b / 2**j,
    for odd b, has j decimals and ends in 5, so %.17g must round half to even."""
    ties = []
    while len(ties) < count:
        j = int(rng.integers(2, 26))
        value = float(int(rng.integers(1, 2**53)) | 1) * 2.0**-j
        digits = Decimal(value).as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5:
            ties.append(value)
    return np.array(ties)


def test_constructed_ties_round_half_to_even():
    assert_renders_as_percent(exact_ties(np.random.default_rng(5), 400))


def test_special_cells():
    tiny = np.ldexp(np.arange(1, 200, 7.0), -1074)  # subnormals
    assert_renders_as_percent(np.concatenate((
        tiny, [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0, -0.0,
               np.nan, np.inf, -np.inf, 1.7976931348623157e308,
               np.float64(np.iinfo(np.int64).max), np.float64(np.iinfo(np.int64).min),
               1e16, 1e17, 99999999999999999.0, 12.5, 123456.789, 0.0001, 0.00012345,
               1e-5, 1.0, 10.0, 1e15 + 0.5])))


def test_random_bit_patterns():
    bits = np.random.default_rng(0).integers(0, 2**64, 10**5, dtype=np.uint64)
    assert_renders_as_percent(bits.view(np.float64))


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e12])
def test_rounded_values_drop_their_trailing_zeros(scale):
    values = 10 ** np.random.default_rng(1).uniform(-8, 18, 20000)
    assert_renders_as_percent(np.round(values * scale, 3))


# Cells that take the per-cell path or sit at a boundary of the numpy one: -0.0, NaN,
# +-inf, subnormals, exact ties and values whose digits carry into a new power of ten.
SPECIALS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072009e-308, 1e-310, 1e16,
            99999999999999999.0, 12.5, 0.0001, 1e-5, -7.0,
            *exact_ties(np.random.default_rng(7), 8).tolist()]
# A line is runs of cells: long +0.0 runs, nonzero cells with a zero between each two (a
# light cone's parity), special cells and any float64.
RUNS = st.one_of(
    st.integers(1, 40).map(lambda k: [0.0] * k),
    st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(bool), min_size=1,
             max_size=8).map(lambda cells: [c for cell in cells for c in (cell, 0.0)]),
    st.lists(st.sampled_from(SPECIALS), min_size=1, max_size=4),
    st.lists(st.floats(width=64), min_size=1, max_size=6))
NAMES = st.text("abtxyz_\\", min_size=1, max_size=6)
CLASSES = ["winning", "losing", "neutral"]


@st.composite
def tables(draw):
    """A (header, labels, matrix) table: numbers, or (text=True) a sweep's classes."""
    text = draw(st.booleans())
    width = draw(st.integers(1, 12))  # a line's cells, its label included
    rows = draw(st.integers(0, 5))

    def line(size):
        cells = [cell for run in draw(st.lists(RUNS, min_size=1, max_size=4)) for cell in run]
        cells = (cells + [0.0] * size)[:size]  # a zero at the line's end
        if cells and draw(st.booleans()):
            cells[-1] = draw(st.sampled_from(SPECIALS))  # a fallback cell there
        return cells

    header = [draw(st.one_of(NAMES, st.sampled_from(SPECIALS), st.floats(width=64)))
              for _ in range(width)]
    if draw(st.booleans()):  # runs of numbers as arrays, as the emitters pass them
        runs = [[]]
        for h in header:
            if isinstance(h, str):
                runs += [h, []]
            else:
                runs[-1].append(h)
        header = [r if isinstance(r, str) else np.array(r) for r in runs if len(r)]
    labels = line(rows) if rows else []
    if text:
        matrix = np.array([draw(st.sampled_from(CLASSES)) for _ in range(rows * (width - 1))],
                          dtype=object).reshape(rows, width - 1)
    else:
        matrix = np.array([line(width - 1) for _ in range(rows)]).reshape(rows, width - 1)
    return tuple(header), labels, matrix


def written(header, labels, matrix):
    """The table as Python writes it: each number as "%.17g", each name and class as is."""
    head = [h if isinstance(h, str) else "%.17g" % v for h in header
            for v in ([h] if isinstance(h, str) else np.ravel(h).tolist())]
    cells = [["%.17g" % label, *(map(str, row) if matrix.dtype == object else
                                 ("%.17g" % v for v in row))]
             for label, row in zip(labels, matrix.tolist())]
    return "".join(",".join(line) + "\n" for line in [head, *cells]).encode()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(tables(), min_size=1, max_size=4), st.sampled_from([8, 40, 1 << 14]))
def test_tables_sharing_a_batch_render_as_a_python_writer(drawn, block):
    # at the default block every table shares one render call; at 8 or 40 cells a
    # batch holds one block or a few, so the split and the splice run at each boundary
    paths = [f"t{i}.csv" for i in range(len(drawn))]
    got = dict.fromkeys(paths, b"")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "_BLOCK", block)
        for path, part in render.parts(paths, drawn):
            got[path] += bytes(part)
    assert got == {path: written(*table) for path, table in zip(paths, drawn)}


def test_eight_digit_words_are_percent_08d():
    # x // 10**4 by multiply and shift, then the two four-digit words of the table
    scaled = np.arange(1, 10)[:, None] * 10 ** np.arange(8)  # every 10**j and d * 10**j
    ends = np.arange(10**4) * 10**4  # the quotient's worst cases: a remainder of 0 or 9999
    x = np.concatenate(([0, 10**8 - 1], scaled.ravel(), scaled.ravel() - 1, ends, ends + 9999,
                        np.random.default_rng(2).integers(0, 10**8, 10**5)))
    head = (x * render._QUOT) >> render._QSHIFT
    words = np.stack((render._QUAD[head], render._QUAD[x - head * 10**4]), 1)
    assert words.view("S8").ravel().tolist() == [b"%08d" % v for v in x.tolist()]


def test_int64_matrix_prints_as_percent_on_python_ints(tmp_path):
    matrix = np.array([[0, -1, 7, 2**53 + 1], [np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                                              10**17, -(10**16)]])
    bundle = _emit("table", tmp_path, "t", {"": (("t", *"abcd"), [0, 1], matrix)}, None, {})
    rows = bundle.data_path.read_text().splitlines()[1:]
    assert rows == [",".join("%.17g" % v for v in (i, *row)) for i, row
                    in enumerate(matrix.tolist())]


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the cells that reach the per-cell "%.17g" path."""
    counted = []

    def counting(cells):
        counted.append(len(cells))
        return fallback(cells)

    fallback = render.fallback
    monkeypatch.setattr(render, "fallback", counting)
    return counted


@pytest.mark.parametrize("schedule, sites, steps, start", [
    (AlternatingEvenOdd(RandomPhaseAlpha(seed=24), RandomPhaseBeta(seed=24)), 401, 180,
     BlochCoinState(np.pi / 2, np.pi / 2)),
    (Composite(UniformRotation(np.pi / 2), SiteTanhRotation(-np.pi / 8, np.pi / 4), 2, 1),
     801, 400, SPIN_DOWN),
])
def test_at_most_one_cell_in_a_hundred_falls_back(fallbacks, tmp_path, schedule, sites,
                                                   steps, start):
    walk = run(WalkerState.localized(LatticeGeometry(sites), start, 0), schedule, steps,
               record_full=True)
    table = walk.distributions
    if isinstance(schedule, Composite):
        assert 0 < table[table > 0].min() < np.finfo(np.float64).tiny  # subnormal tails
    # every fallback cell of both files, against the distribution's nonzero cells alone
    emit_trajectory(walk, tmp_path)
    assert fallbacks and sum(fallbacks) <= np.count_nonzero(table) // 100
