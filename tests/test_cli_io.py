import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parrondoqw import (
    SPIN_DOWN,
    AlternatingEvenOdd,
    ClassicalWalkResult,
    GridAxis,
    GridSpec,
    LatticeGeometry,
    OutputError,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    ScheduleTemplate,
    Single,
    SweepResult,
    Trajectory,
    UniformRotation,
    WalkerState,
    classical_walk,
    emit_classical,
    emit_sweep,
    emit_trajectory,
    run,
    sweep_coin_params,
)
from parrondoqw import render
from parrondoqw.cli import main
from parrondoqw.output import _emit


def rectangular(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    widths = {len(r) for r in rows}
    assert len(widths) == 1, f"ragged csv {path}: {widths}"
    return rows


def test_emit_trajectory_zero_steps(tmp_path):
    traj = run(
        WalkerState.localized(LatticeGeometry(5), SPIN_DOWN, 0),
        Single(UniformRotation(1.0)),
        0,
    )
    bundle = emit_trajectory(traj, tmp_path)
    rows = rectangular(bundle.data_path)
    assert len(rows) == 2  # header + t=0
    assert rows[0] == ["t", "expectation", "variance"]


def test_emit_trajectory_distribution_shape(tmp_path):
    traj = run(
        WalkerState.localized(LatticeGeometry(5), SPIN_DOWN, 0),
        Single(UniformRotation(np.pi / 2)),
        2,
        record_full=True,
    )
    bundle = emit_trajectory(traj, tmp_path)
    rows = rectangular(bundle.extra_paths["distribution"])
    assert len(rows) == 4  # header + 3 time rows
    assert rows[0] == ["t", "-2", "-1", "0", "1", "2"]
    assert all(len(r) == 6 for r in rows)
    sidecar = json.loads(bundle.sidecar_path.read_text())
    assert sidecar["kind"] == "trajectory"
    assert "rng_algorithm" in sidecar["trajectory"]


def test_emit_sweep_two_by_two(tmp_path):
    grid = GridSpec(
        axis1=GridAxis("theta_b_minus", -1.0, 1.0, 2),
        axis2=GridAxis("theta_b_plus", -1.0, 1.0, 2),
        schedule=ScheduleTemplate("single_b"),
        steps=4,
        geometry=LatticeGeometry(11),
        fixed={},
    )
    bundle = emit_sweep(sweep_coin_params(grid), tmp_path)
    rows = rectangular(bundle.data_path)
    assert len(rows) == 3  # header + 2 axis1 rows
    crows = rectangular(bundle.extra_paths["classification"])
    assert len(crows) == 3
    labels = {cell for row in crows[1:] for cell in row[1:]}
    assert labels <= {"winning", "losing", "neutral"}


def table(path):
    """A CSV's header after the corner cell, its row labels and its other cells."""
    rows = rectangular(path)
    return rows[0][1:], [r[0] for r in rows[1:]], [r[1:] for r in rows[1:]]


def test_csv_numbers_print_with_17_significant_digits(tmp_path):
    def number(v):
        return format(float(v), ".17g")

    def integer(v):
        return str(int(v))

    values = np.array([-0.0, 5e-324, 0.1, 1 / 3, 2.0**53 + 1, -2.5])
    assert [number(v) for v in values] == [
        "-0", "4.9406564584124654e-324", "0.10000000000000001", "0.33333333333333331",
        "9007199254740992", "-2.5"]
    geometry = LatticeGeometry(5)  # positions -2..2
    times, dist = np.arange(3), np.resize(values, (3, 5))
    traj = Trajectory(times, values[:3], values[3:], dist,
                      WalkerState.localized(geometry, SPIN_DOWN, 0), {})
    classical = ClassicalWalkResult(times, geometry.positions, dist, values[:3], values[3:])
    t_labels = [integer(t) for t in times]
    series = [[number(a), number(b)] for a, b in zip(values[:3], values[3:])]
    cells = [[number(v) for v in row] for row in dist]
    for bundle in (emit_trajectory(traj, tmp_path / "walk"),
                   emit_classical(classical, tmp_path / "classical", record_full=True)):
        assert table(bundle.data_path) == (["expectation", "variance"], t_labels, series)
        assert table(bundle.extra_paths["distribution"]) == (
            [integer(x) for x in geometry.positions], t_labels, cells)

    grid = GridSpec(axis1=GridAxis("theta_b_minus", -1.0, 1.0, 2),
                    axis2=GridAxis("theta_b_plus", -1.0, 1.0, 3),
                    schedule=ScheduleTemplate("single_b"), steps=4, geometry=geometry)
    classes = np.array([["winning", "losing", "neutral"],
                        ["neutral", "winning", "losing"]], dtype=object)
    expectation = np.resize(values[::-1], (2, 3))
    bundle = emit_sweep(SweepResult(values[:2], values[2:5], expectation, classes, grid, {}),
                        tmp_path / "sweep")
    axis1, axis2 = [number(v) for v in values[:2]], [number(v) for v in values[2:5]]
    assert table(bundle.data_path) == (
        axis2, axis1, [[number(v) for v in row] for row in expectation])
    assert table(bundle.extra_paths["classification"]) == (axis2, axis1, classes.tolist())


def test_emit_empty_output_path_fails():
    res = classical_walk(3)
    with pytest.raises(OutputError):
        emit_classical(res, "")


def test_emit_classical_with_distribution(tmp_path):
    res = classical_walk(4, 0.5)
    bundle = emit_classical(res, tmp_path, record_full=True)
    rows = rectangular(bundle.extra_paths["distribution"])
    assert len(rows) == 6  # header + 5 time rows
    assert len(rows[0]) == 1 + 9  # t column + positions -4..4


def one_template_csv(header, labels, matrix):
    """A table as one "%.17g" (or, for text, "%s") row template formats every cell."""
    head = ",".join(h if isinstance(h, str) else "%.17g" % h for h in header)
    cell = "%s" if matrix.dtype.kind in "OSU" else "%.17g"
    line = ",".join(["%.17g"] + [cell] * matrix.shape[1]) + "\n"
    return head + "\n" + "".join(line % (label, *row) for label, row in zip(labels, matrix))


def emitted_csv(directory, header, labels, matrix):
    bundle = _emit("table", directory, "table", {"": (header, labels, matrix)}, None, {})
    return bundle.data_path.read_text()


EDGE_CELLS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, 1.0, -0.5]
SHAPES = st.tuples(st.integers(0, 5), st.integers(0, 7))
MATRICES = st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=st.sampled_from(EDGE_CELLS) | st.floats()),
    hnp.arrays(np.int64, SHAPES, elements=st.sampled_from([0, -1, 7]) | st.integers(
        -2**63, 2**63 - 1)),
    hnp.arrays("<U7", SHAPES, elements=st.sampled_from(["winning", "losing", "neutral"])),
)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
@example(np.zeros((3, 4)))  # all-zero rows
@example(np.full((2, 3), -0.0))
@example(np.array([[0.0, -0.0, 5e-324], [1e-300, np.nan, -np.inf]]))
@example(np.array([[np.inf, 1.0, -2.5]]))  # a row with no zero
def test_emitted_cells_match_one_template_per_table(tmp_path_factory, matrix):
    # an exact +0.0 is written as a literal 0; -0.0, NaN, inf and subnormals are formatted
    header, labels = ("t", *range(matrix.shape[1])), np.arange(len(matrix))
    expected = one_template_csv(header, labels, matrix)
    assert emitted_csv(tmp_path_factory.getbasetemp(), header, labels, matrix) == expected


def test_an_emitted_distribution_matches_one_template_per_table(tmp_path):
    walk = run(WalkerState.localized(LatticeGeometry(61), SPIN_DOWN, 0),
               AlternatingEvenOdd(RandomPhaseAlpha(seed=3), RandomPhaseBeta(seed=4)), 30,
               record_full=True)
    table = walk.distributions
    assert (table == 0).mean() > 0.5 and (table != 0).any()  # both kinds of cell
    header = ("t", *walk.final_state.geometry.positions)
    expected = one_template_csv(header, walk.times, table)
    assert emitted_csv(tmp_path, header, walk.times, table) == expected


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
    return path


WALK_CFG = {
    "sites": "41",
    "steps": "20",
    "initial.theta": "pi",
    "schedule.kind": "single",
    "schedule.a.kind": "uniform",
    "schedule.a.theta": "pi/2",
}


def test_cli_walk_success(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "walk.cfg", WALK_CFG)
    code = main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "final <X>" in out
    assert (tmp_path / "o" / "trajectory.csv").is_file()
    assert (tmp_path / "o" / "trajectory.json").is_file()


def test_cli_validation_error_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "walk.cfg", dict(WALK_CFG, sites="40"))
    code = main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "sites must be an odd integer in [3, 100001], got 40" in capsys.readouterr().err


def test_cli_runtime_error_exit_2(tmp_path, capsys):
    # passes validation, then the output directory cannot be created
    cfg = write_cfg(tmp_path, "walk.cfg", WALK_CFG)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["walk", "--config", str(cfg), "--out", str(blocker / "o")])
    assert code == 2
    assert "cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["classical", "--steps", "10"],
                                  ["walk", "--config", "walk.cfg"]], ids=["classical", "walk"])
def test_cli_empty_out_fails_validation(argv, tmp_path, capsys, monkeypatch):
    # rejected with exit 1 before any evolution, not after it as a runtime error
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("parrondoqw.ensemble.classical_walk", no_run)
    monkeypatch.setattr("parrondoqw.config.run", no_run)
    write_cfg(tmp_path, "walk.cfg", WALK_CFG)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err == "configuration error: out: must name an output directory, got ''\n"
    assert captured.out == ""


def test_cli_flag_overrides_file(tmp_path):
    cfg = write_cfg(tmp_path, "walk.cfg", WALK_CFG)
    out = tmp_path / "o"
    assert main(["walk", "--config", str(cfg), "--out", str(out), "--steps", "5"]) == 0
    rows = rectangular(out / "trajectory.csv")
    assert len(rows) == 7  # header + t=0..5


def test_cli_classical_without_config(tmp_path):
    out = tmp_path / "c"
    assert main(["classical", "--steps", "30", "--out", str(out)]) == 0
    rows = rectangular(out / "classical.csv")
    assert len(rows) == 32


def test_cli_ensemble(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "ens.cfg",
        dict(
            WALK_CFG,
            **{
                "schedule.kind": "probabilistic",
                "schedule.q": "0.5",
                "schedule.b.kind": "tanh",
                "schedule.b.theta_minus": "-pi/8",
                "schedule.b.theta_plus": "pi/4",
            },
        ),
    )
    out = tmp_path / "e"
    code = main(
        ["ensemble", "--config", str(cfg), "--out", str(out),
         "--seed", "7", "--iterations", "20"]
    )
    assert code == 0
    rows = rectangular(out / "ensemble.csv")
    assert rows[0] == ["t", "mean_expectation", "std_error"]
    assert len(rows) == 22


def test_cli_prints_a_run_warning_as_one_stderr_line(tmp_path, capsys):
    # the schedule has no randomness, so every ensemble iteration is the same walk
    cfg = write_cfg(tmp_path, "det.cfg", WALK_CFG)
    out = tmp_path / "d"
    code = main(["ensemble", "--config", str(cfg), "--out", str(out),
                 "--seed", "7", "--iterations", "3"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: schedule has no randomness; every ensemble iteration is identical\n")
    assert captured.out.endswith(f"wrote {out / 'ensemble.csv'}\n")


def test_cli_sweep_coin_and_rerun_identical(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "sweep.cfg",
        {
            "sites": "21",
            "steps": "5",
            "sweep.family": "composite",
            "sweep.m": "2",
            "sweep.n": "1",
            "grid.axis1.name": "theta_b_minus",
            "grid.axis1.min": "-pi",
            "grid.axis1.max": "pi",
            "grid.axis1.count": "4",
            "grid.axis2.name": "theta_b_plus",
            "grid.axis2.min": "-pi",
            "grid.axis2.max": "pi",
            "grid.axis2.count": "4",
            "grid.fixed.theta_a": "pi/2",
        },
    )
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(["sweep-coin", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("sweep_expectation.csv", "sweep_classification.csv"):
        b1 = (outs[0] / name).read_bytes()
        b2 = (outs[1] / name).read_bytes()
        assert b1 == b2


def test_cli_sweep_initial(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "si.cfg",
        {
            "sites": "21",
            "steps": "5",
            "schedule.kind": "single",
            "schedule.a.kind": "uniform",
            "schedule.a.theta": "pi/2",
            "grid.axis1.name": "theta",
            "grid.axis1.min": "0",
            "grid.axis1.max": "pi",
            "grid.axis1.count": "3",
            "grid.axis2.name": "phi",
            "grid.axis2.min": "0",
            "grid.axis2.max": "2pi",
            "grid.axis2.count": "4",
        },
    )
    out = tmp_path / "si"
    assert main(["sweep-initial", "--config", str(cfg), "--out", str(out)]) == 0
    rows = rectangular(out / "sweep_expectation.csv")
    assert len(rows) == 4  # header + 3 theta rows


def test_cli_sidecar_echo_reruns_identically(tmp_path):
    # the sidecar's config echo is sufficient to reproduce the run
    cfg = write_cfg(tmp_path, "walk.cfg", dict(WALK_CFG, seed="5"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["walk", "--config", str(cfg), "--out", str(out1)]) == 0
    echo = json.loads((out1 / "trajectory.json").read_text())["config"]
    echo_path = tmp_path / "echo.cfg"
    echo_path.write_text("".join(f"{k} = {v}\n" for k, v in echo.items()))
    assert main(["walk", "--config", str(echo_path), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


@pytest.mark.parametrize(
    "argv,message",
    [(["walk", "--steps", "abc"], "configuration error: steps: 'abc' is not an integer"),
     (["walk", "--bogus"], "--bogus"),
     ([], "required"),
     (["classical", "--seed", "3"], "configuration error: seed: not read in mode=classical")],
    ids=["bad_value", "unknown_flag", "no_subcommand", "flag_the_mode_does_not_read"],
)
def test_cli_usage_error_exits_1(argv, message, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "o")] if argv else argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode,flag,key,mapping", [
    ("classical", ["--seed", "3"], "seed = 3", {"steps": "10"}),
    ("classical", ["--sites", "41"], "sites = 41", {"steps": "10"}),
    ("walk", ["--iterations", "5"], "iterations = 5", WALK_CFG),
    ("walk", ["--workers", "2"], "workers = 2", WALK_CFG),
    ("ensemble", ["--record-full"], "record_full = true", dict(WALK_CFG, seed="1")),
])
def test_unread_flag_fails_as_the_same_key_in_a_file(mode, flag, key, mapping, tmp_path,
                                                      capsys):
    cfg = write_cfg(tmp_path, "run.cfg", mapping)
    assert main([mode, "--config", str(cfg), *flag, "--out", str(tmp_path / "a")]) == 1
    from_flag = capsys.readouterr().err
    cfg.write_text(cfg.read_text() + key + "\n")
    assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1
    assert from_flag == capsys.readouterr().err
    assert from_flag == (f"configuration error: {key.split()[0]}: not read in mode={mode}; "
                         "remove it\n")
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("argv", [["--help"], ["walk", "--help"], ["classical", "--help"]])
def test_cli_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("mode,basename,mapping", [
    ("walk", "trajectory", WALK_CFG), ("classical", "classical", {"steps": "10"}),
])
def test_cli_record_full_flag_writes_distribution(mode, basename, mapping, tmp_path):
    cfg = write_cfg(tmp_path, f"{mode}.cfg", mapping)
    out = tmp_path / "o"
    assert main([mode, "--config", str(cfg), "--out", str(out), "--record-full"]) == 0
    rows = rectangular(out / f"{basename}_distribution.csv")
    assert len(rows) == len(rectangular(out / f"{basename}.csv"))
    sidecar = json.loads((out / f"{basename}.json").read_text())
    assert sidecar["config"]["record_full"] == "true"


def test_a_shorter_rerun_rewrites_every_file_as_a_fresh_run(tmp_path):
    cfg = write_cfg(tmp_path, "walk.cfg", WALK_CFG)
    walk = ["walk", "--config", str(cfg), "--record-full"]
    assert main([*walk, "--out", str(tmp_path / "o")]) == 0
    assert main([*walk, "--steps", "5", "--out", str(tmp_path / "o")]) == 0
    assert main([*walk, "--steps", "5", "--out", str(tmp_path / "fresh")]) == 0
    csvs = sorted(p.name for p in (tmp_path / "fresh").glob("*.csv"))
    assert csvs == ["trajectory.csv", "trajectory_distribution.csv"]
    for name in csvs:
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    sidecar = json.loads((tmp_path / "o" / "trajectory.json").read_text())
    assert sidecar["config"]["steps"] == "5"


def test_a_failed_rewrite_leaves_no_byte_of_the_old_file(tmp_path, monkeypatch):
    tables = {"": (("t", "x"), np.arange(50), np.ones((50, 1)))}
    bundle = _emit("table", tmp_path, "t", tables, None, {})
    old = bundle.data_path.read_bytes()
    parts, written = render.parts, []

    def failing(paths, tables):
        written.append(next(parts(paths, tables)))
        yield written[0]
        raise RuntimeError("render failed")

    monkeypatch.setattr(render, "parts", failing)
    with pytest.raises(RuntimeError, match="render failed"):
        _emit("table", tmp_path, "t", tables, None, {})
    (path, first), = written
    assert path == bundle.data_path and len(old) > len(first)
    assert path.read_bytes() == bytes(first)
