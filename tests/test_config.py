import argparse
import math
import re
from collections import Counter

import numpy as np
import pytest

from parrondoqw import config, sweep
from parrondoqw import (
    Composite,
    ConfigError,
    FieldError,
    LatticeGeometry,
    ProbabilisticChoice,
    RandomPhaseAlpha,
    Single,
    UniformRotation,
    WalkerState,
    config_to_flat,
    dumps_config,
    ensemble_expectation,
    parse_and_validate,
    parse_angle,
)
from parrondoqw.cli import build_parser, main
from parrondoqw.config import (
    MODES,
    build_grid_spec,
    build_initial_state,
    build_schedule,
    config_from_flat,
    read_flat_text,
    validate,
)
from parrondoqw.rng import MAX_CELLS


@pytest.mark.parametrize(
    "text,value",
    [
        ("0.5", 0.5),
        ("-2", -2.0),
        ("1e-3", 1e-3),
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi/8", math.pi / 8),
        ("-pi/8", -math.pi / 8),
        ("3pi/4", 3 * math.pi / 4),
        ("2pi", 2 * math.pi),
        ("0.5pi", 0.5 * math.pi),
        ("+pi/2", math.pi / 2),
    ],
)
def test_parse_angle_forms(text, value):
    assert parse_angle(text) == pytest.approx(value, rel=1e-15)


def test_parse_angle_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_angle("two pies")


def test_flat_text_comments_and_errors():
    flat = read_flat_text("# comment\n a = 1 # trailing\n\n b.c = pi/2 \n")
    assert flat == {"a": "1", "b.c": "pi/2"}
    with pytest.raises(ConfigError):
        read_flat_text("just words\n")
    with pytest.raises(ConfigError):
        read_flat_text("key =\n")


def test_flat_text_rejects_a_repeated_key(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^steps: line 3 repeats line 1$"):
        read_flat_text("steps = 10\nsites = 41\nsteps = 20\n")
    path = tmp_path / "twice.cfg"
    path.write_text("mode = classical\nsteps = 10\nsteps = 20\n")
    assert main(["classical", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "configuration error: steps: line 3 repeats line 2\n"
    assert not (tmp_path / "o").exists()
    # a flag still overrides the file's one entry
    path.write_text("mode = classical\nsteps = 10\n")
    assert parse_and_validate(path, {"steps": "20"}).steps == 20


def walk_flat(**extra):
    base = {
        "mode": "walk",
        "sites": "201",
        "steps": "100",
        "initial.theta": "pi",
        "schedule.kind": "single",
        "schedule.a.kind": "uniform",
        "schedule.a.theta": "pi/2",
    }
    base.update(extra)
    return base


def test_valid_walk_config():
    cfg = validate(config_from_flat(walk_flat()))
    assert cfg.sites == 201 and cfg.steps == 100
    sched = build_schedule(cfg)
    assert sched == Single(UniformRotation(math.pi / 2))


def test_even_sites_rejected():
    with pytest.raises(ConfigError, match=r"^sites: sites must be an odd integer in \[3, "):
        validate(config_from_flat(walk_flat(sites="200")))


def test_lattice_too_small_for_steps():
    with pytest.raises(ConfigError, match="too small"):
        validate(config_from_flat(walk_flat(steps="101")))


def test_unknown_mode_and_key():
    with pytest.raises(ConfigError, match="mode"):
        validate(config_from_flat(walk_flat(mode="fly")))
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_flat(walk_flat(bogus="1"))


def test_walk_requires_schedule():
    flat = walk_flat()
    del flat["schedule.kind"]
    with pytest.raises(ConfigError, match="schedule"):
        validate(config_from_flat(flat))


def test_initial_state_ranges_checked():
    with pytest.raises(ConfigError, match="initial.theta"):
        validate(config_from_flat(walk_flat(**{"initial.theta": "1.1pi"})))
    with pytest.raises(ConfigError, match="initial.x0"):
        validate(config_from_flat(walk_flat(**{"initial.x0": "200"})))


def test_coin_angle_range_reported_with_field():
    with pytest.raises(ConfigError, match="schedule.a"):
        validate(config_from_flat(walk_flat(**{"schedule.a.theta": "2pi"})))


def test_stochastic_walk_needs_some_seed():
    flat = walk_flat(**{"schedule.a.kind": "random-alpha"})
    del flat["schedule.a.theta"]
    with pytest.raises(ConfigError, match="seed"):
        validate(config_from_flat(flat))
    # a top-level seed is derived into the schedule slots
    cfg = validate(config_from_flat(dict(flat, seed="9")))
    sched = build_schedule(cfg)
    assert isinstance(sched, Single)
    assert isinstance(sched.spec, RandomPhaseAlpha)
    assert sched.spec.seed is not None


def test_probabilistic_schedule_built():
    flat = walk_flat(**{
        "schedule.kind": "probabilistic",
        "schedule.q": "0.25",
        "schedule.seed": "5",
        "schedule.b.kind": "tanh",
        "schedule.b.theta_minus": "-pi/8",
        "schedule.b.theta_plus": "pi/4",
    })
    sched = build_schedule(validate(config_from_flat(flat)))
    assert isinstance(sched, ProbabilisticChoice)
    assert sched.q == 0.25 and sched.seed == 5


def test_composite_schedule_built_with_interleaved_flag():
    # an interleaved (2,1) composite moves 3 sites per step: 30 steps fit in 201 sites
    flat = walk_flat(steps="30", **{
        "schedule.kind": "composite",
        "schedule.m": "2",
        "schedule.n": "1",
        "schedule.interleaved": "true",
        "schedule.b.kind": "tanh",
        "schedule.b.theta_minus": "-pi/8",
        "schedule.b.theta_plus": "pi/4",
    })
    sched = build_schedule(validate(config_from_flat(flat)))
    assert isinstance(sched, Composite)
    assert sched.interleaved is True


def test_ensemble_requires_master_seed():
    flat = walk_flat(mode="ensemble", iterations="10")
    with pytest.raises(ConfigError, match="master seed"):
        validate(config_from_flat(flat))
    cfg = validate(config_from_flat(dict(flat, seed="3")))
    assert cfg.iterations == 10


@pytest.mark.parametrize("mode", ["walk", "ensemble", "sweep-initial", "sweep-coin"])
def test_a_start_off_the_lattice_names_initial_x0(mode):
    # x0 = 30 is no site of 21: the start is at fault, not the lattice's light cone
    flat = {"walk": walk_flat(), "ensemble": walk_flat(mode="ensemble", seed="1"),
            "sweep-initial": without(bloch_flat(), "initial.theta"),
            "sweep-coin": sweep_coin_flat()}[mode]
    with pytest.raises(ConfigError, match=r"^initial\.x0: position 30 is not an integer"):
        validate(config_from_flat(dict(flat, sites="21", steps="10", **{"initial.x0": "30"})))


def test_an_unseeded_ensemble_is_told_the_seed_it_needs():
    # the master-seed rule comes first: a slot seed alone would not run an ensemble
    flat = without(walk_flat(mode="ensemble", **{"schedule.a.kind": "random-alpha"}),
                   "schedule.a.theta")
    for given in ({}, {"schedule.a.seed": "4"}):
        with pytest.raises(ConfigError, match="^seed: mode=ensemble requires a master seed"):
            validate(config_from_flat(flat | given))
    assert validate(config_from_flat(flat | {"seed": "4"})).seed == 4
    # the library's own master-seed rule names its argument as a field rule does
    start = WalkerState.localized(LatticeGeometry(21))
    with pytest.raises(FieldError, match="^master_seed is required") as raised:
        ensemble_expectation(start, Single(RandomPhaseAlpha()), 5, 3, master_seed=None)
    assert raised.value.field == "master_seed" and isinstance(raised.value, ValueError)


def sweep_coin_flat(**extra):
    base = {
        "mode": "sweep-coin",
        "sites": "41",
        "steps": "10",
        "sweep.family": "composite",
        "sweep.m": "2",
        "sweep.n": "1",
        "grid.axis1.name": "theta_b_minus",
        "grid.axis1.min": "-pi",
        "grid.axis1.max": "pi",
        "grid.axis1.count": "5",
        "grid.axis2.name": "theta_b_plus",
        "grid.axis2.min": "-pi",
        "grid.axis2.max": "pi",
        "grid.axis2.count": "5",
        "grid.fixed.theta_a": "pi/2",
    }
    base.update(extra)
    return base


def test_sweep_coin_config_builds_grid():
    cfg = validate(config_from_flat(sweep_coin_flat()))
    grid = build_grid_spec(cfg)
    assert grid.axis1.name == "theta_b_minus"
    assert grid.fixed == {"theta_a": pytest.approx(math.pi / 2)}


def test_sweep_coin_unbound_parameter():
    flat = sweep_coin_flat()
    del flat["grid.fixed.theta_a"]
    with pytest.raises(ConfigError, match="theta_a"):
        validate(config_from_flat(flat))


def test_sweep_initial_axis_names_checked():
    flat = sweep_coin_flat(mode="sweep-initial", **{
        "schedule.kind": "single",
        "schedule.a.kind": "uniform",
        "schedule.a.theta": "pi/2",
    })
    with pytest.raises(ConfigError, match="axis"):
        validate(config_from_flat(flat))


def test_classical_config_minimal():
    cfg = validate(config_from_flat({"mode": "classical", "steps": "50"}))
    assert cfg.p_right == 0.5
    with pytest.raises(ConfigError, match="p_right"):
        validate(config_from_flat({"mode": "classical", "steps": "5", "p_right": "1.5"}))


@pytest.mark.parametrize(
    "flat",
    [
        walk_flat(),
        walk_flat(seed="11", record_full="true", out="elsewhere"),
        sweep_coin_flat(),
        {"mode": "classical", "steps": "50", "p_right": "0.25"},
    ],
)
def test_round_trip_dump_parse(flat, tmp_path):
    cfg = validate(config_from_flat(flat))
    dumped = dumps_config(cfg)
    path = tmp_path / "echo.cfg"
    path.write_text(dumped)
    again = parse_and_validate(path)
    assert again == cfg


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "walk.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in walk_flat().items()) + "\n")
    cfg = parse_and_validate(path, {"steps": "50", "out": "other"})
    assert cfg.steps == 50
    assert cfg.out_dir == "other"


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_and_validate("no/such/file.cfg")


def interleaved_flat():
    return walk_flat(sites="21", steps="10", **{
        "schedule.kind": "composite",
        "schedule.m": "2",
        "schedule.n": "1",
        "schedule.interleaved": "true",
        "schedule.b.kind": "tanh",
        "schedule.b.theta_minus": "-pi/8",
        "schedule.b.theta_plus": "pi/4",
    })


def single_random_flat(**extra):
    flat = walk_flat(seed="1", **{"schedule.a.kind": "random-alpha"})
    del flat["schedule.a.theta"]
    return dict(flat, **extra)


def bloch_flat(**extra):
    return walk_flat(mode="sweep-initial", sites="41", steps="10", **{
        "grid.axis1.name": "theta",
        "grid.axis1.min": "0",
        "grid.axis1.max": "pi",
        "grid.axis1.count": "3",
        "grid.axis2.name": "phi",
        "grid.axis2.min": "0",
        "grid.axis2.max": "2pi",
        "grid.axis2.count": "3",
        **extra,
    })


def without(flat, *keys):
    return {k: v for k, v in flat.items() if k not in keys}


def without_section(flat, section):
    return {k: v for k, v in flat.items() if not k.startswith(f"{section}.")}


CLASSICAL = {"mode": "classical", "steps": "20"}
SINGLE_SCHEDULE = {"schedule.kind": "single", "schedule.a.kind": "uniform",
                   "schedule.a.theta": "pi/2"}

INVALID = {
    # the walker would leak off the lattice mid-run (see LIGHT_CONES for the keys cited)
    "x0_off_center": (walk_flat(sites="21", steps="10", **{"initial.x0": "8"}), "sites"),
    "interleaved_composite": (interleaved_flat(), "sites"),
    # non-finite and undefined angles
    "tanh_nan": (walk_flat(**{"schedule.a.kind": "tanh", "schedule.a.theta_minus": "nan",
                              "schedule.a.theta_plus": "pi/4"}), "schedule.a.theta_minus"),
    "uniform_inf": (walk_flat(**{"schedule.a.theta": "-inf"}), "schedule.a.theta"),
    "divide_by_zero": (walk_flat(**{"schedule.a.theta": "pi/0"}), "schedule.a.theta"),
    # axis ranges valid at the lower end only
    "sweep_coin_axis": (without(sweep_coin_flat(**{
        "grid.axis1.name": "theta_a", "grid.axis1.min": "0", "grid.axis1.max": "7",
        "grid.fixed.theta_b_minus": "pi/2"}), "grid.fixed.theta_a"), "grid.axis1.max"),
    "sweep_initial_axis": (bloch_flat(**{"grid.axis1.max": "4"}), "grid.axis1.max"),
    "repeated_axis": (bloch_flat(**{"grid.axis2.name": "theta"}), "grid.axis2.name"),
    # fixed values that no point reads
    "fixed_bogus": (sweep_coin_flat(**{"grid.fixed.bogus": "1"}), "grid.fixed.bogus"),
    "fixed_and_swept": (sweep_coin_flat(**{"grid.fixed.theta_b_plus": "1"}),
                        "grid.fixed.theta_b_plus"),
    "fixed_in_initial_sweep": (bloch_flat(**{"grid.fixed.theta_a": "1"}),
                               "grid.fixed.theta_a"),
    # a template's own fields and fixed values, before the corner point is built
    "sweep_negative_m": (sweep_coin_flat(**{"sweep.m": "-1"}), "sweep.m"),
    "sweep_composite_of_no_coins": (sweep_coin_flat(**{"sweep.m": "0", "sweep.n": "0"}),
                                    "sweep.m"),
    "fixed_out_of_range": (sweep_coin_flat(**{"grid.fixed.theta_a": "7"}),
                           "grid.fixed.theta_a"),
    # keys the chosen kind does not have
    "coin_bogus_key": (walk_flat(**{"schedule.a.bogus": "1"}), "schedule.a.bogus"),
    "single_with_m": (walk_flat(**{"schedule.m": "2"}), "schedule.m"),
    "single_with_b": (walk_flat(**{"schedule.b.kind": "uniform", "schedule.b.theta": "1"}),
                      "schedule.b.kind"),
    "random_phase_with_theta": (single_random_flat(**{"schedule.a.theta": "1"}),
                                "schedule.a.theta"),
    "sweep_interleaved": (sweep_coin_flat(**{"sweep.interleaved": "true"}),
                          "sweep.interleaved"),
    # sections without their kind or required fields
    "coin_without_kind": (without(walk_flat(), "schedule.a.kind"), "schedule.a.kind"),
    # a coin section with none of its keys: the key to add, not the section
    "single_without_a": (without_section(walk_flat(), "schedule.a"), "schedule.a.kind"),
    "composite_without_b": (walk_flat(**{"schedule.kind": "composite", "schedule.m": "2",
                                         "schedule.n": "1"}), "schedule.b.kind"),
    "axis_without_max": (without(sweep_coin_flat(), "grid.axis2.max"), "grid.axis2.max"),
    # sections and keys the mode never reads
    "classical_with_schedule": (CLASSICAL | SINGLE_SCHEDULE, "schedule.kind"),
    "classical_with_sweep": (CLASSICAL | {"sweep.family": "single_b"}, "sweep.family"),
    "classical_with_iterations": (CLASSICAL | {"iterations": "10"}, "iterations"),
    "walk_with_sweep": (walk_flat(**{"sweep.family": "composite", "sweep.m": "2"}),
                        "sweep.family"),
    "sweep_coin_with_schedule": (sweep_coin_flat(**SINGLE_SCHEDULE), "schedule.kind"),
    "sweep_initial_with_spin": (without(bloch_flat(**{"initial.phi": "1"}), "initial.theta"),
                                "initial.phi"),
    # negative seeds, which the random streams cannot take
    "choice_negative_seed": (walk_flat(**{
        "schedule.kind": "probabilistic", "schedule.q": "0.5", "schedule.seed": "-3",
        "schedule.b.kind": "uniform", "schedule.b.theta": "pi/4"}), "schedule.seed"),
    "coin_a_negative_seed": (single_random_flat(**{"schedule.a.seed": "-5"}),
                             "schedule.a.seed"),
    "coin_b_negative_seed": (walk_flat(seed="1", **{
        "schedule.kind": "alternating", "schedule.b.kind": "random-beta",
        "schedule.b.seed": "-5"}), "schedule.b.seed"),
    # a top-level seed derives every seed slot, so none may be set beside it
    "walk_slot_and_top_seed": (walk_flat(seed="1", **{
        "schedule.kind": "alternating", "schedule.b.kind": "random-beta",
        "schedule.b.seed": "5"}), "schedule.b.seed"),
    "ensemble_slot_and_top_seed": (walk_flat(mode="ensemble", seed="1", **{
        "schedule.kind": "probabilistic", "schedule.q": "0.5", "schedule.seed": "111",
        "schedule.b.kind": "uniform", "schedule.b.theta": "pi/4"}), "schedule.seed"),
    "sweep_initial_slot_and_top_seed": (without(bloch_flat(seed="3", **{
        "schedule.a.kind": "random-alpha", "schedule.a.seed": "5"}),
        "initial.theta", "schedule.a.theta"), "schedule.a.seed"),
    # an axis the sweep's template never reads
    "sweep_coin_unread_axis": (without(sweep_coin_flat(**{
        "sweep.family": "single_b", "sweep.m": "0", "sweep.n": "0",
        "grid.axis1.name": "theta_a", "grid.fixed.theta_b_minus": "pi/2"}),
        "grid.fixed.theta_a"), "grid.axis1.name"),
    # a family with one coin parameter, which leaves no plane to sweep
    "sweep_family_single_a": (sweep_coin_flat(**{"sweep.family": "single_a"}),
                              "sweep.family"),
    # values their field's type cannot parse
    "steps_not_integer": (walk_flat(steps="abc"), "steps"),
    "record_full_not_boolean": (walk_flat(record_full="maybe"), "record_full"),
    # values a field's rule rejects: the key comes from the field the error names
    "workers_zero": (walk_flat(mode="ensemble", seed="1", workers="0"), "workers"),
    "iterations_zero": (walk_flat(mode="ensemble", seed="1", iterations="0"), "iterations"),
    "p_right_above_one": (CLASSICAL | {"p_right": "1.5"}, "p_right"),
    "tie_tolerance_negative": (sweep_coin_flat(tie_tolerance="-1"), "tie_tolerance"),
    "seed_negative": (walk_flat(seed="-1"), "seed"),
    "choice_q_above_one": (walk_flat(seed="1", **{
        "schedule.kind": "probabilistic", "schedule.q": "1.5",
        "schedule.b.kind": "uniform", "schedule.b.theta": "pi/4"}), "schedule.q"),
    "general_coin_q_two": (without(walk_flat(**{
        "schedule.a.kind": "general", "schedule.a.q": "2", "schedule.a.alpha": "0",
        "schedule.a.beta": "0"}), "schedule.a.theta"), "schedule.a.q"),
    "composite_m_negative": (walk_flat(**{
        "schedule.kind": "composite", "schedule.m": "-1", "schedule.n": "1",
        "schedule.b.kind": "uniform", "schedule.b.theta": "pi/4"}), "schedule.m"),
    "axis_count_one": (sweep_coin_flat(**{"grid.axis1.count": "1"}), "grid.axis1.count"),
    "initial_phi_above_two_pi": (walk_flat(**{"initial.phi": "7"}), "initial.phi"),
    # values whose use would overflow: a tanh blend, a step's coin list, an axis's span
    "tanh_endpoint_overflows": (walk_flat(**{
        "schedule.kind": "composite", "schedule.m": "2", "schedule.n": "1",
        "schedule.b.kind": "tanh", "schedule.b.theta_minus": "-pi/8",
        "schedule.b.theta_plus": "-1e308"}), "schedule.b.theta_plus"),
    "sweep_tanh_axis_overflows": (sweep_coin_flat(**{"grid.axis2.max": "1e308"}),
                                  "grid.axis2.max"),
    "composite_m_huge": (walk_flat(**{
        "schedule.kind": "composite", "schedule.m": "99999999999999999999", "schedule.n": "1",
        "schedule.b.kind": "uniform", "schedule.b.theta": "pi/4"}), "schedule.m"),
    "sweep_n_huge": (sweep_coin_flat(**{"sweep.n": "99999999999999999999"}), "sweep.n"),
    # sizes past their bounds, which would once have reached an array too large to make
    "sites_huge": (walk_flat(sites="99999999999999999999"), "sites"),
    "sites_past_bound": (walk_flat(sites="100003"), "sites"),
    "steps_huge": (walk_flat(steps="99999999999999999999"), "steps"),
    "steps_past_bound": (walk_flat(steps="100001"), "steps"),
    "iterations_huge": (walk_flat(mode="ensemble", seed="1",
                                  iterations="99999999999999999999"), "iterations"),
    "iterations_past_bound": (walk_flat(mode="ensemble", seed="1", iterations="1000001"),
                              "iterations"),
    "axis_count_huge": (sweep_coin_flat(**{"grid.axis1.count": "99999999999999999999"}),
                        "grid.axis1.count"),
    "axis_count_past_bound": (bloch_flat(**{"grid.axis2.count": "1002"}), "grid.axis2.count"),
    "classical_steps_huge": (CLASSICAL | {"steps": "99999999999999999999"}, "steps"),
    "phi_axis_span_overflows": (bloch_flat(**{"grid.axis2.min": "-1e308",
                                              "grid.axis2.max": "1e308"}), "grid.axis2.min"),
}

# What each mode reads besides mode and out; a name covers the keys below it.
READS = {
    "walk": {"sites", "steps", "seed", "record_full", "schedule", "initial"},
    "ensemble": {"sites", "steps", "seed", "iterations", "workers", "schedule", "initial"},
    "sweep-coin": {"sites", "steps", "workers", "tie_tolerance", "sweep", "grid", "initial"},
    "sweep-initial": {"sites", "steps", "seed", "workers", "tie_tolerance", "schedule", "grid",
                      "initial.x0"},
    "classical": {"steps", "record_full", "p_right"},
}
# The keys that have a command-line flag.
FLAG_KEYS = ("sites", "steps", "seed", "record_full", "iterations", "workers")
# A valid config of each mode, and entries under each top-level key or section
# that some mode does not read; the first entry's key is the one an error names.
MODE_FLATS = {
    "walk": walk_flat(),
    "ensemble": walk_flat(mode="ensemble", seed="1"),
    "sweep-coin": sweep_coin_flat(),
    "sweep-initial": without(bloch_flat(), "initial.theta"),
    "classical": CLASSICAL,
}
UNREAD_SAMPLES = {
    "sites": {"sites": "41"},
    "seed": {"seed": "3"},
    "record_full": {"record_full": "true"},
    "iterations": {"iterations": "10"},
    "workers": {"workers": "2"},
    "tie_tolerance": {"tie_tolerance": "0.1"},
    "p_right": {"p_right": "0.25"},
    "schedule": SINGLE_SCHEDULE,
    "sweep": {"sweep.family": "single_b"},
    "grid": {"grid.fixed.theta_a": "1"},
    "initial": {"initial.phi": "1"},
    "initial.x0": {"initial.x0": "1"},
}


def reads(mode, key):
    return any(key == r or key.startswith(f"{r}.") for r in READS[mode] | {"mode", "out"})


INVALID.update({
    f"{mode}_reads_no_{key}": (flat | entries, next(iter(entries)))
    for mode, flat in MODE_FLATS.items()
    for key, entries in UNREAD_SAMPLES.items()
    if not reads(mode, key)
})


@pytest.mark.parametrize("flat,key", INVALID.values(), ids=INVALID.keys())
def test_invalid_input_names_key_and_exits_1(flat, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: ") as caught:
        validate(config_from_flat(flat))
    assert caught.value.key == key
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()))
    code = main([flat["mode"], "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"configuration error: {caught.value}\n"
    assert not (tmp_path / "o").exists()


# A product of sizes past rng.MAX_CELLS, each size within its own bound: the table the run
# would keep, and the product it is. These are checked by validation alone: a run of one
# would try to allocate it.
PRODUCTS = {
    "classical_steps": (CLASSICAL | {"steps": "100000"},
                        "(steps + 1) x (2 steps + 1) = 100001 x 200001 = 20000300001"),
    "classical_steps_past_product": (CLASSICAL | {"steps": "7071"},
                                     "(steps + 1) x (2 steps + 1) = 7072 x 14143 = 100019296"),
    "record_full_walk": (walk_flat(sites="100001", steps="2000", record_full="true"),
                         "(steps + 1) x sites of record_full = 2001 x 100001 = 200102001"),
    "ensemble_stack": (walk_flat(mode="ensemble", seed="1", iterations="1000000"),
                       "iterations x (steps + 1) = 1000000 x 101 = 101000000"),
}


@pytest.mark.parametrize("flat,product", PRODUCTS.values(), ids=PRODUCTS.keys())
def test_a_product_of_sizes_past_the_cell_bound_fails_validation(flat, product):
    message = (f"steps: the run would keep {product} float64 cells, more than "
               f"{MAX_CELLS}")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as caught:
        parse_and_validate(None, flat)
    assert caught.value.key == "steps"


@pytest.mark.parametrize("flat", [
    CLASSICAL | {"steps": "7070"},
    walk_flat(sites="100001", steps="998", record_full="true"),
    walk_flat(sites="100001", steps="2000"),  # no record_full: the walk keeps its series
    walk_flat(mode="ensemble", seed="1", iterations="1000000", steps="99"),
])
def test_a_product_at_the_cell_bound_validates(flat):
    assert parse_and_validate(None, flat).mode == flat["mode"]


# A light cone wider than the lattice names sites, and cites the keys that widen it.
LIGHT_CONES = {"x0_off_center": "initial.x0=8",
               "interleaved_composite": "(schedule.interleaved)"}


@pytest.mark.parametrize("case,cited", LIGHT_CONES.items(), ids=LIGHT_CONES.keys())
def test_a_light_cone_error_cites_the_keys_that_widen_it(case, cited):
    with pytest.raises(ConfigError, match=f"^sites: .*{re.escape(cited)}"):
        validate(config_from_flat(INVALID[case][0]))


# A key the mode needs but the config lacks or a rule rejects, and the key each error
# must start with.
NAMED_FIRST = {
    "grid_fixed_theta_a": (sweep_coin_flat(**{"grid.fixed.theta_a": "7"}),
                           "grid.fixed.theta_a"),
    "no_sites": (without(walk_flat(), "sites"), "sites"),
    "no_sites_sweep": (without(sweep_coin_flat(), "sites"), "sites"),
    "no_schedule": (without_section(walk_flat(), "schedule"), "schedule.kind"),
    "no_axis1": (without_section(sweep_coin_flat(), "grid.axis1"), "grid.axis1.name"),
    "no_axis2": (without_section(without(bloch_flat(), "initial.theta"), "grid.axis2"),
                 "grid.axis2.name"),
    "no_family": (without_section(sweep_coin_flat(), "sweep"), "sweep.family"),
    # the walk of a sweep's built corner point, which check_grid checks
    "sweep_coin_light_cone": (sweep_coin_flat(steps="21"), "sites"),
    "sweep_initial_light_cone": (without(bloch_flat(), "initial.theta") | {"steps": "21"},
                                 "sites"),
    "sweep_initial_interleaved_light_cone": (without(bloch_flat(**{
        "schedule.kind": "composite", "schedule.m": "2", "schedule.n": "1",
        "schedule.interleaved": "true", "schedule.b.kind": "uniform",
        "schedule.b.theta": "pi/4"}), "initial.theta"), "sites"),
    "sweep_initial_unseeded_coin": (without(bloch_flat(**{"schedule.a.kind": "random-alpha"}),
                                            "initial.theta", "schedule.a.theta"),
                                    "schedule.a.seed"),
}


@pytest.mark.parametrize("flat,key", NAMED_FIRST.values(), ids=NAMED_FIRST.keys())
def test_a_missing_or_rejected_key_starts_its_error(flat, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        validate(config_from_flat(flat))


def test_a_rejected_value_is_quoted_as_given():
    # a message's own name= is spelled by its key; a value's text is not
    with pytest.raises(ConfigError) as caught:
        validate(config_from_flat(sweep_coin_flat(**{"sweep.family": "spec=1"})))
    assert str(caught.value) == (
        "sweep.family: kind must be one of ('single_b', 'composite'), got 'spec=1'")


def test_echo_lists_only_the_chosen_kinds_fields():
    echo = config_to_flat(validate(config_from_flat(walk_flat())))
    assert not [k for k in echo if k in ("schedule.m", "schedule.n", "schedule.interleaved")]
    assert echo["schedule.a.kind"] == "uniform"
    assert [k for k in echo if k.startswith("schedule.a.")] == [
        "schedule.a.kind", "schedule.a.theta"
    ]


def test_unread_key_given_by_flag_exits_1(tmp_path, capsys):
    path = tmp_path / "walk.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in walk_flat().items()))
    assert main(["walk", "--config", str(path), "--iterations", "5",
                 "--out", str(tmp_path / "o")]) == 1
    assert "iterations" in capsys.readouterr().err


@pytest.mark.parametrize("flat", [walk_flat(), sweep_coin_flat(), bloch_flat(),
                                  walk_flat(mode="ensemble", seed="1"), CLASSICAL])
def test_echo_lists_only_keys_the_mode_reads(flat):
    flat = without(flat, "initial.theta") if flat["mode"] == "sweep-initial" else flat
    echo = config_to_flat(validate(config_from_flat(flat)))
    assert validate(config_from_flat(echo)) == validate(config_from_flat(flat))
    assert ("iterations" in echo) == (flat["mode"] == "ensemble")
    assert ("p_right" in echo) == (flat["mode"] == "classical")
    for key in ("workers", "tie_tolerance", "record_full"):
        assert (key in echo) == (key in READS[flat["mode"]])
    assert [k for k in echo if not reads(flat["mode"], k)] == []


def test_mode_table_lists_the_keys_each_mode_reads():
    assert {name: set(mode.reads) for name, mode in MODES.items()} == READS
    # the unread cases above cover every top-level key that some mode reads
    assert set(UNREAD_SAMPLES) | {"steps"} == set().union(*READS.values())
    assert sum(name.split("_reads_no_")[0] in READS for name in INVALID) == 31


@pytest.mark.parametrize("mode", READS)
def test_subcommand_offers_flags_only_for_keys_it_reads(mode):
    # every flag is accepted, so an unread one fails validation, but only read ones show
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[mode]._actions
    shown = {o for a in actions if a.help != argparse.SUPPRESS for o in a.option_strings}
    flags = {"--" + k.replace("_", "-") for k in FLAG_KEYS if k in READS[mode]}
    assert shown == {"-h", "--help", "--config", "--out"} | flags
    accepted = {o for a in actions for o in a.option_strings}
    assert accepted == shown | {"--" + k.replace("_", "-") for k in FLAG_KEYS}
    assert all(o in sub.choices[mode].format_help() for o in flags)


# A small valid config per quantum mode, and the builder and grid-check calls
# one CLI run of it makes: validation builds each object once and the runner
# takes it; check_grid runs in validation and once more as the sweep's own check.
HANDOVER = {
    "walk": (walk_flat(sites="41", steps="10"),
             {"build_schedule": 1, "build_initial_state": 1}),
    "ensemble": (single_random_flat(mode="ensemble", sites="41", steps="10", iterations="8"),
                 {"build_schedule": 1, "build_initial_state": 1}),
    "sweep-coin": (sweep_coin_flat(), {"build_grid_spec": 1, "check_grid": 2}),
    "sweep-initial": (without(bloch_flat(), "initial.theta"),
                      {"build_schedule": 1, "build_grid_spec": 1, "check_grid": 2}),
}
BUILDERS = {"schedule": build_schedule, "initial": build_initial_state,
            "grid": build_grid_spec}


@pytest.mark.parametrize("flat,counts", HANDOVER.values(), ids=HANDOVER.keys())
def test_validation_hands_the_runner_what_it_built(flat, counts, tmp_path, monkeypatch):
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("build_schedule", "build_initial_state", "build_grid_spec"):
        count(config, name)
    count(sweep, "check_grid")
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()))
    assert main([flat["mode"], "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert calls == counts
    monkeypatch.undo()
    # the runner on validation's objects gives what it gives on freshly built ones
    cfg = parse_and_validate(path)
    result, _, _ = MODES[cfg.mode].run(cfg, **cfg.built)
    fresh, _, _ = MODES[cfg.mode].run(cfg, **{k: BUILDERS[k](cfg) for k in cfg.built})
    arrays = {k: v for k, v in vars(result).items() if isinstance(v, np.ndarray)}
    assert arrays and all(np.array_equal(v, getattr(fresh, k)) for k, v in arrays.items())
