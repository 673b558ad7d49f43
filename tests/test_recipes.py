import csv
from pathlib import Path

import pytest

from parrondoqw import dumps_config, parse_and_validate
from parrondoqw.cli import main

RECIPES = Path(__file__).resolve().parent.parent / "recipes"


@pytest.mark.parametrize("path", sorted(RECIPES.glob("*.cfg")), ids=lambda p: p.stem)
def test_recipe_validates(path, tmp_path):
    cfg = parse_and_validate(path)
    assert cfg.mode in ("walk", "ensemble", "sweep-coin", "sweep-initial", "classical")
    echo = tmp_path / "echo.cfg"
    echo.write_text(dumps_config(cfg))
    assert parse_and_validate(echo) == cfg


def final_column(path, column):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1][column])


def test_winning_composite_recipe_ends_positive(tmp_path):
    code = main([
        "walk",
        "--config", str(RECIPES / "winning_composite_2_1.cfg"),
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert final_column(tmp_path / "trajectory.csv", "expectation") > 0


def test_losing_single_recipe_ends_negative(tmp_path):
    code = main([
        "walk",
        "--config", str(RECIPES / "losing_single_tanh.cfg"),
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert final_column(tmp_path / "trajectory.csv", "expectation") < 0


def test_classical_recipe_variance_equals_steps(tmp_path):
    code = main([
        "classical",
        "--config", str(RECIPES / "classical_unbiased.cfg"),
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert final_column(tmp_path / "classical.csv", "variance") == pytest.approx(100.0)


def test_alternating_recipe_ends_positive(tmp_path):
    code = main([
        "walk",
        "--config", str(RECIPES / "random_phase_alternating_walk.cfg"),
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert final_column(tmp_path / "trajectory.csv", "expectation") > 0
