"""The byte contract between two source trees: every recipe gives the same output.

    python3 .github/scripts/bytes.py PARENT_TREE [TREE]

TREE defaults to the checkout holding this script. Every ``recipes/*.cfg`` of TREE
runs through ``cli.main`` at the one reduced size below, in one subprocess per tree
with ``PYTHONPATH=<tree>/src``. Both trees run the same configs from directories of
the same layout, so output paths in stdout and the sidecars read alike. Per recipe,
the exit code, stdout and stderr must be equal, every CSV byte for byte, and every JSON
sidecar as JSON apart from its top-level and ``sweep`` ``runtime_seconds``. A CSV that
differs is reported with the max |diff| of its numeric cells and the number of
changed text cells (a sweep's classes). The exit status is 1 on any difference.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The one reduced size: walks and classical runs at <= 300 steps, the other modes at
# <= 40 steps, 70 iterations and 4x4 grids. A key's value is capped by its mode's limit.
LIMITS = {"walk": {"steps": 300}, "classical": {"steps": 300}}
SMALL = {"steps": 40, "iterations": 70, "grid.axis1.count": 4, "grid.axis2.count": 4}

# Run in each tree's work directory: every config through cli.main, and the exit code,
# stdout and stderr of each into results.json.
RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
import parrondoqw
from parrondoqw import cli, config
if not Path(parrondoqw.__file__).is_relative_to(sys.argv[2]):
    sys.exit(f"imported {parrondoqw.__file__}, not the tree's own source")
results = {}
for path in sorted(Path(sys.argv[1]).glob("*.cfg")):
    mode = config.read_flat_text(path.read_text())["mode"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([mode, "--config", str(path), "--out", f"out/{path.stem}"])
    results[path.stem] = [code, out.getvalue(), err.getvalue()]
Path("results.json").write_text(json.dumps(results))
"""


def reduced(text: str) -> str:
    """The recipe ``text`` as flat ``key = value`` lines at the reduced size."""
    pairs = [line.split("#", 1)[0].partition("=") for line in text.splitlines()]
    flat = {key.strip(): value.strip() for key, eq, value in pairs if eq}
    for key, cap in LIMITS.get(flat["mode"], SMALL).items():
        if key in flat:
            flat[key] = str(min(int(flat[key]), cap))
    return "".join(f"{key} = {value}\n" for key, value in flat.items())


def run_tree(tree: Path, configs: Path, work: Path) -> dict:
    """Run every config on ``tree``'s source in ``work``; the results by recipe name."""
    work.mkdir()
    src = (tree / "src").resolve()
    done = subprocess.run([sys.executable, "-c", RUNNER, str(configs), str(src)], cwd=work,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{tree}: the runner failed\n{done.stderr}")
    return json.loads((work / "results.json").read_text())


def sidecar(path: Path) -> dict:
    """The JSON sidecar without its run times."""
    data = json.loads(path.read_text())
    data.pop("runtime_seconds", None)
    data.get("sweep", {}).pop("runtime_seconds", None)
    return data


def csv_diff(a: Path, b: Path) -> str:
    """How two CSVs differ: their max |diff| over numeric cells, the changed text cells."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return "tables of different shapes"
    worst, changed = 0.0, 0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            try:
                worst = max(worst, abs(float(x) - float(y)))
            except ValueError:  # a text cell: a column name or a class
                changed += x != y
    return f"max |diff| {worst:.3g}, {changed} text cells changed"


def compare(old: list, new: list, dir_a: Path, dir_b: Path) -> list[str]:
    """The differences between one recipe's two runs, one line each."""
    found = [f"{what} differs" for what, x, y in zip(("exit code", "stdout", "stderr"),
                                                      old, new) if x != y]
    names = {p.name for d in (dir_a, dir_b) if d.is_dir() for p in d.iterdir()}
    for file in sorted(names):
        a, b = dir_a / file, dir_b / file
        if not (a.is_file() and b.is_file()):
            found.append(f"{file}: written by one tree only")
        elif file.endswith(".json"):
            if sidecar(a) != sidecar(b):
                found.append(f"{file}: sidecars differ")
        elif a.read_bytes() != b.read_bytes():
            found.append(f"{file}: {csv_diff(a, b) if file.endswith('.csv') else 'differs'}")
    return found


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(f"usage: {sys.argv[0]} PARENT_TREE [TREE]", file=sys.stderr)
        return 2
    parent = Path(argv[0])
    tree = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[2]
    recipes = sorted((tree / "recipes").glob("*.cfg"))
    with tempfile.TemporaryDirectory(prefix="bytes.") as tmp:
        configs = Path(tmp, "configs")
        configs.mkdir()
        for recipe in recipes:
            (configs / recipe.name).write_text(reduced(recipe.read_text()))
        old = run_tree(parent, configs, Path(tmp, "parent"))
        new = run_tree(tree, configs, Path(tmp, "tree"))
        files = differing = 0
        for recipe in recipes:
            name = recipe.stem
            dir_a, dir_b = (Path(tmp, side, "out", name) for side in ("parent", "tree"))
            files += len(list(dir_b.iterdir())) if dir_b.is_dir() else 0
            found = compare(old[name], new[name], dir_a, dir_b)
            differing += bool(found)
            print(f"{name}: {'; '.join(found) or 'equal'}")
    print(f"{len(recipes)} recipes, {files} files: "
          f"{f'{differing} recipes differ' if differing else 'all equal'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
