"""Every packaged fixture reruns to the committed tree in ``tests/golden/``.

The tree is what ``scripts/rerun_fixtures.py`` writes for all 8 fixtures,
both ``islands`` ladders and their configs included, with the ``versions``
block stripped from each ``manifest.json``.  The rerun is the session's
``rerun_tree`` (``conftest.py``), which criterion 8 reads too.  It must match
the tree with no structural difference and no numeric cell moved by more
than MAX_MOVE: the bound lets the tree pass on another CPU's rounding, while
on the host that wrote it the rerun is byte-identical.  A change that moves
a cell past the bound regenerates the tree and lists the cells that
``scripts/diff_outputs.py`` reports.
"""

import csv
import math
import shutil
from pathlib import Path

from conftest import load_script

GOLDEN = Path(__file__).resolve().parent / "golden"
MAX_MOVE = 1e-12


def failures(tree: Path) -> list[str]:
    """Every structural difference from the golden tree, then every cell moved past MAX_MOVE."""
    diff = load_script("diff_outputs").compare(GOLDEN, tree)
    return diff.structural + [
        f"{where}: {column}: max |delta| {largest:.3g}"
        for (where, column), (_, largest) in diff.moved.items()
        if largest > MAX_MOVE
    ]


def test_every_fixture_matches_the_golden_tree(rerun_tree):
    assert failures(rerun_tree) == []


def test_every_grid_run_starts_at_exactly_zero_bits(rerun_tree):
    # each run starts from a product state, whose one Schmidt weight is certain
    tables = sorted(rerun_tree.glob("*/out/trajectory.csv"))
    tables += sorted(rerun_tree.glob("*/out/islands_point_*.csv"))
    assert len(tables) == 12  # collision_well, convergence_small and ten ladder points
    for path in tables:
        rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
        start = float(rows[0]["entropy_bits"])
        assert float(rows[0]["time"]) == 0.0 and start == 0.0, path
        assert math.copysign(1.0, start) == 1.0, path


def test_a_nudged_cell_fails_naming_file_and_column(rerun_tree, tmp_path):
    tree = tmp_path / "nudged"
    shutil.copytree(rerun_tree, tree)
    path = tree / "collision_well" / "out" / "trajectory.csv"
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    column = rows[0].index("energy")
    rows[3][column] = repr(float(rows[3][column]) + 1e-9)
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    assert failures(tree) == ["collision_well/out/trajectory.csv: energy: max |delta| 1e-09"]
