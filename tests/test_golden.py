"""The fast packaged fixtures rerun to the committed tree in ``tests/golden/``.

The tree is what ``scripts/rerun_fixtures.py`` writes for every fixture but
the two ``islands`` ladders, with the ``versions`` block stripped from each
``manifest.json``.  A rerun must match it with no structural difference and
no numeric cell moved by more than MAX_MOVE: the bound lets the tree pass on
another CPU's rounding, while on the host that wrote it the rerun is
byte-identical.  A change that moves a cell past the bound regenerates the
tree and lists the cells that ``scripts/diff_outputs.py`` reports.
"""

import csv
import json
import shutil
from pathlib import Path

import pytest

from entanglab.output import canonical_json

from conftest import load_script

GOLDEN = Path(__file__).resolve().parent / "golden"
MAX_MOVE = 1e-12


def strip_versions(tree: Path) -> None:
    for manifest in tree.glob("*/out/manifest.json"):
        record = json.loads(manifest.read_text(encoding="utf-8"))
        del record["versions"]
        manifest.write_text(canonical_json(record), encoding="utf-8")


def failures(tree: Path) -> list[str]:
    """Every structural difference from the golden tree, then every cell moved past MAX_MOVE."""
    diff = load_script("diff_outputs").compare(GOLDEN, tree)
    return diff.structural + [
        f"{where}: {column}: max |delta| {largest:.3g}"
        for (where, column), (_, largest) in diff.moved.items()
        if largest > MAX_MOVE
    ]


@pytest.fixture(scope="module")
def rerun_tree(tmp_path_factory) -> Path:
    script = load_script("rerun_fixtures")
    tree = tmp_path_factory.mktemp("rerun")
    script.rerun(tree, [run for run in script.RUNS if run[0] != "islands"])
    strip_versions(tree)
    return tree


def test_fast_fixtures_match_the_golden_tree(rerun_tree):
    assert failures(rerun_tree) == []


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
