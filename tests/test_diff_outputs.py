import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def diff_outputs():
    spec = importlib.util.spec_from_file_location(
        "diff_outputs", ROOT / "scripts" / "diff_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, entropy="1e-16", final=0.25, stdout="done\n", extra=None):
    """One tiny rerun_fixtures.py tree: a run with a CSV, a JSON and its stdout."""
    run = root / "run"
    (run / "out").mkdir(parents=True)
    (run / "out" / "trajectory.csv").write_text(
        f"time,entropy_bits,label\n0,{entropy},a\n1,0.5,b\n", encoding="utf-8"
    )
    (run / "out" / "evolve.json").write_text(
        json.dumps({"final": final, "ladder": [1.0, 2.0], "kind": "well", "ok": True}),
        encoding="utf-8",
    )
    (run / "stdout.txt").write_text(stdout, encoding="utf-8")
    (run / "exit_code.txt").write_text("0\n", encoding="utf-8")
    for name, text in (extra or {}).items():
        (root / name).write_text(text, encoding="utf-8")
    return root


class TestDiffOutputs:
    def test_identical_trees(self, diff_outputs, tmp_path, capsys):
        before, after = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
        assert diff_outputs.main([str(before), str(after)]) == 0
        assert capsys.readouterr().out == "identical\n"

    def test_numeric_moves_are_counted_per_column_and_key(self, diff_outputs, tmp_path, capsys):
        before = write_tree(tmp_path / "a")
        after = write_tree(tmp_path / "b", entropy="-2e-16", final=0.25 + 3e-16)
        assert diff_outputs.main([str(before), str(after)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "moved: run/out/evolve.json: final: 1 cells, max |delta| 2.78e-16",
            "moved: run/out/trajectory.csv: entropy_bits: 1 cells, max |delta| 3e-16",
        ]

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(stdout="done!\n"), "run/stdout.txt: bytes differ"),
            (dict(entropy="x"), "run/out/trajectory.csv: entropy_bits: '1e-16' -> 'x'"),
            (dict(entropy="1,2"), "run/out/trajectory.csv: shape differs"),
            (dict(entropy="nan"), "run/out/trajectory.csv: entropy_bits: '1e-16' -> 'nan'"),
            (dict(final="0.25"), "run/out/evolve.json: final: 0.25 -> '0.25'"),
            (dict(final=True), "run/out/evolve.json: final: 0.25 -> True"),
            (dict(extra={"new.txt": ""}), "new.txt: only in AFTER"),
        ],
    )
    def test_anything_but_a_numeric_cell_exits_1(
        self, diff_outputs, tmp_path, capsys, change, message
    ):
        before = write_tree(tmp_path / "a")
        after = write_tree(tmp_path / "b", **change)
        assert diff_outputs.main([str(before), str(after)]) == 1
        assert f"differs: {message}" in capsys.readouterr().out.splitlines()

    def test_header_and_json_shape_changes_exit_1(self, diff_outputs, tmp_path, capsys):
        before, after = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
        csv_path = after / "run" / "out" / "trajectory.csv"
        csv_path.write_text(csv_path.read_text().replace("label", "tag"), encoding="utf-8")
        json_path = after / "run" / "out" / "evolve.json"
        record = json.loads(json_path.read_text())
        record["ladder"].append(3.0)
        json_path.write_text(json.dumps(record), encoding="utf-8")
        assert diff_outputs.main([str(before), str(after)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: run/out/evolve.json: ladder: list length differs",
            "differs: run/out/trajectory.csv: label: only in BEFORE",
            "differs: run/out/trajectory.csv: tag: only in AFTER",
        ]

    def test_added_json_key_does_not_hide_a_moved_number(self, diff_outputs, tmp_path, capsys):
        before = write_tree(tmp_path / "a")
        after = write_tree(tmp_path / "b", final=0.5)
        json_path = after / "run" / "out" / "evolve.json"
        record = json.loads(json_path.read_text())
        record["checks"] = []
        json_path.write_text(json.dumps(record), encoding="utf-8")
        assert diff_outputs.main([str(before), str(after)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "moved: run/out/evolve.json: final: 1 cells, max |delta| 0.25",
            "differs: run/out/evolve.json: checks: only in AFTER",
        ]

    def test_added_csv_column_does_not_hide_a_moved_cell(self, diff_outputs, tmp_path, capsys):
        before = write_tree(tmp_path / "a")
        after = write_tree(tmp_path / "b", entropy="3e-16")
        csv_path = after / "run" / "out" / "trajectory.csv"
        rows = csv_path.read_text().splitlines()
        rows = [f"{rows[0]},norm"] + [f"{row},1" for row in rows[1:]]
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert diff_outputs.main([str(before), str(after)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "moved: run/out/trajectory.csv: entropy_bits: 1 cells, max |delta| 2e-16",
            "differs: run/out/trajectory.csv: norm: only in AFTER",
        ]

    def test_reordered_columns_are_structural(self, diff_outputs, tmp_path, capsys):
        before, after = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
        csv_path = after / "run" / "out" / "trajectory.csv"
        csv_path.write_text("entropy_bits,time,label\n1e-16,0,a\n0.5,1,b\n", encoding="utf-8")
        assert diff_outputs.main([str(before), str(after)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: run/out/trajectory.csv: header: order differs",
        ]

    def test_usage_error_exits_2(self, diff_outputs, tmp_path):
        assert diff_outputs.main([str(tmp_path)]) == 2
        assert diff_outputs.main([str(tmp_path), str(tmp_path / "missing")]) == 2
