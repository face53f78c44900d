import numpy as np
import pytest

from entanglab.output import canonical_json, write_csv


def test_numpy_values_serialize_as_python_values():
    python = {"x": 0.1, "flag": True, "n": 7, "v": [1.5, -2.0], "m": [[1, 2], [3, 4]]}
    numpy = {
        "x": np.float64(0.1),
        "flag": np.bool_(True),
        "n": np.int64(7),
        "v": np.array([1.5, -2.0]),
        "m": np.array([[1, 2], [3, 4]]),
    }
    assert canonical_json(numpy) == canonical_json(python)
    assert canonical_json([np.float32(0.5), np.bool_(False)]) == canonical_json([0.5, False])


def test_csv_refuses_columns_of_unequal_length(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(path, {"a": [1.0, 2.0], "b": [3.0]})
    assert not path.exists()


def test_csv_cells_of_numpy_columns(tmp_path):
    # every column becomes Python values first: a float32 cell prints its exact double
    path = tmp_path / "t.csv"
    columns = {
        "flag": np.array([True, False]),
        "n": np.array([7, -3], dtype=np.int64),
        "x": np.array([0.1, 2.0], dtype=np.float32),
    }
    write_csv(path, columns)
    assert path.read_bytes() == b"flag,n,x\ntrue,7,0.10000000149011612\nfalse,-3,2\n"
