import numpy as np

from entanglab.output import canonical_json


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
