"""CSV/JSON writers with a fixed dialect so identical runs are byte-identical.

CSV: comma separators, '.' decimal point, one header row, LF line endings,
floats printed with 17 significant digits (round-trip exact for doubles).
JSON: sorted keys, two-space indent, trailing newline.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def column_rows(*columns) -> list[tuple]:
    """Parallel numeric columns turned into rows of Python scalars."""
    return list(zip(*(np.asarray(column).tolist() for column in columns)))


def write_csv(path, header, rows) -> None:
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _numpy_json(obj):
    """``json.dumps`` hook: NumPy scalars and arrays as their Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_numpy_json) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8", newline="\n")


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def run_manifest(command: str, config: dict, seed, outputs) -> dict:
    """Provenance record written before any result file.

    Lists the expected output names so an interrupted run is detectable; no
    timestamps, so reruns stay byte-identical.
    """
    from . import __version__

    return {
        "command": command,
        "config_sha256": config_digest(config),
        "seed": seed,
        "outputs": list(outputs),
        "versions": {
            "entanglab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
