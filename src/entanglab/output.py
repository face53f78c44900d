"""CSV/JSON writers with a fixed dialect so identical runs are byte-identical.

CSV: one ordered mapping from header name to column per file, so the header
is the mapping's keys in order; comma separators, '.' decimal point, LF line
endings, floats printed with 17 significant digits (round-trip exact for
doubles).
JSON: sorted keys, two-space indent, trailing newline.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np


def format_value(value) -> str:
    """One CSV cell from a Python bool, int, float or str (``write_csv`` passes only these)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, columns) -> None:
    """One row per index of ``columns``; columns of unequal length raise ValueError."""
    lines = [",".join(columns)]
    rows = zip(*(np.asarray(column).tolist() for column in columns.values()), strict=True)
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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
