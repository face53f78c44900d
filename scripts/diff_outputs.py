#!/usr/bin/env python3
"""Compare two trees written by ``rerun_fixtures.py`` and list every cell that moved.

    python scripts/diff_outputs.py BEFORE AFTER

Files are paired by their path under each tree.  A CSV cell or a JSON number
that differs as text but parses as a finite number on both sides is a moved
cell: the script prints one line per file and column (CSV) or key (JSON, list
indices dropped) with the number of cells that moved and the largest |delta|.
Anything else that differs is a structural difference and is printed as
such: a file present on one side only, a CSV column or JSON key present on
one side only or out of order, a CSV shape, a JSON list length or value of
another type, a text cell, and every other file (``stdout.txt``,
``stderr.txt``, ``exit_code.txt``) compared byte for byte.  Shared CSV
columns (by name, when the row counts match) and shared JSON keys are still
compared beside a structural difference, so no moved cell hides behind one.

Exit status: 0 when only numeric cells moved (or nothing did), 1 on any
structural difference, 2 on a usage error.
"""

import csv
import io
import json
import math
import sys
from pathlib import Path


def _number(text):
    """The finite float a cell holds, or None (bools are not numbers)."""
    if isinstance(text, bool):
        return None
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


class Diff:
    """Moved numeric cells per (file, column) and structural differences, in order found."""

    def __init__(self):
        self.moved = {}  # (file, column) -> [count, largest |delta|]
        self.structural = []

    def cell(self, where, column, before, after):
        if before == after:
            return
        old, new = _number(before), _number(after)
        if old is None or new is None:
            self.structural.append(f"{where}: {column}: {before!r} -> {after!r}")
            return
        entry = self.moved.setdefault((where, column), [0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], abs(new - old))

    def shared(self, where, before, after, at, prefix=""):
        """The names on both sides, in BEFORE's order; a name on one side only is structural."""
        for names, others, side in ((before, after, "BEFORE"), (after, before, "AFTER")):
            for name in names:
                if name not in others:
                    self.structural.append(f"{where}: {prefix}{name}: only in {side}")
        shared = [name for name in before if name in after]
        if shared != [name for name in after if name in before]:
            self.structural.append(f"{where}: {at}: order differs")
        return shared

    def compare_csv(self, where, before: bytes, after: bytes):
        old = list(csv.reader(io.StringIO(before.decode("utf-8"))))
        new = list(csv.reader(io.StringIO(after.decode("utf-8"))))
        old_header, new_header = (rows[0] if rows else [] for rows in (old, new))
        columns = self.shared(where, old_header, new_header, "header")
        if len(old) != len(new) or any(
            len(row) != len(rows[0]) for rows in (old, new) for row in rows
        ):
            self.structural.append(f"{where}: shape differs")
            return
        for column in columns:
            a, b = old_header.index(column), new_header.index(column)
            for old_row, new_row in zip(old[1:], new[1:]):
                self.cell(where, column, old_row[a], new_row[b])

    def compare_json(self, where, before, after, key=""):
        if isinstance(before, dict) and isinstance(after, dict):
            prefix = f"{key}." if key else ""
            for name in self.shared(where, before, after, key or "/", prefix):
                self.compare_json(where, before[name], after[name], prefix + name)
        elif isinstance(before, list) and isinstance(after, list):
            if len(before) != len(after):
                self.structural.append(f"{where}: {key or '/'}: list length differs")
                return
            for a, b in zip(before, after):
                self.compare_json(where, a, b, key)
        elif all(isinstance(v, (int, float)) for v in (before, after)):
            self.cell(where, key or "/", before, after)
        elif before != after:
            self.structural.append(f"{where}: {key or '/'}: {before!r} -> {after!r}")


def compare(before: Path, after: Path) -> Diff:
    diff = Diff()
    old = {p.relative_to(before).as_posix() for p in before.rglob("*") if p.is_file()}
    new = {p.relative_to(after).as_posix() for p in after.rglob("*") if p.is_file()}
    for name in sorted(old ^ new):
        diff.structural.append(f"{name}: only in {'BEFORE' if name in old else 'AFTER'}")
    for name in sorted(old & new):
        a, b = (before / name).read_bytes(), (after / name).read_bytes()
        if a == b:
            continue
        if name.endswith(".csv"):
            diff.compare_csv(name, a, b)
        elif name.endswith(".json"):
            diff.compare_json(name, json.loads(a), json.loads(b))
        else:
            diff.structural.append(f"{name}: bytes differ")
    return diff


def main(argv) -> int:
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print("usage: diff_outputs.py BEFORE AFTER  (two rerun_fixtures.py trees)", file=sys.stderr)
        return 2
    diff = compare(Path(argv[0]), Path(argv[1]))
    for (where, column), (count, largest) in diff.moved.items():
        print(f"moved: {where}: {column}: {count} cells, max |delta| {largest:.3g}")
    for line in diff.structural:
        print(f"differs: {line}")
    if not diff.moved and not diff.structural:
        print("identical")
    return 1 if diff.structural else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
