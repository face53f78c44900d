"""Every public module-level function and class in ``src/entanglab`` has a user outside the tests.

A name counts as used when it appears, as a whole word, in ``src/`` beyond
its own definition, in ``scripts/``, in a ``perfbench/`` module other than a
``test_*.py`` file, or in README.md.  A helper that only tests call belongs
in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "entanglab").rglob("*.py"))
ELSEWHERE = [
    *sorted((ROOT / "scripts").glob("*.py")),
    *(p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")),
    ROOT / "README.md",
]


def public_definitions(path: Path):
    """(name, first line, last line) of each public module-level function and class."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno


def test_every_public_name_is_used_outside_the_tests():
    texts = {path: path.read_text(encoding="utf-8") for path in SOURCES + ELSEWHERE}
    unused = []
    for path in SOURCES:
        lines = texts[path].splitlines()
        for name, first, last in public_definitions(path):
            own = "\n".join(lines[: first - 1] + lines[last:])
            others = (text for other, text in texts.items() if other != path)
            if not any(re.search(rf"\b{name}\b", text) for text in (own, *others)):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names that only tests use: {unused}"
