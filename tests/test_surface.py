"""Every public name in ``src/entanglab`` has a user outside the tests.

The names checked are the public module-level functions and classes, and the
public methods and properties of those classes.  A name counts as used when
it appears, as a whole word, in ``src/`` beyond its own definition, in
``scripts/``, in a ``perfbench/`` module other than a ``test_*.py`` file, or in
README.md.  A helper that only tests call belongs in the tests.
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


def _public(nodes, kinds):
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def public_definitions(path: Path):
    """(label, name, first line, last line) of each public function, class and class member."""
    module = ast.parse(path.read_text(encoding="utf-8"))
    for node in _public(module.body, (ast.FunctionDef, ast.ClassDef)):
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in _public(node.body, ast.FunctionDef):
                label = f"{node.name}.{member.name}"
                yield label, member.name, member.lineno, member.end_lineno


def test_every_public_name_is_used_outside_the_tests():
    texts = {path: path.read_text(encoding="utf-8") for path in SOURCES + ELSEWHERE}
    unused = []
    for path in SOURCES:
        lines = texts[path].splitlines()
        for label, name, first, last in public_definitions(path):
            own = "\n".join(lines[: first - 1] + lines[last:])
            others = (text for other, text in texts.items() if other != path)
            if not any(re.search(rf"\b{name}\b", text) for text in (own, *others)):
                unused.append(f"{path.stem}.{label}")
    assert not unused, f"public names that only tests use: {unused}"
