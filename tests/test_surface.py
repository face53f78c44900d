"""Every public name in ``src/entanglab`` has a user outside the tests.

The names checked are the public module-level functions and classes, and the
public methods and properties of those classes.  A name counts as used only
where it appears as code: as a name token of ``src/`` beyond its own
definition, of ``scripts/``, or of a ``perfbench/`` module other than a
``test_*.py`` file (comments and strings, docstrings included, do not count),
or as a word inside backticks in README.md.  A helper that only tests call
belongs in the tests, and a name that prose or a string lookup mentions is
not thereby used.
"""

import ast
import re
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "entanglab").rglob("*.py"))
ELSEWHERE = [
    *sorted((ROOT / "scripts").glob("*.py")),
    *(p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")),
]
README = ROOT / "README.md"


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


def code_names(path: Path) -> dict:
    """The lines of each name token of a Python file; comments and strings hold none."""
    lines = defaultdict(list)
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type == tokenize.NAME:
                lines[token.string].append(token.start[0])
    return lines


def backticked_words(path: Path) -> set:
    """The words inside backticks, inline or fenced, of a Markdown file."""
    spans = re.findall(r"`+([^`]+)`+", path.read_text(encoding="utf-8"))
    return set(re.findall(r"\w+", " ".join(spans)))


def test_every_public_name_is_used_outside_the_tests():
    names = {path: code_names(path) for path in SOURCES + ELSEWHERE}
    readme = backticked_words(README)
    unused = []
    for path in SOURCES:
        for label, name, first, last in public_definitions(path):
            own = any(not first <= line <= last for line in names[path].get(name, ()))
            others = any(name in words for other, words in names.items() if other != path)
            if not (own or others or name in readme):
                unused.append(f"{path.stem}.{label}")
    assert not unused, f"public names that only tests use: {unused}"
