"""Every import in `src/` and `tests/` is used.

Each module is parsed with `ast`; a name an import binds must appear as a
name somewhere else in the module (string annotations included).  A
package's `__init__.py` is exempt: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args)
                           if isinstance(a, ast.arg)] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree).items()
              if name not in used]
    assert unused == []


def test_finds_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n"
                     "def f(x: 'Path') -> 'int':\n    return pi\n")
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"os", "tau"}
