"""Every import in the package and the tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "latkit").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that nothing reads.

    A name counts as read when it appears as a bare name (attribute access
    starts with one) or as a string in a module-level ``__all__``.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    unused = [(name, line) for name, line in imported.items() if name not in used]
    return [f"{name} (line {line})" for name, line in unused]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_detector_flags_an_unused_import():
    tree = ast.parse("import os\nfrom sys import argv, path\n__all__ = ['path']\n")
    assert unused_imports(tree) == ["os (line 1)", "argv (line 2)"]
