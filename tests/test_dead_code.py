"""No dead code in src/setflow: every imported name is used by the module that imports
it, and every private module-level name is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "setflow"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def imported_names(tree):
    """(line, bound name) of every import, __future__ features apart."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def read_names(tree):
    """Every name a module reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def private_definitions(tree):
    """(line, name) of each module-level function, class or variable named _x (not dunder)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in found:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_every_import_is_used(module):
    # __init__.py is exempt: its imports are the package's exports
    tree = TREES[module]
    used = read_names(tree)
    unused = [f"{module}:{line} {name}" for line, name in imported_names(tree) if name not in used]
    assert unused == []


def test_every_private_name_is_referenced():
    used = set().union(*map(read_names, TREES.values()))
    dead = [
        f"{module}:{line} {name}"
        for module, tree in TREES.items()
        for line, name in private_definitions(tree)
        if name not in used
    ]
    assert dead == []
