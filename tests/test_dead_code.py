"""No dead code in src/setflow: every imported name is used by the module that imports
it, every private module-level name is referenced somewhere in the package, and every
public function, class, method or property is reached by the package or the benchmark,
or listed with the reason it stays."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "setflow"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
BENCH = SRC.parents[1] / "bench"
# paper objects that only the tests reach: exported, but no module or benchmark calls them
TEST_ONLY = ("hausdorff_realizing_directions",)
# public methods and properties that no module or benchmark reads, and why each stays
UNCALLED_MEMBERS = {
    "DirectionGrid.antipode": "a paper object: the antipodal direction of an even grid",
    "OslReport.witness": "goes with the polygon osl_check (ROADMAP item 13)",
    "Trajectory.final": "the README quick start reads it",
}


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


def called_names():
    # a caller is a read in the package (a definition or an import is none) or any mention
    # in bench/ (the tracer's TARGETS strings, kernels.py, workloads.py)
    bench = re.findall(r"\w+", "".join(p.read_text() for p in sorted(BENCH.glob("*.py"))))
    return set(bench).union(*map(read_names, TREES.values()))


def test_every_public_name_has_a_caller():
    called = called_names()
    uncalled = [
        node.name
        for tree in TREES.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in called
    ]
    assert sorted(uncalled) == sorted(TEST_ONLY)


def test_every_public_method_and_property_has_a_caller():
    called = called_names()
    uncalled = [
        f"{cls.name}.{node.name}"
        for tree in TREES.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in called
    ]
    assert sorted(uncalled) == sorted(UNCALLED_MEMBERS)
