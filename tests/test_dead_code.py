"""No dead code in src/setflow: every imported name is used by the module that imports
it, every private module-level name is referenced somewhere in the package, and every
public function, class, method or property is reached by the package or the benchmark,
or listed with the reason it stays.  And no code skips NaN: the package has one non-finite
rule, under which a NaN fails its verdict or raises NonFiniteValue.  Nor does it call a numpy
function that slicing replaces with the same bits at a fraction of the cost, or read the grid
directions through a strided transpose."""

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
# numpy functions that skip NaN: none may be called, imported or referenced
NAN_SKIPPING = ("fmax", "fmin", "nanmax", "nanmin", "nanargmax", "nanargmin")
# numpy functions that slicing replaces with the same bits, and why none may come back
SLOW_CALLS = {
    "roll": "a few microseconds per call at n 64 against slicing: _line_corners took 55 us "
            "with three rolls and 10 us with one read-only rolled grid array and a concatenate",
}
# (n, 2) direction arrays whose transpose reads strided columns, and why none may come back:
# DirectionGrid.columns holds the same bits as contiguous rows (best of 27, n 4096, 2-core
# x86-64, numpy 2.4)
STRIDED_READS = {
    "directions": "support_of_polygon's (n, 4) product of a box took 194 us to reduce along "
                  "its short axis, its (4, n) product 5.6 us along the long one; and a "
                  "strided cos row took 2.9 us to scale, a contiguous one 1.8 us",
    "_turned": "the turned directions (row i: direction i + 1) read as strided as the "
               "directions; columns[:, 1:] holds them as contiguous rows",
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


def references(names):
    """module:line name of every name, attribute or import of one of names in the package."""
    return [
        f"{module}:{node.lineno} {name}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and (name := getattr(node, "id", None) or getattr(node, "attr", None) or node.name)
        in names
    ]


def test_no_reduction_skips_nan():
    assert references(NAN_SKIPPING) == []


def test_no_slow_call():
    assert references(SLOW_CALLS) == []


def test_no_strided_column_read():
    reads = [
        f"{module}:{node.lineno} {name}.T"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "T"
        and (name := getattr(node.value, "attr", None) or getattr(node.value, "id", None))
        in STRIDED_READS
    ]
    assert reads == []
