"""Every name bench/tracing.py wraps still exists; its TARGETS are read from
the source with ast, so the benchmark's tracer is neither imported nor run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


def test_traced_names_resolve_on_their_layers():
    targets = _targets()
    assert targets
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"setflow.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):  # "Class.method" resolves on its class
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"setflow.{layer}.{name}")
    assert missing == []
