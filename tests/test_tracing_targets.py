"""Every name bench/tracing.py wraps and bench/kernels.py times still exists.

Both files are read from the source with ast, so the benchmark's tracer and
kernel sweep are neither imported nor run."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
KERNELS = BENCH / "kernels.py"
KERNEL_LAYERS = ("support", "dynamics", "hukuhara")


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


def _layer_attributes(path: Path) -> set[str]:
    """Every dotted chain layer.name[.attr...] in the file, for the KERNEL_LAYERS."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in KERNEL_LAYERS:
            chains.add(".".join([node.id, *reversed(parts)]))
    return chains


def test_kernel_sweep_names_resolve():
    chains = _layer_attributes(KERNELS)
    assert "dynamics._rk4_step" in chains
    missing = []
    for chain in sorted(chains):
        layer, *names = chain.split(".")
        obj = importlib.import_module(f"setflow.{layer}")
        for name in names:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(f"setflow.{chain}")
    assert missing == []
