"""Every name bench/tracing.py wraps and bench/kernels.py times still exists, and the
tracer can patch it.

Both files are read from the source with ast, so the benchmark's tracer and
kernel sweep are neither imported nor run."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
KERNELS = BENCH / "kernels.py"
KERNEL_LAYERS = ("support", "dynamics", "hukuhara")


def _assigned(name: str) -> ast.expr:
    for node in ast.parse(TRACING.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == [name]:
            return node.value
    raise AssertionError(f"{TRACING} assigns no {name}")


def _targets() -> dict:
    return ast.literal_eval(_assigned("TARGETS"))


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


def test_traced_classes_own_the_patched_attribute():
    # the tracer patches cls.__dict__[method or "__init__"]: one a class only inherits
    # (a dataclass subclass without a generated __init__, say) breaks traced runs
    classes, missing = [], []
    for layer, names in _targets().items():
        module = importlib.import_module(f"setflow.{layer}")
        for name in names:
            head, _, method = name.partition(".")
            cls = getattr(module, head)
            if isinstance(cls, type):
                classes.append(f"{layer}.{head}")
                if (method or "__init__") not in cls.__dict__:
                    missing.append(f"setflow.{layer}.{name}")
    assert {"support.SupportSample", "support.ConvexPolygon", "hukuhara.SetCurve"} <= set(classes)
    assert missing == []


def test_probes_are_on_traced_names():
    targets = _targets()
    probes = _assigned("PROBES")
    assert isinstance(probes, ast.Dict) and probes.keys
    keys = [ast.literal_eval(k).partition(".") for k in probes.keys]
    unwrapped = [f"{layer}.{name}" for layer, _, name in keys if name not in targets.get(layer, ())]
    assert unwrapped == []


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
