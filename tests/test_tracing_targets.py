"""Every name bench/tracing.py wraps, bench/kernels.py times and bench/workloads.py
calls still exists, and the tracer can patch it.

The files are read from the source with ast, so the benchmark's tracer, kernel
sweep and workloads are neither imported nor run."""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
KERNELS = BENCH / "kernels.py"
WORKLOADS = BENCH / "workloads.py"
KERNEL_LAYERS = ("support", "dynamics", "hukuhara")
WORKLOAD_LAYERS = ("cli", "duality", "dynamics", "hukuhara", "support")


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


def _probe_reads() -> list[tuple[str, int, str]]:
    """(traced name, position, parameter name) of each argument a probe reads:
    _bytes_at(k) reads "path" at k, a probe function what its _arg calls name."""
    functions = {node.name: node for node in ast.parse(TRACING.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    probes = _assigned("PROBES")
    reads = []
    for key, value in zip(probes.keys, probes.values):
        name = ast.literal_eval(key)
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_bytes_at":
            reads.append((name, ast.literal_eval(value.args[0]), "path"))
        elif isinstance(value, ast.Name):
            for call in ast.walk(functions[value.id]):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                    reads.append((name, *map(ast.literal_eval, call.args[2:])))
    return reads


def test_probes_read_arguments_where_the_signatures_put_them():
    # a probe swallows the IndexError or KeyError of a moved argument, and its
    # counters then vanish from traced runs without a failure
    reads = _probe_reads()
    assert {("svg.polygon_filmstrip", 1, "path"), ("support.regularize", 0, "values"),
            ("support.regularize", 1, "grid")} <= set(reads)
    moved = []
    for name, pos, param in reads:
        layer, _, attr = name.partition(".")
        fn = getattr(importlib.import_module(f"setflow.{layer}"), attr)
        params = list(inspect.signature(fn).parameters)
        if params[pos:pos + 1] != [param]:
            moved.append((name, pos, param, params))
    assert moved == []


def _layer_attributes(path: Path, layers=KERNEL_LAYERS) -> set[str]:
    """Every dotted chain layer.name[.attr...] in the file, for the given layers."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in layers:
            chains.add(".".join([node.id, *reversed(parts)]))
    return chains


def _unresolved(chains: set[str]) -> list[str]:
    missing = []
    for chain in sorted(chains):
        layer, *names = chain.split(".")
        obj = importlib.import_module(f"setflow.{layer}")
        for name in names:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(f"setflow.{chain}")
    return missing


def test_kernel_sweep_names_resolve():
    chains = _layer_attributes(KERNELS)
    assert "dynamics._rk4_step" in chains
    assert _unresolved(chains) == []


def test_workload_names_resolve():
    # the end-to-end workloads reach setflow only through these attributes
    chains = _layer_attributes(WORKLOADS, WORKLOAD_LAYERS)
    assert {"hukuhara.time_reverse", "duality.semi_inner", "cli.EXAMPLE_RECTS"} <= chains
    assert _unresolved(chains) == []
