"""Span tracing around the public calls of each setflow module.

``Tracer.installed()`` wraps the functions named in ``TARGETS`` in every
setflow module namespace that binds them (``cli`` and ``dynamics`` import
``regularize`` and friends by name), and the constructors and methods named
``Class`` / ``Class.method`` on their classes.  Nothing under ``src/``
changes; leaving the context restores the originals.

A span is ``(op, id, parent, key, t0, t1, counts)``, kept in memory and
written out once the run ends.  A span's self time is its duration minus the
durations of its direct children, so the self times of one operation add up
to the time spent inside wrapped calls.  Each layer is the module that
defines the wrapped name.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import cone_tol, margins

LAYERS = ("cli", "formats", "dynamics", "support", "hukuhara", "duality", "sampling", "svg")

TARGETS = {
    # main's self time is the CLI glue: argument parsing, cmd_* and _example_one
    "cli": ("main",),
    "formats": ("load_scenario", "write_trajectory_csv", "write_values_csv"),
    "dynamics": (
        "integrate", "RhsField.eval", "relaxation_closed_form", "subtangent_feasible",
        "osl_check", "existence_horizon", "lipschitz_estimate", "Trajectory.curve",
    ),
    "support": (
        "cone_margins", "is_in_cone", "support_of_polygon", "reconstruct_polygon",
        "halfplane_intersection", "regularize", "hausdorff_onesided",
        "farthest_realizer", "project_point", "SupportSample", "ConvexPolygon",
    ),
    "hukuhara": (
        "classify_curve", "classify_step", "difference_quotients",
        "hukuhara_difference", "SetCurve",
    ),
    "duality": ("semi_inner", "dual_representatives", "extremal_sets"),
    "sampling": ("random_rectangle", "random_cone_sample", "perturb_in_ball"),
    "svg": ("polygon_filmstrip", "support_profiles"),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _bytes_at(pos):
    def probe(args, kwargs, res):
        try:
            return {"bytes": os.path.getsize(_arg(args, kwargs, pos, "path"))}
        except (OSError, IndexError, KeyError):
            return {}
    return probe


def _outside_cone(args, kwargs, res):
    s = np.asarray(_arg(args, kwargs, 0, "values"), dtype=float)
    n = _arg(args, kwargs, 1, "grid").n
    return {"outside": float(margins(s, n).min()) < -cone_tol(s)}


def _integrate_counts(args, kwargs, res):
    if res is None:
        return {}
    return {"steps": len(res) - 1, "regularized": int(res.regularized[1:].sum())}


# counts recorded at the boundary; a probe sees the result (None if it raised)
PROBES = {
    "support.cone_margins": lambda a, kw, res: {"elems": 0 if res is None else res.size},
    "support.regularize": _outside_cone,
    "dynamics.integrate": _integrate_counts,
    "hukuhara.hukuhara_difference": lambda a, kw, res: {"exists": res is not None},
    "sampling.perturb_in_ball": lambda a, kw, res: {"useful": res is not None},
    "formats.write_trajectory_csv": _bytes_at(1),
    "formats.write_values_csv": _bytes_at(2),
    "svg.polygon_filmstrip": _bytes_at(1),
    "svg.support_profiles": _bytes_at(2),
}


class Tracer:
    """Records spans while ``op`` is set; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _wrap(self, key, fn):
        probe = PROBES.get(key)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            res = None
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = perf_counter()
                stack.pop()
                counts = probe(args, kwargs, res) if probe else None
                self.spans.append((op, sid, parent, key, t0, t1, counts))

        return traced

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        modules = {layer: importlib.import_module(f"setflow.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("setflow"), *modules.values()]
        try:
            for layer, names in TARGETS.items():
                for name in names:
                    head, _, method = name.partition(".")
                    obj = getattr(modules[layer], head)
                    key = f"{layer}.{name}"
                    if isinstance(obj, type):
                        attr = method or "__init__"
                        self._patch(obj, attr, self._wrap(key, obj.__dict__[attr]))
                        continue
                    wrapped = self._wrap(key, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapped)
            yield self
        finally:
            while self._patched:
                owner, attr, orig = self._patched.pop()
                setattr(owner, attr, orig)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines, times in microseconds from the first span."""
        base = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for op, sid, parent, key, t0, t1, counts in self.spans:
                row = {"op": op, "id": sid, "parent": parent, "name": key,
                       "start_us": round((t0 - base) * 1e6, 3),
                       "dur_us": round((t1 - t0) * 1e6, 3)}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")


class SpanStats:
    """Per-key calls, self time and probe counts, summed over traced operations.

    Self times are multiplied by ``scale`` (wall to reference speed).
    """

    def __init__(self, spans, ops: int, scale: float = 1.0):
        self.ops = ops
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(float))
        child = defaultdict(float)
        for _, _, parent, _, t0, t1, _ in spans:
            if parent is not None:
                child[parent] += t1 - t0
        for _, sid, _, key, t0, t1, counts in spans:
            self.calls[key] += 1
            self.self_s[key] += ((t1 - t0) - child[sid]) * scale
            for name, value in (counts or {}).items():
                self.counts[key][name] += value

    def per_op_calls(self, key) -> float:
        return self.calls[key] / self.ops

    def per_op_self_ms(self, key) -> float:
        return 1e3 * self.self_s[key] / self.ops

    def layer_self_ms(self, layer) -> float:
        total = sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)
        return 1e3 * total / self.ops

    def count(self, key, name) -> float:
        return self.counts[key][name]

    def frac(self, key, name, base=None) -> float:
        denom = self.calls[key] if base is None else self.count(key, base)
        return self.count(key, name) / denom if denom else 0.0

    def layer_count(self, layer, name) -> float:
        total = sum(c[name] for k, c in self.counts.items() if k.split(".", 1)[0] == layer)
        return total / self.ops


# which span fields each key reports, per operation
SPAN_FIELDS = (
    ("support.cone_margins", ("calls", "self_ms")),
    ("support.is_in_cone", ("calls", "self_ms")),
    ("support.SupportSample", ("calls", "self_ms")),
    ("support.support_of_polygon", ("calls", "self_ms")),
    ("support.regularize", ("calls", "self_ms")),
    ("support.halfplane_intersection", ("calls", "self_ms")),
    ("support.ConvexPolygon", ("calls", "self_ms")),
    ("support.reconstruct_polygon", ("calls", "self_ms")),
    ("support.hausdorff_onesided", ("self_ms",)),
    ("support.farthest_realizer", ("self_ms",)),
    ("support.project_point", ("calls",)),
    ("dynamics.integrate", ("calls", "self_ms")),
    ("dynamics.RhsField.eval", ("calls",)),
    ("dynamics.relaxation_closed_form", ("calls", "self_ms")),
    ("dynamics.subtangent_feasible", ("calls", "self_ms")),
    ("dynamics.osl_check", ("self_ms",)),
    ("dynamics.existence_horizon", ("self_ms",)),
    ("dynamics.lipschitz_estimate", ("self_ms",)),
    ("dynamics.Trajectory.curve", ("self_ms",)),
    ("hukuhara.classify_curve", ("self_ms",)),
    ("hukuhara.classify_step", ("calls",)),
    ("hukuhara.difference_quotients", ("calls", "self_ms")),
    ("hukuhara.hukuhara_difference", ("calls", "self_ms")),
    ("hukuhara.SetCurve", ("self_ms",)),
    ("duality.semi_inner", ("calls", "self_ms")),
    ("duality.dual_representatives", ("calls", "self_ms")),
    ("duality.extremal_sets", ("calls",)),
    ("sampling.perturb_in_ball", ("calls", "self_ms")),
    ("sampling.random_rectangle", ("calls",)),
    ("sampling.random_cone_sample", ("self_ms",)),
    ("formats.write_trajectory_csv", ("self_ms",)),
    ("formats.write_values_csv", ("self_ms",)),
    ("formats.load_scenario", ("self_ms",)),
    ("svg.polygon_filmstrip", ("self_ms",)),
    ("svg.support_profiles", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)

# metrics from probe counts: name -> (unit, better, value)
DERIVED = {
    "support.cone_margins.elems": (
        "count", "lower", lambda s: s.count("support.cone_margins", "elems") / s.ops),
    "support.regularize.repair_frac": (
        "ratio", "lower", lambda s: s.frac("support.regularize", "outside")),
    "dynamics.integrate.steps": (
        "count", "lower", lambda s: s.count("dynamics.integrate", "steps") / s.ops),
    "dynamics.integrate.regularized_frac": (
        "ratio", "lower", lambda s: s.frac("dynamics.integrate", "regularized", "steps")),
    "hukuhara.hukuhara_difference.exists_frac": (
        "ratio", "higher", lambda s: s.frac("hukuhara.hukuhara_difference", "exists")),
    "sampling.perturb_in_ball.useful_frac": (
        "ratio", "higher", lambda s: s.frac("sampling.perturb_in_ball", "useful")),
    "formats.bytes_written": ("B", "lower", lambda s: s.layer_count("formats", "bytes")),
    "svg.bytes_written": ("B", "lower", lambda s: s.layer_count("svg", "bytes")),
}

UNITS = {"calls": ("count", "lower"), "self_ms": ("ms", "lower")}


def metric_specs():
    """(name, unit, better) of every per-layer metric the spans give."""
    specs = []
    for key, fields in SPAN_FIELDS:
        specs += [(f"{key}.{f}", *UNITS[f]) for f in fields]
    specs += [(name, unit, better) for name, (unit, better, _) in DERIVED.items()]
    specs += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    return specs


def span_metrics(stats: SpanStats) -> dict:
    out = {}
    for key, fields in SPAN_FIELDS:
        if "calls" in fields:
            out[f"{key}.calls"] = stats.per_op_calls(key)
        if "self_ms" in fields:
            out[f"{key}.self_ms"] = stats.per_op_self_ms(key)
    for name, (_, _, value) in DERIVED.items():
        out[name] = value(stats)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = stats.layer_self_ms(layer)
    return out
