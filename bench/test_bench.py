"""Tests of the benchmark itself.

    python3 -m pytest bench -q

One operation of each workload passes its oracle, every oracle rejects a
deliberately corrupted result, span accounting adds up, and the metric
names match BENCHMARK.json.
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import env
import harness
import kernels
import tracing
import workloads
from workloads import OracleFailure

BENCHMARK = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def one_op(name, tmp_path, seed=5, i=1):
    wl = workloads.make(name, seed, tmp_path)
    inp = wl.inputs(i)
    return wl, inp, wl.run(inp)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_passes_its_oracle(name, tmp_path):
    wl, inp, out = one_op(name, tmp_path)
    assert wl.check(inp, out) > 0


def test_inputs_are_a_function_of_seed_and_index(tmp_path):
    def inputs(seed, i):
        return workloads.make("analyze", seed, tmp_path).inputs(i)

    assert inputs(3, 2) == inputs(3, 2)
    assert inputs(3, 2) != inputs(4, 2)
    assert inputs(3, 2) != inputs(3, 1)


# ------------------------------------------------------------------ example

@pytest.fixture
def example(tmp_path):
    wl, argv, res = one_op("example", tmp_path)
    wl.check(argv, res)  # records the CSV digest
    return wl, argv, res


def test_example_rejects_swapped_classes(example):
    wl, argv, res = example
    out = res.out.replace("FirstType", "X").replace("SecondType", "FirstType").replace("X", "SecondType")
    with pytest.raises(OracleFailure, match="classes"):
        wl.check(argv, replace(res, out=out))


def test_example_rejects_a_large_closed_form_error(example):
    wl, argv, res = example
    lines = res.out.splitlines()
    lines[-1] = lines[-1].rsplit("=", 1)[0] + "= 2.000e-06"
    with pytest.raises(OracleFailure, match="closed-form"):
        wl.check(argv, replace(res, out="\n".join(lines)))


def test_example_rejects_a_failed_exit(example):
    wl, argv, res = example
    with pytest.raises(OracleFailure, match="exit 4"):
        wl.check(argv, replace(res, code=4))


def test_example_rejects_csvs_that_change_between_operations(example):
    wl, argv, res = example
    path = sorted(Path(argv[1]).glob("*_frechet_delta.csv"))[0]
    data = bytearray(path.read_bytes())
    data[-5] = ord("7") if data[-5] != ord("7") else ord("3")
    path.write_bytes(bytes(data))
    with pytest.raises(OracleFailure, match="differ"):
        wl.check(argv, res)


# ------------------------------------------------------------------- repair

def shift_state(row, fn):
    row[3:] = [repr(fn(float(v))) for v in row[3:]]


def rewrite_trajectory(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("edit, message", [
    # a state above previous + h*delta: regularize exceeded its input
    (lambda rows: shift_state(rows[20], lambda v: v + 1e-3), "exceeds"),
    # a state (still in the cone) below the exact Minkowski difference
    (lambda rows: shift_state(rows[30], lambda v: 0.5 * v), "Minkowski"),
    (lambda rows: rows[7].__setitem__(2, "0"), "not regularized"),
    (lambda rows: rows.pop(), "shape"),
])
def test_repair_rejects_a_corrupted_trajectory(tmp_path, edit, message):
    wl, inp, res = one_op("repair", tmp_path)
    rewrite_trajectory(inp["trajectory"], edit)
    with pytest.raises(OracleFailure, match=message):
        wl.check(inp, res)


def test_repair_rejects_a_state_outside_the_cone(tmp_path):
    wl, inp, res = one_op("repair", tmp_path)
    last = -1

    def dent(rows):
        # lower one support value of the last state: still below its bound,
        # but the three-term margins around it go negative
        rows[last][3 + 100] = repr(float(rows[last][3 + 100]) - 0.05)

    rewrite_trajectory(inp["trajectory"], dent)
    with pytest.raises(OracleFailure, match="outside the cone"):
        wl.check(inp, res)


# ----------------------------------------------------------------- diagnose

@pytest.mark.parametrize("check, pattern, new, message", [
    ("subtangent", r"100/100 feasible", "99/100 feasible", "subtangent"),
    ("osl", r"100/100 pairs", "98/100 pairs", "osl"),
    ("horizon", r"(?<=r/c\) = )\S+", "0.123", "horizon"),
    ("lipschitz", r"(?<=estimate: )\S+", "1.01", "lipschitz"),
])
def test_diagnose_rejects_a_wrong_report(tmp_path, check, pattern, new, message):
    wl, config, results = one_op("diagnose", tmp_path)
    out, count = re.subn(pattern, new, results[check].out)
    assert count == 1
    results[check] = replace(results[check], out=out)
    with pytest.raises(OracleFailure, match=message):
        wl.check(config, results)


def test_diagnose_rejects_a_failed_check(tmp_path):
    wl, config, results = one_op("diagnose", tmp_path)
    results["osl"] = replace(results["osl"], code=1)
    with pytest.raises(OracleFailure, match="exit 1"):
        wl.check(config, results)


# ------------------------------------------------------------------ analyze

def test_analyze_rejects_swapped_classes(tmp_path):
    wl, cases, results = one_op("analyze", tmp_path)
    results[0], results[1] = results[1], results[0]
    with pytest.raises(OracleFailure, match="analyze classes"):
        wl.check(cases, results)


def test_analyze_rejects_a_time_reversal_that_keeps_the_class(tmp_path):
    wl, cases, results = one_op("analyze", tmp_path)
    results[0] = (results[0][0], results[0][0], *results[0][2:])
    with pytest.raises(OracleFailure, match="time-reversed"):
        wl.check(cases, results)


def test_analyze_rejects_a_wrong_semi_inner_product(tmp_path):
    wl, cases, results = one_op("analyze", tmp_path)
    inner, best = results[2][3][10]
    results[2][3][10] = (inner + 1e-6, best)
    with pytest.raises(OracleFailure, match="semi_inner"):
        wl.check(cases, results)


# ------------------------------------------------------------------ tracing

def test_self_time_subtracts_direct_children_only():
    spans = [  # (op, id, parent, key, t0, t1, counts)
        (1, 0, None, "cli.main", 0.0, 10.0, None),
        (1, 1, 0, "dynamics.integrate", 1.0, 9.0, {"steps": 4}),
        (1, 2, 1, "support.regularize", 2.0, 5.0, {"outside": True}),
        (1, 3, 1, "support.regularize", 5.0, 6.0, {"outside": False}),
    ]
    stats = tracing.SpanStats(spans, ops=2)
    assert stats.per_op_self_ms("cli.main") == pytest.approx(1e3 * 2.0 / 2)
    assert stats.per_op_self_ms("dynamics.integrate") == pytest.approx(1e3 * 4.0 / 2)
    assert stats.layer_self_ms("support") == pytest.approx(1e3 * 4.0 / 2)
    assert stats.per_op_calls("support.regularize") == 1.0
    assert stats.frac("support.regularize", "outside") == 0.5


def test_wrappers_reach_every_binding_and_are_removed(tmp_path):
    from setflow import cli, dynamics, support

    original = support.regularize
    tracer = tracing.Tracer()
    with tracer.installed():
        assert dynamics.regularize is support.regularize is not original
        assert cli.support_of_polygon is support.support_of_polygon
        wl = workloads.make("repair", 2, tmp_path)
        inp = wl.inputs(1)
        tracer.op = 1
        res = wl.run(inp)
        tracer.op = None
        wl.check(inp, res)
    assert support.regularize is dynamics.regularize is original
    stats = tracing.SpanStats(tracer.spans, ops=1)
    assert stats.per_op_calls("support.regularize") == 50
    assert stats.frac("support.regularize", "outside") == 1.0
    assert stats.count("dynamics.integrate", "regularized") == 50
    assert stats.per_op_calls("cli.main") == 1
    assert stats.per_op_calls("duality.semi_inner") == 0


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "SIZES", (64,))
    monkeypatch.setattr(env, "WORK", tmp_path)
    args = SimpleNamespace(workload="analyze", seed=1, seconds=0.0)
    run, metrics = harness.traced(args, workloads.make("analyze", 1, tmp_path / "w"))
    assert not run.failures
    assert set(metrics) == {name for name, _, _ in harness.per_layer_specs()}
    assert metrics["duality.semi_inner.calls"]["value"] == 3 * 399
    assert metrics["support.regularize.calls"]["value"] == 0
    assert metrics["kernel.regularize.n64.us"]["value"] > 0


# ------------------------------------------------------------------ harness

def test_tail_is_the_op_with_ten_above_it_and_never_below_the_median():
    run = harness.Run(scaled=[i / 1e3 for i in range(1, 41)])
    assert run.tail() == (75.0, pytest.approx(30.0))
    short = harness.Run(scaled=[i / 1e3 for i in range(1, 8)])
    assert short.tail()[1] == pytest.approx(4.0)


def test_benchmark_json_names_the_metrics_the_harness_prints():
    declared = {(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == set(harness.per_layer_specs())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_prints_the_end_to_end_metrics():
    cmd = [sys.executable, "bench/run.py", "--workload", "diagnose",
           "--seed", "3", "--seconds", "0", "--trace", "0"]
    out = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(env.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "example",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
