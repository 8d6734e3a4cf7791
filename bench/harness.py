"""Benchmark driver: closed loops of operations, untraced or traced.

``run.py`` is the entry point; this module holds the loop, the metrics and
the report so that tests can import it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import env  # first: pins thread pools and puts src/ on sys.path
import kernels
import speed
import tracing
import workloads

RUN_PY = Path(__file__).with_name("run.py")
SETUP_STARTS = 7  # cold interpreter starts behind setup_s
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many ops above it


@dataclass
class Run:
    """Outcome of a closed loop of operations.

    ``times`` are wall seconds; every metric uses ``scaled``, the same
    times at reference speed (see speed.py).
    """

    times: list = field(default_factory=list)  # wall seconds per op
    scaled: list = field(default_factory=list)  # seconds per op at reference speed
    items: list = field(default_factory=list)  # domain items per op, 0 if it failed
    attempted: int = 0
    failures: list = field(default_factory=list)

    def merge(self, other: "Run") -> "Run":
        return Run(self.times + other.times, self.scaled + other.scaled,
                   self.items + other.items, self.attempted + other.attempted,
                   self.failures + other.failures)

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.scaled)

    def items_per_s(self) -> float:
        """Median over operations of items per second of operation time."""
        return statistics.median(n / t for n, t in zip(self.items, self.scaled))

    def tail(self) -> tuple[float, float]:
        """(percentile, ms) of the highest op time with TAIL_BEYOND ops above it.

        Short runs have too few ops for that to lie above the median; the
        median is then the floor.
        """
        ordered = sorted(self.scaled)
        n = len(ordered)
        k = max(n - TAIL_BEYOND - 1, n // 2)
        return 100.0 * (k + 1) / n, 1e3 * ordered[k]

    def speed_factor(self) -> float:
        """Reference seconds per wall second over the whole run."""
        return sum(self.scaled) / sum(self.times)


def warm_up(wl) -> Run:
    """Operation 0, checked but untimed: lets caches fill and lazy set-up finish."""
    run = Run()
    run_op(wl, 0, run)
    return Run(attempted=run.attempted, failures=run.failures)


def run_op(wl, i: int, run: Run, tracer=None) -> None:
    inp = wl.inputs(i)
    run.attempted += 1
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception:  # an operation that raises counts as failed
        run.times.append(time.perf_counter() - t0)
        run.items.append(0)
        run.failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
        return
    finally:
        if tracer is not None:
            tracer.op = None
    run.times.append(time.perf_counter() - t0)
    try:
        run.items.append(wl.check(inp, out))
        return
    except workloads.OracleFailure as exc:
        run.failures.append(f"op {i}: {exc}")
    except Exception:  # output the oracle cannot even parse is wrong too
        run.failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
    run.items.append(0)


def closed_loop(wl, first: int, seconds: float, tracer=None) -> Run:
    """Operations first, first+1, ... back to back until `seconds` have passed.

    Reference-work samples are taken before the first operation and after
    every one; each op is scaled by the samples on both sides of it.
    """
    run = Run()
    start = time.perf_counter()
    i = first
    gaps = [speed.sample()]
    while not run.times or time.perf_counter() - start < seconds:
        run_op(wl, i, run, tracer)
        gaps.append(speed.sample())
        run.scaled.append(speed.scale(run.times[-1], gaps[-2] + gaps[-1]))
        i += 1
    return run


def measure_setup(workload: str, seed: int) -> float:
    """Median time, at reference speed, of a cold interpreter importing
    setflow.cli and generating the workload's first inputs."""
    cmd = [sys.executable, str(RUN_PY), "--probe", "--workload", workload, "--seed", str(seed)]
    times = []
    before = speed.sample()
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = speed.sample()
        times.append(speed.scale(wall, before + after))
        before = after
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_failures(run: Run) -> None:
    for text in run.failures[:5]:
        print(f"FAILED {text}", file=sys.stderr)


def untraced(args, wl) -> tuple[Run, dict]:
    setup_s = measure_setup(args.workload, args.seed)
    run = warm_up(wl).merge(closed_loop(wl, 1, args.seconds))
    pct, tail_ms = run.tail()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"{args.workload}: {len(run.times)} ops in {sum(run.times):.2f} s wall; "
        f"op_p50_ms {run.p50_ms():.2f}; op_tail_ms {tail_ms:.2f} at p{pct:.1f}; "
        f"items_per_s {run.items_per_s():.1f}; "
        f"error_rate {len(run.failures) / run.attempted:g} ({len(run.failures)}/{run.attempted}); "
        f"setup_s {setup_s:.3f}; peak_rss_mb {peak_mb:.1f}; "
        f"speed factor {run.speed_factor():.3f}; "
        f"{wl.summary()}"
    )
    return run, {
        "setup_s": metric(setup_s, "s"),
        "op_p50_ms": metric(run.p50_ms(), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "items_per_s": metric(run.items_per_s(), "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def traced(args, wl) -> tuple[Run, dict]:
    warm = warm_up(wl)
    plain = closed_loop(wl, 1, args.seconds / 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        spans = closed_loop(wl, 1 + len(plain.times), args.seconds / 2, tracer)
    stats = tracing.SpanStats(tracer.spans, len(spans.times), spans.speed_factor())
    values = tracing.span_metrics(stats)
    values["trace.op_ms"] = 1e3 * statistics.mean(spans.scaled)
    values["trace_overhead_frac"] = spans.p50_ms() / plain.p50_ms() - 1.0
    values.update(kernels.sweep(args.seed))
    env.WORK.mkdir(exist_ok=True)
    out = env.WORK / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.dump(out)
    print_layer_table(args.workload, values)
    print(f"wrote {len(tracer.spans)} spans of {len(spans.times)} ops to {out}")
    units = {name: unit for name, unit, _ in per_layer_specs()}
    return warm.merge(plain).merge(spans), {name: metric(values[name], units[name]) for name in units}


def per_layer_specs():
    return [
        *tracing.metric_specs(),
        ("trace.op_ms", "ms", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
        *kernels.metric_specs(),
    ]


def print_layer_table(workload: str, values: dict) -> None:
    op_ms = values["trace.op_ms"]
    print(f"{workload}: traced op {op_ms:.2f} ms, "
          f"tracing overhead {100 * values['trace_overhead_frac']:+.1f}% on p50")
    print(f"  {'layer':<10} {'self ms/op':>11} {'share':>7}")
    for layer in tracing.LAYERS:
        ms = values[f"{layer}.self_ms"]
        print(f"  {layer:<10} {ms:>11.3f} {100 * ms / op_ms:>6.1f}%")
    for name, unit, _ in tracing.metric_specs():
        if values[name] and name.count(".") > 1:
            print(f"  {name:<48} {values[name]:>14.4f} {unit}")
    for name, unit, _ in kernels.metric_specs():
        print(f"  {name:<48} {values[name]:>14.1f} {unit}")


def probe(args) -> int:
    """Setup probe: what a cold process does before its first operation."""
    workdir = env.WORK / f"probe-{args.workload}-{os.getpid()}"
    try:
        workloads.make(args.workload, args.seed, workdir).inputs(0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="setflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args)

    print("env: " + json.dumps(env.describe()))
    workdir = env.WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        run, metrics = (traced if args.trace else untraced)(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_failures(run)
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
