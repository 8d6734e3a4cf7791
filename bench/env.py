"""Process set-up shared by every benchmark entry point.

Importing this module pins BLAS/OpenMP thread pools to one thread (before
numpy loads) and puts the working tree's ``src/`` first on ``sys.path``,
because the benchmark measures the checkout it sits in, never an installed
copy.  Child processes inherit both through the environment.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

for _var in THREAD_VARS:
    os.environ[_var] = "1"
# the diagnostics read their seed from here; the workloads set it in the scenario
os.environ.pop("SETFLOW_SEED", None)
os.environ["PYTHONPATH"] = str(SRC)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def have_sources() -> bool:
    return (SRC / "setflow" / "__init__.py").is_file()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower()}"] = size
    return caches


def describe() -> dict:
    """Interpreter, numpy and hardware facts recorded next to every result."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
