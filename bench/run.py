"""setflow benchmark: one closed-loop client running a seeded workload in process.

    python3 bench/run.py --workload {example,repair,diagnose,analyze} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; it measures the ``src/`` tree next to it.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
splits the run into an untraced and a traced half, prints the per-layer
table, writes the spans to ``.bench_work/`` and ends with the per-layer
metrics and the kernel sweep.  Every operation's output is checked by its
workload's oracle.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import sys

import env  # first: pins thread pools and puts src/ on sys.path

if __name__ == "__main__":
    if not env.have_sources():
        print(f"error: no setflow sources under {env.SRC}", file=sys.stderr)
        sys.exit(2)
    import harness

    sys.exit(harness.main())
