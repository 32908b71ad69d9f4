"""Benchmark of arraysep's real ``run_pipeline`` path, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload trio-separate --seed 1 --seconds 6 --trace 0

One process drives the program from outside through its public API; the
checkout's ``src/`` is imported directly, so nothing needs installing.  BLAS
and OpenMP pools are pinned to one thread before numpy loads.

With ``--trace 0`` the run sets up three times, runs one untimed
operation under ``tracemalloc`` for the memory peak (which also warms
caches), then times operations until ``--seconds`` of operation time have
passed and every scene of the pool has run once.  With ``--trace 1`` it
sets up once with the tracer installed, runs one untimed warm-up
operation, times an untraced loop and then a traced loop of the same
length, and reports the per-layer metrics from the traced one.  Every operation's outputs are
checked either way.  Each timed interval is bracketed by a calibration
kernel (``calibrate.py``) and scaled to a reference host speed; the raw
wall times are kept in the details line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and per-run details.  Spans of a traced run are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("trio-separate", "mf-recognize", "trio-diag-b15")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal scenes and one set-up, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "arraysep" / "__init__.py").is_file():
        print(f"error: no arraysep sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import arraysep

    if Path(arraysep.__file__).resolve().parent != (SRC / "arraysep").resolve():
        print(f"error: imported arraysep from {arraysep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from tracer import TraceError

    work = harness.OUT / f"work-{os.getpid()}"
    try:
        result, details = harness.measure(args, work)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": harness.environment(args, THREAD_VARS), "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
