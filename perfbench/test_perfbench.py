"""Checks of the benchmark itself: span arithmetic and a minimal run of each workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, "op", 0.0, 10.0),
        Span(1, "a", 1.0, 4.0, parent=0),
        Span(2, "b", 3.5, 6.0, parent=0),        # overlaps a: together they cover [1, 6]
        Span(3, "a.inner", 1.5, 2.5, parent=1),  # a grandchild is not subtracted from op
        Span(4, "c", 9.0, 12.0, parent=0),       # only its [9, 10] part lies inside op
        Span(5, "setup", 20.0, 21.0),            # a second root
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 2.5, 3: 1.0, 4: 3.0, 5: 1.0})


def test_tracer_records_parents_ops_and_frames():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op = 7
    with tracer.span("op"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("op", None, 7), ("child", 0, 7), ("child", 0, 7)]
    assert self_times(tracer.spans) == {0: 3.0, 1: 1.0, 2: 1.0}


def _run(args, cwd, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                 "--trace", str(trace), "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Per-operation checks must pass even at minimal size; the run-level
    # accuracy comparison needs the full pool, so ``correct`` is not asserted.
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "trio-separate", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
