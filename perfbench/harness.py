"""Measurement loops, metrics and checks behind ``run.py``.

Imported only after ``run.py`` has pinned the BLAS/OpenMP thread pools and
put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import statistics
import sys
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import calibrate
import workloads
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
HOP_MS = 512 / 48.0
# Per-frame stages whose spans add up to one frame's processing time.
FRAME_STAGES = ("stft.analyze", "gss.separate", "gss.adapt", "postfilter.process")


@dataclass
class OpRecord:
    op: int
    scene: int
    wall: float
    audio_s: float
    problems: list
    scale: float = 1.0           # host-speed calibration factor
    out_sir_db: float | None = None
    decisions: object = None
    peak_bytes: int | None = None


class Runner:
    def __init__(self, workload, prepared, work: Path, calibrator, tracer=None):
        self.workload, self.prepared, self.work = workload, prepared, work
        self.calibrator, self.tracer = calibrator, tracer
        self.records: list[OpRecord] = []

    def attempt(self, index: int, trace: bool = False, measure_memory: bool = False) -> OpRecord:
        """Run, time and check one operation; failures are recorded, not raised."""
        op_id = len(self.records)
        scene = self.prepared.scenes[index]
        record = OpRecord(op_id, index, 0.0, scene.audio_seconds, [])
        out_dir = self.work / "out" / f"op{op_id}"
        tracer = self.tracer if trace else None
        stopwatch = calibrate.Stopwatch(self.calibrator)

        def run():
            if measure_memory:
                tracemalloc.start()
            try:
                if tracer is None:
                    return workloads.run_op(self.workload, self.prepared, index, str(out_dir))
                with tracer.span("op"):
                    return workloads.run_op(self.workload, self.prepared, index, str(out_dir))
            finally:
                if measure_memory:
                    record.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        if tracer is not None:
            tracer.op = op_id
        try:
            out = stopwatch(run)
            record.decisions = out.decisions
            record.problems, record.out_sir_db = workloads.check_op(self.workload, scene, out)
        except Exception as exc:  # one failed operation must not end the run
            record.problems = [f"raised {type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.op = None
            shutil.rmtree(out_dir, ignore_errors=True)
        record.wall = stopwatch.wall
        record.scale = stopwatch.scaled / stopwatch.wall
        for problem in record.problems:
            print(f"op {op_id} (scene {index}) failed: {problem}", file=sys.stderr)
        self.records.append(record)
        return record

    def loop(self, seconds: float, trace: bool = False) -> list[OpRecord]:
        """Cycle through the pool until ``seconds`` of operation time and one full pass."""
        done, spent = [], 0.0
        while spent < seconds or len(done) < len(self.prepared.scenes):
            done.append(self.attempt(len(done) % len(self.prepared.scenes), trace=trace))
            spent += done[-1].wall
        return done


def median_rtf(records: list[OpRecord], calibrated: bool = True) -> float:
    """Median over operations (clean ones, if any) of seconds per audio
    second, scaled to the reference host speed unless ``calibrated`` is off."""
    ok = [r for r in records if not r.problems] or records
    return statistics.median(r.wall / r.audio_s * (r.scale if calibrated else 1.0) for r in ok)


def quality(records: list[OpRecord]) -> dict:
    """Output quality over the pool's distinct scenes (each counted once)."""
    first = {}
    for record in records:
        if not record.problems:
            first.setdefault(record.scene, record)
    sir = [r.out_sir_db for r in first.values()]
    frames = sum(r.decisions.frames for r in first.values() if r.decisions)
    out = {"scenes": len(first), "out_sir_db": statistics.mean(sir) if sir else 0.0}
    if frames:
        out["active_frames"] = frames
        out["masked_accuracy"] = sum(r.decisions.masked_correct for r in first.values() if r.decisions) / frames
        out["allones_accuracy"] = sum(r.decisions.allones_correct for r in first.values() if r.decisions) / frames
    return out


def run_checks(workload, records: list[OpRecord], pool: int) -> list[str]:
    """Run-level properties, on top of each operation's own checks."""
    problems = []
    q = quality(records)
    if q["scenes"] < pool:
        problems.append(f"only {q['scenes']} of {pool} scenes ran cleanly")
    if workload.recognize:
        if not q.get("active_frames"):
            problems.append("no active frames were classified")
        elif q["masked_accuracy"] < q["allones_accuracy"]:
            problems.append(f"masked accuracy {q['masked_accuracy']:.3f} is below all-ones "
                            f"accuracy {q['allones_accuracy']:.3f}")
    return problems


def _percentile_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(spans, records: list[OpRecord], untraced: list[OpRecord]) -> dict:
    """Per-layer numbers from the traced loop's spans (see README.md)."""
    ops = {r.op: r for r in records}
    selfs = self_times(spans)
    per_op = defaultdict(lambda: defaultdict(float))   # op -> span name -> seconds
    self_per_op = defaultdict(float)                   # op -> run_pipeline self seconds
    per_frame = defaultdict(list)                      # stage -> per-frame seconds
    frame_total = defaultdict(float)                   # (op, frame) -> seconds
    setup = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(float))   # span name -> count -> total
    faults = defaultdict(int)
    for span in spans:
        if span.op is None:
            setup[span.name] += span.duration
            continue
        if span.op not in ops:
            continue
        per_op[span.op][span.name] += span.duration
        if span.name == "pipeline.run_pipeline":
            self_per_op[span.op] += selfs[span.id]
        if span.name in FRAME_STAGES:
            per_frame[span.name].append(span.duration)
            frame_total[(span.op, span.frame)] += span.duration
        if span.name == "postfilter.process":
            faults[span.op] = max(faults[span.op], span.counts.get("faults", 0))
        else:
            for key, value in span.counts.items():
                counts[span.name][key] += value

    def per_op_median(name, scale=1e3, per_audio=False):
        return statistics.median(
            per_op[o][name] * scale / (ops[o].audio_s if per_audio else 1.0) for o in ops)

    n_ops = len(ops)
    loop_share = statistics.median(per_op[o]["pipeline.run_stages"] / per_op[o]["op"] for o in ops)
    overhead = median_rtf(records) / median_rtf(untraced) - 1.0
    frames = list(frame_total.values())
    scored = counts["gmm.score"]["frames"]
    bits = counts["masks.write_bin"]
    q = quality(records)
    m = {
        "audio.read_wav_ms": (per_op_median("audio.read_wav"), "ms"),
        "audio.resample_ms_per_audio_s": (per_op_median("audio.resample", per_audio=True), "ms/s"),
        "audio.write_wav_ms": (per_op_median("audio.write_wav"), "ms"),
        "stft.analyze_ms_per_frame": (_percentile_ms(per_frame["stft.analyze"], 50), "ms"),
        "stft.synthesize_ms_per_audio_s": (per_op_median("stft.synthesize", per_audio=True), "ms/s"),
        "geometry.steering_ms": (per_op_median("geometry.steering"), "ms"),
        "config.serialize_ms": (per_op_median("config.serialize"), "ms"),
        "gss.separate_ms_per_frame_p50": (_percentile_ms(per_frame["gss.separate"], 50), "ms"),
        "gss.separate_ms_per_frame_p99": (_percentile_ms(per_frame["gss.separate"], 99), "ms"),
        "gss.adapt_ms_per_frame_p50": (_percentile_ms(per_frame["gss.adapt"], 50), "ms"),
        "gss.adapt_ms_per_frame_p99": (_percentile_ms(per_frame["gss.adapt"], 99), "ms"),
        "gss.adapt_calls": (len(per_frame["gss.adapt"]) / n_ops, "count"),
        "postfilter.process_ms_per_frame_p50": (_percentile_ms(per_frame["postfilter.process"], 50), "ms"),
        "postfilter.process_ms_per_frame_p99": (_percentile_ms(per_frame["postfilter.process"], 99), "ms"),
        "postfilter.gain_faults": (sum(faults.values()) / n_ops, "count"),
        "pipeline.frame_ms_p50": (_percentile_ms(frames, 50), "ms"),
        "pipeline.frame_ms_p99": (_percentile_ms(frames, 99), "ms"),
        "pipeline.frames_over_hop": (sum(f * 1e3 > HOP_MS for f in frames) / max(len(frames), 1), "frac"),
        "pipeline.run_stages_s": (per_op_median("pipeline.run_stages", scale=1.0), "s"),
        "pipeline.loop_share": (loop_share, "frac"),
        "pipeline.loop_rtf": (loop_share * median_rtf(untraced, calibrated=False), "ratio"),
        "pipeline.emit_self_ms": (statistics.median(self_per_op[o] * 1e3 for o in ops), "ms"),
        "features.extract_ms_per_audio_s": (per_op_median("features.extract", per_audio=True), "ms/s"),
        "features.write_csv_ms": (per_op_median("features.write_csv"), "ms"),
        "features.write_bin_ms": (per_op_median("features.write_bin"), "ms"),
        "features.read_bin_ms": (per_op_median("features.read_bin"), "ms"),
        "features.bytes_written": ((counts["features.write_csv"]["bytes"]
                                    + counts["features.write_bin"]["bytes"]) / n_ops, "bytes"),
        "masks.from_records_ms": (per_op_median("masks.from_records"), "ms"),
        "masks.write_csv_ms": (per_op_median("masks.write_csv"), "ms"),
        "masks.write_bin_ms": (per_op_median("masks.write_bin"), "ms"),
        "masks.read_bin_ms": (per_op_median("masks.read_bin"), "ms"),
        "masks.reliable_frac": (bits["bits_set"] / bits["bits"] if bits["bits"] else 0.0, "frac"),
        "gmm.train_s": (setup["gmm.train"], "s"),
        "gmm.score_ms_per_frame": (sum(per_op[o]["gmm.score"] for o in ops) * 1e3 / scored
                                   if scored else 0.0, "ms"),
        "gmm.masked_accuracy": (q.get("masked_accuracy", 0.0), "frac"),
        "gmm.allones_accuracy": (q.get("allones_accuracy", 0.0), "frac"),
        "metrics.measure_quality_ms": (per_op_median("metrics.measure_quality"), "ms"),
        "metrics.out_sir_db": (q["out_sir_db"], "dB"),
        "simulate.synthesize_s": (setup["simulate.synthesize"], "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in m.items()}


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, thread_vars) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "arraysep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in thread_vars},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
    }


def measure(args, work: Path) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    details = {"workload": workload.__dict__.copy()}
    calibrator = calibrate.Calibrator()

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            prepared = workloads.setup(workload, args.seed, str(work / "inputs"),
                                       lambda fn, *a, **k: fn(*a, **k))
        finally:
            tracer.uninstall()
        runner = Runner(workload, prepared, work, calibrator, tracer)
        runner.attempt(0)  # warm caches and lazy imports before timing
        untraced = runner.loop(args.seconds)
        tracer.install()
        try:
            traced = runner.loop(args.seconds, trace=True)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        tracer.require(workload.layers())
        metrics = layer_metrics(tracer.spans, traced, untraced)
        details["reconcile"] = {
            "rtf_wall": median_rtf(untraced, calibrated=False),
            "loop_share": metrics["pipeline.loop_share"]["value"],
            "loop_rtf": metrics["pipeline.loop_rtf"]["value"],
            "note": "loop_rtf = loop_share x rtf_wall: the frame loop that `arraysep bench` times",
        }
        details["spans"] = len(tracer.spans)
    else:
        setup_wall, setup_scaled = [], []
        repeats = 1 if args.smoke else SETUP_REPEATS
        for repeat in range(repeats):
            shutil.rmtree(work / "inputs", ignore_errors=True)
            stopwatch = calibrate.Stopwatch(calibrator)
            prepared = workloads.setup(workload, args.seed, str(work / "inputs"), stopwatch,
                                       oracle=repeat == repeats - 1)
            setup_wall.append(stopwatch.wall)
            setup_scaled.append(stopwatch.scaled)
        runner = Runner(workload, prepared, work, calibrator)
        memory = runner.attempt(0, measure_memory=True)  # also warms caches before timing
        timed = runner.loop(args.seconds)
        peak = memory.peak_bytes if memory.peak_bytes is not None else 0
        attempted = len(runner.records)
        metrics = {
            "rtf": {"value": median_rtf(timed), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_mb_per_audio_s": {"value": peak / 1e6 / memory.audio_s, "unit": "MB/s"},
            "ok_frac": {"value": sum(not r.problems for r in runner.records) / attempted,
                        "unit": "frac"},
        }
        details["wall"] = {
            "rtf": median_rtf(timed, calibrated=False),
            "setup_s": statistics.median(setup_wall),
            "rtf_each": [r.wall / r.audio_s for r in timed],
            "scale_each": [r.scale for r in timed],
            "setup_s_each": setup_wall,
        }

    records = runner.records
    run_problems = run_checks(workload, records, len(prepared.scenes))
    for problem in run_problems:
        print(f"run check failed: {problem}", file=sys.stderr)
    details["quality"] = quality(records)
    details["run_problems"] = run_problems
    failed = sum(bool(r.problems) for r in records)
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    return result, details
