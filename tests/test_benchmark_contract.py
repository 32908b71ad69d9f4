"""The benchmark in ``perfbench/`` drives the program through its public
names: its tracer wraps them by module attribute and its workloads check
the artifacts of one ``run_pipeline`` call.  This runs one smoke-sized
operation of each workload the way ``perfbench/run.py --trace`` does, so a
change that breaks that contract fails here rather than only in the
benchmark.  The mf-recognize operation also reads the binary files back and
scores them with the GMMs its set-up trained."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["trio-separate", "trio-diag-b15", "mf-recognize"])
def test_traced_smoke_operation_passes_the_benchmark_checks(name, tmp_path, monkeypatch):
    tracer_module, workloads = _load("tracer", monkeypatch), _load("workloads", monkeypatch)
    workload = workloads.smoke(workloads.WORKLOADS[name])
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # set-up is traced too: it is where scenes are rendered and models trained
        prepared = workloads.setup(workload, 0, str(tmp_path / "inputs"),
                                   lambda fn, *args, **kwargs: fn(*args, **kwargs))
        first = len(tracer.spans)
        with tracer.span("op"):
            out = workloads.run_op(workload, prepared, 0, str(tmp_path / "out"))
        problems, _ = workloads.check_op(workload, prepared.scenes[0], out)
    finally:
        tracer.uninstall()
    assert problems == []
    tracer.require(workload.layers())

    # Beyond the wrapped names, pipeline.frame_ms_* sums each frame's stage
    # spans by frame index, and postfilter.gain_faults reads the faults
    # count of the postfilter.process spans.
    op_spans = tracer.spans[first:]
    frames = list(range(out.result.frames_processed))
    assert frames
    stages = ["stft.analyze", "gss.separate", "postfilter.process"]
    for name in stages + (["gss.adapt"] if workload.adapt else []):
        assert [span.frame for span in op_spans if span.name == name] == frames, name
    assert all("faults" in span.counts for span in op_spans if span.name == "postfilter.process")
