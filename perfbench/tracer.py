"""In-memory span tracer that wraps arraysep's public names from outside.

Each wrapped call records one span: name, start, end, the enclosing span,
the benchmark operation it belongs to and, for per-frame stages, the STFT
frame index.  Spans stay in memory until the run ends and are then written
out as JSON lines.  Nothing inside ``src/`` is edited: the wrappers are
installed on the module attributes that ``arraysep.pipeline`` (and the
benchmark itself) resolve at call time, and removed again afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass, field


class TraceError(RuntimeError):
    """A wrapped name is missing, or a layer that should run never ran."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    frame: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _mask_bits(args, result) -> dict:
    static = args[1].static
    return {"bits_set": int(static.sum()), "bits": int(static.size)}


def _gain_faults(args, result) -> dict:
    return {"faults": int(args[0].gains.fault_count)}


def _frames_scored(args, result) -> dict:
    return {"frames": int(len(args[1]))}


# (module, attribute, span name, counts hook).  Attributes are the names the
# pipeline looks up at call time, so e.g. ``arraysep.pipeline.read_wav`` is
# wrapped, while the benchmark's own set-up calls to ``arraysep.audio`` are not.
WRAPPED = (
    ("arraysep.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("arraysep.pipeline", "run_stages", "pipeline.run_stages", None),
    ("arraysep.pipeline", "read_wav", "audio.read_wav", None),
    ("arraysep.pipeline", "write_wav", "audio.write_wav", None),
    ("arraysep.pipeline", "resample_48k_to_16k", "audio.resample", None),
    ("arraysep.pipeline", "serialize_config", "config.serialize", None),
    ("arraysep.pipeline", "steering_matrix", "geometry.steering", None),
    ("arraysep.pipeline", "stft_analyze", "stft.analyze", None),
    ("arraysep.pipeline", "stft_synthesize", "stft.synthesize", None),
    ("arraysep.gss", "separate", "gss.separate", None),
    ("arraysep.gss", "adapt", "gss.adapt", None),
    ("arraysep.postfilter", "PostFilter.process", "postfilter.process", _gain_faults),
    ("arraysep.pipeline", "extract_features", "features.extract", None),
    ("arraysep.pipeline", "write_features_csv", "features.write_csv", _file_bytes),
    ("arraysep.pipeline", "write_features_binary", "features.write_bin", _file_bytes),
    ("arraysep.features", "read_features_binary", "features.read_bin", None),
    ("arraysep.pipeline", "masks_from_records", "masks.from_records", None),
    ("arraysep.pipeline", "write_mask_csv", "masks.write_csv", None),
    ("arraysep.pipeline", "write_mask_binary", "masks.write_bin", _mask_bits),
    ("arraysep.masks", "read_mask_binary", "masks.read_bin", None),
    ("arraysep.pipeline", "measure_quality", "metrics.measure_quality", None),
    ("arraysep.gmm", "classify_frames", "gmm.score", _frames_scored),
    ("arraysep.gmm", "train_gmm", "gmm.train", None),
    ("arraysep.simulate", "synthesize", "simulate.synthesize", None),
)

# Generators whose every next() is one span (one STFT frame each).
_PER_ITEM = {"stft.analyze"}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def _frame_index(args) -> int | None:
    for arg in args:
        index = getattr(arg, "frame_index", None)
        if isinstance(index, int):
            return index
    return None


class Tracer:
    """Records spans around wrapped calls; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    # ---- spans -----------------------------------------------------------

    def open(self, name: str, frame: int | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent=parent, op=self.op, frame=frame)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise TraceError(f"span {span.name} closed out of order")

    def _discard(self, span: Span) -> None:
        if self._stack.pop() is not span or self.spans.pop() is not span:
            raise TraceError(f"span {span.name} discarded out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # ---- wrapping --------------------------------------------------------

    def _wrap_call(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, _frame_index(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                span.counts.update(hook(args, result))
            return result

        return traced

    def _wrap_iter(self, fn, name):
        tracer = self

        def timed(iterator):
            while True:
                span = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer._discard(span)
                    return
                except BaseException:
                    tracer.close(span)
                    raise
                tracer.close(span)
                span.frame = _frame_index((item,))
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED; a missing name is an error."""
        if self._installed:
            raise TraceError("tracer already installed")
        try:
            for module_name, attr_path, name, hook in WRAPPED:
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    raise TraceError(f"{module_name}.{attr_path} is missing; cannot trace {name}")
                wrapped = (self._wrap_iter(original, name) if name in _PER_ITEM
                           else self._wrap_call(original, name, hook))
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def require(self, names) -> None:
        """Raise unless every named layer recorded at least one span."""
        seen = {span.name for span in self.spans}
        missing = sorted(set(names) - seen)
        if missing:
            raise TraceError(f"layers never called on this workload: {', '.join(missing)}")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

