"""End-to-end orchestration: separation, post-filter, features, masks, metrics.

Frames stream stage to stage in order; per-source audio, feature and mask
files are written once the whole stream processed cleanly.  Every artifact,
the streamed post-filter dumps included, keeps a temporary name until all
are written, so a failing run leaves no partial outputs.  Each input is
decoded only while a stage needs it: the mixture for the stage loop, the
references and the noise (checked up front) for the quality report at the
end.  Identical config and inputs give byte-identical outputs.
"""

from __future__ import annotations

import bisect
import contextlib
import errno
import logging
import os
import shutil
import time
from dataclasses import asdict, dataclass, field, replace
from collections import defaultdict
from itertools import accumulate, chain

import numpy as np

from . import gss
from .audio import (SEPARATION_RATE, AudioBuffer, WavFile, open_wav, read_wav,
                    resample_48k_to_16k, write_wav)
from .config import PipelineConfig, serialize_config
from .errors import AudioIOError, ConfigError, StreamError
from .features import NUM_BANDS, extract_features, write_features_binary, write_features_csv
from .formats import PostfilterDump, write_csv
from .geometry import steering_matrix
from .masks import (align_to_feature_frames, band_reliability, masks_from_records,
                    write_mask_binary, write_mask_csv)
from .metrics import measure_quality, write_quality_report
from .postfilter import PostFilter
from .stft import BLOCK_FRAMES, SpectralFrame, frame_count, stft_analyze, stft_synthesize

logger = logging.getLogger(__name__)


class StageClock:
    """Wall time and calls per stage, and each frame's chain time in a fixed
    histogram, so memory stays flat however long the run.

    ``add(stage, start)`` charges the ns since ``start``, a ``perf_counter_ns``
    reading, to ``stage`` and returns the reading it took, so back-to-back
    stages share one.  A frame's chain time is its own stages' time plus an
    equal share of its block's flush; past ``deadline_ns``, the hop, it is a
    deadline miss.
    """

    EDGES_NS = [round(10 ** (3 + i / 20)) for i in range(141)]  # 1 us to 10 s, 20 per decade

    def __init__(self, deadline_ns: float):
        self.deadline_ns, self.deadline_misses = deadline_ns, 0
        self.totals = defaultdict(lambda: [0, 0])  # stage -> [ns, calls], in first-call order
        self.histogram = [0] * (len(self.EDGES_NS) + 1)  # bin i holds [EDGES_NS[i-1], EDGES_NS[i])
        self.unflushed = []  # the chain ns so far of each frame in the open block

    def add(self, stage: str, start: int) -> int:
        now = time.perf_counter_ns()
        total = self.totals[stage]
        total[0] += now - start
        total[1] += 1
        return now

    def end_block(self, start: int) -> None:
        """Share the time since ``start``, when the block's flush began, among its frames."""
        share = (time.perf_counter_ns() - start) / len(self.unflushed)
        for ns in self.unflushed:
            self.record(ns + share)
        self.unflushed = []

    def record(self, chain_ns: float) -> None:
        """Count one frame's chain time."""
        self.histogram[bisect.bisect_right(self.EDGES_NS, chain_ns)] += 1
        self.deadline_misses += chain_ns > self.deadline_ns

    def percentile_ns(self, q: float) -> int:
        """The upper edge of the histogram bin that holds the q-th percentile
        chain time (the last edge for the overflow bin)."""
        cumulative = list(accumulate(self.histogram))
        i = bisect.bisect_right(cumulative, q / 100 * (cumulative[-1] - 1))
        return self.EDGES_NS[min(i, len(self.EDGES_NS) - 1)]

    def lines(self, frames: int) -> list[str]:
        """Each stage's ms per frame, then the chain time's p50/p99 and the misses."""
        rows = [f"{stage}: {ns / 1e6 / frames:.3f} ms/frame over {calls} calls"
                for stage, (ns, calls) in self.totals.items()]
        return rows + [f"frame chain: p50 <= {self.percentile_ns(50) / 1e6:.3f} ms, "
                       f"p99 <= {self.percentile_ns(99) / 1e6:.3f} ms, {self.deadline_misses} "
                       f"over the {self.deadline_ns / 1e6:.2f} ms hop"]


class StageLoop:
    """The frame loop's state: GSS, the optional post-filter with the (T, M, 24)
    continuous mask reliabilities ``reliability`` (else None), the dump sink and the
    stage clock.  ``step`` and ``finish`` return the blocks ready for synthesis, a
    post-filtered one valid until the next ``step``; ``run_stages`` sets ``separated``
    (None if no frame)."""

    def __init__(self, config: PipelineConfig, num_frames: int, dump):
        steering = steering_matrix(config.geometry(), config.directions(), config.fft_size)
        self.state = gss.init_delay_and_sum(steering, config.step_size)
        self.adapt, self.dump = config.stages.adapt, dump
        self.num_frames, self.separated, self.reliability = num_frames, None, None
        self.postfilter, self.gain_faults = None, 0
        self.clock = StageClock(config.shift * 1e9 / SEPARATION_RATE)
        if config.stages.postfilter:
            num_sources, num_bins = len(config.sources), config.fft_size // 2 + 1
            self.postfilter = PostFilter(num_sources, num_bins, config)
            self.reliability = np.zeros((num_frames, num_sources, NUM_BANDS))
        else:
            self.pending = []  # the separated bins not yet in a block

    def step(self, frame: SpectralFrame, start: int) -> list[np.ndarray]:
        """Separate the next analysis frame and adapt on it; the block of
        BLOCK_FRAMES separated, or with the post-filter filtered, frames that
        the frame completes, if any.  ``start``, a ``perf_counter_ns`` reading
        from before the frame's analysis, charges that analysis to the clock."""
        clock = self.clock
        now = clock.add("analysis", start)
        separated = gss.separate(self.state, frame)
        now = clock.add("gss.separate", now)
        if self.adapt:
            gss.adapt(self.state, frame, separated)
            now = clock.add("gss.adapt", now)
        del frame  # the only reference to its spectra: they go before the flush
        if self.postfilter is None:
            self.pending.append(separated.bins)
        else:
            self.postfilter.process(separated)
            now = clock.add("postfilter.process", now)
        clock.unflushed.append(now - start)
        return self._flush() if self._queued() == BLOCK_FRAMES else []

    def finish(self) -> list[np.ndarray]:
        """The queued frames as a last block; the post-filter goes, its gain-fault count
        stays, and GSS keeps its matrices but not the operators ``adapt`` cached."""
        blocks = self._flush() if self._queued() else []
        if self.postfilter is not None:
            self.gain_faults, self.postfilter = self.postfilter.gains.fault_count, None
        self.state = replace(self.state)
        return blocks

    def _queued(self) -> int:
        return len(self.pending) if self.postfilter is None else len(self.postfilter.queued)

    def _flush(self) -> list[np.ndarray]:
        clock, start = self.clock, time.perf_counter_ns()
        if self.postfilter is None:
            block, self.pending = np.stack(self.pending), []
            clock.add("stack", start)
        else:
            first = self.postfilter.queued[0]
            block, bands, internals = self.postfilter.flush()
            self.reliability[first : first + len(block)] = band_reliability(bands)
            now = clock.add("postfilter.flush", start)
            if self.dump is not None and internals is not None:
                for t in range(len(block)):
                    self.dump(first + t, [part[t] for part in internals])
                clock.add("dump", now)
        clock.end_block(start)
        return [block]


def run_stages(mixture: AudioBuffer | WavFile, config: PipelineConfig,
               dump=None) -> StageLoop:
    """Stream the mixture's analysis frames through a ``StageLoop`` into overlap-add and
    return the loop; no frame outlives its own block's step through the chain, and with
    ``dump_diagnostics`` each one's internals go to ``dump(frame_index, internals)``."""
    if mixture.num_channels != len(config.mic_positions_m):
        raise StreamError(f"input has {mixture.num_channels} channels, "
                          f"geometry expects {len(config.mic_positions_m)}")
    if mixture.rate != SEPARATION_RATE:
        raise StreamError(f"input is sampled at {mixture.rate} Hz, not {SEPARATION_RATE}")
    num_frames = frame_count(mixture.num_samples, config.fft_size, config.shift)
    loop = StageLoop(config, num_frames, dump)
    frames = stft_analyze(mixture, config.fft_size, config.shift)
    # step holds the only reference to its frame; finish runs last.  Keyword
    # arguments are evaluated in order, so start is read before the analysis.
    steps = iter(lambda: loop.step(start=time.perf_counter_ns(), frame=next(frames)), None)
    ready = chain.from_iterable(chain(steps, map(StageLoop.finish, [loop])))
    if num_frames:
        loop.separated = AudioBuffer(stft_synthesize(ready, config.shift, num_frames),
                                     mixture.rate)
    for _ in ready:  # with no frame, every sample is still read and scanned
        pass
    logger.info("stages: %d frames, %d post-filter gain faults", num_frames, loop.gain_faults)
    return loop


@dataclass
class PipelineResult:
    output_dir: str
    effective_config: str
    frames_processed: int
    clock: StageClock  # the stage loop's, with the emission stages added
    separated_48k: dict = field(default_factory=dict)
    separated_16k: dict = field(default_factory=dict)
    feature_files: dict = field(default_factory=dict)
    mask_files: dict = field(default_factory=dict)
    report_csv: str | None = None


# what the run header leaves out: the geometry, the sources and the file paths
_UNLOGGED = {"mic_positions_m", "sources", "input_wav", "output_dir", "reference_wavs",
             "noise_wav"}


def _log_run_header(config: PipelineConfig) -> None:
    if logger.isEnabledFor(logging.INFO):  # build no dict for a header nobody sees
        settings = asdict(config).items()
        logger.info("run config: %s", " ".join(f"{key}={value}" for key, value in settings
                                               if key not in _UNLOGGED))


def _dump_gss_state(path: str, state: gss.SeparationState, ids: list[str]) -> None:
    header = ["bin"] + [f"w_{s}_{n}" for s in ids for n in range(state.num_mics)]
    magnitude = np.abs(state.demix).reshape(state.demix.shape[0], -1)
    table = np.column_stack((np.arange(magnitude.shape[0]), magnitude))
    write_csv(path, ",".join(header), table, ["%d"] + ["%.6e"] * magnitude.shape[1],
              "diagnostic")


class _Staging:
    """Output files written under temporary names, renamed into place
    together by ``commit`` once every write has succeeded; ``discard``
    removes them."""

    def __init__(self):
        self.renames = []

    def __call__(self, path: str) -> str:
        """The temporary name to write ``path`` under."""
        self.renames.append((f"{path}.{os.getpid()}.tmp", path))
        return self.renames[-1][0]

    def commit(self) -> None:
        """Rename every staged file into place.  A file already at a final
        name is first renamed aside, so if any rename fails, the files
        replaced so far are put back and the new ones removed before the
        error is raised."""
        # a directory in the way would be renamed aside and left there
        for _, path in self.renames:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "is a directory", path)
        placed = []  # (final name, the earlier file's name aside or None)
        try:
            for temporary, path in self.renames:
                aside = f"{path}.{os.getpid()}.old" if os.path.lexists(path) else None
                if aside:
                    os.replace(path, aside)
                placed.append((path, aside))
                os.replace(temporary, path)
        except BaseException:
            for path, aside in reversed(placed):
                with contextlib.suppress(OSError):
                    if aside:
                        os.replace(aside, path)
                    else:
                        os.remove(path)
            raise
        for _, aside in placed:
            if aside:
                with contextlib.suppress(OSError):
                    os.remove(aside)

    def discard(self) -> None:
        for temporary, _ in self.renames:
            with contextlib.suppress(OSError):
                os.remove(temporary)


@contextlib.contextmanager
def staged_outputs(output_dir: str):
    """Create ``output_dir`` as needed and yield a ``_Staging`` for the files
    written into it, committed when the block ends.  On any failure the
    staged files are removed, and so is every directory created here, so
    the output directory is left as it was found."""
    created, missing = None, os.path.abspath(output_dir)
    while not os.path.exists(missing):  # up to the topmost directory this creates
        created, missing = missing, os.path.dirname(missing)
    staging = _Staging()
    try:
        os.makedirs(output_dir, exist_ok=True)
        yield staging
        staging.commit()
    except BaseException:
        staging.discard()
        if created:
            shutil.rmtree(created, ignore_errors=True)
        raise


def _quality_rows(config: PipelineConfig, separated: AudioBuffer,
                  ids: list[str]) -> list:
    """Score the outputs against the first channel of each reference WAV and
    the noise WAV, each channel decoded once and projected onto every output.
    The files were checked when the run began; they are mapped again because
    no file mapping may outlive this call, since the run writes files on
    either side of it."""
    references = [WavFile(path) for path in config.reference_wavs]
    noise = WavFile(config.noise_wav) if config.noise_wav else None
    return measure_quality([separated.samples[m] for m in range(len(ids))],
                           references, noise, source_ids=ids)


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run the configured stages over an input WAV and emit all artifacts.

    Every artifact is written under a temporary name and renamed into place
    once all are written, so a failing run leaves the output directory as it
    found it and removes any directory it created."""
    config.validate()
    if not config.input_wav:
        raise ConfigError("pipeline needs an input WAV (input_wav)")
    if not config.output_dir:
        raise ConfigError("pipeline needs an output directory (output_dir)")
    if os.path.exists(config.output_dir) and not os.path.isdir(config.output_dir):
        raise AudioIOError(f"output_dir {config.output_dir} exists and is not a directory")

    # A bad reference or noise WAV fails here, before any output is written;
    # they are decoded only for the quality report at the end.
    for path in [*config.reference_wavs, *([config.noise_wav] if config.noise_wav else [])]:
        rate = open_wav(path).rate
        if rate != SEPARATION_RATE:
            raise StreamError(f"{path} is sampled at {rate} Hz, not {SEPARATION_RATE}")

    _log_run_header(config)
    ids = [s.id for s in config.sources]
    try:
        with staged_outputs(config.output_dir) as staging:
            with contextlib.closing(PostfilterDump(config.output_dir, ids, staging)) as dump:
                output = run_stages(read_wav(config.input_wav, BLOCK_FRAMES * config.shift),
                                    config, dump if config.dump_diagnostics else None)
            result = _emit(config, output, ids, staging)
    except OSError as exc:
        raise AudioIOError(f"cannot write to {config.output_dir}: {exc}") from exc
    if result.frames_processed:
        for line in result.clock.lines(result.frames_processed):
            logger.info("stage %s", line)
    return result


def _emit(config: PipelineConfig, output: StageLoop, ids: list[str],
          staging: _Staging) -> PipelineResult:
    """Write every artifact of a finished stage loop under its staged name;
    the result names the final paths."""
    result = PipelineResult(config.output_dir,
                            os.path.join(config.output_dir, "effective_config.yaml"),
                            output.num_frames, output.clock)
    serialize_config(config, staging(result.effective_config))

    if config.dump_diagnostics:
        _dump_gss_state(staging(os.path.join(config.output_dir, "gss_state.csv")),
                        output.state, ids)
    if output.separated is None:
        return result

    for m, source_id in enumerate(ids):
        start = time.perf_counter_ns()
        _emit_source(config, output, m, source_id, staging, result)
        output.clock.add("emit.source", start)

    if config.reference_wavs:
        start = time.perf_counter_ns()
        rows = _quality_rows(config, output.separated, ids)
        stage = ("gss" if config.stages.adapt else "delay-and-sum") + (
            "+pf" if config.stages.postfilter else "")
        result.report_csv = os.path.join(config.output_dir, "quality_report.csv")
        write_quality_report(staging(result.report_csv), stage, rows)
        output.clock.add("emit.quality", start)

    return result


def _emit_source(config: PipelineConfig, output: StageLoop, m: int, source_id: str,
                 staging: _Staging, result: PipelineResult) -> None:
    """Write source ``m``'s audio, features and mask under their staged
    names and enter them in ``result``.  Its 16 kHz copy, features and mask
    are released on return, before the next source or the quality report."""
    prefix = os.path.join(config.output_dir, f"{source_id}_")
    mono = AudioBuffer(output.separated.samples[m], output.separated.rate)
    write_wav(staging(prefix + "48k.wav"), mono)
    mono16 = resample_48k_to_16k(mono)
    write_wav(staging(prefix + "16k.wav"), mono16)
    result.separated_48k[source_id] = prefix + "48k.wav"
    result.separated_16k[source_id] = prefix + "16k.wav"
    if not config.stages.features:
        return

    features = extract_features(mono16)
    write_features_csv(staging(prefix + "features.csv"), features)
    write_features_binary(staging(prefix + "features.bin"), features)
    result.feature_files[source_id] = {"csv": prefix + "features.csv",
                                       "binary": prefix + "features.bin"}
    if output.reliability is None:
        return

    mask = align_to_feature_frames(masks_from_records(output.reliability, m,
                                                      config.mask_threshold),
                                   len(features), mask_shift=config.shift,
                                   mask_size=config.fft_size)
    write_mask_csv(staging(prefix + "mask.csv"), mask)
    write_mask_binary(staging(prefix + "mask.bin"), mask)
    result.mask_files[source_id] = {"csv": prefix + "mask.csv", "binary": prefix + "mask.bin"}


@dataclass
class BenchReport:
    audio_seconds: float
    wall_seconds: float
    frames: int
    real_time_factor: float | None
    clock: StageClock

    def summary(self) -> str:
        if self.real_time_factor is None:
            return "bench: no frames processed"
        return "\n  ".join([f"bench: {self.audio_seconds:.2f}s audio in {self.wall_seconds:.3f}s "
                            f"wall, real-time factor {self.real_time_factor:.3f} over "
                            f"{self.frames} frames", *self.clock.lines(self.frames)])


def bench_pipeline(mixture: AudioBuffer, config: PipelineConfig) -> BenchReport:
    """Time the stage loop (analysis through overlap-add) and the masks,
    excluding file I/O."""
    start = time.perf_counter()
    output = run_stages(mixture, config)
    if output.reliability is not None:
        for m in range(output.state.num_sources):
            masks_from_records(output.reliability, m, config.mask_threshold)
    wall = time.perf_counter() - start
    rtf = (wall / mixture.duration) if output.num_frames else None
    return BenchReport(mixture.duration, wall, output.num_frames, rtf, output.clock)
