"""End-to-end pipeline runs and the command-line interface."""

import bisect
import collections
import csv
import errno
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.io import wavfile

from arraysep import audio, cli, gss, pipeline, postfilter, stft
from arraysep.audio import AudioBuffer, read_wav, resample_48k_to_16k, write_wav
from arraysep.cli import main
from arraysep.config import (PipelineConfig, SourceDirection, parse_scene_file, scene_to_dict,
                             serialize_config, write_scene_file)
from arraysep.geometry import steering_matrix
from arraysep.errors import AudioIOError, StreamError
from arraysep.features import (extract_features, mel_filterbank, write_features_binary,
                               write_features_csv)
from arraysep.metrics import interference_ratio_db, measure_quality, write_quality_report
from arraysep.formats import PostfilterDump
from arraysep.masks import compute_mask, masks_from_records
from arraysep.pipeline import (StageClock, StageLoop, _dump_gss_state, _Staging, bench_pipeline,
                               run_pipeline, run_stages)
from arraysep.postfilter import PostFilter
from arraysep.simulate import (SceneSource, SceneSpec, SignalSpec, box_array_geometry,
                               synthesize, three_speaker_scene)
from arraysep.stft import BLOCK_FRAMES, SpectralFrame, frame_count, stft_analyze, stft_synthesize
from helpers import (filter_frame, pipeline_config_for_scene, separate_scene, stage_sir,
                     write_pcm24)


@pytest.fixture(scope="module")
def short_scene():
    spec = three_speaker_scene(60.0, duration_s=2.0, seed=31)
    return spec, synthesize(spec)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory, short_scene):
    spec, render = short_scene
    root = tmp_path_factory.mktemp("scene")
    write_wav(str(root / "mixture.wav"), render.mixture)
    for source, reference in zip(spec.sources, render.clean_references):
        write_wav(str(root / f"{source.source_id}_ref.wav"),
                  AudioBuffer(reference, 48000))
    write_wav(str(root / "noise.wav"), AudioBuffer(render.noise, 48000))
    return root


def tree(root):
    """Every directory (None) and file (its bytes) under ``root``, by relative path."""
    listing = {}
    for parent, dirs, files in os.walk(root):
        listing.update({os.path.relpath(os.path.join(parent, d), root): None for d in dirs})
        listing.update({os.path.relpath(os.path.join(parent, f), root):
                        Path(os.path.join(parent, f)).read_bytes() for f in files})
    return listing


def write_config(path, spec, scene_dir, output_dir, **overrides):
    config = pipeline_config_for_scene(spec, features=True, **overrides)
    config.input_wav = str(scene_dir / "mixture.wav")
    config.output_dir = str(output_dir)
    config.reference_wavs = [str(scene_dir / f"{s.source_id}_ref.wav") for s in spec.sources]
    config.noise_wav = str(scene_dir / "noise.wav")
    from arraysep.config import serialize_config

    serialize_config(config, str(path))
    return config


class TestRunPipeline:
    def test_emits_all_artifacts(self, short_scene, scene_dir, tmp_path):
        spec, _ = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out")
        result = run_pipeline(config)
        assert result.frames_processed > 0
        for source in spec.sources:
            sid = source.source_id
            assert os.path.exists(result.separated_48k[sid])
            assert os.path.exists(result.separated_16k[sid])
            assert os.path.exists(result.feature_files[sid]["csv"])
            assert os.path.exists(result.feature_files[sid]["binary"])
            assert os.path.exists(result.mask_files[sid]["csv"])
            assert os.path.exists(result.mask_files[sid]["binary"])
        assert os.path.exists(result.report_csv)
        assert os.path.exists(result.effective_config)
        # without dump_diagnostics no post-filter or GSS dump is written
        kinds = ("48k.wav", "16k.wav", "features.csv", "features.bin", "mask.csv", "mask.bin")
        assert sorted(os.listdir(tmp_path / "out")) == sorted(
            ["effective_config.yaml", "quality_report.csv"]
            + [f"{s.source_id}_{kind}" for s in spec.sources for kind in kinds])
        assert read_wav(result.separated_48k["center"]).rate == 48000
        assert read_wav(result.separated_16k["center"]).rate == 16000

    def test_features_without_post_filter_come_with_no_masks(self, short_scene, scene_dir,
                                                            tmp_path):
        spec, _ = short_scene
        config = write_config(tmp_path / "cfg.yaml", spec, scene_dir, tmp_path / "out",
                              postfilter=False)
        result = run_pipeline(config)
        assert result.mask_files == {}
        ids = [s.source_id for s in spec.sources]
        kinds = ("48k.wav", "16k.wav", "features.csv", "features.bin")
        assert set(os.listdir(tmp_path / "out")) == {
            "effective_config.yaml", "quality_report.csv",
            *(f"{source_id}_{kind}" for source_id in ids for kind in kinds)}
        separated = run_stages(read_wav(config.input_wav), config).separated
        for m, source_id in enumerate(ids):
            mono = AudioBuffer(separated.samples[m], separated.rate)
            expected = extract_features(resample_48k_to_16k(mono))
            write_features_csv(str(tmp_path / "f.csv"), expected)
            write_features_binary(str(tmp_path / "f.bin"), expected)
            files = result.feature_files[source_id]
            assert Path(files["csv"]).read_bytes() == (tmp_path / "f.csv").read_bytes()
            assert Path(files["binary"]).read_bytes() == (tmp_path / "f.bin").read_bytes()

    def test_byte_determinism(self, short_scene, scene_dir, tmp_path):
        spec, _ = short_scene
        outputs = []
        for name in ("a", "b"):
            config = write_config(tmp_path / f"{name}.yaml", spec, scene_dir,
                                  tmp_path / name)
            result = run_pipeline(config)
            listing = {}
            for root, _, files in os.walk(result.output_dir):
                for file in files:
                    path = os.path.join(root, file)
                    listing[os.path.relpath(path, result.output_dir)] = Path(path).read_bytes()
            outputs.append(listing)
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            if name == "effective_config.yaml":
                continue  # carries run-specific paths by design
            assert outputs[0][name] == outputs[1][name], name

    def test_missing_input_no_partial_outputs(self, short_scene, tmp_path):
        spec, _ = short_scene
        config = pipeline_config_for_scene(spec)
        config.input_wav = str(tmp_path / "missing.wav")
        config.output_dir = str(tmp_path / "out")
        from arraysep.errors import AudioIOError

        with pytest.raises(AudioIOError):
            run_pipeline(config)
        assert not os.path.exists(config.output_dir)

    def test_metric_inputs_add_at_most_one_decoded_noise_channel_to_the_peak(
            self, short_scene, scene_dir, tmp_path):
        # the references and the noise are decoded only after the stage
        # loop, one channel at a time, so they add at most one channel to
        # the peak
        spec, render = short_scene

        def peak(name, metrics):
            config = write_config(tmp_path / f"{name}.yaml", spec, scene_dir, tmp_path / name)
            if not metrics:
                config.reference_wavs, config.noise_wav = [], None
            tracemalloc.start()
            try:
                run_pipeline(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("warm", True)  # lazy imports and caches
        without, with_metrics = peak("without", False), peak("with", True)
        channel_bytes = render.noise.shape[1] * 8
        assert with_metrics <= without + 1.1 * channel_bytes

    def test_quality_step_holds_one_decoded_reference_at_a_time(self, short_scene, scene_dir,
                                                                 tmp_path):
        # each reference and noise channel is decoded as it is projected and
        # released before the next one, so beyond the outputs the step holds
        # about one float64 channel; decoding every reference first held three
        spec, render = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out")
        ids = [s.source_id for s in spec.sources]
        separated = AudioBuffer(render.mixture.samples[: len(ids)].astype(np.float64), 48000)
        expected = pipeline._quality_rows(config, separated, ids)  # lazy imports and caches
        tracemalloc.start()
        try:
            rows = pipeline._quality_rows(config, separated, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == expected and len(rows) == len(ids)
        assert peak < 1.25 * render.noise.shape[1] * 8, peak

    def test_quality_step_decodes_each_channel_once(self, short_scene, scene_dir, tmp_path,
                                                   monkeypatch):
        # every reference and noise channel is decoded once and projected onto
        # all outputs: 3 + 8 decodes for a trio, where scoring each output in
        # turn decoded 3 references and 1 + 8 channels per output, 36 in all
        spec, render = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out")
        ids = [s.source_id for s in spec.sources]
        separated = AudioBuffer(render.mixture.samples[: len(ids)].astype(np.float64), 48000)
        decoded = collections.Counter()
        decode = audio.WavFile.__getitem__

        def counting(self, channel):
            decoded[self.path, channel] += 1
            return decode(self, channel)

        monkeypatch.setattr(audio.WavFile, "__getitem__", counting)
        rows = pipeline._quality_rows(config, separated, ids)
        assert len(rows) == len(ids) and all(row.output_snr_db is not None for row in rows)
        assert len(decoded) == len(ids) + render.noise.shape[0] == 11
        assert set(decoded.values()) == {1}

    def test_each_source_is_released_before_the_next_and_the_quality_report(
            self, short_scene, scene_dir, tmp_path, monkeypatch):
        # a source's 16 kHz copy, features and mask are dropped before the
        # next source's extraction starts and before the references are decoded
        spec, _ = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out")
        held = []  # weak references to every source's 16 kHz copy, features and mask
        extract, align, quality = (pipeline.extract_features, pipeline.align_to_feature_frames,
                                   pipeline.measure_quality)

        def released():
            return all(ref() is None for ref in held)

        def extracting(mono16, **kwargs):
            assert released()
            features = extract(mono16, **kwargs)
            held.extend([weakref.ref(mono16), weakref.ref(features)])
            return features

        def aligning(*args, **kwargs):
            mask = align(*args, **kwargs)
            held.append(weakref.ref(mask))
            return mask

        def measuring(*args, **kwargs):
            assert len(held) == 3 * len(spec.sources) and released()
            return quality(*args, **kwargs)

        monkeypatch.setattr(pipeline, "extract_features", extracting)
        monkeypatch.setattr(pipeline, "align_to_feature_frames", aligning)
        monkeypatch.setattr(pipeline, "measure_quality", measuring)
        assert run_pipeline(config).report_csv is not None

    def test_each_input_is_scanned_for_non_finite_samples_once(self, short_scene, scene_dir,
                                                                tmp_path, monkeypatch):
        # open_wav rules out NaN and inf in the references and the noise with
        # one sum over the mapping, and the mixture is scanned block by block
        # as it is decoded; the quality report maps the references and the
        # noise again, unscanned.  Every sample is counted, so a second scan
        # of any part of any input fails.
        spec, _ = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out")
        scanned = collections.Counter()
        original = audio._refuse_non_finite

        def counted(path, samples, start):
            scanned[os.path.realpath(path)] += samples.size
            return original(path, samples, start)

        monkeypatch.setattr(audio, "_refuse_non_finite", counted)
        run_pipeline(config)
        inputs = [config.input_wav, *config.reference_wavs, config.noise_wav]
        assert scanned == {os.path.realpath(path): wavfile.read(path, mmap=True)[1].size
                           for path in inputs}

    def test_float32_mixture_gives_the_artifacts_of_its_float64_upcast(self, short_scene,
                                                                      scene_dir, tmp_path):
        # a float32 file decodes to float32, a float64 or 24-bit one to
        # float64; every stage computes in float64, so no artifact can tell
        # them apart.  The samples are on the 24-bit grid, which float32 holds.
        spec, render = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out",
                              dump_diagnostics=True)
        config.input_wav = str(tmp_path / "mixture.wav")
        pcm24 = np.round(render.mixture.samples.T * 2.0 ** 23).astype(np.int64)
        assert np.abs(pcm24).max() < 2 ** 23
        reads = []  # of the mixture: whether mapped
        original = wavfile.read

        def counted(path, *args, **kwargs):
            if path == config.input_wav:
                reads.append(kwargs.get("mmap", False))
            return original(path, *args, **kwargs)

        trees = []
        for dtype in (np.float32, np.float64, "pcm24"):
            if dtype == "pcm24":
                write_pcm24(tmp_path / "mixture.wav", pcm24)
            else:
                wavfile.write(config.input_wav, 48000, (pcm24 / 2.0 ** 23).astype(dtype))
            assert read_wav(config.input_wav).samples.dtype == np.dtype(dtype if dtype == np.float32
                                                                          else np.float64)
            reads.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(wavfile, "read", counted)
                run_pipeline(config)
            # mapped once, a 24-bit file too: scipy's mapping read is tried, never a whole read
            assert reads == [True]
            trees.append(tree(config.output_dir))
            shutil.rmtree(config.output_dir)
        assert len(trees[0]) == 3 + 7 * len(spec.sources)
        assert trees[1] == trees[0] and trees[2] == trees[0]

    def test_peak_grows_by_less_than_a_float64_mixture_per_audio_second(self, tmp_path):
        # an 8-channel float64 mixture alone is 8 x 8 B x 48 kHz = 3.07 MB per
        # audio second; decoded from a float32 file it is half that
        def peak(seconds):
            spec = three_speaker_scene(90.0, duration_s=seconds, seed=12)
            scene = tmp_path / f"scene{seconds}"
            scene.mkdir()
            render = synthesize(spec)
            write_wav(str(scene / "mixture.wav"), render.mixture)
            for source, reference in zip(spec.sources, render.clean_references):
                write_wav(str(scene / f"{source.source_id}_ref.wav"), AudioBuffer(reference, 48000))
            write_wav(str(scene / "noise.wav"), AudioBuffer(render.noise, 48000))
            del render
            config = write_config(tmp_path / "c.yaml", spec, scene, scene / "out")
            tracemalloc.start()
            try:
                run_pipeline(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0.25)  # warm lazy imports and caches
        per_second = (peak(4.5) - peak(1.5)) / 3.0
        assert per_second < 8 * 8 * 48000, per_second

    @pytest.mark.parametrize("adapt, postfilter, stage", [
        (True, True, "gss+pf"), (True, False, "gss"), (False, True, "delay-and-sum+pf"),
        (False, False, "delay-and-sum")])
    def test_quality_report_labels_the_stages_that_ran(self, short_scene, scene_dir, tmp_path,
                                                       adapt, postfilter, stage):
        spec, _ = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out",
                              adapt=adapt, postfilter=postfilter)
        with open(run_pipeline(config).report_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[:2] for row in rows] == [[stage, s.source_id] for s in spec.sources]

    @pytest.mark.parametrize("noise_format", ["float32", "pcm16"])
    def test_quality_report_matches_fully_decoded_inputs(self, short_scene, scene_dir, tmp_path,
                                                         noise_format):
        spec, render = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out")
        if noise_format == "pcm16":
            config.noise_wav = str(tmp_path / "noise16.wav")
            wavfile.write(config.noise_wav, 48000,
                          np.round(render.noise.T * 32767.0).astype(np.int16))
        result = run_pipeline(config)

        separated = run_stages(read_wav(config.input_wav), config).separated
        rows = measure_quality([separated.samples[m] for m in range(len(spec.sources))],
                               [read_wav(p).samples[0] for p in config.reference_wavs],
                               read_wav(config.noise_wav).samples,
                               source_ids=[s.source_id for s in spec.sources])
        oracle = str(tmp_path / "oracle.csv")
        write_quality_report(oracle, "gss+pf", rows)
        assert Path(result.report_csv).read_bytes() == Path(oracle).read_bytes()
        assert all(row.output_snr_db is not None for row in rows)
        if os.path.exists("/proc/self/maps"):  # no input stays mapped after the run
            maps = Path("/proc/self/maps").read_text()
            for path in [config.input_wav, config.noise_wav, *config.reference_wavs]:
                assert os.path.realpath(path) not in maps

    @pytest.mark.parametrize("fault", ["missing", "corrupt"])
    @pytest.mark.parametrize("which", ["reference", "noise"])
    def test_bad_metric_input_no_partial_outputs(self, short_scene, scene_dir, tmp_path,
                                                 which, fault):
        spec, _ = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out")
        bad = tmp_path / "bad.wav"
        if fault == "corrupt":
            bad.write_bytes(b"not a RIFF file")
        if which == "reference":
            config.reference_wavs[1] = str(bad)
        else:
            config.noise_wav = str(bad)
        with pytest.raises(AudioIOError):
            run_pipeline(config)
        assert not os.path.exists(config.output_dir)

    def test_channel_mismatch_rejected(self, tmp_path, short_scene):
        spec, render = short_scene
        from arraysep.errors import StreamError

        config = pipeline_config_for_scene(spec)
        bad = AudioBuffer(render.mixture.samples[:4], 48000)
        with pytest.raises(StreamError):
            run_stages(bad, config)

    @pytest.mark.parametrize("channels, rate", [(2, 48000), (8, 16000)])
    def test_wrong_mixture_refused_before_the_loop_is_built(self, monkeypatch, channels, rate):
        # the loop's buffers grow with the input: the band powers of an hour
        # of a 3-source input alone are 583 MB
        def building(*args, **kwargs):
            raise AssertionError("stage loop built for a mixture it refuses")

        monkeypatch.setattr(pipeline, "StageLoop", building)
        config = pipeline_config_for_scene(three_speaker_scene(90.0, duration_s=0.25, seed=3))
        assert len(config.mic_positions_m) == 8
        with pytest.raises(StreamError):
            run_stages(AudioBuffer(np.zeros((channels, rate)), rate), config)

    def test_postfilter_improves_interference_ratio(self, short_scene):
        spec, render = short_scene
        gss_only = stage_sir(render, spec, adapt=True, postfilter=False)
        with_pf = stage_sir(render, spec, adapt=True, postfilter=True)
        assert np.all(with_pf >= gss_only)

    def test_single_source_matches_delay_and_sum_reference(self):
        geom = box_array_geometry()
        spec = SceneSpec(geom, (SceneSource("s", 25.0, signal=SignalSpec(kind="am_noise")),),
                         duration_s=1.0, noise_level_db=-45.0, seed=11)
        render = synthesize(spec)
        audio, _ = separate_scene(render, spec, adapt=True, postfilter=False)

        # frequency-domain delay-and-sum oracle, computed independently
        steering = steering_matrix(geom, [s.direction for s in spec.sources], 1024)
        weights = steering[:, :, 0].conj() / geom.num_mics  # (n_bins, N)
        frames = []
        for frame in stft_analyze(render.mixture, 1024, 512):
            bins = np.sum(weights * frame.bins.T, axis=1)
            frames.append(bins[np.newaxis, :])
        reference = stft_synthesize([np.stack(frames)], 512, len(frames))
        n = min(audio.num_samples, reference.shape[1])
        rms = np.sqrt(np.mean((audio.samples[0, :n] - reference[0, :n]) ** 2))
        assert rms <= 1e-6

    def test_diagnostics_dumps(self, short_scene, scene_dir, tmp_path):
        spec, _ = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out",
                              dump_diagnostics=True)
        config.stages.features = False
        run_pipeline(config)
        assert os.path.exists(tmp_path / "out" / "gss_state.csv")
        dump = tmp_path / "out" / "center_postfilter.csv"
        assert os.path.exists(dump)
        header = dump.read_text().split("\n", 1)[0]
        assert header == "frame,bin,noise_stat,noise_leak,snr_prior,presence,gain"


    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_mid_stream_leaves_nothing_behind(self, short_scene, scene_dir, tmp_path,
                                                      monkeypatch, existing):
        spec, _ = short_scene
        output_dir = tmp_path / ("old" if existing else "new/out")
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, output_dir,
                              dump_diagnostics=True)
        if existing:
            os.makedirs(output_dir / "sub")
            (output_dir / "center_postfilter.csv").write_bytes(b"an earlier dump")
            (output_dir / "sub" / "notes.txt").write_bytes(b"kept")
        before = tree(tmp_path)
        process = PostFilter.process

        def failing(postfilter, frame):
            if frame.frame_index == 20:
                # the dump of the blocks before frame 16 is on disk, under
                # temporary names
                assert sum(name.endswith(".tmp") for name in os.listdir(output_dir)) == 3
                raise StreamError("frame 20: injected failure")
            return process(postfilter, frame)

        monkeypatch.setattr(PostFilter, "process", failing)
        with pytest.raises(StreamError, match="injected"):
            run_pipeline(config)
        assert tree(tmp_path) == before

    def test_diagnostics_memory_does_not_grow_with_duration(self, tmp_path):
        # the post-filter internals are 61.6 KB per frame, 5.8 MB per audio
        # second; streamed to disk, the dump costs the same at any length
        def peak(seconds, dump):
            spec = three_speaker_scene(90.0, duration_s=seconds, seed=12)
            mixture = tmp_path / f"mixture_{seconds}.wav"
            if not mixture.exists():
                write_wav(str(mixture), synthesize(spec).mixture)
            config = pipeline_config_for_scene(spec, dump_diagnostics=dump)
            config.input_wav, config.output_dir = str(mixture), str(tmp_path / f"{seconds}{dump}")
            tracemalloc.start()
            try:
                run_pipeline(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0.25, True)  # warm lazy imports and caches
        growth = {dump: peak(1.5, dump) - peak(0.5, dump) for dump in (False, True)}
        assert abs(growth[True] - growth[False]) < 0.3e6, growth

    def test_run_stages_logs_frame_and_gain_fault_counts(self, caplog):
        # after silence the stationary floor holds at zero, so a huge impulse
        # overflows the posterior SNR and every gain it reaches is a fault
        spec = SceneSpec(box_array_geometry(), (SceneSource("s", 25.0),), duration_s=0.5)
        samples = np.zeros((8, 24000))
        samples[:, 12000] = 1e70
        mixture = AudioBuffer(samples, 48000)
        config = pipeline_config_for_scene(spec, adapt=False)
        with np.errstate(over="ignore", invalid="ignore"):
            with caplog.at_level(logging.INFO, logger="arraysep.pipeline"):
                output = run_stages(mixture, config)
            state = gss.init_delay_and_sum(
                steering_matrix(config.geometry(), config.directions(), config.fft_size))
            reference = PostFilter(1, config.fft_size // 2 + 1, config)
            for frame in stft_analyze(mixture, config.fft_size, config.shift):
                filter_frame(reference, gss.separate(state, frame))
        assert reference.gains.fault_count > 0
        assert (f"stages: {output.num_frames} frames, "
                f"{reference.gains.fault_count} post-filter gain faults") in caplog.messages

    def test_run_header_names_every_setting(self, caplog):
        config = pipeline_config_for_scene(three_speaker_scene(40.0, duration_s=0.5, seed=3))
        with caplog.at_level(logging.INFO, logger="arraysep.pipeline"):
            pipeline._log_run_header(config)
        [header] = caplog.messages
        unlogged = {"mic_positions_m", "sources", "input_wav", "output_dir", "reference_wavs",
                    "noise_wav"}
        logged = set(re.findall(r"(\w+)=", header))
        assert logged == {f.name for f in fields(PipelineConfig)} - unlogged
        assert f"speed_of_sound={config.speed_of_sound}" in header.split()

    def test_run_stages_memory_does_not_keep_frames(self):
        # per audio second, 3 sources' separated spectra would be 2.3 MB; the
        # 48 kHz output is 1.15 MB and the reliability record 0.05 MB
        def retained(seconds):
            spec = three_speaker_scene(90.0, duration_s=seconds, seed=12)
            render = synthesize(spec)
            config = pipeline_config_for_scene(spec)
            tracemalloc.start()
            try:
                output = run_stages(render.mixture, config)  # held while measuring
                current = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            return current

        retained(0.25)  # warm lazy imports and caches
        per_second = retained(1.5) - retained(0.5)
        assert per_second < 1.6e6

    @pytest.mark.parametrize("dump_diagnostics", [False, True])
    def test_no_flushed_block_is_alive_when_the_next_block_starts(self, short_scene, monkeypatch,
                                                                  dump_diagnostics):
        # neither a flushed (k, M, K) block of filtered bins nor its inverse
        # from synthesis may be alive once the next block's first frame
        # reaches separation
        spec, render = short_scene
        config = pipeline_config_for_scene(spec, dump_diagnostics=dump_diagnostics)
        flush, irfft, separate = PostFilter.flush, np.fft.irfft, gss.separate
        flushed, inverses, alive = [], [], []

        def flushing(postfilter):
            block, bands, internals = flush(postfilter)
            flushed.append(weakref.ref(block))
            return block, bands, internals

        def inverting(block, *args, **kwargs):
            segments = irfft(block, *args, **kwargs)
            inverses.append(weakref.ref(segments))
            return segments

        def separating(state, frame):
            if frame.frame_index % BLOCK_FRAMES == 0:
                alive.append(sum(ref() is not None for ref in flushed + inverses))
            return separate(state, frame)

        monkeypatch.setattr(PostFilter, "flush", flushing)
        monkeypatch.setattr(np.fft, "irfft", inverting)
        monkeypatch.setattr(gss, "separate", separating)
        dump = (lambda frame_index, internals: None) if dump_diagnostics else None
        num_frames = run_stages(render.mixture, config, dump).num_frames
        assert len(flushed) == len(inverses) == len(alive) == -(-num_frames // BLOCK_FRAMES)
        assert alive == [0] * len(alive)

    @pytest.mark.parametrize("adapt, postfilter", [(True, True), (True, False), (False, True),
                                                   (False, False)])
    def test_stepping_the_loop_by_hand_gives_run_stages_outputs(self, short_scene, adapt,
                                                                postfilter):
        spec, render = short_scene
        config = pipeline_config_for_scene(spec, adapt=adapt, postfilter=postfilter)
        num_frames = frame_count(render.mixture.num_samples, config.fft_size, config.shift)
        assert num_frames % BLOCK_FRAMES  # the last block is a partial one
        loop = StageLoop(config, num_frames, None)

        def stepped():  # each block is synthesized before the next step reuses its buffer
            for frame in stft_analyze(render.mixture, config.fft_size, config.shift):
                yield from loop.step(frame, time.perf_counter_ns())
            yield from loop.finish()

        by_hand = stft_synthesize(stepped(), config.shift, num_frames)
        output = run_stages(render.mixture, config)
        assert by_hand.tobytes() == output.separated.samples.tobytes()
        if postfilter:
            assert loop.reliability.tobytes() == output.reliability.tobytes()
        else:
            assert loop.reliability is None and output.reliability is None
        assert loop.state.demix.tobytes() == output.state.demix.tobytes()

    @pytest.mark.parametrize("num_frames", [0, 1, 7, 8, 9, 17])
    def test_without_post_filter_blocks_synthesize_like_single_frames(self, short_scene,
                                                                      num_frames, monkeypatch):
        # without the post-filter the loop hands synthesis one block per
        # BLOCK_FRAMES separated frames and the rest from finish; the 48 kHz
        # output is bit for bit that of inverting each frame alone
        spec, render = short_scene
        config = pipeline_config_for_scene(spec, postfilter=False)
        length = config.fft_size + (num_frames - 1) * config.shift
        mixture = AudioBuffer(render.mixture.samples[:, :length], 48000)
        synthesize, sizes = pipeline.stft_synthesize, []

        def synthesizing(blocks, *args):
            return synthesize((sizes.append(len(b)) or b for b in blocks), *args)

        monkeypatch.setattr(pipeline, "stft_synthesize", synthesizing)
        output = run_stages(mixture, config)
        assert output.num_frames == num_frames
        full, rest = divmod(num_frames, BLOCK_FRAMES)
        assert sizes == [BLOCK_FRAMES] * full + [rest] * (rest > 0)
        steering = steering_matrix(config.geometry(), config.directions(), config.fft_size)
        state, frames = gss.init_delay_and_sum(steering, config.step_size), []
        for frame in stft_analyze(mixture, config.fft_size, config.shift):
            separated = gss.separate(state, frame)
            gss.adapt(state, frame, separated)
            frames.append(separated.bins[np.newaxis])
        assert len(frames) == num_frames
        if num_frames:
            single = synthesize(frames, config.shift, num_frames)
            assert single.tobytes() == output.separated.samples.tobytes()
        else:
            assert output.separated is None

    def test_no_post_filter_outlives_run_stages(self, short_scene, monkeypatch):
        # its block buffers must be gone before emission, whose peak they would raise
        spec, render = short_scene
        config = pipeline_config_for_scene(spec)
        flush, made = PostFilter.flush, []

        def flushing(postfilter):
            made.append(weakref.ref(postfilter))
            return flush(postfilter)

        monkeypatch.setattr(PostFilter, "flush", flushing)
        output = run_stages(render.mixture, config)  # held while checking
        assert made and output.reliability is not None
        assert all(ref() is None for ref in made)

    def test_analysis_holds_one_frame_of_spectra(self, short_scene, monkeypatch):
        # when GSS adapts on a frame, the only analysis spectra alive are that
        # frame's (channels, bins), not the rest of its block
        spec, render = short_scene
        config = pipeline_config_for_scene(spec)
        rfft, adapt = np.fft.rfft, gss.adapt
        spectra, alive = [], []

        def transforming(*args, **kwargs):
            bins = rfft(*args, **kwargs)
            spectra.append((weakref.ref(bins), bins.nbytes))
            return bins

        def adapting(state, frame, separated):
            alive.append(sum(nbytes for ref, nbytes in spectra if ref() is not None))
            adapt(state, frame, separated)

        monkeypatch.setattr(np.fft, "rfft", transforming)
        monkeypatch.setattr(gss, "adapt", adapting)
        num_frames = run_stages(render.mixture, config).num_frames
        assert len(alive) == num_frames > BLOCK_FRAMES
        assert max(alive) <= render.mixture.num_channels * (config.fft_size // 2 + 1) * 16

    def test_analysis_holds_one_frame_of_samples_and_one_decoded_hop(self, short_scene, scene_dir,
                                                                     tmp_path, monkeypatch):
        # when GSS adapts on a frame, the samples analysis holds are one
        # (channels, fft_size) frame's, and of the mixture WAV at most one
        # hop is decoded
        spec, _ = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out")
        decode, transform, adapt = audio._decode, stft.windowed_rfft, gss.adapt
        decoded, analyzed, alive = {}, {}, []  # id -> (weak reference, bytes)

        def owner(array):
            while array.base is not None:
                array = array.base
            return array

        def decoding(*args, **kwargs):
            samples = decode(*args, **kwargs)
            decoded[id(samples)] = weakref.ref(samples), samples.nbytes
            return samples

        def transforming(frames, window):
            samples = owner(frames)  # one buffer, analyzed frame after frame
            analyzed[id(samples)] = weakref.ref(samples), samples.nbytes
            return transform(frames, window)

        def adapting(state, frame, separated):
            alive.append([sum(nbytes for ref, nbytes in held.values() if ref() is not None)
                          for held in (analyzed, decoded)])
            adapt(state, frame, separated)

        monkeypatch.setattr(audio, "_decode", decoding)
        monkeypatch.setattr(stft, "windowed_rfft", transforming)
        monkeypatch.setattr(gss, "adapt", adapting)
        result = run_pipeline(config)
        assert len(alive) == result.frames_processed > BLOCK_FRAMES
        itemsize = read_wav(config.input_wav).samples.itemsize
        channels = len(config.mic_positions_m)
        assert max(samples for samples, _ in alive) == channels * config.fft_size * itemsize
        assert 0 < max(hops for _, hops in alive) <= channels * config.shift * itemsize

    def test_the_loop_ends_without_the_steering_operators(self, short_scene, monkeypatch):
        # adapt caches A and A^H as real operators on the state; the adapted
        # matrices outlive the loop, the operators do not
        spec, render = short_scene
        config = pipeline_config_for_scene(spec)
        adapt, operators = gss.adapt, []

        def adapting(state, frame, separated):
            if not operators:
                operators.extend(map(weakref.ref, state._steering_operators))
            adapt(state, frame, separated)

        monkeypatch.setattr(gss, "adapt", adapting)
        loop = run_stages(render.mixture, config)
        assert len(operators) == 2 and all(ref() is None for ref in operators)
        steering = steering_matrix(config.geometry(), config.directions(), config.fft_size)
        state = gss.init_delay_and_sum(steering, config.step_size)
        for frame in stft_analyze(render.mixture, config.fft_size, config.shift):
            adapt(state, frame, gss.separate(state, frame))
        assert loop.state.demix.tobytes() == state.demix.tobytes()
        assert loop.state.step_size == config.step_size
        assert loop.state.steering.tobytes() == steering.tobytes()

    @pytest.mark.parametrize("extra", [0, 137])
    def test_a_cut_input_gives_a_prefix_of_the_whole_input_outputs(self, short_scene, extra):
        # The latency contract.  Cut at n, where n - fft_size is a multiple of
        # shift, or ``extra`` samples later, which fall in no frame.  Up to
        # its last fft_size - shift samples, which lack the next frame's
        # overlap, the cut run's 48 kHz output is the whole run's.  A 16 kHz
        # sample is final once every input of its decimator block is: block b
        # reads the 48 kHz samples from _BLOCK_STEP * b - reach, _BLOCK_FFT of
        # them, and gives _BLOCK_STEP / 3 outputs.  The band powers, and so the
        # static and continuous masks, are final with their frame; a delta bit
        # waits for the two frames after it.
        spec, render = short_scene
        config = pipeline_config_for_scene(spec)
        fft_size, shift = config.fft_size, config.shift
        n = fft_size + (10 * BLOCK_FRAMES + 4) * shift + extra  # a partial last block
        whole = run_stages(render.mixture, config)
        cut = run_stages(AudioBuffer(render.mixture.samples[:, :n], 48000), config)
        assert cut.num_frames == frame_count(n, fft_size, shift) == 10 * BLOCK_FRAMES + 5
        assert n - cut.separated.num_samples == extra  # fewer than shift: no output
        final = cut.separated.num_samples - (fft_size - shift)
        assert np.array_equal(cut.separated.samples[:, :final],
                              whole.separated.samples[:, :final])
        reach = len(audio._DECIMATION_FILTER) // 2
        final16 = audio._BLOCK_STEP // 3 * ((final - (audio._BLOCK_FFT - reach))
                                            // audio._BLOCK_STEP + 1)
        assert final16 > 0

        def at_16k(output, m):
            return resample_48k_to_16k(AudioBuffer(output.separated.samples[m], 48000)).samples[0]

        for m in range(len(spec.sources)):
            assert np.array_equal(at_16k(cut, m)[:final16], at_16k(whole, m)[:final16])
            got = masks_from_records(cut.reliability, m, config.mask_threshold)
            expected = masks_from_records(whole.reliability[: cut.num_frames], m,
                                          config.mask_threshold)
            assert np.array_equal(got.continuous, expected.continuous)
            assert np.array_equal(got.static, expected.static)
            assert np.array_equal(got.delta[:-2], expected.delta[:-2])

    def test_artifacts_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch):
        # 139 frames leave a partial last block at 3, 4 and 8; the general
        # exponent's gains and the post-filter dump are on
        spec = three_speaker_scene(90.0, duration_s=1.5, seed=7)
        render = synthesize(spec)
        write_wav(str(tmp_path / "mixture.wav"), render.mixture)
        for source, reference in zip(spec.sources, render.clean_references):
            write_wav(str(tmp_path / f"{source.source_id}_ref.wav"), AudioBuffer(reference, 48000))
        write_wav(str(tmp_path / "noise.wav"), AudioBuffer(render.noise, 48000))
        outputs = {}
        for block_frames in (BLOCK_FRAMES, 1, 3, 8):
            for module in (stft, postfilter, pipeline):
                monkeypatch.setattr(module, "BLOCK_FRAMES", block_frames)
            out = tmp_path / f"out{block_frames}"
            config = write_config(tmp_path / "c.yaml", spec, tmp_path, out,
                                  spectral_exponent=1.5, dump_diagnostics=True)
            result = run_pipeline(config)
            assert result.frames_processed == 139
            flushes = result.clock.totals["postfilter.flush"][1]
            assert flushes == -(-139 // block_frames)
            outputs[block_frames] = tree(out)
            del outputs[block_frames]["effective_config.yaml"]
        assert len(outputs[BLOCK_FRAMES]) == 3 * 7 + 2  # 7 per source, the report, the GSS dump
        for block_frames in (1, 3, 8):
            assert outputs[block_frames] == outputs[BLOCK_FRAMES], block_frames

    @pytest.mark.parametrize("dump_diagnostics", [False, True])
    def test_reliability_record_is_that_of_bands_rebuilt_frame_by_frame(self, short_scene,
                                                                        dump_diagnostics):
        # the oracle drives its own post-filter one frame at a time and bands
        # |bins|^2, the stationary floor and |filtered|^2 on the mel filterbank;
        # the separated bins are bin-major, and a product's bits follow its
        # operand's layout, so their power is banded from a C-ordered copy, as
        # the post-filter's own buffer holds it
        spec, render = short_scene
        config = pipeline_config_for_scene(spec, dump_diagnostics=dump_diagnostics)
        dump = (lambda frame_index, internals: None) if dump_diagnostics else None
        loop = run_stages(render.mixture, config, dump)
        weights = mel_filterbank(config.fft_size, 48000).T
        steering = steering_matrix(config.geometry(), config.directions(), config.fft_size)
        state = gss.init_delay_and_sum(steering, config.step_size)
        postfilter = PostFilter(len(spec.sources), config.fft_size // 2 + 1, config)
        expected = []
        for frame in stft_analyze(render.mixture, config.fft_size, config.shift):
            separated = gss.separate(state, frame)
            gss.adapt(state, frame, separated)
            band_in = np.ascontiguousarray(np.abs(separated.bins) ** 2) @ weights
            filtered = filter_frame(postfilter, separated)[0]
            band_noise = postfilter.noise.stationary @ weights
            band_out = (np.abs(filtered) ** 2) @ weights
            expected.append(compute_mask(band_in, band_out, band_noise))
        assert loop.reliability.shape == (loop.num_frames, len(spec.sources), 24)
        assert np.array(expected).tobytes() == loop.reliability.tobytes()

    def test_run_stages_peak_grows_by_the_output_and_the_reliability_record(self):
        # Per audio second from 2 s to 4 s of input, the peak may grow by what
        # the 48 kHz output and the (frames, sources, 24) reliability record
        # grow by, and by less than one 8-byte pointer per added frame: room
        # for the few objects whose number does not grow with the input (ints
        # past CPython's small-int cache once a counter passes 256), none for
        # anything kept per frame.
        def peak(seconds):
            spec = three_speaker_scene(90.0, duration_s=seconds, seed=12)
            render = synthesize(spec)
            config = pipeline_config_for_scene(spec)
            tracemalloc.start()
            try:
                output = run_stages(render.mixture, config)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            arrays = output.separated.samples.nbytes + output.reliability.nbytes
            return top, arrays, output.num_frames

        peak(0.25)  # warm lazy imports and caches
        (short, short_arrays, short_frames), (long, long_arrays, long_frames) = peak(2.0), peak(4.0)
        bound = (long_arrays - short_arrays + 8 * (long_frames - short_frames)) / 2.0
        assert (long - short) / 2.0 < bound, (long - short, long_arrays - short_arrays)

    @pytest.mark.parametrize("postfilter, dump_diagnostics", [(True, False), (True, True),
                                                              (False, False)])
    def test_stage_totals_fit_inside_the_run_stages_wall_time(self, short_scene, postfilter,
                                                              dump_diagnostics):
        spec, render = short_scene
        config = pipeline_config_for_scene(spec, postfilter=postfilter,
                                           dump_diagnostics=dump_diagnostics)
        dump = (lambda frame_index, internals: None) if dump_diagnostics else None
        start = time.perf_counter_ns()
        loop = run_stages(render.mixture, config, dump)
        wall = time.perf_counter_ns() - start
        blocks = -(-loop.num_frames // BLOCK_FRAMES)
        per_frame = ["analysis", "gss.separate", "gss.adapt"] + ["postfilter.process"] * postfilter
        per_block = (["postfilter.flush"] + ["dump"] * dump_diagnostics) if postfilter else ["stack"]
        totals = loop.clock.totals
        assert list(totals) == per_frame + per_block
        assert [totals[stage][1] for stage in totals] == ([loop.num_frames] * len(per_frame)
                                                          + [blocks] * len(per_block))
        assert 0 < sum(ns for ns, _ in totals.values()) <= wall
        assert sum(loop.clock.histogram) == loop.num_frames

    def test_chain_time_percentiles_are_the_bins_of_the_recorded_times(self, short_scene,
                                                                              monkeypatch):
        # in a run, each frame's chain time is its own stages' time and a share
        # of its block's flush; then on a spread of times that misses the hop.
        # The histogram's percentile is the bin of the recorded time at rank
        # floor(q/100 (n - 1)), np.percentile's "lower" method; the default
        # method interpolates, toward a far outlier as readily as not.
        spec, render = short_scene
        config = pipeline_config_for_scene(spec)
        record, recorded = StageClock.record, []

        def recording(clock, chain_ns):
            recorded.append(chain_ns)
            record(clock, chain_ns)

        monkeypatch.setattr(StageClock, "record", recording)
        loop = run_stages(render.mixture, config)
        monkeypatch.undo()
        assert len(recorded) == loop.num_frames
        assert sum(recorded) >= sum(ns for ns, _ in loop.clock.totals.values())
        assert loop.clock.deadline_ns == config.shift * 1e9 / 48000
        rng = np.random.default_rng(5)
        spread = StageClock(loop.clock.deadline_ns)
        times = list(10.0 ** rng.uniform(4.0, 7.5, 2000))
        for ns in times:
            spread.record(ns)
        edges = StageClock.EDGES_NS
        for clock, durations in ((loop.clock, recorded), (spread, times)):
            for q in (50, 99):
                got = bisect.bisect_left(edges, clock.percentile_ns(q))
                lower = np.percentile(durations, q, method="lower")
                assert got == min(bisect.bisect_right(edges, lower), len(edges) - 1)
            assert clock.deadline_misses == sum(ns > clock.deadline_ns for ns in durations)
        assert spread.deadline_misses > 0

    def test_run_pipeline_logs_each_stage(self, short_scene, scene_dir, tmp_path, caplog):
        spec, _ = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "out")
        with caplog.at_level(logging.INFO, logger="arraysep.pipeline"):
            result = run_pipeline(config)
        stages = [*result.clock.totals]
        assert stages[-2:] == ["emit.source", "emit.quality"]
        assert result.clock.totals["emit.source"][1] == len(spec.sources)
        logged = [m for m in caplog.messages if m.startswith("stage ")]
        assert [m.split(":")[0] for m in logged] == [f"stage {s}" for s in stages] + [
            "stage frame chain"]
        assert all(" ms/frame over " in m for m in logged[:-1])


class TestDiagnosticDumps:
    """Dump files against text built element by element with f-strings."""

    special = [-0.0, np.inf, np.nan, 5e-324, 1.5e300, -2.25, 0.1]

    def test_postfilter_records_golden(self, tmp_path):
        rng = np.random.default_rng(40)
        # (frames, noise_stat/noise_leak/snr_prior/presence/gain, sources, bins)
        internals = np.array([rng.permutation(self.special * 10).reshape(5, 2, 7)
                              for _ in range(4)])
        # rows that only printf shows (nan, inf) fall in every frame and source
        printf_rows = ~np.isfinite(internals).all(axis=1)
        assert printf_rows.any(axis=2).all() and not printf_rows.all()
        staging = _Staging()
        dump = PostfilterDump(str(tmp_path), ["a", "b"], staging)
        for t, frame in enumerate(internals):
            dump(t, frame)
        dump.close()
        staging.commit()
        names = ("noise_stat", "noise_leak", "snr_prior", "presence", "gain")
        assert sorted(os.listdir(tmp_path)) == ["a_postfilter.csv", "b_postfilter.csv"]
        for source, source_id in enumerate(["a", "b"]):
            expected = "frame,bin," + ",".join(names) + "\n"
            for t in range(4):
                for k in range(7):
                    expected += f"{t},{k}," + ",".join(
                        f"{internals[t, i, source, k]:.6e}" for i in range(5)) + "\n"
            assert (tmp_path / f"{source_id}_postfilter.csv").read_text() == expected

    def test_postfilter_dumps_of_a_run_match_printf(self, tmp_path, monkeypatch):
        # every row of a whole run's dumps, at the general exponent's gains,
        # against Python's % over the internals the sink was handed
        spec = three_speaker_scene(90.0, duration_s=1.5, seed=7)
        write_wav(str(tmp_path / "mixture.wav"), synthesize(spec).mixture)
        config = pipeline_config_for_scene(spec, spectral_exponent=1.5, dump_diagnostics=True)
        config.input_wav, config.output_dir = str(tmp_path / "mixture.wav"), str(tmp_path / "out")
        recorded = []

        class Recording(PostfilterDump):
            def __call__(self, frame_index, internals):
                recorded.append((frame_index, np.stack(internals)))  # (5, M, n_bins)
                super().__call__(frame_index, internals)

        monkeypatch.setattr(pipeline, "PostfilterDump", Recording)
        result = run_pipeline(config)
        assert [t for t, _ in recorded] == list(range(result.frames_processed))
        line = "%d,%d," + ",".join(["%.6e"] * 5) + "\n"
        for m, source in enumerate(spec.sources):
            expected = "frame,bin,noise_stat,noise_leak,snr_prior,presence,gain\n" + "".join(
                line % (t, k, *internals[:, m, k]) for t, internals in recorded
                for k in range(internals.shape[2]))
            path = tmp_path / "out" / f"{source.source_id}_postfilter.csv"
            assert path.read_bytes() == expected.encode()

    def test_one_frame_of_the_dump_holds_bounded_scratch(self, tmp_path):
        # one frame at M = 3 and K = 513 peaks above its entry by no more than
        # the 540,277 bytes measured the same way for the encoder that built
        # (M·K, 5) cells of 20 bytes and a concatenated copy of each source's rows
        rng = np.random.default_rng(41)
        internals = [rng.standard_normal((3, 513)) * 10.0 ** rng.integers(-30, 30, (3, 513))
                     for _ in range(5)]
        dump = PostfilterDump(str(tmp_path), ["a", "b", "c"], _Staging())
        try:
            dump(0, internals)  # opens the files and encodes the bin column
            tracemalloc.start()
            entry = tracemalloc.get_traced_memory()[0]
            dump(1, internals)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
            dump.close()
        assert peak <= 540_277, peak

    def test_gss_state_golden(self, tmp_path):
        values = np.array(self.special * 6).reshape(3, 2, 7)[:, :, :2]
        demix = values.astype(complex)  # (3 bins, 2 sources, 2 mics)
        demix.imag = values[:, :, ::-1]
        steering = np.ones((3, 2, 2), dtype=complex)
        path = tmp_path / "gss_state.csv"
        with np.errstate(invalid="ignore"):
            _dump_gss_state(str(path), gss.SeparationState(steering, demix), ["a", "b"])
            magnitude = np.abs(demix)
        expected = "bin,w_a_0,w_a_1,w_b_0,w_b_1\n"
        for k in range(3):
            expected += f"{k}," + ",".join(f"{v:.6e}" for v in magnitude[k].ravel()) + "\n"
        assert path.read_text() == expected


class TestBench:
    def test_reports_real_time_factor(self, short_scene):
        spec, render = short_scene
        config = pipeline_config_for_scene(spec)
        report = bench_pipeline(render.mixture, config)
        assert report.frames > 0
        assert report.real_time_factor is not None
        assert report.real_time_factor > 0
        assert "real-time factor" in report.summary()

    def test_gss_cost_growth_with_sources(self):
        # doubling the source count must stay within quadratic growth
        geom = box_array_geometry()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 513)) + 1j * rng.standard_normal((8, 513))
        frame = SpectralFrame(x, 0)

        def per_frame_cost(num_sources):
            directions = [SceneSource(f"s{i}", 10.0 + 20.0 * i).direction
                          for i in range(num_sources)]
            state = gss.init_delay_and_sum(steering_matrix(geom, directions, 1024))
            for _ in range(20):  # warmup
                gss.adapt(state, frame, gss.separate(state, frame))
            start = time.perf_counter()
            for _ in range(200):
                gss.adapt(state, frame, gss.separate(state, frame))
            return time.perf_counter() - start

        t1 = min(per_frame_cost(1) for _ in range(3))
        t2 = min(per_frame_cost(2) for _ in range(3))
        assert t2 <= 6.0 * t1  # quadratic bound (4x) plus timing slack


class TestCli:
    def test_simulate_then_separate(self, tmp_path):
        scene_out = tmp_path / "scene"
        code = main(["simulate", "--preset", "trio-90deg", "--duration", "1.0",
                     "--seed", "7", "--output-dir", str(scene_out)])
        assert code == 0
        assert (scene_out / "mixture.wav").exists()
        assert (scene_out / "center_reference.wav").exists()
        assert (scene_out / "scene.yaml").exists()

        spec = three_speaker_scene(90.0, duration_s=1.0, seed=7)
        config_path = tmp_path / "cfg.yaml"
        config = pipeline_config_for_scene(spec, features=False)
        config.input_wav = str(scene_out / "mixture.wav")
        config.output_dir = str(tmp_path / "sep")
        from arraysep.config import serialize_config

        serialize_config(config, str(config_path))
        code = main(["separate", "--config", str(config_path)])
        assert code == 0
        assert (tmp_path / "sep" / "center_48k.wav").exists()

    def test_verbose_flag_holds_for_its_own_call(self, tmp_path, caplog, capsys):
        # the first call in the process is not verbose; each later call
        # logs as its own -v says, whatever the calls before it did
        scene_out = tmp_path / "scene"
        assert main(["simulate", "--preset", "trio-90deg", "--duration", "0.5",
                     "--seed", "7", "--output-dir", str(scene_out)]) == 0
        config = pipeline_config_for_scene(three_speaker_scene(90.0, duration_s=0.5, seed=7),
                                           features=False)
        config.input_wav = str(scene_out / "mixture.wav")
        config.output_dir = str(tmp_path / "sep")
        serialize_config(config, str(tmp_path / "cfg.yaml"))
        separate = ["separate", "--config", str(tmp_path / "cfg.yaml")]

        caplog.clear()
        capsys.readouterr()
        assert main(["-v", *separate]) == 0
        headers = [m for m in caplog.messages if m.startswith("run config: ")]
        assert len(headers) == 1
        assert capsys.readouterr().err.count("INFO arraysep.pipeline: run config: ") == 1

        caplog.clear()
        assert main(separate) == 0
        assert not [r for r in caplog.records if r.levelno <= logging.INFO]
        assert "INFO" not in capsys.readouterr().err
        assert logging.getLogger("arraysep").handlers == []

    def test_simulate_same_seed_byte_identical(self, tmp_path):
        for name in ("one", "two"):
            assert main(["simulate", "--preset", "trio-30deg", "--duration", "0.5",
                         "--seed", "3", "--output-dir", str(tmp_path / name)]) == 0
        a = (tmp_path / "one" / "mixture.wav").read_bytes()
        b = (tmp_path / "two" / "mixture.wav").read_bytes()
        assert a == b

    def test_unknown_preset_exit_code_and_listing(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "bogus", "--output-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "trio-10deg" in err

    def test_missing_input_exit_code(self, tmp_path):
        config_path = tmp_path / "cfg.yaml"
        spec = three_speaker_scene(90.0, duration_s=1.0, seed=7)
        config = pipeline_config_for_scene(spec)
        config.input_wav = str(tmp_path / "missing.wav")
        config.output_dir = str(tmp_path / "out")
        from arraysep.config import serialize_config

        serialize_config(config, str(config_path))
        assert main(["separate", "--config", str(config_path)]) == 3
        assert not (tmp_path / "out").exists()

    def test_unwritable_diagnostic_dump_exit_code(self, tmp_path):
        scene_out = tmp_path / "scene"
        assert main(["simulate", "--preset", "trio-90deg", "--duration", "0.5",
                     "--seed", "7", "--output-dir", str(scene_out)]) == 0
        config = pipeline_config_for_scene(three_speaker_scene(90.0, duration_s=0.5, seed=7),
                                           dump_diagnostics=True)
        config.input_wav = str(scene_out / "mixture.wav")
        config.output_dir = str(tmp_path / "sep")
        config_path = tmp_path / "cfg.yaml"
        from arraysep.config import serialize_config

        serialize_config(config, str(config_path))
        os.makedirs(tmp_path / "sep" / "center_postfilter.csv")
        assert main(["separate", "--config", str(config_path)]) == 3
        assert not [name for name in tree(tmp_path / "sep") if name.endswith(".tmp")]

    @pytest.mark.parametrize("adapt", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mixture_sample_refused(self, tmp_path, capsys, adapt, bad):
        # a NaN would reach every later frame through the post-filter's
        # recursions, or pass for a diverged demixing matrix while adapting.
        # The mixture is scanned block by block as it is decoded: a bad sample
        # mid-stream, or in the last, partial block after every frame (the
        # last frame ends at sample 47616 of 48000), still commits nothing.
        scene_out = tmp_path / "scene"
        assert main(["simulate", "--preset", "trio-40deg", "--duration", "1.0",
                     "--seed", "7", "--output-dir", str(scene_out)]) == 0
        mixture = str(scene_out / "mixture.wav")
        rate, clean = wavfile.read(mixture)
        config = pipeline_config_for_scene(three_speaker_scene(40.0, duration_s=1.0, seed=7),
                                           adapt=adapt, features=True)
        config.input_wav, config.output_dir = mixture, str(tmp_path / "sep")
        serialize_config(config, str(tmp_path / "cfg.yaml"))
        for position in (20000, 47999):
            samples = clean.copy()
            samples[position, 0] = bad
            wavfile.write(mixture, rate, samples)
            capsys.readouterr()
            assert main(["separate", "--config", str(tmp_path / "cfg.yaml")]) == 3
            assert (f"non-finite sample {bad} at sample {position}, channel 0"
                    in capsys.readouterr().err)
            assert not (tmp_path / "sep").exists()
            assert sorted(os.listdir(tmp_path)) == ["cfg.yaml", "scene"]

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_features_refuses_non_finite_sample(self, tmp_path, bad):
        samples = np.zeros(16000)
        samples[5000] = bad
        wav = str(tmp_path / "mono.wav")
        write_wav(wav, AudioBuffer(samples, 16000))
        assert main(["features", "--input", wav, "--output-dir", str(tmp_path / "f")]) == 3
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("command", ["separate", "score"])
    @pytest.mark.parametrize("wav, channel", [("center_ref.wav", 0), ("noise.wav", 5)])
    def test_non_finite_reference_or_noise_sample_refused(self, short_scene, scene_dir, tmp_path,
                                                          capsys, command, wav, channel):
        # one NaN once read 99.0 for every output SIR and the run exited 0
        spec, _ = short_scene
        bad_dir = tmp_path / "scene"
        shutil.copytree(scene_dir, bad_dir)
        rate, samples = wavfile.read(bad_dir / wav)
        samples = samples.copy()
        samples.reshape(len(samples), -1)[12000, channel] = np.nan
        wavfile.write(bad_dir / wav, rate, samples)
        write_config(tmp_path / "cfg.yaml", spec, bad_dir, tmp_path / "out")
        argv = {"separate": ["separate", "--config", str(tmp_path / "cfg.yaml")],
                "score": ["score", "--output", str(scene_dir / "center_ref.wav"),
                          "--reference", str(bad_dir / "center_ref.wav"),
                          "--noise", str(bad_dir / "noise.wav"),
                          "--csv", str(tmp_path / "q.csv")]}[command]
        capsys.readouterr()
        assert main(argv) == 3
        assert (f"{wav}: non-finite sample nan at sample 12000, channel {channel}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists() and not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_after_the_loop_leaves_nothing_behind(self, short_scene, scene_dir,
                                                               tmp_path, monkeypatch, existing):
        spec, _ = short_scene
        output_dir = tmp_path / ("old" if existing else "new/out")
        write_config(tmp_path / "cfg.yaml", spec, scene_dir, output_dir, dump_diagnostics=True)
        if existing:
            # right's features are the last but four files written
            os.makedirs(output_dir / "right_features.csv")
            (output_dir / "center_48k.wav").write_bytes(b"an earlier output")
        else:
            write_mask_binary = pipeline.write_mask_binary

            def failing(path, mask):
                if "right_" in os.path.basename(path):
                    raise AudioIOError(f"cannot write mask file {path}: injected")
                write_mask_binary(path, mask)

            monkeypatch.setattr(pipeline, "write_mask_binary", failing)
        before = tree(tmp_path)
        assert main(["separate", "--config", str(tmp_path / "cfg.yaml")]) == 3
        assert tree(tmp_path) == before

    def test_failed_rename_puts_back_the_files_it_replaced(self, short_scene, scene_dir,
                                                           tmp_path, monkeypatch):
        spec, _ = short_scene
        output_dir = tmp_path / "out"
        write_config(tmp_path / "cfg.yaml", spec, scene_dir, output_dir)
        assert main(["separate", "--config", str(tmp_path / "cfg.yaml")]) == 0
        for name in os.listdir(output_dir):
            (output_dir / name).write_bytes(b"an earlier " + name.encode())
        # the first file renamed into place is new, the second fails
        os.remove(output_dir / "effective_config.yaml")
        before = tree(tmp_path)
        replace, renamed = os.replace, []

        def failing(src, dst):
            if str(src).endswith(".tmp"):
                renamed.append(dst)
                if len(renamed) == 2:
                    raise PermissionError(errno.EACCES, "injected", dst)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        assert main(["separate", "--config", str(tmp_path / "cfg.yaml")]) == 3
        assert os.path.basename(renamed[0]) == "effective_config.yaml"
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("key, value", [("feature_shift", 0), ("feature_fft_size", 401),
                                            ("mcra_window_length", 0),
                                            ("mcra_power_smoothing", 1.5),
                                            ("fft_size", 1024.0),
                                            ("spectral_exponent", float("nan")),
                                            ("mask_threshold", float("nan")),
                                            ("dump_diagnostics", "false"),
                                            ("stages", {"adapt": "no"}),
                                            ("mic_positions_m", [["a", 0, 0], [1, 0, 0]]),
                                            ("mic_positions_m", [["0.1", 0, 0], [-0.1, 0, 0]])])
    def test_invalid_key_exits_before_any_output(self, short_scene, scene_dir, tmp_path,
                                                 capsys, key, value):
        spec, _ = short_scene
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        data = yaml.safe_load(config_path.read_text())
        data[key] = value
        config_path.write_text(yaml.safe_dump(data))
        assert main(["separate", "--config", str(config_path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the nine keys that are module constants now, at the values they held:
    # an effective_config.yaml written before they became constants names them
    @pytest.mark.parametrize("key, value", [
        ("rate", 48000), ("snr_smoothing", 0.98), ("spectrum_smoothing", 0.7),
        ("mcra_power_smoothing", 0.95), ("mcra_window_length", 150),
        ("mcra_presence_smoothing", 0.95), ("mcra_onset_threshold", 5.0),
        ("feature_fft_size", 400), ("feature_shift", 160)])
    def test_keys_that_are_constants_are_refused(self, short_scene, scene_dir, tmp_path,
                                                 capsys, key, value):
        spec, _ = short_scene
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        data = yaml.safe_load(config_path.read_text())
        data[key] = value
        config_path.write_text(yaml.safe_dump(data))
        assert main(["separate", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"
        assert os.listdir(tmp_path) == ["cfg.yaml"]

    @pytest.mark.parametrize("key, value", [
        ("output_dir", 7), ("noise_wav", ["a.wav"]), ("reference_wavs", "abc"),
        ("input_wav", None), ("output_dir", None)])
    def test_path_keys_are_checked_before_any_output(self, short_scene, scene_dir, tmp_path,
                                                     monkeypatch, capsys, key, value):
        spec, _ = short_scene
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        data = yaml.safe_load(config_path.read_text())
        if value is None:
            del data[key]
        else:
            data[key] = value
        config_path.write_text(yaml.safe_dump(data))
        monkeypatch.chdir(tmp_path)  # where a relative output would land
        assert main(["separate", "--config", str(config_path)]) == 2
        assert key in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.yaml"]

    @pytest.mark.parametrize("source_id", ["../escaped", "c/../x", "..", ".", "", 7,
                                           "a,b", 'say"hi', "tab\there"])
    def test_source_id_must_be_a_file_name(self, short_scene, scene_dir, tmp_path, source_id):
        spec, _ = short_scene
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        data = yaml.safe_load(config_path.read_text())
        data["sources"][0]["id"] = source_id
        config_path.write_text(yaml.safe_dump(data))
        assert main(["separate", "--config", str(config_path)]) == 2
        # nothing in the output directory nor in its parent
        assert os.listdir(tmp_path) == ["cfg.yaml"]

    @pytest.mark.parametrize("planar, directions", [
        (False, [(0.0, 0.0), (360.0, 0.0)]),
        (False, [(0.0, 90.0), (90.0, 90.0)]),    # overhead, azimuth moves no delay
        (True, [(30.0, 20.0), (30.0, -20.0)]),   # mirror images through the array plane
    ], ids=["azimuth-0-and-360", "both-overhead-on-box-array", "mirror-elevations-on-plane"])
    def test_sources_with_equal_delays_rejected(self, short_scene, scene_dir, tmp_path,
                                                planar, directions):
        # equal far-field delays at every microphone give equal steering
        # columns, and WA = I has no solution
        spec, _ = short_scene
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        data = yaml.safe_load(config_path.read_text())
        for source, (azimuth, elevation) in zip(data["sources"], directions):
            source.update(azimuth_deg=azimuth, elevation_deg=elevation)
        if planar:  # eight microphones on a circle in the plane z = 0.3
            data["mic_positions_m"] = [[0.1 * math.cos(k * math.pi / 4),
                                        0.1 * math.sin(k * math.pi / 4), 0.3] for k in range(8)]
        config_path.write_text(yaml.safe_dump(data))
        assert main(["separate", "--config", str(config_path)]) == 2
        assert os.listdir(tmp_path) == ["cfg.yaml"]

    @pytest.mark.parametrize("source_id", ["../escaped", "c/../x", "..", "", 7,
                                           "a,b", 'say"hi', "tab\there"])
    def test_scene_source_id_must_be_a_file_name(self, tmp_path, source_id):
        data = scene_to_dict(three_speaker_scene(90.0, duration_s=0.2, seed=7))
        data["sources"][0]["id"] = source_id
        scene = tmp_path / "scene.yaml"
        scene.write_text(yaml.safe_dump(data))
        assert main(["simulate", "--scene", str(scene),
                     "--output-dir", str(tmp_path / "run" / "out")]) == 2
        assert os.listdir(tmp_path) == ["scene.yaml"]

    @pytest.mark.parametrize("which", ["reference", "noise"])
    def test_metric_input_rate_must_match_config(self, short_scene, scene_dir, tmp_path, which):
        spec, render = short_scene
        config_path = tmp_path / "cfg.yaml"
        config = write_config(config_path, spec, scene_dir, tmp_path / "out")
        wrong = str(tmp_path / "16k.wav")
        if which == "reference":
            write_wav(wrong, AudioBuffer(render.clean_references[0], 16000))
            config.reference_wavs[0] = wrong
        else:
            write_wav(wrong, AudioBuffer(render.noise, 16000))
            config.noise_wav = wrong
        serialize_config(config, str(config_path))
        assert main(["separate", "--config", str(config_path)]) == 4
        assert not (tmp_path / "out").exists()

    def test_cut_mixture_exit_code(self, short_scene, scene_dir, tmp_path):
        # the data chunk ends after half its frames, as a failed copy leaves it
        spec, render = short_scene
        whole = (scene_dir / "mixture.wav").read_bytes()
        cut = tmp_path / "cut.wav"
        cut.write_bytes(whole[: len(whole) - render.mixture.samples.size * 4 // 2])
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        assert main(["separate", "--config", str(config_path), "--input", str(cut)]) == 3
        assert not (tmp_path / "out").exists()

    def test_duplicate_scene_source_ids_rejected(self, tmp_path):
        data = scene_to_dict(three_speaker_scene(90.0, duration_s=0.2, seed=7))
        data["sources"][1]["id"] = data["sources"][0]["id"]
        scene = tmp_path / "scene.yaml"
        scene.write_text(yaml.safe_dump(data))
        assert main(["simulate", "--scene", str(scene),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert os.listdir(tmp_path) == ["scene.yaml"]

    @pytest.mark.parametrize("source, key, value", [
        (0, "pitch_hz", 0), (0, "pitch_drift", -1.0), (0, "pitch_hz", "120"),
        (0, "pitch_hz", float("nan")), (2, "band_high_hz", 30000.0), (0, "pitch_hz", -100.0),
        (0, "band_high_hz", 50.0), (0, "pitch_hz", 19.99), (2, "band_high_hz", 24000.0),
    ])
    def test_bad_scene_signal_rejected(self, tmp_path, source, key, value):
        data = scene_to_dict(three_speaker_scene(90.0, duration_s=0.2, seed=7))
        data["sources"][source]["signal"][key] = value  # source 2 is the am_noise one
        scene = tmp_path / "scene.yaml"
        scene.write_text(yaml.safe_dump(data))
        assert main(["simulate", "--scene", str(scene),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert os.listdir(tmp_path) == ["scene.yaml"]

    # the four keys that are constants now, at their old defaults and at other
    # values: a scene.yaml written before they became constants names them
    @pytest.mark.parametrize("key, value", [
        ("rate", 48000), ("rate", 16000), ("pitch_drift", 0.06), ("pitch_drift", 0.0),
        ("envelope_rate_hz", 4.0), ("envelope_rate_hz", 2.0), ("envelope_depth", 1.0),
        ("envelope_depth", 0.5)])
    def test_scene_keys_that_are_constants_are_refused(self, tmp_path, capsys, key, value):
        data = scene_to_dict(three_speaker_scene(90.0, duration_s=0.2, seed=7))
        path = key if key == "rate" else f"sources[1].signal.{key}"
        (data if key == "rate" else data["sources"][1]["signal"])[key] = value
        scene = tmp_path / "scene.yaml"
        scene.write_text(yaml.safe_dump(data))
        assert main(["simulate", "--scene", str(scene),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert f"unknown scene keys: ['{path}']" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["scene.yaml"]

    def test_earlier_scene_file_names_every_removed_key(self, tmp_path, capsys):
        data = scene_to_dict(three_speaker_scene(90.0, duration_s=0.2, seed=7))
        data = {"rate": 48000, **data}  # as earlier versions wrote it, signals in full
        for source in data["sources"]:
            source["signal"].update(pitch_drift=0.06, envelope_rate_hz=4.0, envelope_depth=1.0)
        scene = tmp_path / "scene.yaml"
        scene.write_text(yaml.safe_dump(data, sort_keys=False))
        assert main(["simulate", "--scene", str(scene),
                     "--output-dir", str(tmp_path / "out")]) == 2
        removed = ["rate"] + [f"sources[{i}].signal.{key}" for i in range(3)
                              for key in ("envelope_depth", "envelope_rate_hz", "pitch_drift")]
        assert capsys.readouterr().err.endswith(f"unknown scene keys: {removed}\n")
        assert os.listdir(tmp_path) == ["scene.yaml"]

    @pytest.mark.parametrize("name", ["trio-40deg", "varied"])
    def test_written_scene_file_renders_its_spec(self, tmp_path, name):
        # the scene.yaml that simulate writes renders the bits of the spec it came from
        if name == "trio-40deg":
            spec = three_speaker_scene(40.0, duration_s=0.5, seed=1234)
            argv = ["--preset", name, "--duration", "0.5", "--seed", "1234"]
        else:  # onsets, gains, elevations and am_noise bands
            spec = SceneSpec(box_array_geometry(), (
                SceneSource("up", 35.0, elevation_deg=30.0, gain_db=-4.5, onset_s=0.1),
                SceneSource("hiss", -80.0, elevation_deg=-12.0, gain_db=3.0, onset_s=0.25,
                            signal=SignalSpec(kind="am_noise", band_low_hz=2500.0,
                                              band_high_hz=6000.0)),
                SceneSource("low", 150.0, signal=SignalSpec(pitch_hz=95.0, band_high_hz=5000.0,
                                                            formants_hz=(500.0, 1500.0)))),
                duration_s=0.5, noise_level_db=-35.0, seed=99)
            write_scene_file(spec, str(tmp_path / "given.yaml"))
            argv = ["--scene", str(tmp_path / "given.yaml")]
        assert main(["simulate", *argv, "--output-dir", str(tmp_path / "out")]) == 0
        got = synthesize(parse_scene_file(str(tmp_path / "out" / "scene.yaml")))
        expected = synthesize(spec)
        np.testing.assert_array_equal(got.mixture.samples, expected.mixture.samples)
        np.testing.assert_array_equal(got.noise, expected.noise)
        for arrays in ("source_images", "clean_references"):
            for a, b in zip(getattr(got, arrays), getattr(expected, arrays), strict=True):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("key, value", [
        ("azimuth_deg", float("nan")), ("elevation_deg", float("nan")),
        ("gain_db", float("inf")), ("noise_level_db", float("nan")),
        ("noise_level_db", float("inf")),
        # booleans, strings and fractions are not coerced
        ("azimuth_deg", True), ("gain_db", "3"), ("duration_s", True), ("seed", 1.7),
        ("seed", 7.0), ("seed", -3),
        # levels past full scale: 7000 dB overflowed to a traceback, 400 dB
        # rendered peaks of 1e19
        ("gain_db", 400.0), ("gain_db", 7000.0), ("noise_level_db", 400.0),
        ("noise_level_db", 7000.0),
    ])
    def test_non_finite_scene_value_rejected(self, tmp_path, key, value):
        data = scene_to_dict(three_speaker_scene(90.0, duration_s=0.2, seed=7))
        if key in data:
            data[key] = value
        else:
            data["sources"][0][key] = value
        scene = tmp_path / "scene.yaml"
        scene.write_text(yaml.safe_dump(data))
        assert main(["simulate", "--scene", str(scene),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert os.listdir(tmp_path) == ["scene.yaml"]

    @pytest.mark.parametrize("duration", ["0", "inf"])
    def test_scene_without_samples_rejected(self, tmp_path, duration):
        assert main(["simulate", "--preset", "trio-90deg", "--duration", duration,
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert os.listdir(tmp_path) == []

    def test_integer_valued_scene_renders_like_its_float_twin(self, tmp_path):
        def integral(value):  # signal values were never coerced, so they echo as written
            if isinstance(value, dict):
                return {k: v if k == "signal" else integral(v) for k, v in value.items()}
            if isinstance(value, list):
                return [integral(v) for v in value]
            return int(value) if isinstance(value, float) and value.is_integer() else value

        data = scene_to_dict(three_speaker_scene(90.0, duration_s=0.25, seed=7))
        data["sources"][0]["gain_db"] = 3.0
        for name, scene in (("float", data), ("int", integral(data))):
            (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(scene))
            assert main(["simulate", "--scene", str(tmp_path / f"{name}.yaml"),
                         "--output-dir", str(tmp_path / name)]) == 0
        assert "azimuth_deg: 90\n" in (tmp_path / "int.yaml").read_text()
        names = sorted(os.listdir(tmp_path / "float"))
        assert names == sorted(os.listdir(tmp_path / "int")) and "scene.yaml" in names
        for name in names:
            assert (tmp_path / "float" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_negative_seed_rejected(self, tmp_path, command):
        argv = [command, "--preset", "trio-90deg", "--seed", "-1", "--seconds", "0.25"]
        if command == "simulate":
            argv[-2:] = ["--duration", "0.25", "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert os.listdir(tmp_path) == []

    def test_input_rate_must_match_config(self, short_scene, scene_dir, tmp_path):
        spec, render = short_scene
        mixture = str(tmp_path / "mixture_16k.wav")
        write_wav(mixture, AudioBuffer(render.mixture.samples, 16000))
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        assert main(["separate", "--config", str(config_path), "--input", mixture]) == 4
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["separate", "features", "simulate", "score"])
    def test_unwritable_output_exit_code(self, short_scene, scene_dir, tmp_path, capsys,
                                         command):
        spec, _ = short_scene
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        mono = str(scene_dir / "center_ref.wav")
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        argv = {
            "separate": ["separate", "--config", str(config_path), "--output-dir", str(blocker)],
            "features": ["features", "--input", mono, "--output-dir", str(blocker)],
            "simulate": ["simulate", "--preset", "trio-90deg", "--duration", "0.25",
                         "--output-dir", str(blocker)],
            "score": ["score", "--output", mono, "--reference", mono,
                      "--csv", str(tmp_path / "missing" / "q.csv")],
        }[command]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_output_dir_file_rejected_before_stages(self, short_scene, scene_dir, tmp_path,
                                                    monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_stages ran before the output directory was checked")

        monkeypatch.setattr(pipeline, "run_stages", fail)
        spec, _ = short_scene
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        assert main(["separate", "--config", str(config_path),
                     "--output-dir", str(blocker)]) == 3

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("not: [valid")
        assert main(["separate", "--config", str(path)]) == 2

    def test_config_root_must_be_a_mapping(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- mic_positions_m: [[0.1, 0, 0], [-0.1, 0, 0]]\n")
        assert main(["separate", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: config root must be a mapping\n"
        assert os.listdir(tmp_path) == ["list.yaml"]

    def test_unknown_keys_at_every_level_are_named_in_one_message(self, short_scene, scene_dir,
                                                                  tmp_path, capsys):
        spec, _ = short_scene
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        data = yaml.safe_load(config_path.read_text())
        data["colour"] = "red"
        data["sources"][1]["bogus"] = 1
        data["stages"]["fast"] = True
        config_path.write_text(yaml.safe_dump(data))
        assert main(["separate", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == ("error: unknown config keys: "
                                           "['colour', 'sources[1].bogus', 'stages.fast']\n")
        assert os.listdir(tmp_path) == ["cfg.yaml"]

    def test_separate_takes_the_config_and_two_paths_only(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["separate", "--help"])
        assert done.value.code == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--config", "--help", "--input", "--output-dir"}

    # every tunable comes from the config file: these flags repeated config keys
    @pytest.mark.parametrize("flag", [
        ["--step-size", "0.001"], ["--leak-factor", "0.5"], ["--spectral-exponent", "2"],
        ["--mask-threshold", "0.5"], ["--no-adapt"], ["--no-postfilter"], ["--no-features"],
        ["--dump-diagnostics"]], ids=lambda flag: flag[0])
    def test_tunable_flags_are_refused(self, short_scene, scene_dir, tmp_path, capsys, flag):
        spec, _ = short_scene
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        with pytest.raises(SystemExit) as done:
            main(["separate", "--config", str(config_path), *flag])
        assert done.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dump", [False, True])
    def test_input_shorter_than_one_frame_writes_no_post_filter_dump(self, short_scene, scene_dir,
                                                                     tmp_path, capsys, dump):
        spec, render = short_scene
        short = tmp_path / "short.wav"
        write_wav(str(short), AudioBuffer(render.mixture.samples[:, :1000], 48000))
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out", dump_diagnostics=dump)
        assert main(["separate", "--config", str(config_path), "--input", str(short)]) == 0
        assert capsys.readouterr().out == f"processed 0 frames into {tmp_path / 'out'}\n"
        expected = {"effective_config.yaml", *(["gss_state.csv"] if dump else [])}
        assert set(os.listdir(tmp_path / "out")) == expected

    def test_features_subcommand(self, tmp_path):
        rng = np.random.default_rng(1)
        wav = tmp_path / "mono.wav"
        write_wav(str(wav), AudioBuffer(rng.standard_normal(16000) * 0.1, 16000))
        code = main(["features", "--input", str(wav), "--output-dir", str(tmp_path / "f")])
        assert code == 0
        assert (tmp_path / "f" / "mono_features.csv").exists()
        assert (tmp_path / "f" / "mono_features.bin").exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_features_failure_leaves_nothing_behind(self, tmp_path, monkeypatch, existing):
        wav = tmp_path / "mono.wav"
        write_wav(str(wav), AudioBuffer(np.full(16000, 0.1), 16000))
        output_dir = tmp_path / ("f" if existing else "new/f")
        if existing:  # the binary is written last and cannot be placed
            os.makedirs(output_dir / "mono_features.bin")
        else:
            def failing(path, features):
                raise AudioIOError(f"cannot write feature file {path}: injected")

            monkeypatch.setattr(cli, "write_features_binary", failing)
        before = tree(tmp_path)
        assert main(["features", "--input", str(wav), "--output-dir", str(output_dir)]) == 3
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("existing", [False, True])
    def test_simulate_failure_leaves_nothing_behind(self, tmp_path, monkeypatch, existing):
        output_dir = tmp_path / ("scene" if existing else "new/scene")
        if existing:  # the scene file is written last and cannot be placed
            os.makedirs(output_dir / "scene.yaml")
            (output_dir / "mixture.wav").write_bytes(b"an earlier mixture")
        else:
            def failing(spec, path):
                raise AudioIOError(f"cannot write scene file {path}: injected")

            monkeypatch.setattr(cli, "write_scene_file", failing)
        before = tree(tmp_path)
        assert main(["simulate", "--preset", "trio-90deg", "--duration", "0.25",
                     "--output-dir", str(output_dir)]) == 3
        assert tree(tmp_path) == before

    def test_score_subcommand(self, tmp_path):
        n = 24000
        a = np.sin(2 * np.pi * 500 * np.arange(n) / 48000) * 0.4
        b = np.sin(2 * np.pi * 2000 * np.arange(n) / 48000) * 0.4
        write_wav(str(tmp_path / "out_a.wav"), AudioBuffer(a + 0.1 * b, 48000))
        write_wav(str(tmp_path / "ref_a.wav"), AudioBuffer(a, 48000))
        write_wav(str(tmp_path / "ref_b.wav"), AudioBuffer(b, 48000))
        code = main(["score", "--output", str(tmp_path / "out_a.wav"), str(tmp_path / "ref_b.wav"),
                     "--reference", str(tmp_path / "ref_a.wav"), str(tmp_path / "ref_b.wav"),
                     "--csv", str(tmp_path / "q.csv")])
        assert code == 0
        lines = (tmp_path / "q.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_score_ids_and_stage_labels_round_trip_through_csv(self, tmp_path):
        # a file stem or a --stage label holding a comma or a quote is one
        # quoted cell, not two
        a = np.sin(2 * np.pi * 500 * np.arange(24000) / 48000) * 0.4
        output, reference = str(tmp_path / 'out,"a".wav'), str(tmp_path / "ref.wav")
        write_wav(output, AudioBuffer(a, 48000))
        write_wav(reference, AudioBuffer(a, 48000))
        assert main(["score", "--output", output, "--reference", reference,
                     "--stage", "post,filtered", "--csv", str(tmp_path / "q.csv")]) == 0
        with open(tmp_path / "q.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"stage": "post,filtered", "source": 'out,"a"', "input_sir_db": "nan",
                         "output_sir_db": "99.0000", "output_snr_db": "nan"}]

    @pytest.mark.parametrize("which", ["reference", "noise"])
    def test_score_inputs_must_share_one_rate(self, short_scene, scene_dir, tmp_path, which):
        _, render = short_scene
        wrong = str(tmp_path / "16k.wav")
        center = str(scene_dir / "center_ref.wav")
        argv = ["score", "--output", center, "--csv", str(tmp_path / "q.csv")]
        if which == "reference":
            write_wav(wrong, AudioBuffer(render.clean_references[0], 16000))
            argv += ["--reference", wrong]
        else:
            write_wav(wrong, AudioBuffer(render.noise, 16000))
            argv += ["--reference", center, "--noise", wrong]
        assert main(argv) == 4
        assert not (tmp_path / "q.csv").exists()

    def test_score_report_unchanged_without_decoding_the_noise(self, short_scene, scene_dir,
                                                              tmp_path, capsys):
        spec, render = short_scene
        config = write_config(tmp_path / "c.yaml", spec, scene_dir, tmp_path / "sep")
        config.reference_wavs, config.noise_wav = [], None
        outputs = list(run_pipeline(config).separated_48k.values())
        references = [str(scene_dir / f"{s.source_id}_ref.wav") for s in spec.sources]
        noise = str(scene_dir / "noise.wav")
        # the report as it reads with every input fully decoded
        rows = measure_quality([read_wav(p).samples[0] for p in outputs],
                               [read_wav(p).samples[0] for p in references],
                               read_wav(noise).samples,
                               source_ids=[f"{s.source_id}_48k" for s in spec.sources])
        oracle = tmp_path / "oracle.csv"
        write_quality_report(str(oracle), "output", rows)

        csv = tmp_path / "q.csv"
        argv = ["score", "--output", *outputs, "--reference", *references, "--noise", noise,
                "--csv", str(csv)]
        assert main(argv) == 0  # lazy imports and caches
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert csv.read_bytes() == oracle.read_bytes()
        assert capsys.readouterr().out.splitlines() == [f"wrote {csv}"] + [
            f"{row.source_id}: SIR {row.output_sir_db:.2f} dB, SNR {row.output_snr_db:.2f} dB"
            for row in rows]
        # decoded: the references, one output and the noise a channel at a time
        assert peak < render.noise.nbytes

    def test_bench_shorter_than_one_frame_reports_no_frames(self, capsys):
        assert main(["bench", "--seconds", "0.01"]) == 0
        assert capsys.readouterr().out == "bench: no frames processed\n"

    def test_bench_zero_duration_empty_report(self, capsys):
        assert main(["bench", "--seconds", "0"]) == 0
        assert "nothing to measure" in capsys.readouterr().out

    @pytest.mark.parametrize("seconds", ["-1", "nan"])
    def test_bench_negative_or_nan_duration_refused(self, capsys, seconds):
        assert main(["bench", "--seconds", seconds]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: duration_s must be a number in (0, inf)")

    def test_bench_runs(self, capsys):
        assert main(["bench", "--seconds", "1.0", "--preset", "trio-50deg"]) == 0
        assert "real-time factor" in capsys.readouterr().out

    def test_bench_prints_ms_per_frame_for_each_stage(self, capsys):
        assert main(["bench", "--seconds", "1.0", "--sources", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        stages = ["analysis", "gss.separate", "gss.adapt", "postfilter.process", "postfilter.flush"]
        assert [line.split(":")[0] for line in lines[1:]] == [f"  {s}" for s in stages] + [
            "  frame chain"]
        assert all(re.fullmatch(r"  \S+: \d+\.\d{3} ms/frame over \d+ calls", line)
                   for line in lines[1:-1])
        assert lines[-1].endswith(" over the 10.67 ms hop")

    @pytest.mark.parametrize("sources", [-1, 0, 5])
    def test_bench_source_count_checked_before_rendering(self, monkeypatch, sources):
        def unreachable(spec):
            raise AssertionError("scene rendered")

        monkeypatch.setattr("arraysep.cli.synthesize", unreachable)
        assert main(["bench", "--seconds", "1.0", "--sources", str(sources)]) == 2

    def test_preset_sweep_covers_all_angles(self, tmp_path):
        # one scene per listed preset, all emit the expected files
        from arraysep.simulate import preset_names

        name = preset_names()[4]
        assert main(["simulate", "--preset", name, "--duration", "0.25",
                     "--output-dir", str(tmp_path / name)]) == 0
        assert (tmp_path / name / "mixture.wav").exists()


def test_exit_codes_as_a_shell_sees_them(tmp_path):
    # the codes README promises to scripts, through the module's __main__ line
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "arraysep.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)

    done = run("bench", "--seconds", "0")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "bench: empty input, nothing to measure\n", "")
    missing = str(tmp_path / "missing")
    for argv, code in [(["separate", "--config", missing + ".yaml"], 2),
                       (["features", "--input", missing + ".wav", "--output-dir",
                         str(tmp_path / "out")], 3)]:
        done = run(*argv)
        assert (done.returncode, done.stdout) == (code, "")
        assert done.stderr.startswith("error: ") and missing in done.stderr
    assert os.listdir(tmp_path) == []


def test_public_names_resolve():
    import arraysep

    for name in arraysep.__all__:
        assert hasattr(arraysep, name), name
