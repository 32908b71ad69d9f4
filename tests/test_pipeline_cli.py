"""End-to-end pipeline runs and the command-line interface."""

import logging
import os
import time
import tracemalloc

import numpy as np
import pytest
import yaml
from scipy.io import wavfile

from arraysep import gss, pipeline
from arraysep.audio import AudioBuffer, read_wav, write_wav
from arraysep.cli import main
from arraysep.config import PipelineConfig, SourceDirection, scene_to_dict, serialize_config
from arraysep.geometry import steering_matrix
from arraysep.errors import AudioIOError
from arraysep.metrics import QualityReport, interference_ratio_db, measure_quality
from arraysep.pipeline import (_dump_gss_state, _dump_postfilter_records, bench_pipeline,
                               run_pipeline, run_stages)
from arraysep.postfilter import PostFilter, PostFilterRecord
from arraysep.simulate import (SceneSource, SceneSpec, SignalSpec, box_array_geometry,
                               synthesize, three_speaker_scene)
from arraysep.stft import SpectralFrame, stft_analyze, stft_synthesize
from helpers import pipeline_config_for_scene, separate_scene, stage_sir


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
        assert read_wav(result.separated_48k["center"]).rate == 48000
        assert read_wav(result.separated_16k["center"]).rate == 16000

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
                    listing[os.path.relpath(path, result.output_dir)] = open(path, "rb").read()
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
        # the references and the noise are decoded only once the mixture is
        # gone, the noise one channel at a time, so they stay under the
        # stage loop's peak
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
                               [read_wav(p).channel(0) for p in config.reference_wavs],
                               read_wav(config.noise_wav).samples,
                               source_ids=[s.source_id for s in spec.sources])
        oracle = str(tmp_path / "oracle.csv")
        QualityReport({"gss+pf": rows}).to_csv(oracle)
        assert open(result.report_csv, "rb").read() == open(oracle, "rb").read()
        assert all(row.output_snr_db is not None for row in rows)
        if os.path.exists("/proc/self/maps"):  # no input stays mapped after the run
            maps = open("/proc/self/maps").read()
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
            frames.append(SpectralFrame(bins[np.newaxis, :], frame.frame_index, 1024, 48000))
        reference = stft_synthesize(frames, 512, len(frames))
        n = min(audio.num_samples, reference.num_samples)
        rms = np.sqrt(np.mean((audio.samples[0, :n] - reference.samples[0, :n]) ** 2))
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
        header = open(dump).readline().strip()
        assert header == "frame,bin,noise_stat,noise_leak,snr_prior,presence,gain"


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
                reference.process(gss.separate(state, frame))
        assert reference.gains.fault_count > 0
        assert (f"stages: {output.num_frames} frames, "
                f"{reference.gains.fault_count} post-filter gain faults") in caplog.messages

    def test_run_stages_memory_does_not_keep_frames(self):
        # per audio second, 3 sources' separated spectra would be 2.3 MB; the
        # 48 kHz output is 1.15 MB and the band records about 0.2 MB
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


class TestDiagnosticDumps:
    """Dump files against text built element by element with f-strings."""

    special = [-0.0, np.inf, np.nan, 5e-324, 1.5e300, -2.25, 0.1]

    def test_postfilter_records_golden(self, tmp_path):
        rng = np.random.default_rng(40)

        def record(index, with_diagnostics):
            fields = {name: rng.permutation(self.special * 2).reshape(2, 7)
                      for name in ("noise_stat", "noise_leak", "snr_prior", "presence", "gain")}
            return PostFilterRecord(index, np.zeros((3, 2, 24)), **(fields if with_diagnostics else {}))

        records = [record(0, True), record(1, False), record(4294967295, True)]
        for source in range(2):
            path = tmp_path / f"{source}.csv"
            _dump_postfilter_records(str(path), records, source)
            expected = "frame,bin,noise_stat,noise_leak,snr_prior,presence,gain\n"
            for rec in records:
                if rec.gain is None:
                    continue
                for k in range(7):
                    expected += (f"{rec.frame_index},{k},{rec.noise_stat[source, k]:.6e},"
                                 f"{rec.noise_leak[source, k]:.6e},{rec.snr_prior[source, k]:.6e},"
                                 f"{rec.presence[source, k]:.6e},{rec.gain[source, k]:.6e}\n")
            assert path.read_text() == expected

    def test_postfilter_records_without_diagnostics(self, tmp_path):
        path = tmp_path / "empty.csv"
        record = PostFilterRecord(0, np.zeros((3, 1, 24)))
        _dump_postfilter_records(str(path), [record], 0)
        assert path.read_text() == "frame,bin,noise_stat,noise_leak,snr_prior,presence,gain\n"

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
        frame = SpectralFrame(x, 0, 1024, 48000)

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

    def test_simulate_same_seed_byte_identical(self, tmp_path):
        for name in ("one", "two"):
            assert main(["simulate", "--preset", "trio-30deg", "--duration", "0.5",
                         "--seed", "3", "--output-dir", str(tmp_path / name)]) == 0
        a = open(tmp_path / "one" / "mixture.wav", "rb").read()
        b = open(tmp_path / "two" / "mixture.wav", "rb").read()
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
                                                 key, value):
        spec, _ = short_scene
        config_path = tmp_path / "cfg.yaml"
        write_config(config_path, spec, scene_dir, tmp_path / "out")
        data = yaml.safe_load(config_path.read_text())
        data[key] = value
        config_path.write_text(yaml.safe_dump(data))
        assert main(["separate", "--config", str(config_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source_id", ["../escaped", "c/../x", "..", ".", "", 7])
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

    @pytest.mark.parametrize("source_id", ["../escaped", "c/../x", "..", "", 7])
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
        (0, "band_high_hz", 50.0),
    ])
    def test_bad_scene_signal_rejected(self, tmp_path, source, key, value):
        data = scene_to_dict(three_speaker_scene(90.0, duration_s=0.2, seed=7))
        data["sources"][source]["signal"][key] = value  # source 2 is the am_noise one
        scene = tmp_path / "scene.yaml"
        scene.write_text(yaml.safe_dump(data))
        assert main(["simulate", "--scene", str(scene),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert os.listdir(tmp_path) == ["scene.yaml"]

    @pytest.mark.parametrize("key, value", [
        ("azimuth_deg", float("nan")), ("elevation_deg", float("nan")),
        ("gain_db", float("inf")), ("noise_level_db", float("nan")),
        ("noise_level_db", float("inf")),
    ])
    def test_non_finite_scene_value_rejected(self, tmp_path, key, value):
        data = scene_to_dict(three_speaker_scene(90.0, duration_s=0.2, seed=7))
        if key == "noise_level_db":
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

    def test_features_subcommand(self, tmp_path):
        rng = np.random.default_rng(1)
        wav = tmp_path / "mono.wav"
        write_wav(str(wav), AudioBuffer(rng.standard_normal(16000) * 0.1, 16000))
        code = main(["features", "--input", str(wav), "--output-dir", str(tmp_path / "f")])
        assert code == 0
        assert (tmp_path / "f" / "mono_features.csv").exists()
        assert (tmp_path / "f" / "mono_features.bin").exists()

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
        lines = open(tmp_path / "q.csv").read().splitlines()
        assert len(lines) == 3

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
        rows = measure_quality([read_wav(p).channel(0) for p in outputs],
                               [read_wav(p).channel(0) for p in references],
                               read_wav(noise).samples,
                               source_ids=[f"{s.source_id}_48k" for s in spec.sources])
        oracle = tmp_path / "oracle.csv"
        QualityReport({"output": rows}).to_csv(str(oracle))

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

    def test_bench_zero_duration_empty_report(self, capsys):
        assert main(["bench", "--seconds", "0"]) == 0
        assert "nothing to measure" in capsys.readouterr().out

    def test_bench_runs(self, capsys):
        assert main(["bench", "--seconds", "1.0", "--preset", "trio-50deg"]) == 0
        assert "real-time factor" in capsys.readouterr().out

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


def test_public_names_resolve():
    import arraysep

    for name in arraysep.__all__:
        assert hasattr(arraysep, name), name
