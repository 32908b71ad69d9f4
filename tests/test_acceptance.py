"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and measured values.  Thresholds marked "frozen" were calibrated on
the first verified run and committed as regression bounds.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from arraysep import gss
from arraysep.audio import AudioBuffer, resample_48k_to_16k, write_wav
from arraysep.config import PipelineConfig, serialize_config
from arraysep.features import mel_energies
from arraysep.geometry import steering_matrix
from arraysep.gmm import GmmModel, marginal_log_likelihoods
from arraysep.masks import band_reliability, mask_filterbank, masks_from_records
from arraysep.metrics import measure_quality
from arraysep.pipeline import bench_pipeline, run_pipeline
from arraysep.postfilter import PostFilter
from arraysep.simulate import (PRESET_ANGLES_DEG, SceneSource, SceneSpec, SignalSpec,
                               box_array_geometry, synthesize, three_speaker_scene)
from arraysep.stft import SpectralFrame, frame_count, stft_analyze, stft_synthesize
from helpers import filter_frame, pipeline_config_for_scene, separate_scene, stage_sir
import mf_task


def report(line: str) -> None:
    print(f"\n{line}")


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        """Analytic gradients match finite differences on 200 random instances."""
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst_fd = 0.0
        worst_forms = 0.0
        h = 1e-6
        for _ in range(200):
            num_mics = int(rng.integers(2, 5))
            num_sources = int(rng.integers(1, num_mics + 1))
            phases = rng.uniform(0, 2 * np.pi, (1, num_mics, num_sources))
            steering = np.exp(1j * phases)
            demix = 0.4 * (rng.standard_normal((1, num_sources, num_mics))
                           + 1j * rng.standard_normal((1, num_sources, num_mics)))
            state = gss.SeparationState(steering, demix.copy())
            x = rng.standard_normal((num_mics, 1)) + 1j * rng.standard_normal((num_mics, 1))
            pair = gss.gradients(state, SpectralFrame(x, 0))

            a = steering[0]
            xv = x[:, 0]

            def decorrelation(w):
                y = w @ xv
                corr = np.outer(y, y.conj())
                corr[np.arange(len(y)), np.arange(len(y))] = 0.0
                return np.sum(np.abs(corr) ** 2)

            def geometric(w):
                return np.sum(np.abs(w @ a - np.eye(num_sources)) ** 2)

            for cost, grad in ((decorrelation, pair.decorrelation[0]),
                               (geometric, pair.geometric[0])):
                fd = np.zeros_like(grad)
                for m in range(num_sources):
                    for n in range(num_mics):
                        for direction in (1.0, 1.0j):
                            up = demix[0].copy()
                            up[m, n] += h * direction
                            down = demix[0].copy()
                            down[m, n] -= h * direction
                            fd[m, n] += direction * (cost(up) - cost(down)) / (2 * h)
                scale = max(np.abs(fd).max(), 1e-12)
                worst_fd = max(worst_fd, np.abs(grad - fd).max() / scale)

            # simplified form against the full instantaneous-correlation form;
            # float reordering leaves a few ulps between the two evaluations,
            # so exact-agreement is asserted at 1e-12 relative
            y = demix[0] @ xv
            corr = np.outer(y, y.conj())
            corr[np.arange(num_sources), np.arange(num_sources)] = 0.0
            full_form = 4.0 * (corr @ demix[0] @ np.outer(xv, xv.conj()))
            scale = max(np.abs(full_form).max(), 1e-12)
            worst_forms = max(worst_forms, np.abs(pair.decorrelation[0] - full_form).max() / scale)

        elapsed = time.perf_counter() - start
        assert worst_fd < 1e-4
        assert worst_forms < 1e-12
        assert elapsed < 10.0
        report(f"[PASS] criterion 1: gradient vs finite differences rel err "
               f"{worst_fd:.2e} < 1e-4; simplified vs correlation form rel dev "
               f"{worst_forms:.2e} < 1e-12; runtime {elapsed:.1f}s < 10s")


class TestCriterion2DelayAndSum:
    def test_single_source_equals_delay_and_sum(self):
        geometry = box_array_geometry()
        spec = SceneSpec(geometry,
                         (SceneSource("s", 35.0, signal=SignalSpec(kind="am_noise")),),
                         duration_s=2.0, noise_level_db=-45.0, seed=202)
        render = synthesize(spec)
        audio, _ = separate_scene(render, spec, adapt=True, postfilter=False)

        steering = steering_matrix(geometry, [s.direction for s in spec.sources], 1024)
        weights = steering[:, :, 0].conj() / geometry.num_mics
        frames = []
        for frame in stft_analyze(render.mixture, 1024, 512):
            bins = np.sum(weights * frame.bins.T, axis=1)
            frames.append(bins[np.newaxis, :])
        reference = stft_synthesize([np.stack(frames)], 512, len(frames))

        n = min(audio.num_samples, reference.shape[1])
        rms = float(np.sqrt(np.mean((audio.samples[0, :n] - reference[0, :n]) ** 2)))
        assert rms <= 1e-6
        report(f"[PASS] criterion 2: single-source output vs delay-and-sum RMS "
               f"{rms:.2e} <= 1e-6")


class TestCriterion3SeparationOrdering:
    def test_nine_preset_sweep(self):
        gains = []
        for angle in PRESET_ANGLES_DEG:
            spec = three_speaker_scene(float(angle), duration_s=10.0, seed=1234)
            render = synthesize(spec)
            ds = stage_sir(render, spec, adapt=False, postfilter=False)
            adapted = stage_sir(render, spec, adapt=True, postfilter=False)
            filtered = stage_sir(render, spec, adapt=True, postfilter=True)
            assert np.all(adapted >= ds), f"{angle} deg: GSS below delay-and-sum"
            assert np.all(filtered >= adapted), f"{angle} deg: post-filter hurt SIR"
            gains.append(float((adapted - ds).mean()))

        slope = float(np.polyfit(PRESET_ANGLES_DEG, gains, 1)[0])
        assert gains[-1] >= 5.0
        assert slope >= 0.0
        report(f"[PASS] criterion 3: ordering holds on all 9 presets; mean GSS gain "
               f"at 90deg {gains[-1]:.1f} dB >= 5 dB; gain trend "
               f"{slope:+.3f} dB/deg (non-increasing as angle shrinks)")


class TestCriterion4PostFilterReduction:
    def test_zero_leak_equals_independent_filters(self):
        spec = three_speaker_scene(60.0, duration_s=2.0, seed=404)
        render = synthesize(spec)
        config = pipeline_config_for_scene(spec, postfilter=False)
        state = gss.init_delay_and_sum(
            steering_matrix(config.geometry(), config.directions(), config.fft_size),
            config.step_size)

        bins = config.fft_size // 2 + 1
        multi = PostFilter(3, bins, PipelineConfig(leak_factor=0.0))
        singles = [PostFilter(1, bins, PipelineConfig(leak_factor=0.0)) for _ in range(3)]
        frames = 0
        for mixture_frame in stft_analyze(render.mixture, config.fft_size, config.shift):
            frame = gss.separate(state, mixture_frame)
            gss.adapt(state, mixture_frame, frame)
            out_multi = filter_frame(multi, frame)[0]
            for m in range(3):
                single_frame = SpectralFrame(frame.bins[m : m + 1], frame.frame_index)
                out_single = filter_frame(singles[m], single_frame)[0]
                assert np.array_equal(out_multi[m], out_single[0])
            frames += 1
        report(f"[PASS] criterion 4: zero-leak multi-source gains bit-identical to "
               f"3 independent single-source post-filters over {frames} frames")


class TestCriterion5MaskBehavior:
    def test_silence_stays_reliable(self):
        geometry = box_array_geometry()
        spec = SceneSpec(geometry,
                         (SceneSource("talker", 30.0, signal=SignalSpec(kind="harmonic"),
                                      onset_s=1.0),),
                         duration_s=4.0, noise_level_db=-40.0, seed=77)
        render = synthesize(spec)
        _, output = separate_scene(render, spec, adapt=True, postfilter=True)
        mask = masks_from_records(output.reliability, 0)
        centers = (np.arange(mask.num_frames) * 512 + 512) / 48000
        silent = (centers > 0.1) & (centers < 0.9)
        fraction = float(mask.static[silent].mean())
        assert fraction >= 0.95
        report(f"[PASS] criterion 5a: {fraction:.3f} of silent-frame bands reliable >= 0.95")

    def test_interference_dominated_bands_flagged(self):
        # dominance is judged at the post-filter input per stream, via the
        # same demixing applied to the clean per-source images (the simulator
        # knows the decomposition); bands must also carry interference above
        # the stationary floor to count.  The >= 0.80 bound is frozen.
        geometry = box_array_geometry()
        angle = 40.0
        spec = SceneSpec(geometry, (
            SceneSource("a", angle / 2, onset_s=0.4,
                        signal=SignalSpec(kind="harmonic", pitch_hz=120.0,
                                          formants_hz=(600.0, 1800.0))),
            SceneSource("b", -angle / 2, onset_s=0.4,
                        signal=SignalSpec(kind="harmonic", pitch_hz=210.0,
                                          formants_hz=(900.0, 2500.0))),
        ), duration_s=6.0, noise_level_db=-40.0, seed=99)
        render = synthesize(spec)

        state = gss.init_delay_and_sum(
            steering_matrix(geometry, [s.direction for s in spec.sources], 1024))
        postfilter = PostFilter(2, 513)
        bank = mask_filterbank()
        image_streams = [stft_analyze(AudioBuffer(render.source_images[i], 48000), 1024, 512)
                         for i in range(2)]
        bands = []
        target_bands = [[], []]
        rival_bands = [[], []]
        for mixture_frame, image_a, image_b in zip(
                stft_analyze(render.mixture, 1024, 512), *image_streams):
            separated = gss.separate(state, mixture_frame)
            contrib = [gss.separate(state, image_a).bins, gss.separate(state, image_b).bins]
            gss.adapt(state, mixture_frame, separated)
            bands.append(filter_frame(postfilter, separated)[1])
            for m in range(2):
                target_bands[m].append(mel_energies(np.abs(contrib[m][m]) ** 2, bank))
                rival_bands[m].append(mel_energies(np.abs(contrib[1 - m][m]) ** 2, bank))

        fractions = []
        for m in range(2):
            mask = masks_from_records(band_reliability(np.array(bands)), m)
            target = np.stack(target_bands[m])
            rival = np.stack(rival_bands[m])
            floor = np.array(bands)[:, 2, m]
            steady = slice(40, mask.num_frames)
            dominated = ((rival[steady] > 10.0 * np.maximum(target[steady], 1e-18))
                         & (rival[steady] > 4.0 * floor[steady]))
            flagged = ~mask.static[steady]
            fractions.append(float(flagged[dominated].mean()))
        assert min(fractions) >= 0.80
        report(f"[PASS] criterion 5b: interference-dominated bands flagged unreliable in "
               f"{fractions[0]:.3f}/{fractions[1]:.3f} of cases >= 0.80 (frozen)")


class TestCriterion6Marginalization:
    def test_matches_numerical_integration(self):
        model = GmmModel(np.array([0.55, 0.45]),
                         np.array([[-1.0, 2.0], [1.5, -0.5]]),
                         np.array([[0.5, 1.2], [0.8, 0.3]]))

        def scalar_gaussian(value, mean, var):
            return math.exp(-0.5 * (value - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)

        def joint(x0, x1):
            return sum(p * scalar_gaussian(x0, mu[0], v[0]) * scalar_gaussian(x1, mu[1], v[1])
                       for p, mu, v in zip(model.priors, model.means, model.variances))

        worst = 0.0
        for x0 in np.linspace(-3.0, 3.0, 9):
            integral, _ = integrate.quad(lambda t: joint(x0, t), -np.inf, np.inf)
            got = marginal_log_likelihoods(model, np.array([x0, 0.0])[None],
                                           np.array([True, False])[None])[0]
            worst = max(worst, abs(got - math.log(integral)) / abs(math.log(integral)))
        assert worst < 1e-4

        rng = np.random.default_rng(606)
        worst_full = 0.0
        for x in rng.standard_normal((50, 2)):
            got = marginal_log_likelihoods(model, x[None], np.array([True, True])[None])[0]
            direct = math.log(joint(x[0], x[1]))
            worst_full = max(worst_full, abs(got - direct))
        assert worst_full < 1e-10
        report(f"[PASS] criterion 6: marginal vs quadrature rel err {worst:.2e} < 1e-4; "
               f"full-mask vs standard density dev {worst_full:.2e} < 1e-10")


class TestCriterion7MissingFeatureBenefit:
    def test_masked_scoring_beats_all_ones(self):
        models = mf_task.train_models(seed=0)
        wins = losses = ties = 0
        diffs = []
        for seed in range(600, 620):  # frozen seed block, >= 20 trials
            outcome = mf_task.run_trial(models, seed)
            if outcome is None:
                ties += 1
                continue
            masked, allones = outcome
            diffs.append(masked - allones)
            if masked > allones:
                wins += 1
            elif masked < allones:
                losses += 1
            else:
                ties += 1
        decided = wins + losses
        pvalue = stats.binomtest(wins, decided, 0.5, alternative="greater").pvalue
        assert wins > losses
        assert np.mean(diffs) > 0.0
        assert pvalue < 0.05
        report(f"[PASS] criterion 7: estimated masks beat all-ones in {wins}W/{losses}L/"
               f"{ties}T over 20 seeds, mean accuracy gain {np.mean(diffs):+.3f}, "
               f"sign-test p {pvalue:.4f} < 0.05")


class TestCriterion8RealTime:
    def test_real_time_factor(self):
        """Tracked as a benchmark: 8 channels, 3 sources, 48 kHz on one core."""
        spec = three_speaker_scene(90.0, duration_s=10.0, seed=808)
        render = synthesize(spec)
        config = pipeline_config_for_scene(spec)
        bench = bench_pipeline(render.mixture, config)
        assert bench.real_time_factor is not None
        assert bench.real_time_factor < 1.0
        report(f"[PASS] criterion 8: real-time factor {bench.real_time_factor:.3f} < 1.0 "
               f"({bench.frames} frames, {bench.audio_seconds:.1f}s audio in "
               f"{bench.wall_seconds:.2f}s)")


class TestCriterion9Hygiene:
    def test_round_trip_and_determinism(self, tmp_path):
        rng = np.random.default_rng(909)
        worst_db = -np.inf
        for fft_size, shift, rate in [(1024, 512, 48000), (400, 160, 16000)]:
            x = AudioBuffer(rng.standard_normal((2, rate // 2)) * 0.2, rate)
            y = stft_synthesize((f.bins[np.newaxis] for f in stft_analyze(x, fft_size, shift)),
                                shift, frame_count(x.num_samples, fft_size, shift))
            n = min(x.num_samples, y.shape[1])
            interior = slice(fft_size, n - fft_size)
            err = x.samples[:, interior] - y[:, interior]
            level = 10 * np.log10(np.sum(err**2) / np.sum(x.samples[:, interior] ** 2))
            worst_db = max(worst_db, level)
        assert worst_db <= -60.0

        spec = three_speaker_scene(70.0, duration_s=1.5, seed=910)
        render = synthesize(spec)
        scene_dir = tmp_path / "scene"
        os.makedirs(scene_dir)
        write_wav(str(scene_dir / "mixture.wav"), render.mixture)
        digests = []
        for run in ("one", "two"):
            config = pipeline_config_for_scene(spec, features=True)
            config.input_wav = str(scene_dir / "mixture.wav")
            config.output_dir = str(tmp_path / run)
            result = run_pipeline(config)
            listing = {}
            for root, _, files in os.walk(result.output_dir):
                for name in sorted(files):
                    if name == "effective_config.yaml":
                        continue  # holds run-specific paths by design
                    path = os.path.join(root, name)
                    listing[name] = Path(path).read_bytes()
            digests.append(listing)
        assert digests[0].keys() == digests[1].keys()
        for name in digests[0]:
            assert digests[0][name] == digests[1][name], f"{name} differs between runs"
        report(f"[PASS] criterion 9: worst round-trip {worst_db:.1f} dB <= -60 dB; "
               f"{len(digests[0])} emitted files byte-identical across repeated runs")
