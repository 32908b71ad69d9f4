"""Scene synthesis determinism, delay fidelity and bookkeeping."""

import numpy as np
import pytest

from arraysep.errors import ConfigError, OverDeterminedSceneError
from arraysep.geometry import ArrayGeometry
from arraysep.simulate import (SceneSource, SceneSpec, SignalSpec, box_array_geometry,
                               fractional_delay, preset_names, preset_scene,
                               render_signal, synthesize, three_speaker_scene)


class TestFractionalDelay:
    def _band_limited(self, n=8192, seed=0):
        rng = np.random.default_rng(seed)
        spectrum = np.zeros(n // 2 + 1, dtype=complex)
        spectrum[10:2000] = rng.standard_normal(1990) + 1j * rng.standard_normal(1990)
        return np.fft.irfft(spectrum)

    @pytest.mark.parametrize("delay", [0.37, -2.63, 13.994, -13.994, 5.0])
    def test_matches_fft_phase_oracle(self, delay):
        x = self._band_limited()
        n = len(x)
        got = fractional_delay(x, delay)
        bins = np.arange(n // 2 + 1)
        oracle = np.fft.irfft(np.fft.rfft(x) * np.exp(-2j * np.pi * bins * delay / n))
        interior = slice(200, n - 200)
        err = np.sum((got[interior] - oracle[interior]) ** 2) / np.sum(oracle[interior] ** 2)
        assert 10 * np.log10(err) < -80.0  # far beyond 0.01-sample fidelity

    def test_zero_delay_identity(self):
        x = self._band_limited(seed=1)
        np.testing.assert_array_equal(fractional_delay(x, 0.0), x)

    def test_integer_delay_shifts(self):
        x = self._band_limited(seed=2)
        got = fractional_delay(x, 3.0)
        np.testing.assert_allclose(got[200:-200], x[197:-203], atol=1e-9)


class TestSignals:
    @pytest.mark.parametrize("kind", ["harmonic", "am_noise"])
    def test_rms_normalized(self, kind):
        rng = np.random.default_rng(3)
        signal = render_signal(SignalSpec(kind=kind), rng, 48000, 48000)
        assert np.sqrt(np.mean(signal**2)) == pytest.approx(0.05, rel=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            render_signal(SignalSpec(kind="square"), np.random.default_rng(0), 1000, 48000)

    def test_envelope_has_pauses(self):
        rng = np.random.default_rng(4)
        signal = render_signal(SignalSpec(kind="am_noise"), rng, 5 * 48000, 48000)
        frame_rms = np.sqrt(np.mean(signal[: 48000 * 5].reshape(-1, 4800) ** 2, axis=1))
        assert frame_rms.min() < 0.1 * frame_rms.max()


class TestSynthesize:
    def test_deterministic_bitwise(self):
        spec = three_speaker_scene(50.0, duration_s=1.0, seed=7)
        a = synthesize(spec)
        b = synthesize(spec)
        np.testing.assert_array_equal(a.mixture.samples, b.mixture.samples)
        for x, y in zip(a.source_images, b.source_images):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.noise, b.noise)

    def test_seed_changes_output(self):
        base = three_speaker_scene(50.0, duration_s=0.5, seed=7)
        other = three_speaker_scene(50.0, duration_s=0.5, seed=8)
        assert not np.array_equal(synthesize(base).mixture.samples,
                                  synthesize(other).mixture.samples)

    def test_energy_bookkeeping_sample_exact(self):
        spec = three_speaker_scene(40.0, duration_s=0.5, seed=9)
        render = synthesize(spec)
        reconstructed = np.add.reduce(render.source_images) + render.noise
        np.testing.assert_array_equal(render.mixture.samples, reconstructed)

    def test_broadside_pair_identical_signals(self):
        # the source direction (azimuth 0 -> +x) is exactly orthogonal to the
        # microphone axis, so both delays are exactly zero
        geom = ArrayGeometry(np.array([[0, 0.1, 0], [0, -0.1, 0]]), 48000)
        spec = SceneSpec(geom, (SceneSource("s", 0.0),), duration_s=0.25,
                         noise_level_db=-np.inf, seed=1)
        render = synthesize(spec)
        np.testing.assert_array_equal(render.mixture.samples[0], render.mixture.samples[1])

    def test_silent_noise_gives_pure_delayed_copies(self):
        geom = ArrayGeometry(np.array([[0.1, 0, 0], [-0.1, 0, 0]]), 48000)
        spec = SceneSpec(geom, (SceneSource("s", 0.0),), duration_s=0.25,
                         noise_level_db=-np.inf, seed=2)
        render = synthesize(spec)
        np.testing.assert_array_equal(render.mixture.samples,
                                      render.source_images[0])

    def test_cross_correlation_recovers_geometric_delay(self):
        geom = ArrayGeometry(np.array([[0.15, 0, 0], [-0.15, 0, 0]]), 48000)
        azimuth = 37.0
        spec = SceneSpec(geom,
                         (SceneSource("s", azimuth, signal=SignalSpec(kind="am_noise")),),
                         duration_s=1.0, noise_level_db=-np.inf, seed=3)
        render = synthesize(spec)
        a, b = render.mixture.samples
        # parabolic-interpolated cross-correlation peak as the measurement oracle
        correlation = np.correlate(a, b, mode="full")
        peak = np.argmax(correlation)
        y0, y1, y2 = correlation[peak - 1 : peak + 2]
        offset = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
        measured = (peak + offset) - (len(a) - 1)
        expected = -0.3 * np.cos(np.deg2rad(azimuth)) * 48000 / 343.0
        assert measured == pytest.approx(expected, abs=0.1)

    def test_onset_zeroes_leading_samples(self):
        geom = box_array_geometry()
        spec = SceneSpec(geom, (SceneSource("s", 0.0, onset_s=0.5),), duration_s=1.0,
                         noise_level_db=-np.inf, seed=4)
        render = synthesize(spec)
        head = render.clean_references[0][: int(0.5 * 48000) - 64]
        assert np.all(head == 0)

    def test_over_determined_rejected(self):
        geom = ArrayGeometry(np.array([[0.1, 0, 0], [-0.1, 0, 0]]), 48000)
        spec = SceneSpec(geom, tuple(SceneSource(f"s{i}", 10.0 * i) for i in range(3)),
                         duration_s=0.2)
        with pytest.raises(OverDeterminedSceneError):
            synthesize(spec)

    def test_onset_outside_duration_rejected(self):
        geom = box_array_geometry()
        with pytest.raises(ConfigError):
            SceneSpec(geom, (SceneSource("s", 0.0, onset_s=2.0),), duration_s=1.0)


class TestPresets:
    def test_nine_presets_listed(self):
        names = preset_names()
        assert len(names) == 9
        assert names[0] == "trio-10deg" and names[-1] == "trio-90deg"

    def test_preset_shapes(self):
        spec = preset_scene("trio-90deg", duration_s=0.5)
        assert spec.geometry.num_mics == 8
        assert len(spec.sources) == 3
        azimuths = sorted(s.azimuth_deg for s in spec.sources)
        assert azimuths == [-90.0, 0.0, 90.0]

    def test_mics_inside_bounding_box(self):
        geom = box_array_geometry()
        extent = np.abs(geom.mic_positions).max(axis=0)
        np.testing.assert_array_less(extent, np.array([0.111, 0.086, 0.236]))

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(ConfigError, match="trio-10deg"):
            preset_scene("nope")
