"""Scene synthesis determinism, delay fidelity and bookkeeping."""

import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

from arraysep import simulate
from arraysep.audio import AudioBuffer, write_wav
from arraysep.errors import ConfigError, OverDeterminedSceneError
from arraysep.geometry import ArrayGeometry, far_field_delay
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

    @pytest.mark.parametrize("n", [1, 10, 37])
    def test_integer_delays_match_index_shift(self, n):
        x = np.arange(1.0, n + 1.0)
        for delay in (n, n + 2, 2 * n - 1, -(n + 2), 2 * n + 5, 1 - n, n - 1):
            source = np.arange(n) - delay
            inside = (source >= 0) & (source < n)
            oracle = np.where(inside, x[np.clip(source, 0, n - 1)], 0.0)
            np.testing.assert_array_equal(fractional_delay(x, float(delay)), oracle)


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


def long_double_harmonic_train(spec, rng, n, rate=48000):
    """One sine per harmonic, summed in long double, over the float64 phase
    the renderer computes, with the renderer's draws made one scalar at a
    time: drift rate and phase, each harmonic's phase, then the envelope."""
    t = np.arange(n) / rate
    drift = simulate.PITCH_DRIFT * np.sin(2.0 * np.pi * rng.uniform(0.1, 0.4) * t
                                          + rng.uniform(0, 2 * np.pi))
    theta = (2.0 * np.pi * np.cumsum(spec.pitch_hz * (1.0 + drift)) / rate).astype(np.longdouble)
    out = np.zeros(n, dtype=np.longdouble)
    for h in range(1, int(spec.band_high_hz / (spec.pitch_hz * (1.0 + simulate.PITCH_DRIFT))) + 1):
        freq = h * spec.pitch_hz
        resonance = sum(np.exp(-0.5 * ((freq - f0) / (0.2 * f0 + 120.0)) ** 2)
                        for f0 in spec.formants_hz)
        amplitude = np.longdouble((0.05 + 2.0 * resonance) / np.sqrt(h))
        out += amplitude * np.sin(h * theta + np.longdouble(rng.uniform(0, 2 * np.pi)))
    return out * simulate._slow_envelope(rng, n, rate)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 here")
class TestHarmonicTrain:
    @pytest.mark.parametrize("pitch_hz, n", [(90.0, 48000), (120.0, 48000), (200.0, 48000),
                                             (4000.0, 48000), (120.0, 1)])
    def test_matches_long_double_sum(self, pitch_hz, n):
        # 4000 Hz leaves a single harmonic below the 7 kHz band edge
        spec = SignalSpec(kind="harmonic", pitch_hz=pitch_hz)
        got = simulate._harmonic_train(spec, np.random.default_rng(11), n, 48000)
        oracle = long_double_harmonic_train(spec, np.random.default_rng(11), n)
        rms = np.sqrt(np.mean(oracle ** 2))
        assert np.max(np.abs(got - oracle)) <= 1e-12 * rms


class TestHarmonicSummation:
    def test_random_stream_matches_scalar_draws(self):
        spec = SignalSpec(kind="harmonic", pitch_hz=120.0)
        rendered, replica = np.random.default_rng(12), np.random.default_rng(12)
        render_signal(spec, rendered, 4800, 48000)
        long_double_harmonic_train(spec, replica, 4800)
        assert rendered.bit_generator.state == replica.bit_generator.state

    @pytest.mark.parametrize("n, block", [(3000, 1), (20000, 7), (20000, 20000)])
    def test_block_size_leaves_bits_unchanged(self, monkeypatch, n, block):
        spec = SignalSpec(kind="harmonic", pitch_hz=90.0)
        expected = render_signal(spec, np.random.default_rng(13), n, 48000)
        monkeypatch.setattr(simulate, "HARMONIC_BLOCK", block)
        got = render_signal(spec, np.random.default_rng(13), n, 48000)
        np.testing.assert_array_equal(got, expected)

    def test_scratch_memory_bounded(self):
        # ten seconds at 90 Hz (73 harmonics): the phase, the sum and the
        # envelope's scratch, not a sine argument per harmonic
        n = 10 * 48000
        spec = SignalSpec(kind="harmonic", pitch_hz=90.0)
        render_signal(spec, np.random.default_rng(14), 1000, 48000)
        tracemalloc.start()
        try:
            render_signal(spec, np.random.default_rng(14), n, 48000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 8


class TestSignalSpecChecks:
    @pytest.mark.parametrize("changes", [
        {"pitch_hz": 0.0}, {"pitch_hz": -100.0}, {"pitch_hz": "120"},
        {"pitch_hz": float("nan")}, {"pitch_hz": True},
        {"pitch_hz": 1e-3}, {"pitch_hz": 19.99},  # 1 mHz: 6,603,773 harmonics below 7 kHz
        {"band_high_hz": 24000.0}, {"kind": "am_noise", "band_high_hz": 30000.0},
        {"band_low_hz": 0.0}, {"band_high_hz": 50.0}, {"formants_hz": (700.0, None)},
        {"band_low_hz": 10.0, "band_high_hz": 50.0},
    ])
    def test_rejected(self, changes):
        with pytest.raises(ConfigError):
            SignalSpec(**changes)

    def test_band_edge_must_be_below_nyquist(self):
        with pytest.raises(ConfigError, match=r"band_high_hz must be a number in \(0, 24000\)"):
            SignalSpec(kind="am_noise", band_high_hz=box_array_geometry().rate / 2)
        SignalSpec(kind="am_noise", band_high_hz=np.nextafter(24000.0, 0.0))

    def test_pitch_floor_bounds_the_harmonic_count(self):
        lowest = SignalSpec(pitch_hz=20.0, band_high_hz=np.nextafter(24000.0, 0.0))
        assert lowest.num_harmonics == 1132

    @pytest.mark.parametrize("duration_s", [0.0, 1e-6, -1.0, float("inf"), float("nan")])
    def test_scene_needs_a_sample(self, duration_s):
        with pytest.raises(ConfigError):
            SceneSpec(box_array_geometry(), (SceneSource("s", 0.0),), duration_s=duration_s)


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
        geom = ArrayGeometry(np.array([[0, 0.1, 0], [0, -0.1, 0]]))
        spec = SceneSpec(geom, (SceneSource("s", 0.0),), duration_s=0.25,
                         noise_level_db=-np.inf, seed=1)
        render = synthesize(spec)
        np.testing.assert_array_equal(render.mixture.samples[0], render.mixture.samples[1])

    def test_silent_noise_gives_pure_delayed_copies(self):
        geom = ArrayGeometry(np.array([[0.1, 0, 0], [-0.1, 0, 0]]))
        spec = SceneSpec(geom, (SceneSource("s", 0.0),), duration_s=0.25,
                         noise_level_db=-np.inf, seed=2)
        render = synthesize(spec)
        np.testing.assert_array_equal(render.mixture.samples,
                                      render.source_images[0])

    def test_cross_correlation_recovers_geometric_delay(self):
        geom = ArrayGeometry(np.array([[0.15, 0, 0], [-0.15, 0, 0]]))
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
        geom = ArrayGeometry(np.array([[0.1, 0, 0], [-0.1, 0, 0]]))
        spec = SceneSpec(geom, tuple(SceneSource(f"s{i}", 10.0 * i) for i in range(3)),
                         duration_s=0.2)
        with pytest.raises(OverDeterminedSceneError):
            synthesize(spec)

    def test_onset_outside_duration_rejected(self):
        geom = box_array_geometry()
        with pytest.raises(ConfigError):
            SceneSpec(geom, (SceneSource("s", 0.0, onset_s=2.0),), duration_s=1.0)


def stacked_render(spec):
    """Every microphone's image through its own fractional delay, stacked,
    and the mixture as one reduction over the stack plus the noise."""
    geometry, n = spec.geometry, spec.num_samples
    streams = np.random.SeedSequence(spec.seed).spawn(len(spec.sources) + 1)
    references, images = [], []
    for source, stream in zip(spec.sources, streams):
        clean = render_signal(source.signal, np.random.default_rng(stream), n, geometry.rate)
        clean = clean * 10.0 ** (source.gain_db / 20.0)
        clean[: int(round(source.onset_s * geometry.rate))] = 0.0
        references.append(clean)
        images.append(np.stack([
            fractional_delay(clean, far_field_delay(geometry, mic, source.direction))
            for mic in range(geometry.num_mics)]))
    noise = 10.0 ** (spec.noise_level_db / 20.0) * np.random.default_rng(
        streams[-1]).standard_normal((geometry.num_mics, n))
    return np.add.reduce(images) + noise, images, references, noise


def irregular_scene():
    # no two microphones share a delay toward a source 30 degrees up
    positions = np.array([[0.03, 0.11, -0.02], [-0.07, 0.05, 0.04], [0.09, -0.06, 0.01],
                          [-0.04, -0.08, -0.05], [0.01, 0.02, 0.09]])
    return SceneSpec(ArrayGeometry(positions),
                     (SceneSource("up", 35.0, elevation_deg=30.0),
                      SceneSource("low", -110.0, elevation_deg=-12.0,
                                  signal=SignalSpec(kind="am_noise"))),
                     duration_s=0.2, seed=21)


def integer_delay_scene():
    # one meter per sample: delays of +-2 and +-45 samples, the latter
    # beyond the 30-sample scene
    positions = np.array([[2.0, 0, 0], [-2.0, 0, 0], [45.0, 0, 0], [-45.0, 0, 0]])
    geometry = ArrayGeometry(positions, speed_of_sound=48000.0)
    return SceneSpec(geometry, (SceneSource("front", 0.0), SceneSource("back", 180.0)),
                     duration_s=30 / 48000, seed=22)


SCENES = {
    "box-trio": lambda: preset_scene("trio-40deg", duration_s=0.2, seed=20),
    "irregular-elevated": irregular_scene,
    "integer-delays": integer_delay_scene,
    "one-sample": lambda: three_speaker_scene(70.0, duration_s=1 / 48000, seed=23),
}


def distinct_delays(spec):
    """Per source, the number of distinct microphone delays."""
    geometry = spec.geometry
    return [len({far_field_delay(geometry, mic, source.direction)
                 for mic in range(geometry.num_mics)}) for source in spec.sources]


class TestRenderOracle:
    """``synthesize`` against the per-microphone, stacked render."""

    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_bit_identical_to_stacked_render(self, name):
        spec = SCENES[name]()
        render = synthesize(spec)
        mixture, images, references, noise = stacked_render(spec)
        np.testing.assert_array_equal(render.mixture.samples, mixture)
        np.testing.assert_array_equal(render.noise, noise)
        for got, expected in zip(render.source_images, images, strict=True):
            np.testing.assert_array_equal(got, expected)
        for got, expected in zip(render.clean_references, references, strict=True):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_one_convolution_per_distinct_delay(self, monkeypatch, name):
        spec = SCENES[name]()
        delayed = []

        def counting_delay(x, delay_samples):
            delayed.append(x)
            return fractional_delay(x, delay_samples)

        monkeypatch.setattr(simulate, "fractional_delay", counting_delay)
        render = synthesize(spec)
        calls = [sum(x is reference for x in delayed) for reference in render.clean_references]
        assert calls == distinct_delays(spec)
        assert len(delayed) == sum(calls)

    def test_scenes_cover_shared_and_distinct_delays(self):
        assert all(count < 8 for count in distinct_delays(SCENES["box-trio"]()))
        assert distinct_delays(SCENES["irregular-elevated"]()) == [5, 5]


@pytest.mark.parametrize("channels", [1, 8])
def test_write_wav_bytes_match_scipy_writer(tmp_path, channels):
    samples = np.random.default_rng(channels).uniform(-1.0, 1.0, (channels, 4801))
    write_wav(str(tmp_path / "ours.wav"), AudioBuffer(samples, 48000))
    wavfile.write(str(tmp_path / "scipy.wav"), 48000, samples.T.astype(np.float32))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


class TestPresets:
    def test_nine_presets_listed(self):
        names = preset_names()
        assert len(names) == 9
        assert names[0] == "trio-10deg" and names[-1] == "trio-90deg"

    def test_preset_shapes(self):
        spec = preset_scene("trio-90deg", duration_s=0.5, seed=1234)
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
            preset_scene("nope", duration_s=0.5, seed=1234)
