"""WAV I/O and the 48 kHz to 16 kHz resampler."""

import numpy as np
import pytest
from scipy.io import wavfile

from arraysep.audio import AudioBuffer, read_wav, resample_48k_to_16k, write_wav
from arraysep.errors import AudioIOError, ConfigError


class TestAudioBuffer:
    def test_mono_promoted_to_2d(self):
        buf = AudioBuffer(np.zeros(100), 48000)
        assert buf.samples.shape == (1, 100)
        assert buf.num_channels == 1

    def test_unsupported_rate_rejected(self):
        with pytest.raises(ConfigError):
            AudioBuffer(np.zeros(100), 44100)

    def test_duration(self):
        assert AudioBuffer(np.zeros(24000), 48000).duration == 0.5


class TestWavRoundTrip:
    def test_float32_multichannel(self, tmp_path):
        rng = np.random.default_rng(0)
        original = AudioBuffer(rng.standard_normal((8, 1000)) * 0.5, 48000)
        path = str(tmp_path / "x.wav")
        write_wav(path, original)
        loaded = read_wav(path)
        assert loaded.rate == 48000
        assert loaded.num_channels == 8
        np.testing.assert_allclose(loaded.samples, original.samples, atol=1e-7)

    def test_pcm16(self, tmp_path):
        rng = np.random.default_rng(1)
        pcm = rng.integers(-32768, 32768, (500, 2), dtype=np.int16)
        path = str(tmp_path / "x.wav")
        wavfile.write(path, 16000, pcm)
        loaded = read_wav(path)
        assert loaded.rate == 16000
        np.testing.assert_array_equal(loaded.samples, pcm.T / 32768.0)

    @pytest.mark.parametrize("dtype, scale", [(np.int32, 2.0 ** 31), (np.float64, 1.0)])
    def test_int32_and_float64(self, tmp_path, dtype, scale):
        data = (np.random.default_rng(2).uniform(-0.9, 0.9, (300, 3)) * scale).astype(dtype)
        path = str(tmp_path / "x.wav")
        wavfile.write(path, 48000, data)
        np.testing.assert_array_equal(read_wav(path).samples, data.T / scale)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioIOError):
            read_wav(str(tmp_path / "nope.wav"))


class TestResampler:
    def test_wrong_rate_rejected(self):
        with pytest.raises(ConfigError):
            resample_48k_to_16k(AudioBuffer(np.zeros(16000), 16000))

    def test_dc_level_preserved(self):
        out = resample_48k_to_16k(AudioBuffer(np.full(48000, 0.25), 48000))
        assert out.rate == 16000
        np.testing.assert_allclose(out.samples[0, 2000:-2000], 0.25, atol=1e-6)

    def _tone_fit(self, signal, freq, rate):
        # least-squares amplitude of a known tone over the interior samples
        t = np.arange(len(signal)) / rate
        design = np.stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)], axis=1)
        interior = slice(2000, len(signal) - 2000)
        coef, *_ = np.linalg.lstsq(design[interior], signal[interior], rcond=None)
        return float(np.hypot(*coef))

    def test_passband_tone_amplitude(self):
        t = np.arange(48000) / 48000.0
        tone = AudioBuffer(0.5 * np.sin(2 * np.pi * 6000.0 * t), 48000)
        out = resample_48k_to_16k(tone).samples[0]
        amplitude = self._tone_fit(out, 6000.0, 16000)
        assert abs(20 * np.log10(amplitude / 0.5)) < 0.1

    def test_stopband_tone_rejected(self):
        t = np.arange(48000) / 48000.0
        tone = AudioBuffer(0.5 * np.sin(2 * np.pi * 20000.0 * t), 48000)
        out = resample_48k_to_16k(tone).samples[0]
        residual = np.mean(out[2000:-2000] ** 2) / (0.5**2 / 2)
        assert 10 * np.log10(residual) < -60.0

    def test_length(self):
        out = resample_48k_to_16k(AudioBuffer(np.zeros((2, 48000)), 48000))
        assert out.num_samples == 16000
