"""WAV I/O and the 48 kHz to 16 kHz resampler."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import signal
from scipy.io import wavfile

from arraysep.audio import (_DECIMATION_FILTER, AudioBuffer, open_wav, read_wav,
                            resample_48k_to_16k, write_wav)
from arraysep.errors import AudioIOError, ConfigError
from helpers import write_pcm24


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

    def test_float32_kept_as_given_everything_else_float64(self):
        narrow = np.zeros((2, 100), dtype=np.float32)
        assert AudioBuffer(narrow, 48000).samples is narrow
        for samples in (np.zeros((2, 100), dtype=np.int16), np.zeros((2, 100), dtype=np.float16),
                        [[0, 1, 2]], np.zeros(100, dtype=np.float64)):
            assert AudioBuffer(samples, 48000).samples.dtype == np.float64


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

    @pytest.mark.parametrize("dtype, scale", [(np.int16, 2.0 ** 15), (np.int32, 2.0 ** 31),
                                              (np.float32, 1.0), (np.float64, 1.0)])
    def test_channels_decode_like_the_whole_file(self, tmp_path, dtype, scale):
        data = (np.random.default_rng(3).uniform(-0.9, 0.9, (300, 3)) * scale).astype(dtype)
        path = str(tmp_path / "x.wav")
        wavfile.write(path, 48000, data)
        mapped = open_wav(path)
        assert mapped.shape == (3, 300)
        for c in range(3):
            np.testing.assert_array_equal(mapped[c], data[:, c].astype(np.float64) / scale)
            np.testing.assert_array_equal(mapped[c], read_wav(path).samples[c])

    # the oracle's own table of full scales: the power of two that maps each
    # integer format onto [-1, 1); 24-bit samples arrive as int32 << 8
    FULL_SCALE = {"int16": 2.0 ** 15, "int32": 2.0 ** 31, "pcm24": 2.0 ** 31,
                  "float32": 1.0, "float64": 1.0}

    @pytest.mark.parametrize("kind, decoded", [("int16", np.float32), ("float32", np.float32),
                                               ("int32", np.float64), ("pcm24", np.float64),
                                               ("float64", np.float64)])
    def test_decode_rule(self, tmp_path, kind, decoded):
        # PCM16 and float32 samples are held exactly in float32, the others
        # need float64; either way the float64 upcast is the oracle's division
        path = tmp_path / "x.wav"
        rng = np.random.default_rng(4)
        if kind == "pcm24":
            data = rng.integers(-2 ** 23, 2 ** 23, (40000, 3))
            data[:2] = [[-2 ** 23] * 3, [2 ** 23 - 1] * 3]
            self.write_pcm24(path, data=data)
        elif kind.startswith("int"):
            info = np.iinfo(kind)
            data = rng.integers(info.min, info.max, (40000, 3), endpoint=True, dtype=kind)
            data[:2] = [[info.min] * 3, [info.max] * 3]
            wavfile.write(str(path), 48000, data)
        else:
            data = rng.uniform(-1.0, 1.0, (40000, 3)).astype(kind)
            data[:2] = [[0.0, -0.0, np.finfo(kind).tiny], [1.0, -1.0, np.finfo(kind).eps]]
            wavfile.write(str(path), 48000, data)
        raw = wavfile.read(str(path))[1]  # in memory, unmapped
        samples = read_wav(str(path)).samples
        assert samples.dtype == decoded
        assert samples.flags.c_contiguous and samples.shape == (3, 40000)
        oracle = raw.T.astype(np.float64) / self.FULL_SCALE[kind]
        assert samples.astype(np.float64).tobytes() == oracle.tobytes()
        mapped = open_wav(str(path))
        for c in range(3):
            assert mapped[c].dtype == np.float64
            assert mapped[c].tobytes() == oracle[c].tobytes()

    PCM24 = np.array([[0, 1], [-8388608, 8388607], [123456, -5]])

    def write_pcm24(self, path, extra_chunk=b"", data=PCM24):
        return write_pcm24(path, data, extra_chunk)

    def test_pcm24_read_without_mapping(self, tmp_path):
        # 24-bit samples have no numpy dtype: their bytes are mapped and unpacked to int32
        path = self.write_pcm24(tmp_path / "x.wav")
        np.testing.assert_array_equal(read_wav(path).samples, self.PCM24.T / 2.0 ** 23)

    def test_pcm24_unknown_chunk_only_warns(self, tmp_path):
        path = self.write_pcm24(tmp_path / "x.wav", b"abcd" + struct.pack("<I", 2) + b"\0\0")
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            samples = read_wav(path).samples
        np.testing.assert_array_equal(samples, self.PCM24.T / 2.0 ** 23)

    @pytest.mark.parametrize("extra_chunk, extensible", [
        (b"", False), (b"", True),
        (b"abcd" + struct.pack("<I", 2) + b"\0\0", False),  # unknown, even-sized
        (b"LIST" + struct.pack("<I", 5) + b"INFO\1\0", False),  # odd-sized, pad byte
        (b"JUNK" + struct.pack("<I", 3) + b"xyz\0" + b"fact" + struct.pack("<I", 4) + b"\0" * 4,
         True)], ids=["plain", "extensible", "unknown-chunk", "odd-chunk", "junk-and-fact"])
    def test_pcm24_is_mapped_and_decodes_as_the_in_memory_read(self, tmp_path, extra_chunk,
                                                                extensible):
        data = np.random.default_rng(7).integers(-2 ** 23, 2 ** 23, (5003, 3))
        data[:2] = [[-2 ** 23] * 3, [2 ** 23 - 1] * 3]
        path = write_pcm24(tmp_path / "x.wav", data, extra_chunk, extensible)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wavfile.WavFileWarning)  # the unknown chunk
            oracle = wavfile.read(path)[1].T.astype(np.float64) / 2.0 ** 31  # in memory
            wav = open_wav(path)
            whole = read_wav(path).samples
            blocks = np.concatenate(list(read_wav(path, 1000).blocks()), axis=1)
        assert isinstance(wav.raw, np.memmap) and wav.shape == (3, 5003)
        assert np.array_equal(oracle, data.T / 2.0 ** 23)
        assert whole.dtype == blocks.dtype == np.float64
        assert whole.tobytes() == blocks.tobytes() == oracle.tobytes()
        for c in range(3):
            assert wav[c].tobytes() == oracle[c].tobytes()

    def test_cut_pcm24_data_chunk_rejected(self, tmp_path):
        path = write_pcm24(tmp_path / "x.wav", np.zeros((1000, 8), dtype=np.int64))
        whole = (tmp_path / "x.wav").read_bytes()
        (tmp_path / "x.wav").write_bytes(whole[:-3 * 8 * 10])
        with pytest.raises(AudioIOError, match="prematurely"):
            open_wav(path)

    def test_pcm24_peak_grows_with_duration_no_faster_than_pcm16(self, tmp_path):
        # a whole 8-channel 24-bit read holds 8 x 4 B x 48 kHz = 1.5 MB of
        # int32 per audio second; mapped, neither format holds any
        def peak(kind, seconds):
            data = np.random.default_rng(seconds).integers(-2 ** 15, 2 ** 15, (seconds * 48000, 8))
            path = tmp_path / f"{kind}{seconds}.wav"
            if kind == "pcm24":
                write_pcm24(path, data << 8)
            else:
                wavfile.write(str(path), 48000, data.astype(np.int16))
            del data
            tracemalloc.start()
            try:
                for _ in read_wav(str(path), 4096).blocks():
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = {kind: peak(kind, 4) - peak(kind, 1) for kind in ("pcm16", "pcm24")}
        assert growth["pcm24"] <= growth["pcm16"] + 64 * 1024, growth

    def test_cut_data_chunk_rejected(self, tmp_path):
        # the mapped read refuses a data chunk shorter than its header says;
        # the in-memory read would return only the frames that are there
        path = tmp_path / "x.wav"
        wavfile.write(str(path), 48000, np.zeros((1000, 8), dtype=np.float32))
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 500 * 8 * 4])
        with pytest.raises(AudioIOError, match="prematurely"):
            open_wav(str(path))

    def test_cut_file_is_refused_without_being_read(self, tmp_path):
        # 10 s of 8-channel float32 is 15.4 MB; the chunk walk refuses it
        # from the header sizes, for the mapped and the block form alike
        path = tmp_path / "x.wav"
        wavfile.write(str(path), 48000, np.zeros((480000, 8), dtype=np.float32))
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 100 * 8 * 4])
        del whole
        for read in (open_wav, lambda p: read_wav(p, 4096)):
            tracemalloc.start()
            try:
                with pytest.raises(AudioIOError, match="prematurely"):
                    read(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6, peak

    def test_unsupported_rate_rejected(self, tmp_path):
        path = str(tmp_path / "x.wav")
        wavfile.write(path, 44100, np.zeros(10, dtype=np.float32))
        with pytest.raises(ConfigError):
            open_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioIOError):
            read_wav(str(tmp_path / "nope.wav"))

    @pytest.mark.parametrize("pcm24", [False, True])
    def test_nine_channels_rejected(self, tmp_path, pcm24):
        data = np.zeros((100, 9), dtype=np.float32)
        path = str(tmp_path / "x.wav")
        if pcm24:
            write_pcm24(tmp_path / "x.wav", data.astype(np.int32))
        else:
            wavfile.write(path, 48000, data)
        for read in (open_wav, read_wav):
            with pytest.raises(AudioIOError, match=r"x\.wav: 9 channels exceeds the 8-channel limit"):
                read(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, dtype, bad):
        data = np.zeros((1000, 3), dtype=dtype)
        data[700, 1], data[900, 0] = bad, np.nan
        path = str(tmp_path / "x.wav")
        wavfile.write(path, 48000, data)
        with pytest.raises(AudioIOError, match=rf"x\.wav: non-finite sample {bad} "
                                               r"at sample 700, channel 1"):
            read_wav(path)

    def test_finite_samples_whose_sum_overflows_accepted(self, tmp_path):
        data = np.array([[1.5e308, 1.5e308, -1.5e308, -1.5e308]]).T
        path = str(tmp_path / "x.wav")
        wavfile.write(path, 48000, data)
        np.testing.assert_array_equal(read_wav(path).samples, data.T)

    @pytest.mark.parametrize("kind", ["int16", "pcm24", "float32", "float64"])
    def test_block_form_decodes_as_the_whole_file(self, tmp_path, kind, monkeypatch):
        path = tmp_path / "x.wav"
        rng = np.random.default_rng(6)
        if kind == "pcm24":
            self.write_pcm24(path, data=rng.integers(-2 ** 23, 2 ** 23, (10007, 3)))
        elif kind == "int16":
            wavfile.write(str(path), 48000, rng.integers(-2 ** 15, 2 ** 15, (10007, 3), dtype=kind))
        else:
            wavfile.write(str(path), 48000, rng.uniform(-1.0, 1.0, (10007, 3)).astype(kind))
        whole = read_wav(str(path)).samples
        reads = []
        original = wavfile.read

        def counted(*args, **kwargs):
            reads.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(wavfile, "read", counted)
        for block in (1, 4096, 10006, 10007, 20000):
            reads.clear()
            stream = read_wav(str(path), block)
            assert (stream.rate, stream.num_channels, stream.num_samples) == (48000, 3, 10007)
            blocks = list(stream.blocks())
            assert [b.shape[1] for b in blocks[:-1]] == [block] * (len(blocks) - 1)
            joined = np.concatenate(blocks, axis=1)
            assert joined.dtype == whole.dtype and joined.tobytes() == whole.tobytes()
            # scipy maps the file or refuses to; it never reads it into memory
            assert reads == [{"mmap": True}]

    @pytest.mark.parametrize("last", [False, True])
    def test_block_form_refuses_a_non_finite_sample_in_its_block(self, tmp_path, last):
        data = np.zeros((10007, 3), dtype=np.float32)
        bad = 10006 if last else 4100  # in the last, partial block or in the second
        data[bad, 2] = np.nan
        path = str(tmp_path / "x.wav")
        wavfile.write(path, 48000, data)
        blocks = read_wav(path, 4096).blocks()
        for _ in range(bad // 4096):
            assert np.all(np.isfinite(next(blocks)))
        with pytest.raises(AudioIOError, match=rf"x\.wav: non-finite sample nan "
                                               rf"at sample {bad}, channel 2"):
            next(blocks)


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

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 400, 401, 402, 1000, 48001, 480000])
    @pytest.mark.parametrize("kind", ["noise", "tones", "dc"])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_direct_form_oracle(self, length, kind, channels):
        # oracle: scipy's polyphase direct form with the same taps and alignment
        rng = np.random.default_rng(length + 7 * channels)
        t = np.arange(length) / 48000.0
        if kind == "noise":
            x = rng.standard_normal((channels, length))
        elif kind == "tones":
            freqs = rng.uniform(50.0, 23000.0, (channels, 3, 1))
            x = np.sin(2 * np.pi * freqs * t + rng.uniform(0, 2 * np.pi, (channels, 3, 1))).sum(1)
        else:
            x = np.full((channels, length), -0.7) * np.arange(1, channels + 1)[:, np.newaxis]
        expected = signal.resample_poly(x, 1, 3, axis=-1, window=_DECIMATION_FILTER)
        got = resample_48k_to_16k(AudioBuffer(x, 48000)).samples
        assert got.shape == expected.shape == (channels, -(-length // 3))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(x).max(initial=0))

    @pytest.mark.parametrize("length, extra", [(3696 * 4 + 3896, 1), (48001, 10000),
                                               (100000, 3), (20000, 53000)])
    def test_appended_samples_leave_finished_blocks_unchanged(self, length, extra):
        # block b reads inputs [3696 b - 200, 3696 b + 3896) and writes
        # outputs [1232 b, 1232 (b + 1)); blocks inside the first input are done
        x = np.random.default_rng(length).standard_normal(length + extra)
        whole = resample_48k_to_16k(AudioBuffer(x, 48000)).samples[0]
        prefix = resample_48k_to_16k(AudioBuffer(x[:length], 48000)).samples[0]
        done = 1232 * ((length - 3896) // 3696 + 1)
        assert 0 < done <= prefix.size
        assert np.array_equal(whole[:done], prefix[:done])

    def test_float32_input_decimates_like_its_float64_upcast(self):
        x = np.random.default_rng(6).uniform(-1.0, 1.0, (2, 20000)).astype(np.float32)
        narrow = resample_48k_to_16k(AudioBuffer(x, 48000)).samples
        wide = resample_48k_to_16k(AudioBuffer(x.astype(np.float64), 48000)).samples
        assert narrow.dtype == np.float64
        assert narrow.tobytes() == wide.tobytes()

    def test_memory_beyond_the_output_does_not_grow_with_duration(self):
        def held_beyond_output(seconds):
            audio = AudioBuffer(np.zeros(seconds * 48000), 48000)
            tracemalloc.start()
            try:
                out = resample_48k_to_16k(audio)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.samples.nbytes

        assert held_beyond_output(60) - held_beyond_output(5) < 64 * 1024
