"""Analysis/synthesis behavior of the shared STFT."""

import itertools
import tracemalloc

import numpy as np
import pytest

from arraysep.audio import AudioBuffer, open_wav, read_wav, write_wav
from arraysep.errors import ConfigError, StreamError
from arraysep.simulate import synthesize, three_speaker_scene
from arraysep.stft import (analysis_frames, frame_count, sqrt_hann_window,
                           stft_analyze, stft_synthesize)

from helpers import separate_scene


SYNTHESIS_SHAPES = [(1024, 512), (1024, 300), (1024, 256), (400, 160), (16, 5)]


def overlap_add_oracle(bins, shift):
    """Overlap-add of (T, channels, bins) half spectra, divided by the window
    sum accumulated over the whole output, frame by frame."""
    fft_size = 2 * (bins.shape[-1] - 1)
    window = sqrt_hann_window(fft_size)
    num_samples = (len(bins) - 1) * shift + fft_size
    expected = np.zeros((bins.shape[1], num_samples))
    norm = np.zeros(num_samples)
    for t, frame in enumerate(bins):
        expected[:, t * shift : t * shift + fft_size] += (
            np.fft.irfft(frame, n=fft_size, axis=1) * window)
        norm[t * shift : t * shift + fft_size] += window * window
    # samples within fft_size - shift of an end are divided by no less than
    # the smallest window sum of the fully overlapped interior, or of one
    # period of the window sum when no sample is fully overlapped
    edge = fft_size - shift
    interior = norm[edge : num_samples - edge]
    if interior.size:
        floor = interior.min()
    else:
        floor = min(sum(window[r::shift] * window[r::shift]) for r in range(shift))
    norm = np.maximum(norm, floor)
    positive = norm > 1e-10
    expected[:, positive] /= norm[positive]
    return expected


def blocks_of(frames):
    """Each analysis frame's bins as a block of one."""
    return (frame.bins[np.newaxis] for frame in frames)


def _noise(channels, samples, rate, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.standard_normal((channels, samples)) * scale, rate)


class Chunked:
    """``samples`` (channels, n) handed out in blocks of ``sizes``, cycled,
    the way ``WavFile.blocks`` hands out a file's; ``read`` counts the
    samples handed out so far."""

    def __init__(self, samples, rate, sizes):
        self.samples, self.rate, self.sizes, self.read = samples, rate, sizes, 0
        self.num_channels, self.num_samples = samples.shape

    def blocks(self):
        for size in itertools.cycle(self.sizes):
            if self.read == self.num_samples:
                return
            start, self.read = self.read, min(self.read + size, self.num_samples)
            yield self.samples[:, start : self.read]


class TestAnalyze:
    @pytest.mark.parametrize("fft_size,shift", SYNTHESIS_SHAPES)
    def test_chunked_input_gives_the_whole_buffer_frames(self, fft_size, shift):
        # oracle: each frame of the whole buffer tapered and transformed on
        # its own; lengths short of one frame, of exactly one, and of a
        # frame count that is not a multiple of the analysis block.  No
        # frame waits for later frames' samples: frame t comes before the
        # block after the one holding sample fft_size + t * shift - 1 is read
        rng = np.random.default_rng(fft_size + shift)
        window = sqrt_hann_window(fft_size)
        for length in (fft_size - 1, fft_size, 19 * shift + fft_size + 7):
            x = _noise(3, length, 48000, seed=length)
            frames = analysis_frames(x.samples, fft_size, shift)
            oracle = [np.fft.rfft(frames[:, t] * window, axis=-1) for t in range(frames.shape[1])]
            for sizes in ([1], [shift - 1], [shift], [4096], list(rng.integers(1, 3 * fft_size, 16)),
                          [length]):
                chunked, got = Chunked(x.samples, 48000, sizes), []
                ends = np.minimum(np.cumsum(np.resize(sizes, length)), length)  # of each block
                for frame in stft_analyze(chunked, fft_size, shift):
                    last = fft_size + len(got) * shift  # the samples up to the frame's end
                    assert chunked.read == ends[np.searchsorted(ends, last)], (sizes, len(got))
                    got.append(frame)
                assert [f.frame_index for f in got] == list(range(len(oracle))), sizes
                for frame, bins in zip(got, oracle):
                    assert frame.bins.tobytes() == bins.tobytes(), (sizes, frame.frame_index)

    def test_wav_file_without_a_block_size_is_analyzed_as_one_block(self, tmp_path):
        # open_wav's WavFile has no block size; its blocks() is the whole file
        path = str(tmp_path / "x.wav")
        write_wav(path, _noise(3, 5 * 512 + 1024 + 100, 48000, seed=5))
        decoded = read_wav(path)
        blocks = list(open_wav(path).blocks())
        assert len(blocks) == 1 and blocks[0].tobytes() == decoded.samples.tobytes()
        got = list(stft_analyze(open_wav(path), 1024, 512))
        expected = list(stft_analyze(decoded, 1024, 512))
        assert [f.frame_index for f in got] == list(range(6))
        assert [f.bins.tobytes() for f in got] == [f.bins.tobytes() for f in expected]

    def test_bin_centered_sine_concentrates(self):
        # the sqrt-Hann taper is sin(pi n / N), whose DFT falls off as
        # 1 / (1 - 4 d^2) at d bins from the center
        k0 = 37
        n = np.arange(1024)
        x = AudioBuffer(np.sin(2 * np.pi * k0 * n / 1024), 48000)
        frame = next(stft_analyze(x, 1024, 512))
        mags = np.abs(frame.bins[0])
        assert np.argmax(mags) == k0
        d = np.arange(513) - k0
        np.testing.assert_allclose(mags / mags[k0], np.abs(1.0 / (1.0 - 4.0 * d ** 2)), atol=1e-3)

    def test_zero_input_zero_frames(self):
        x = AudioBuffer(np.zeros((2, 4096)), 48000)
        for frame in stft_analyze(x, 1024, 512):
            assert np.all(frame.bins == 0)

    def test_frame_count_matches_indexing_oracle(self):
        rng = np.random.default_rng(3)
        for total in [1024, 1536, 5000, 48000, 1023]:
            x = AudioBuffer(rng.standard_normal(total) * 0.1, 48000)
            frames = list(stft_analyze(x, 1024, 512))
            # oracle: count positions t*512 with a full 1024-sample window
            count = sum(1 for t in range(total) if t * 512 + 1024 <= total)
            assert len(frames) == count == frame_count(total, 1024, 512)

    @pytest.mark.parametrize("fft_size, shift, rate", [(1024, 512, 48000), (400, 160, 16000)])
    def test_float32_input_analyzes_like_its_float64_upcast(self, fft_size, shift, rate):
        # the window is float64, so a float32 frame is widened before any arithmetic
        x = np.random.default_rng(8).uniform(-1.0, 1.0, (8, 9000)).astype(np.float32)
        narrow = list(stft_analyze(AudioBuffer(x, rate), fft_size, shift))
        wide = list(stft_analyze(AudioBuffer(x.astype(np.float64), rate), fft_size, shift))
        assert len(narrow) == len(wide) == frame_count(9000, fft_size, shift)
        for a, b in zip(narrow, wide):
            assert a.bins.tobytes() == b.bins.tobytes()

    def test_odd_fft_size_rejected(self):
        x = _noise(1, 4096, 48000)
        with pytest.raises(ConfigError):
            list(stft_analyze(x, 1023, 512))

    def test_bad_shift_rejected(self):
        x = _noise(1, 4096, 48000)
        with pytest.raises(ConfigError):
            list(stft_analyze(x, 1024, 2048))

    def test_frame_covers_expected_samples(self):
        x = _noise(1, 4096, 48000, seed=1)
        window = sqrt_hann_window(1024)
        frames = list(stft_analyze(x, 1024, 512))
        for t, frame in enumerate(frames):
            segment = x.samples[0, t * 512 : t * 512 + 1024] * window
            np.testing.assert_array_equal(frame.bins[0], np.fft.rfft(segment))

    def test_linearity(self):
        xa = _noise(1, 4096, 48000, seed=5)
        xb = _noise(1, 4096, 48000, seed=6)
        mix = AudioBuffer(2.5 * xa.samples - 1.25 * xb.samples, 48000)
        for fa, fb, fm in zip(stft_analyze(xa, 1024, 512), stft_analyze(xb, 1024, 512),
                              stft_analyze(mix, 1024, 512)):
            np.testing.assert_allclose(fm.bins, 2.5 * fa.bins - 1.25 * fb.bins, atol=1e-10)

    def test_parseval_per_frame(self):
        x = _noise(1, 4096, 48000, seed=7)
        window = sqrt_hann_window(1024)
        for t, frame in enumerate(stft_analyze(x, 1024, 512)):
            segment = x.samples[0, t * 512 : t * 512 + 1024] * window
            time_energy = np.sum(segment**2)
            mags = np.abs(frame.bins[0]) ** 2
            spectral_energy = (mags[0] + 2 * mags[1:-1].sum() + mags[-1]) / 1024
            assert abs(time_energy - spectral_energy) <= 1e-6 * time_energy


class TestSynthesize:
    @pytest.mark.parametrize("fft_size,shift,rate", [(1024, 512, 48000), (400, 160, 16000)])
    def test_round_trip_noise(self, fft_size, shift, rate):
        x = _noise(2, 4 * rate // 10, rate, seed=11)
        y = stft_synthesize(blocks_of(stft_analyze(x, fft_size, shift)), shift,
                            frame_count(x.num_samples, fft_size, shift))
        n = min(x.num_samples, y.shape[1])
        lo, hi = fft_size, n - fft_size
        err = x.samples[:, lo:hi] - y[:, lo:hi]
        ratio = np.sum(err**2) / np.sum(x.samples[:, lo:hi] ** 2)
        assert 10 * np.log10(ratio) <= -60.0

    def test_zero_spectra_silence(self):
        out = stft_synthesize([np.zeros((4, 1, 513))], 512, 4)
        assert np.all(out == 0)

    def test_single_frame_impulse(self):
        # one frame has no fully overlapped sample, so every sample is divided
        # by the floor, the minimum of the periodic window sum (1 at half
        # overlap): the impulse comes back weighted by the squared window
        x = np.zeros(1024)
        x[500] = 1.0
        x[10] = 1.0  # near the frame edge, where dividing by w^2 would amplify
        frame = next(stft_analyze(AudioBuffer(x, 48000), 1024, 512))
        out = stft_synthesize([frame.bins[np.newaxis]], 512, 1)
        window = sqrt_hann_window(1024)
        # direct oracle: irfft of the frame is the windowed impulse
        np.testing.assert_allclose(np.fft.irfft(frame.bins[0]), window * x, atol=1e-12)
        floor = min(window[r] ** 2 + window[r + 512] ** 2 for r in range(512))
        assert floor == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out[0], window ** 2 * x / floor, atol=1e-9)
        assert out[0, 10] < 1e-3

    def test_mismatched_fft_size_rejected(self):
        for second in (np.zeros((1, 1, 201)), np.zeros((1, 2, 513))):
            with pytest.raises(StreamError, match="block of"):
                stft_synthesize([np.zeros((1, 1, 513)), second], 512, 2)

    def test_empty_stream_rejected(self):
        with pytest.raises(StreamError, match="empty"):
            stft_synthesize([], 512, 3)
        with pytest.raises(StreamError, match="empty"):
            stft_synthesize(iter(()), 512, 0)

    @pytest.mark.parametrize("fft_size,shift,rate", [(1024, 512, 48000), (400, 160, 16000),
                                                     (1024, 300, 48000), (1024, 256, 48000),
                                                     (16, 5, 48000)])
    def test_streaming_matches_list_overlap_add(self, fft_size, shift, rate):
        x = _noise(3, rate // 3 + 77, rate, seed=5)
        expected = overlap_add_oracle(
            np.stack([frame.bins for frame in stft_analyze(x, fft_size, shift)]), shift)
        stream = blocks_of(stft_analyze(x, fft_size, shift))  # a one-shot generator
        out = stft_synthesize(stream, shift, frame_count(x.num_samples, fft_size, shift))
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("fft_size,shift", SYNTHESIS_SHAPES)
    def test_short_runs_match_full_length_divisor(self, fft_size, shift):
        # runs shorter than, as long as and just longer than the divisor's
        # stand-in run, including ones without a fully overlapped sample, in
        # blocks of one, of three and of all the frames: a frame's inverse
        # does not depend on the block it came in
        rng = np.random.default_rng(fft_size + shift)
        for count in range(1, 8):
            bins = (rng.standard_normal((count, 2, fft_size // 2 + 1))
                    + 1j * rng.standard_normal((count, 2, fft_size // 2 + 1)))
            expected = overlap_add_oracle(bins, shift)
            for size in (1, 3, count):
                blocks = (bins[t : t + size] for t in range(0, count, size))
                out = stft_synthesize(blocks, shift, count)
                assert np.array_equal(out, expected), (count, size)

    def test_memory_beyond_the_output_does_not_grow_with_duration(self):
        block = np.zeros((1, 1, 513), dtype=np.complex128)

        def held_beyond_output(seconds):
            count = frame_count(seconds * 48000, 1024, 512)
            tracemalloc.start()
            try:
                out = stft_synthesize((block for _ in range(count)), 512, count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.nbytes

        # a per-sample divisor alone would add 19 MB between the two
        assert held_beyond_output(60) - held_beyond_output(10) < 256 * 1024

    @pytest.mark.parametrize("declared", [3, 5, 1])
    def test_stream_length_must_match_declared_count(self, declared):
        blocks = (np.ones((1, 1, 513)) for _ in range(4))
        match = "runs past" if declared < 4 else "ended after 4 of"
        with pytest.raises(StreamError, match=match):
            stft_synthesize(blocks, 512, declared)


def test_pipeline_edges_fade_instead_of_amplifying():
    # partial window sums at the ends fall to 1e-5; dividing by them once
    # took the last sample of the left talker to 1.824 against an interior
    # peak of 0.209
    spec = three_speaker_scene(40.0, duration_s=1.0, seed=7)
    audio, _ = separate_scene(synthesize(spec), spec, adapt=True, postfilter=True)
    edge = 1024 - 512
    for x in audio.samples:
        interior_peak = np.abs(x[edge:-edge]).max()
        assert np.abs(x[:edge]).max() <= interior_peak
        assert np.abs(x[-edge:]).max() <= interior_peak


def test_window_cola_at_half_overlap():
    window = sqrt_hann_window(1024) ** 2
    total = np.zeros(2048)
    for t in range(3):
        total[t * 512 : t * 512 + 1024] += window
    np.testing.assert_allclose(total[1024:1536], 1.0, atol=1e-12)
