"""Mel filterbank and the log-mel feature pipeline."""

import io
import struct
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sfft

from arraysep import features
from arraysep.audio import AudioBuffer
from arraysep.errors import ConfigError
from arraysep.features import (FEATURE_FFT_SIZE, FEATURE_RECORD, FEATURE_SHIFT,
                               POWER_BLOCK_FRAMES, delta_features,
                               extract_features, mel_energies, mel_filterbank, mel_from_hz,
                               read_features_binary, write_features_binary,
                               write_features_csv, zero_lifter)
from arraysep.formats import _encode_cells, write_csv
from arraysep.stft import BLOCK_FRAMES, stft_analyze


@pytest.fixture(scope="module")
def bank():
    return mel_filterbank()


class TestFilterbank:
    def test_shapes(self, bank):
        assert bank.shape == (24, 201)

    def test_centers_increase_on_mel_scale(self, bank):
        centers_hz = np.array([np.argmax(w) for w in bank]) * 16000 / 400
        centers_mel = mel_from_hz(centers_hz)
        assert np.all(np.diff(centers_mel) > 0)

    def test_weights_nonnegative(self, bank):
        assert np.all(bank >= 0)

    def test_interior_bins_covered(self, bank):
        coverage = bank.sum(axis=0)
        first = np.flatnonzero(bank[0])[0]
        last = np.flatnonzero(bank[-1])[-1]
        assert np.all(coverage[first : last + 1] > 0)

    def test_same_bands_on_separation_grid(self):
        bank48 = mel_filterbank(fft_size=1024, rate=48000)
        assert bank48.shape == (24, 513)
        # no weight above the 8 kHz band edge
        edge_bin = int(np.ceil(8000 / (48000 / 1024)))
        assert np.all(bank48[:, edge_bin + 1 :] == 0)

    def test_band_edge_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            mel_filterbank(rate=8000)


    def test_built_once_per_grid_and_read_only(self):
        first = mel_filterbank(1024, 48000)
        assert mel_filterbank(1024, 48000) is first
        assert not first.flags.writeable


class TestMelEnergies:
    def test_zero_spectrum(self, bank):
        np.testing.assert_array_equal(mel_energies(np.zeros(201), bank), np.zeros(24))

    def test_flat_spectrum_equals_weight_sums(self, bank):
        oracle = np.array([w.sum() for w in bank])
        np.testing.assert_allclose(mel_energies(np.ones(201), bank), oracle, rtol=1e-12)

    def test_single_bin_impulse_hits_covering_filters(self, bank):
        spectrum = np.zeros(201)
        spectrum[60] = 2.0
        energies = mel_energies(spectrum, bank)
        covering = np.flatnonzero(bank[:, 60])
        assert 1 <= len(covering) <= 2
        np.testing.assert_allclose(energies[covering], 2.0 * bank[covering, 60])
        others = np.delete(energies, covering)
        assert np.all(others == 0)

    def test_grid_mismatch_rejected(self, bank):
        with pytest.raises(ConfigError):
            mel_energies(np.ones(513), bank)

    @pytest.mark.parametrize("sources", [1, 2, 3, 4])
    def test_stacked_powers_band_like_single_frames(self, sources):
        # The post-filter bands each frame's (M, K) powers as it computes them,
        # where it once banded a (3, k, M, K) slice of its block buffer, and a
        # block's (k, M, K) output powers in one call: the bits must not depend
        # on how many frames one call takes, nor on where a block is split.
        bank = mel_filterbank(1024, 48000)
        rng = np.random.default_rng(sources)
        shape = (3, BLOCK_FRAMES, sources, 513)  # (kinds, frames, M, K)
        buffer = rng.random(shape) * 10.0 ** rng.integers(-20, 10, shape)
        for k in range(1, BLOCK_FRAMES + 1):
            powers = buffer[:, :k]
            stacked = mel_energies(powers, bank)
            assert stacked.shape == (3, k, sources, 24)
            single = np.array([[mel_energies(powers[i, t], bank) for t in range(k)]
                               for i in range(3)])
            assert single.tobytes() == stacked.tobytes()
            blocks = np.array([mel_energies(powers[i], bank) for i in range(3)])
            assert blocks.tobytes() == stacked.tobytes()
            for split in range(1, k):
                halves = np.concatenate([mel_energies(powers[:, :split], bank),
                                         mel_energies(powers[:, split:], bank)], axis=1)
                assert halves.tobytes() == stacked.tobytes()


def noise_utterance(seed=0, seconds=1.0, scale=0.1):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.standard_normal(int(16000 * seconds)) * scale, 16000)


class TestPipeline:
    def test_requires_16k_mono(self):
        with pytest.raises(ConfigError):
            extract_features(AudioBuffer(np.zeros(48000), 48000))
        with pytest.raises(ConfigError):
            extract_features(AudioBuffer(np.zeros((2, 16000)), 16000))

    def test_float32_input_gives_the_features_of_its_float64_upcast(self):
        x = noise_utterance(2).samples.astype(np.float32)
        narrow = extract_features(AudioBuffer(x, 16000))
        wide = extract_features(AudioBuffer(x.astype(np.float64), 16000))
        assert len(narrow) == len(wide) > 5
        for a, b in zip(narrow, wide):
            assert (a.frame_index, a.has_delta) == (b.frame_index, b.has_delta)
            assert a.static.tobytes() == b.static.tobytes()
            assert a.delta.tobytes() == b.delta.tobytes()

    def test_transform_identity_without_lifter_and_cms(self, bank):
        utterance = noise_utterance(1)
        raw = extract_features(utterance, lifter=False, mean_subtract=False)
        power = np.stack([np.abs(f.bins[0]) ** 2
                          for f in stft_analyze(utterance, 400, 160)])
        energies = mel_energies(power, bank)
        floor = max(energies.max() * 1e-5, 1e-30)
        log_mel = np.log(np.maximum(energies, floor))
        got = np.stack([f.static for f in raw])
        assert np.abs(got - log_mel).max() < 1e-10

    def test_constant_spectrum_gives_zero_statics(self):
        t = np.arange(16000) / 16000
        tone = AudioBuffer(0.3 * np.sin(2 * np.pi * 1000.0 * t), 16000)
        features = extract_features(tone)
        middle = features[len(features) // 2]
        assert np.abs(middle.static).max() < 1e-8

    def test_gain_invariance(self):
        utterance = noise_utterance(2)
        louder = AudioBuffer(utterance.samples * 10 ** (12 / 20), 16000)
        for a, b in zip(extract_features(utterance), extract_features(louder)):
            np.testing.assert_allclose(a.static, b.static, atol=1e-8)

    def test_determinism(self):
        utterance = noise_utterance(3)
        first = extract_features(utterance)
        second = extract_features(utterance)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.static, b.static)
            np.testing.assert_array_equal(a.delta, b.delta)

    def test_short_utterance_flagged(self):
        short = AudioBuffer(np.random.default_rng(4).standard_normal(400 + 3 * 160) * 0.1,
                            16000)
        with pytest.warns(UserWarning):
            features = extract_features(short)
        assert len(features) == 4
        assert not any(f.has_delta for f in features)
        assert all(np.all(f.delta == 0) for f in features)

    def test_delta_context_flags(self):
        features = extract_features(noise_utterance(5))
        flags = [f.has_delta for f in features]
        assert flags[:2] == [False, False] and flags[-2:] == [False, False]
        assert all(flags[2:-2])


    @pytest.mark.parametrize("fft_size, shift", [(FEATURE_FFT_SIZE, FEATURE_SHIFT)])
    def test_matches_per_frame_analysis_bit_for_bit(self, fft_size, shift):
        # reference: each frame's power spectrum from stft_analyze at the
        # features' one framing, one transform per frame, through the rest
        # of the pipeline as before
        utterance = noise_utterance(6)
        frames = list(stft_analyze(utterance, fft_size, shift))
        power = np.stack([np.abs(f.bins[0]) ** 2 for f in frames])
        energies = mel_energies(power, mel_filterbank(fft_size, 16000))
        log_mel = np.log(np.maximum(energies, max(float(energies.max()) * 1e-5, 1e-30)))
        cepstra = zero_lifter(sfft.dct(log_mel, type=2, norm="ortho", axis=1))
        cepstra = cepstra - cepstra.mean(axis=0, keepdims=True)
        static = sfft.idct(cepstra, type=2, norm="ortho", axis=1)
        deltas, valid = delta_features(static)
        got = extract_features(utterance)
        assert [f.frame_index for f in got] == [f.frame_index for f in frames]
        assert np.array_equal(np.stack([f.static for f in got]), static)
        assert np.array_equal(np.stack([f.delta for f in got]), deltas)
        assert [f.has_delta for f in got] == list(valid)

    @pytest.mark.parametrize("frames", [1, 5, POWER_BLOCK_FRAMES - 1, POWER_BLOCK_FRAMES,
                                        POWER_BLOCK_FRAMES + 1, 3 * POWER_BLOCK_FRAMES + 17])
    def test_blocked_power_matches_the_whole_array_formula(self, frames):
        # reference: the windowed frames, their spectra and power spectra
        # of the whole utterance at once, then the rest of the pipeline
        utterance = noise_utterance(frames, seconds=(400 + (frames - 1) * 160 + 77) / 16000)
        window = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(400) / 400))
        whole = np.lib.stride_tricks.sliding_window_view(utterance.samples[0], 400)[::160]
        power = np.abs(np.fft.rfft(whole * window, axis=-1)) ** 2
        energies = power @ mel_filterbank().T
        log_mel = np.log(np.maximum(energies, max(float(energies.max()) * 1e-5, 1e-30)))
        cepstra = zero_lifter(sfft.dct(log_mel, type=2, norm="ortho", axis=1))
        cepstra = cepstra - cepstra.mean(axis=0, keepdims=True)
        static = sfft.idct(cepstra, type=2, norm="ortho", axis=1)
        deltas, valid = delta_features(static)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # fewer than 5 frames
            got = extract_features(utterance)
        assert len(got) == frames == len(whole)
        assert got.static.tobytes() == static.tobytes()
        assert got.delta.tobytes() == deltas.tobytes()
        assert np.array_equal(got.has_delta, valid)

    def test_memory_beyond_the_output_grows_by_at_most_3_kb_per_frame(self):
        # the whole (T, 201) power array is 1.6 KB per frame; a (T, 400)
        # windowed copy and (T, 201) complex spectra besides it were 6 KB
        def held_beyond_output(seconds):
            utterance = noise_utterance(seconds, seconds=seconds)
            tracemalloc.start()
            try:
                features = extract_features(utterance)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - features.nbytes, len(features)

        held_beyond_output(1)  # lazy imports and caches
        (short, short_frames), (long, long_frames) = held_beyond_output(10), held_beyond_output(60)
        assert (long - short) / (long_frames - short_frames) <= 3 * 1024

    def test_power_spectra_are_freed_before_the_cepstra(self, monkeypatch):
        # the (T, 201) power spectra are dead once banded: no view of them,
        # such as the last block they were computed in, outlives the banding
        banded, dct = [], sfft.dct

        def banding(power, weights):
            banded.append(weakref.ref(power))
            return mel_energies(power, weights)

        def transforming(*args, **kwargs):
            assert len(banded) == 1 and banded[0]() is None
            return dct(*args, **kwargs)

        monkeypatch.setattr(features, "mel_energies", banding)
        monkeypatch.setattr(sfft, "dct", transforming)
        assert len(extract_features(noise_utterance(3))) > POWER_BLOCK_FRAMES

    def test_shorter_than_one_frame_gives_no_features(self):
        features = extract_features(AudioBuffer(np.ones(399), 16000))
        assert isinstance(features, np.recarray)
        assert features.dtype == np.dtype((np.record, FEATURE_RECORD))
        assert features.shape == (0,)

    def test_rows_hold_the_field_arrays(self):
        features = extract_features(noise_utterance(12, seconds=0.5))
        assert isinstance(features, np.recarray) and len(features) == 48
        assert features.dtype == np.dtype((np.record, FEATURE_RECORD))
        rows = list(features)
        assert [int(row.frame_index) for row in rows] == list(range(48))
        assert [bool(row.has_delta) for row in rows] == list(features.has_delta)
        np.testing.assert_array_equal(features.frame_index, features["frame_index"])
        for name in ("static", "delta"):
            got = np.stack([getattr(row, name) for row in rows])
            assert got.dtype == np.float64 and got.shape == (48, 24)
            assert got.tobytes() == np.ascontiguousarray(features[name]).tobytes()


class TestLifterAndDeltas:
    def test_lifter_idempotent(self):
        rng = np.random.default_rng(6)
        cepstra = rng.standard_normal((7, 24))
        once = zero_lifter(cepstra)
        np.testing.assert_array_equal(zero_lifter(once), once)
        assert np.all(once[:, 0] == 0)
        assert np.all(once[:, 13:] == 0)

    def test_dct_idct_orthogonal(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((5, 24))
        back = sfft.idct(sfft.dct(values, type=2, norm="ortho", axis=1),
                         type=2, norm="ortho", axis=1)
        assert np.abs(back - values).max() < 1e-10

    def test_time_reversal_antisymmetry(self):
        rng = np.random.default_rng(8)
        static = rng.standard_normal((30, 24))
        forward, valid = delta_features(static)
        backward, _ = delta_features(static[::-1])
        np.testing.assert_allclose(backward[::-1][valid], -forward[valid], atol=1e-12)

    def test_regression_weights(self):
        ramp = np.outer(np.arange(10, dtype=float), np.ones(24))
        deltas, valid = delta_features(ramp)
        np.testing.assert_allclose(deltas[valid], 1.0)


def hand_built_features():
    rng = np.random.default_rng(11)
    static = rng.standard_normal((3, 24)) * 10.0 ** rng.integers(-20, 20, (3, 24))
    static[0, 5] = -0.0
    delta = rng.standard_normal((3, 24))
    delta[2, 0] = 1.0 / 3.0
    delta[0] = 0.0
    features = np.zeros(3, FEATURE_RECORD).view(np.recarray)
    features.frame_index = [0, 7, 2**32 - 1]
    features.has_delta = [False, True, True]
    features.static, features.delta = static, delta
    return features


def no_features():
    """The features of an utterance shorter than one frame."""
    return extract_features(AudioBuffer(np.ones(399), 16000))


def feature_file_bytes(features):
    """MELF layout: b"MELF", u32 version 1, u32 count, u16 24, u16 24; per frame
    u32 index, u8 has_delta, 3 pad bytes, f32[24] static, f32[24] delta."""
    out = b"MELF" + struct.pack("<IIHH", 1, len(features), 24, 24)
    for vec in features:
        out += struct.pack("<IB3x", int(vec.frame_index), int(vec.has_delta))
        out += struct.pack("<48f", *vec.static, *vec.delta)
    return out


def feature_csv_text(features):
    names = [f"static_{i}" for i in range(24)] + [f"delta_{i}" for i in range(24)]
    lines = ["frame,has_delta," + ",".join(names)]
    for vec in features:
        values = ",".join(f"{v:.9e}" for v in [*vec.static, *vec.delta])
        lines.append(f"{vec.frame_index},{int(vec.has_delta)},{values}")
    return "".join(line + "\n" for line in lines)


class TestFeatureFiles:
    def test_binary_round_trip(self, tmp_path):
        features = extract_features(noise_utterance(9, seconds=0.5))
        path = str(tmp_path / "f.bin")
        write_features_binary(path, features)
        loaded = read_features_binary(path)
        assert len(loaded) == len(features)
        for a, b in zip(features, loaded):
            assert a.frame_index == b.frame_index
            assert a.has_delta == b.has_delta
            np.testing.assert_allclose(a.static, b.static, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(a.delta, b.delta, rtol=1e-6, atol=1e-6)

        for features in (hand_built_features(), no_features()):
            write_features_binary(path, features)
            assert Path(path).read_bytes() == feature_file_bytes(features)
            loaded = read_features_binary(path)
            assert loaded.dtype == np.dtype((np.record, FEATURE_RECORD))
            assert len(loaded) == len(features)
            for a, b in zip(features, loaded):
                assert (b.frame_index, b.has_delta) == (a.frame_index, a.has_delta)
                for want, got in ((a.static, b.static), (a.delta, b.delta)):
                    want32 = want.astype(np.float32).astype(np.float64)
                    np.testing.assert_array_equal(got, want32)
                    np.testing.assert_array_equal(np.signbit(got), np.signbit(want32))

    def test_csv_header_and_rows(self, tmp_path):
        features = extract_features(noise_utterance(10, seconds=0.5))
        path = str(tmp_path / "f.csv")
        write_features_csv(path, features)
        lines = Path(path).read_text().splitlines()
        assert lines[0].startswith("frame,has_delta,static_0")
        assert len(lines) == len(features) + 1
        assert len(lines[1].split(",")) == 2 + 48

        for features in (hand_built_features(), no_features()):
            write_features_csv(path, features)
            assert Path(path).read_bytes() == feature_csv_text(features).encode()


def printf_rows(table, fmt):
    line = ",".join(fmt) + "\n"
    return "".join(line % tuple(row) for row in table).encode()


def assert_encodes_like_printf(directory, values, fmt, columns=1):
    table = np.asarray(values, dtype=np.float64).reshape(-1, columns)
    path = directory / "t.csv"
    with np.errstate(all="raise"):
        write_csv(str(path), "h", table, fmt * columns, "test")
    assert path.read_bytes() == b"h\n" + printf_rows(table, fmt * columns)


class TestCsvEncoder:
    """``formats.write_csv`` against Python's ``%`` formatting, the printf oracle."""

    @pytest.mark.parametrize("places", [6, 9])
    def test_random_bit_patterns(self, places, tmp_path):
        rng = np.random.default_rng(places)
        values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        # the vectorized cells, not the per-row fallback, must carry most values
        assert _encode_cells(values[:, np.newaxis], f"%.{places}e")[1].mean() < 0.05
        assert_encodes_like_printf(tmp_path, values, [f"%.{places}e"], columns=2)

    @pytest.mark.parametrize("places", [6, 9])
    def test_ties_and_their_neighbours(self, places, tmp_path):
        rng = np.random.default_rng(100 + places)
        digits = rng.integers(10**places, 10 ** (places + 1), 400)
        ties = np.array([(int(k) + 0.5) * 10.0**j for k in digits for j in (-2, -1, 0, 3, 17)])
        ties = np.concatenate((ties, -ties))
        values = np.concatenate((ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)))
        assert_encodes_like_printf(tmp_path, values, [f"%.{places}e"], columns=3)

    @pytest.mark.parametrize("places", [6, 9])
    def test_next_to_powers_of_ten(self, places, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = [powers]
        for direction in (np.inf, 0.0):
            neighbour = powers
            for _ in range(3):
                neighbour = np.nextafter(neighbour, direction)
                values.append(neighbour)
        assert_encodes_like_printf(tmp_path, np.concatenate(values), [f"%.{places}e"])

    @pytest.mark.parametrize("places", [6, 9])
    def test_special_values_carries_and_wide_exponents(self, places, tmp_path):
        big = np.finfo(float).max
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                   big, -big, 1e-300, 1e300]
        carries = [9.9999995e5, 9.999999999e5, 9.9999999995e9, -9.99999999999e-7, 9.9999999e99,
                   9.9999999999e99, 9.99999999e-101, 9.9999999999e-100, 0.5, 1.0, 10.0, 1e23]
        wide = [1.2345678e100, -1.2345678e-100, 3.5e250, 7.25e-250, 1e100, 1e-100, 1e-99]
        values = np.array(special + carries + wide)
        assert_encodes_like_printf(tmp_path, values, [f"%.{places}e"])
        assert_encodes_like_printf(tmp_path, np.concatenate((values, values * 0.7)),
                                   [f"%.{places}e"], columns=2)

    def test_integers(self, tmp_path):
        values = [0.0, -0.0, 1.0, -1.0, -0.3, 0.3, 2.7, -2.7, 999.0, 1000.0, -1001.0,
                  4294967295.0, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53) - 2, 1e20,
                  -1e300, np.finfo(float).max]
        assert_encodes_like_printf(tmp_path, values, ["%d"])
        assert_encodes_like_printf(tmp_path, values[:18], ["%d"], columns=3)
        assert_encodes_like_printf(tmp_path, np.arange(5000.0) - 2500.0, ["%d"])
        for bad in (np.nan, np.inf):
            with pytest.raises(Exception) as oracle:
                "%d" % bad
            with pytest.raises(oracle.type):
                write_csv(str(tmp_path / "bad.csv"), "h", np.array([[1.0, bad]]), ["%d", "%d"],
                          "test")

    def test_mixed_formats_match_savetxt(self, tmp_path):
        rng = np.random.default_rng(5)
        fmt = ["%d", "%.9e", "%.9e", "%d", "%d", "%.6e", "%.6e", "%.9e"]
        tables = [rng.standard_normal((rows, len(fmt))) * 10.0 ** rng.integers(-40, 40, (rows, 8))
                  for rows in (3000, 0, 1, 17)]
        tables[0][::97, 2] = np.inf
        tables[0][::89, 5] = -0.0
        path = tmp_path / "mixed.csv"
        write_csv(str(path), "a,b", np.concatenate(tables), fmt, "test")
        expected = io.BytesIO()
        np.savetxt(expected, np.concatenate(tables), fmt=fmt, delimiter=",", header="a,b",
                   comments="")
        assert path.read_bytes() == expected.getvalue()

    def test_scratch_memory_is_bounded(self, tmp_path):
        rng = np.random.default_rng(6)
        table = rng.standard_normal((20_000, 50))
        table[:, 0] = np.arange(20_000)
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_csv(str(path), "h", table, ["%d"] + ["%.9e"] * 49, "test")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        with open(path, "rb") as fh:
            assert sum(1 for _ in fh) == 20_001

    def test_other_formats_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "t.csv"), "h", np.zeros((2, 2)), ["%d", "%.4f"], "test")
