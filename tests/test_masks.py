"""Reliability mask computation, invariants and file formats."""

import struct
from pathlib import Path

import numpy as np
import pytest

from arraysep import gss
from arraysep.config import PipelineConfig
from arraysep.errors import AudioIOError, ConfigError
from arraysep.features import (FEATURE_RECORD, mel_energies, read_features_binary,
                               write_features_binary)
from arraysep.geometry import steering_matrix
from arraysep.masks import (DEFAULT_THRESHOLD, MaskMatrix, align_to_feature_frames,
                            band_reliability, compute_mask, mask_filterbank, masks_from_records,
                            read_mask_binary, write_mask_binary, write_mask_csv)
from arraysep.postfilter import PostFilter
from arraysep.simulate import SceneSource, SceneSpec, box_array_geometry, synthesize
from arraysep.stft import stft_analyze
from helpers import filter_frame


class TestComputeMask:
    def test_unity_gain_reliable(self):
        m = compute_mask(np.array([4.0]), np.array([4.0]), np.array([0.0]))
        assert m[0] == 1.0 and m[0] > DEFAULT_THRESHOLD

    def test_fully_suppressed_unreliable(self):
        m = compute_mask(np.array([4.0]), np.array([0.0]), np.array([0.0]))
        assert m[0] == 0.0 and not m[0] > DEFAULT_THRESHOLD

    def test_noise_only_band_reliable(self):
        # output suppressed but the stationary estimate explains the input
        m = compute_mask(np.array([4.0]), np.array([0.01]), np.array([3.9]))
        assert m[0] > 0.9 and m[0] > DEFAULT_THRESHOLD

    def test_silent_band_convention(self):
        band_in = np.array([1.0, 1e-14])
        m = compute_mask(band_in, np.zeros(2), np.zeros(2))
        assert not m[0] > DEFAULT_THRESHOLD               # active band, fully suppressed
        assert m[1] > DEFAULT_THRESHOLD and m[1] == 1.0  # silent band forced reliable

    def test_frames_along_first_axis_are_independent(self):
        # frame totals span 20 decades; a band is silent only relative to its own frame
        rng = np.random.default_rng(9)
        scale = 10.0 ** rng.uniform(-12, 8, (40, 1))
        band_in = rng.random((40, 24)) * scale * 10.0 ** rng.integers(-14, 1, (40, 24))
        band_out = rng.random((40, 24)) * band_in
        noise = rng.random((40, 24)) * 0.1 * band_in
        m = compute_mask(band_in, band_out, noise)
        for t in range(40):
            np.testing.assert_array_equal(m[t], compute_mask(band_in[t], band_out[t], noise[t]))

    def test_binary_follows_continuous_threshold(self):
        # the static bits the masks take from the continuous values
        rng = np.random.default_rng(0)
        band_in = rng.random(24) + 0.1
        band_out = rng.random(24) * band_in
        noise = rng.random(24) * 0.1
        m = compute_mask(band_in, band_out, noise)
        bits = masks_from_records(m[np.newaxis, np.newaxis], 0, threshold=0.25).static[0]
        np.testing.assert_array_equal(bits, m > 0.25)

    def test_threshold_sensitivity_set_relation(self):
        rng = np.random.default_rng(1)
        band_in = rng.random(200) + 0.05
        band_out = rng.random(200) * band_in
        noise = rng.random(200) * 0.05
        low, high = 0.15, 0.30
        m = compute_mask(band_in, band_out, noise)
        bits_low, bits_high = (masks_from_records(m[:, np.newaxis, np.newaxis], 0, threshold).static
                               for threshold in (low, high))
        differ = (bits_low != bits_high)[:, 0]
        inside = (m > low) & (m <= high)
        np.testing.assert_array_equal(differ, inside)

    def test_monotone_in_output_energy(self):
        rng = np.random.default_rng(2)
        band_in = rng.random(24) + 0.1
        noise = rng.random(24) * 0.02
        out_small = 0.1 * band_in
        out_big = 0.4 * band_in
        bits_small = compute_mask(band_in, out_small, noise) > DEFAULT_THRESHOLD
        bits_big = compute_mask(band_in, out_big, noise) > DEFAULT_THRESHOLD
        # growing the kept energy can only add reliable bands
        assert np.all(bits_big | ~bits_small)


def bands_with_static(bits):
    """One-source band powers whose static mask is ``bits`` (frames, 24): output 1 or 0 of input 1."""
    bits = np.asarray(bits, dtype=float)
    return np.stack([np.ones_like(bits), bits, np.zeros_like(bits)], axis=1)[:, :, np.newaxis]


class TestDeltaMask:
    """A delta bit is reliable when all five frames of its regression window are."""

    def test_all_reliable(self):
        mask = masks_from_records(band_reliability(bands_with_static(np.ones((5, 24)))), 0)
        assert np.all(mask.delta[2])

    def test_any_zero_breaks(self):
        rows = np.ones((5, 24), dtype=bool)
        rows[3, 7] = False
        out = masks_from_records(band_reliability(bands_with_static(rows)), 0).delta[2]
        assert not out[7]
        assert np.all(np.delete(out, 7))

    def test_matches_product_oracle(self):
        rng = np.random.default_rng(3)
        rows = rng.random((9, 24)) > 0.2
        delta = masks_from_records(band_reliability(bands_with_static(rows)), 0).delta
        for t in range(2, 7):
            oracle = rows[t - 2] & rows[t - 1] & rows[t] & rows[t + 1] & rows[t + 2]
            np.testing.assert_array_equal(delta[t], oracle)

    def test_needs_five_rows(self):
        # a stream shorter than the window has no delta context: all bits 0, no error
        for n in (0, 1, 4, 5, 6):
            mask = masks_from_records(band_reliability(bands_with_static(np.ones((n, 24)))), 0)
            expected = np.zeros((n, 24), dtype=bool)
            expected[2 : n - 2] = True
            np.testing.assert_array_equal(mask.delta, expected)


def synthetic_bands(num_frames=12, sources=1, seed=4):
    """(frames, 3, sources, 24) input, output and noise band powers."""
    rng = np.random.default_rng(seed)
    bands = np.zeros((num_frames, 3, sources, 24))
    for t in range(num_frames):
        band_in = rng.random((sources, 24)) + 0.01
        gain = rng.random((sources, 24))
        noise = 0.05 * rng.random((sources, 24))
        bands[t] = band_in, gain * band_in, noise
    return bands


@pytest.fixture(scope="module")
def postfilter_run():
    """Separated frames, post-filtered frames, band powers and per-bin
    internals of a short two-talker scene."""
    spec = SceneSpec(box_array_geometry(),
                     (SceneSource("a", 30.0, onset_s=0.15), SceneSource("b", -30.0)),
                     duration_s=0.6, noise_level_db=-40.0, seed=3)
    render = synthesize(spec)
    state = gss.init_delay_and_sum(
        steering_matrix(spec.geometry, [s.direction for s in spec.sources], 1024))
    postfilter = PostFilter(2, 513, PipelineConfig(dump_diagnostics=True))
    inputs, outputs, bands, internals = [], [], [], []
    for frame in stft_analyze(render.mixture, 1024, 512):
        separated = gss.separate(state, frame)
        gss.adapt(state, frame, separated)
        out, frame_bands, frame_internals = filter_frame(postfilter, separated)
        inputs.append(separated.bins)
        outputs.append(out)
        bands.append(frame_bands)
        internals.append(frame_internals)
    return inputs, outputs, np.array(bands), internals


def per_frame_masks(inputs, outputs, internals, source, threshold):
    """Masks rebuilt frame by frame from per-bin powers, deltas as products of static rows."""
    bank = mask_filterbank()
    continuous = np.ones((len(inputs), 24))
    static = np.ones((len(inputs), 24), dtype=bool)
    for t, (x, y, frame_internals) in enumerate(zip(inputs, outputs, internals)):
        noise_stat = frame_internals[0]
        continuous[t] = compute_mask(
            mel_energies(np.abs(x[source]) ** 2, bank), mel_energies(np.abs(y[source]) ** 2, bank),
            mel_energies(noise_stat[source], bank))
        static[t] = continuous[t] > threshold
    delta = np.zeros_like(static)
    for t in range(2, len(inputs) - 2):
        delta[t] = np.prod(static[t - 2 : t + 3].astype(np.uint8), axis=0).astype(bool)
    return continuous, static, delta


class TestMasksFromPostFilter:
    @pytest.mark.parametrize("frames", [0, 1, 4, 5, 6, None])
    @pytest.mark.parametrize("source", [0, 1])
    def test_matches_per_frame_oracle(self, postfilter_run, frames, source):
        inputs, outputs, bands, internals = (part[:frames] for part in postfilter_run)
        mask = masks_from_records(band_reliability(bands), source, threshold=0.3)
        continuous, static, delta = per_frame_masks(inputs, outputs, internals, source, 0.3)
        assert mask.continuous.shape == (len(bands), 24)
        np.testing.assert_allclose(mask.continuous, continuous, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(mask.static, static)
        np.testing.assert_array_equal(mask.delta, delta)
        if frames is None:
            assert static.any() and not static.all() and delta.any()


class TestMaskMatrix:
    def test_boundary_delta_rows_zero(self):
        mask = masks_from_records(band_reliability(synthetic_bands()), 0)
        assert np.all(~mask.delta[:2])
        assert np.all(~mask.delta[-2:])

    def test_delta_rows_product_of_statics(self):
        mask = masks_from_records(band_reliability(synthetic_bands()), 0)
        for t in range(2, mask.num_frames - 2):
            oracle = np.prod(mask.static[t - 2 : t + 3].astype(np.uint8), axis=0).astype(bool)
            np.testing.assert_array_equal(mask.delta[t], oracle)

    def test_alignment_maps_nearest_center(self):
        mask = masks_from_records(band_reliability(synthetic_bands(num_frames=20)), 0)
        aligned = align_to_feature_frames(mask, 24)
        assert aligned.num_frames == 24
        feature_centers = (np.arange(24) * 160 + 200) / 16000
        mask_centers = (np.arange(20) * 512 + 512) / 48000
        for t in range(24):
            row = np.argmin(np.abs(mask_centers - feature_centers[t]))
            np.testing.assert_array_equal(aligned.static[t], mask.static[row])

    def test_band_count_matches_filterbank(self, postfilter_run):
        mask = masks_from_records(band_reliability(postfilter_run[2]), 0)
        assert mask.continuous.shape[1] == mask_filterbank().shape[0] == 24


def hand_built_mask():
    rng = np.random.default_rng(12)
    continuous = rng.random((4, 24)) * 10.0 ** rng.integers(-10, 10, (4, 24))
    continuous[1, 3] = -0.0
    static = rng.random((4, 24)) > 0.5
    static[2] = True  # every bit, band 23 included
    delta = np.zeros_like(static)
    delta[3, [0, 23]] = True
    return MaskMatrix(continuous, static, delta)


def mask_file_bytes(mask):
    """MASK layout: b"MASK", u32 version 1, u32 count, u16 bands, 2 pad bytes; per
    frame u32 index, f32[bands] continuous, u32 static bits, u32 delta bits."""
    frames, bands = mask.continuous.shape
    out = b"MASK" + struct.pack("<IIH2x", 1, frames, bands)
    for t in range(frames):
        words = [sum(1 << i for i in range(bands) if bits[t, i]) for bits in (mask.static, mask.delta)]
        out += struct.pack(f"<I{bands}fII", t, *mask.continuous[t], *words)
    return out


def mask_csv_text(mask):
    frames, bands = mask.continuous.shape
    names = ([f"m_{i}" for i in range(bands)] + [f"static_{i}" for i in range(bands)]
             + [f"delta_{i}" for i in range(bands)])
    lines = ["frame," + ",".join(names)]
    for t in range(frames):
        values = [f"{v:.9e}" for v in mask.continuous[t]]
        values += [str(int(v)) for v in [*mask.static[t], *mask.delta[t]]]
        lines.append(f"{t}," + ",".join(values))
    return "".join(line + "\n" for line in lines)


def empty_mask():
    return MaskMatrix(np.zeros((0, 24)), np.zeros((0, 24), bool), np.zeros((0, 24), bool))


class TestMaskFiles:
    def test_binary_round_trip(self, tmp_path):
        mask = masks_from_records(band_reliability(synthetic_bands(num_frames=9, seed=5)), 0)
        path = str(tmp_path / "m.bin")
        write_mask_binary(path, mask)
        loaded = read_mask_binary(path)
        assert loaded.num_frames == mask.num_frames
        np.testing.assert_array_equal(loaded.static, mask.static)
        np.testing.assert_array_equal(loaded.delta, mask.delta)
        np.testing.assert_allclose(loaded.continuous, mask.continuous, rtol=1e-6, atol=1e-6)

        for mask in (hand_built_mask(), empty_mask()):
            write_mask_binary(path, mask)
            assert Path(path).read_bytes() == mask_file_bytes(mask)
            loaded = read_mask_binary(path)
            want32 = mask.continuous.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(loaded.continuous, want32)
            np.testing.assert_array_equal(np.signbit(loaded.continuous), np.signbit(want32))
            np.testing.assert_array_equal(loaded.static, mask.static)
            np.testing.assert_array_equal(loaded.delta, mask.delta)

    def test_damaged_binary_files_rejected(self, tmp_path):
        features = np.zeros(1, FEATURE_RECORD)
        features["static"] = 1.0
        formats = [(write_features_binary, read_features_binary, features),
                   (write_mask_binary, read_mask_binary, hand_built_mask())]
        for write, read, content in formats:
            path = tmp_path / "good.bin"
            write(str(path), content)
            good = path.read_bytes()
            bad_version = good[:4] + struct.pack("<I", 2) + good[8:]
            for damaged in (good[:10], good[:-1], good + b"\0", bad_version, b"RIFF" + good[4:]):
                path.write_bytes(damaged)
                with pytest.raises(AudioIOError):
                    read(str(path))

    def test_binary_files_hold_at_most_32_bands(self, tmp_path):
        path = tmp_path / "m.bin"
        full = MaskMatrix(np.ones((2, 32)), np.ones((2, 32), bool), np.ones((2, 32), bool))
        write_mask_binary(str(path), full)
        loaded = read_mask_binary(str(path))
        assert loaded.static.all() and loaded.delta.all() and loaded.static.shape == (2, 32)
        path.unlink()
        wide = MaskMatrix(np.ones((2, 33)), np.ones((2, 33), bool), np.ones((2, 33), bool))
        with pytest.raises(ConfigError, match="33"):
            write_mask_binary(str(path), wide)
        assert not path.exists()

    def test_header_with_more_than_32_bands_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        static = np.zeros((2, 33), bool)
        static[:, :32] = True
        path.write_bytes(mask_file_bytes(MaskMatrix(np.ones((2, 33)), static, static)))
        with pytest.raises(AudioIOError, match="33 bands"):
            read_mask_binary(str(path))

    def test_csv_shape(self, tmp_path):
        mask = masks_from_records(band_reliability(synthetic_bands(num_frames=6, seed=6)), 0)
        path = str(tmp_path / "m.csv")
        write_mask_csv(path, mask)
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 7
        assert len(lines[1].split(",")) == 1 + 3 * 24

        for mask in (hand_built_mask(), empty_mask()):
            write_mask_csv(path, mask)
            assert Path(path).read_bytes() == mask_csv_text(mask).encode()
