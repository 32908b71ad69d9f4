"""Noise tracking, MMSE gains, speech presence and the per-source suppressor."""

import math
import re

import numpy as np
import pytest
from scipy import integrate, ndimage, special

from arraysep.config import PipelineConfig
from arraysep.features import mel_energies
from arraysep.masks import mask_filterbank
from arraysep.postfilter import (GAIN_FLOOR, GAIN_MAX, Q_CEILING, Q_FLOOR, Q_HIGH_DB,
                                 Q_LOW_DB, SPECTRUM_SMOOTHING, McraEstimator, NoiseState,
                                 PostFilter, _gain_core, _window_mean, decision_directed_snr,
                                 speech_absence_prior, speech_presence_prob)
from arraysep.errors import StreamError
from arraysep.stft import BLOCK_FRAMES, SpectralFrame
from helpers import filter_frame


class TestSmoothedSpectrum:
    def test_constant_input_converges_geometrically(self):
        noise = NoiseState(1, 4, leak_factor=0.25)
        for _ in range(100):
            noise.update(np.full((1, 4), 3.0))
        np.testing.assert_allclose(noise.smoothed[0], 3.0, rtol=1e-10)

    def test_impulse_decay(self):
        a = SPECTRUM_SMOOTHING
        noise = NoiseState(1, 1, leak_factor=0.25)
        noise.update(np.ones((1, 1)))
        assert noise.smoothed[0, 0] == pytest.approx(1.0 - a)
        for expected in [(1.0 - a) * a, (1.0 - a) * a * a]:
            noise.update(np.zeros((1, 1)))
            assert noise.smoothed[0, 0] == pytest.approx(expected)

    def test_matches_reference_recursion_bitwise(self):
        rng = np.random.default_rng(0)
        noise = NoiseState(1, 8, leak_factor=0.25)
        a = SPECTRUM_SMOOTHING
        reference = np.zeros(8)
        for _ in range(50):
            power = rng.random(8)
            noise.update(power[np.newaxis])
            reference = a * reference + (1.0 - a) * power
            np.testing.assert_array_equal(noise.smoothed[0], reference)


class TestLeakage:
    def test_single_source_no_leakage(self):
        noise = NoiseState(1, 4, leak_factor=0.25)
        noise.update(np.ones((1, 4)))
        assert np.all(noise.leakage == 0.0)
        np.testing.assert_array_equal(noise.total, noise.stationary)

    def test_zero_factor_no_leakage(self):
        noise = NoiseState(3, 4, leak_factor=0.0)
        noise.update(np.random.default_rng(1).random((3, 4)))
        assert np.all(noise.leakage == 0.0)

    def test_direct_sum_example(self):
        # from zero, the first frame's smoothed spectra are (1 - a) times its powers
        noise = NoiseState(3, 1, leak_factor=0.25)
        noise.update(np.array([[2.0], [4.0], [6.0]]))
        scale = 0.25 * (1.0 - SPECTRUM_SMOOTHING)
        assert noise.leakage[0, 0] == pytest.approx(scale * 10.0)
        assert noise.leakage[1, 0] == pytest.approx(scale * 8.0)
        assert noise.leakage[2, 0] == pytest.approx(scale * 6.0)

    def test_decomposition_exact(self):
        rng = np.random.default_rng(2)
        noise = NoiseState(3, 16, leak_factor=0.25)
        for _ in range(20):
            noise.update(rng.random((3, 16)))
            np.testing.assert_array_equal(noise.total, noise.stationary + noise.leakage)


def wide_range_rows(rng, rows, bins):
    """Values spanning 1e-12..1e8, each row with a quiet run beside loud bins.

    The quiet run is wider than the broadest window, so some windows hold
    only quiet bins while the running sum of the row is already large.
    """
    values = 10.0 ** rng.uniform(-12.0, 8.0, (rows, bins))
    for m in range(rows):
        start = int(rng.integers(10, bins - 50))
        values[m, start - 10 : start] = 10.0 ** rng.uniform(7.0, 8.0, 10)
        values[m, start : start + 40] = 10.0 ** rng.uniform(-12.0, -10.0, 40)
    return values


class TestCrossSource:
    """Whole-array passes against per-row oracles."""

    @pytest.mark.parametrize("halfwidth", [1, 15])
    def test_window_mean_matches_per_row_convolution(self, halfwidth):
        values = wide_range_rows(np.random.default_rng(20), 4, 257)
        kernel = np.ones(2 * halfwidth + 1)
        got = _window_mean(values, halfwidth, out=np.empty_like(values))
        den = np.convolve(np.ones(values.shape[1]), kernel, mode="same")
        for m in range(values.shape[0]):
            expected = np.convolve(values[m], kernel, mode="same") / den
            np.testing.assert_allclose(got[m], expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("halfwidth", [1, 15])
    def test_window_mean_sums_as_correlate1d(self, halfwidth):
        values = wide_range_rows(np.random.default_rng(23), 3, 513)
        values[:, 200:210] = 0.0
        num = ndimage.correlate1d(values, np.ones(2 * halfwidth + 1), axis=-1, mode="constant")
        k = np.arange(values.shape[1])
        den = np.minimum(k, halfwidth) + np.minimum(k[::-1], halfwidth) + 1.0
        got = _window_mean(values, halfwidth, out=np.empty_like(values))
        assert np.array_equal(got, num / den)

    def test_absence_prior_matches_per_row_oracle(self):
        snr_prior = wide_range_rows(np.random.default_rng(21), 3, 513)
        snr_prior[:, 100:140] = 0.0  # zero prior SNR: the dB ramp's -inf end
        got = speech_absence_prior(snr_prior)

        def ramp(v):
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(v)
            return np.clip((db - Q_LOW_DB) / (Q_HIGH_DB - Q_LOW_DB), 0.0, 1.0)

        for m in range(snr_prior.shape[0]):
            row = snr_prior[m]
            means = []
            for h in (1, 15):
                kernel = np.ones(2 * h + 1)
                means.append(np.convolve(row, kernel, mode="same")
                             / np.convolve(np.ones_like(row), kernel, mode="same"))
            evidence = ramp(means[0]) * ramp(means[1]) * ramp(np.mean(row))
            expected = np.clip(1.0 - evidence, Q_FLOOR, Q_CEILING)
            np.testing.assert_allclose(got[m], expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("num_sources", [2, 3, 5])
    def test_leakage_is_direct_sum_of_other_rows(self, num_sources):
        rng = np.random.default_rng(22)
        noise = NoiseState(num_sources, 64, leak_factor=0.3)
        a = SPECTRUM_SMOOTHING
        smoothed = np.zeros((num_sources, 64))
        for _ in range(6):
            power = wide_range_rows(rng, num_sources, 64)
            power[0] = 1e8  # one source far louder than every other
            noise.update(power)
            smoothed = a * smoothed + (1.0 - a) * power
            for m in range(num_sources):
                others = sum(smoothed[j] for j in range(num_sources) if j != m)
                np.testing.assert_allclose(noise.leakage[m], 0.3 * others, rtol=1e-12, atol=0)


class TestMcra:
    def test_zero_input_zero_floor(self):
        mcra = McraEstimator(8)
        for _ in range(400):
            mcra.update(np.zeros(8))
        assert np.all(mcra.noise == 0.0)

    def test_converges_on_white_noise(self):
        rng = np.random.default_rng(3)
        mcra = McraEstimator(64)
        level = 2.0
        for _ in range(320):  # two tracking windows
            spectrum = level * rng.exponential(1.0, 64)
            mcra.update(spectrum)
        mean_estimate = mcra.noise.mean()
        assert level / 2 <= mean_estimate <= level * 2

    def test_rejects_tone_bursts(self):
        rng = np.random.default_rng(4)
        quiet = McraEstimator(32)
        noisy = McraEstimator(32)
        level = 1.0
        for t in range(600):
            noise_frame = level * rng.exponential(1.0, 32)
            quiet.update(noise_frame)
            burst = noise_frame.copy()
            if (t // 40) % 3 == 0:  # strong tone bursts, 1/3 duty cycle
                burst[8] += 300.0
            noisy.update(burst)
        ratio = noisy.noise.mean() / quiet.noise.mean()
        assert abs(10 * np.log10(ratio)) < 3.0


def kummer_series_oracle(a, c, x, terms=400):
    # direct alternating series evaluation, independent of the package path
    total, term = 1.0, 1.0
    for n in range(terms):
        term *= (a + n) * x / ((c + n) * (n + 1.0))
        total += term
    return total


def gain_h1(xi, gamma, exponent=1.0):
    """Unclamped speech-present gain at prior SNR ``xi`` and posterior SNR ``gamma``."""
    xi = np.asarray(xi, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    gain, faults = _gain_core(gamma * xi / (1.0 + xi), gamma, exponent)
    assert faults == 0
    return gain


class TestGain:
    def test_zero_upsilon_zero_gain(self):
        assert gain_h1([0.0], [2.0])[0] == 0.0

    def test_alpha_two_closed_form(self):
        # the series truncates: bracket becomes 1 + upsilon
        xi, gamma = 1.5, 2.5
        upsilon = gamma * xi / (1 + xi)
        expected = math.sqrt(upsilon) / gamma * math.sqrt(1.0 + upsilon)
        got = gain_h1([xi], [gamma], exponent=2.0)[0]
        assert got == pytest.approx(expected, rel=1e-12)
        series = kummer_series_oracle(-1.0, 1.0, -upsilon)
        assert series == pytest.approx(1.0 + upsilon, rel=1e-12)

    def test_alpha_one_matches_series_oracle(self):
        # upsilon = 1 instance, plus a sweep cross-checking the Bessel form
        xi, gamma = 1.0, 2.0
        upsilon = 1.0
        oracle = (math.sqrt(upsilon) / gamma
                  * special.gamma(1.5) * kummer_series_oracle(-0.5, 1.0, -upsilon))
        got = gain_h1([xi], [gamma], exponent=1.0)[0]
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_bessel_form_matches_kummer_series_over_range(self):
        for upsilon in np.geomspace(1e-6, 30.0, 120):
            gamma = 2.0
            xi = upsilon / (gamma - upsilon) if gamma > upsilon else 50.0
            if xi < 0:
                continue
            u = gamma * xi / (1 + xi)
            impl = gain_h1([xi], [gamma], 1.0)[0]
            series = (math.sqrt(u) / gamma
                      * special.gamma(1.5) * special.hyp1f1(-0.5, 1.0, -u))
            assert impl == pytest.approx(series, rel=1e-8)

    @pytest.mark.parametrize("exponent", [0.5, 1.5])
    def test_general_exponent_at_large_upsilon(self, exponent):
        # the range where a truncated power series for M collapses the gain to 0
        xi = 1e3
        upsilon = np.linspace(100.0, 600.0, 51)
        gamma = upsilon * (1.0 + xi) / xi
        got = gain_h1(np.full_like(gamma, xi), gamma, exponent)
        bracket = (special.gamma(1.0 + exponent / 2.0)
                   * special.hyp1f1(-exponent / 2.0, 1.0, -upsilon))
        np.testing.assert_allclose(got, np.sqrt(upsilon) / gamma * bracket ** (1.0 / exponent),
                                   rtol=1e-9)
        # M(-b/2; 1; -u) ~ u^(b/2) / Gamma(1 + b/2), so the gain tends to upsilon / gamma
        np.testing.assert_allclose(got, upsilon / gamma, rtol=1e-2)

    @pytest.mark.parametrize("exponent", [0.5, 1.5])
    def test_general_exponent_beyond_hyp1f1_range(self, exponent):
        # hyp1f1 overflows here; the gain must take its large-upsilon limit
        upsilon = np.repeat([1e200, 1e250, 1e300], 2)
        xi = np.tile([1.0, 1e3], 3)
        gamma = upsilon * (1.0 + xi) / xi
        gain, faults = _gain_core(upsilon, gamma, exponent)
        assert faults == 0
        np.testing.assert_allclose(gain, upsilon / gamma, rtol=1e-12)

    def test_faults_counted_and_replaced_by_floor(self):
        # zero posterior SNR under a positive upsilon divides by zero
        with np.errstate(divide="ignore"):
            gain, faults = _gain_core(np.array([1.0, 1.0, 0.0]), np.array([0.0, 2.0, 0.0]), 1.0)
        assert faults == 1
        assert gain[0] == GAIN_FLOOR
        assert np.isfinite(gain).all() and gain[2] == 0.0

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 1.5, 0.5])
    def test_matches_gather_scatter_reference(self, exponent):
        # reference: evaluate only the bins with upsilon > 0, scatter into zeros
        rng = np.random.default_rng(24)
        upsilon = 10.0 ** rng.uniform(-8.0, 3.0, (3, 257))
        gamma = 10.0 ** rng.uniform(-3.0, 3.0, (3, 257))
        upsilon[:, ::7] = 0.0
        gamma[:, ::11] = 0.0  # 0/0 where upsilon is 0 too, a fault where it is not
        expected = np.zeros_like(upsilon)
        active = upsilon > 0
        u, g = upsilon[active], gamma[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            if exponent == 1.0:
                bessel = (1.0 + u) * special.i0e(u / 2.0) + u * special.i1e(u / 2.0)
                expected[active] = (math.sqrt(math.pi) / 2.0) * np.sqrt(u) / g * bessel
            elif exponent == 2.0:
                expected[active] = np.sqrt(u) / g * np.sqrt(1.0 + u)
            else:
                bracket = (special.gamma(1.0 + exponent / 2.0)
                           * special.hyp1f1(-exponent / 2.0, 1.0, -u))
                root = np.where(np.isfinite(bracket), bracket ** (1.0 / exponent), np.sqrt(u))
                expected[active] = np.sqrt(u) / g * root
        bad = ~np.isfinite(expected)
        expected[bad] = GAIN_FLOOR

        gain, faults = _gain_core(upsilon, gamma, exponent)
        assert faults == np.count_nonzero(bad) > 0
        assert np.array_equal(gain, expected)

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 1.5])
    def test_the_gain_owns_its_memory(self, exponent):
        # the post-filter keeps each frame's gain as prev_gain: a view would
        # keep the scratch arrays it was allocated with alive beside it
        upsilon = np.linspace(0.0, 40.0, 2 * 513).reshape(2, 513)
        gain, _ = _gain_core(upsilon, upsilon + 1.0, exponent)
        assert gain.base is None and gain.nbytes == upsilon.nbytes
        pf = PostFilter(2, 513, PipelineConfig(spectral_exponent=exponent))
        pf.process(SpectralFrame(upsilon + 1j, 0))
        assert pf.gains.prev_gain.base is None

    def test_monotone_in_prior_snr(self):
        gamma = np.full(200, 3.0)
        xi = np.linspace(0.01, 30.0, 200)
        gains = gain_h1(xi, gamma, 1.0)
        assert np.all(np.diff(gains) > 0)

    def test_clamped_to_gain_max(self):
        # a loud frame over a settled floor, then a near-silent one: a high
        # prior SNR over a low posterior SNR sends the unclamped gain past GAIN_MAX
        rng = np.random.default_rng(9)
        pf = PostFilter(1, 33, PipelineConfig(dump_diagnostics=True))
        for t, level in enumerate([1.0] * 20 + [1e3, 1e-3]):
            bins = level * (rng.standard_normal(33) + 1j * rng.standard_normal(33))
            internals = filter_frame(pf, SpectralFrame(bins, t))[2]
        snr_post, xi = pf.gains.prev_snr_post, internals[2]
        unclamped, _ = _gain_core(snr_post * xi / (1.0 + xi), snr_post, 1.0)
        assert unclamped.max() > 2.0 * GAIN_MAX
        np.testing.assert_array_equal(pf.gains.prev_gain, np.clip(unclamped, 0.0, GAIN_MAX))
        assert np.all(pf.gains.prev_gain <= GAIN_MAX)

    def test_large_upsilon_stable(self):
        for exponent in (1.0, 1.5, 2.0):
            gain = gain_h1([1e7], [1e7], exponent)[0]
            assert np.isfinite(gain)
            assert gain == pytest.approx(1.0, rel=1e-4)


class TestDecisionDirected:
    def test_first_frame_zero(self):
        out = decision_directed_snr(np.zeros(1), np.zeros(1), np.array([0.5]), 0.98)
        assert out[0] == 0.0

    def test_no_smoothing_instantaneous(self):
        gamma = np.array([0.2, 1.0, 5.0])
        out = decision_directed_snr(np.ones(3), np.ones(3), gamma, 0.0)
        np.testing.assert_array_equal(out, np.maximum(gamma - 1.0, 0.0))

    def test_arithmetic_example(self):
        out = decision_directed_snr(np.array([0.5]), np.array([4.0]), np.array([3.0]), 0.98)
        assert out[0] == pytest.approx(0.98 * 0.25 * 4.0 + 0.02 * 2.0)
        assert out[0] == pytest.approx(1.02)


class TestSpeechPresence:
    def test_zero_absence_prior_full_presence(self):
        p = speech_presence_prob(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        assert p[0] == 1.0

    def test_certain_absence_limit(self):
        p = speech_presence_prob(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        assert p[0] == 0.0

    def test_arithmetic_example(self):
        p = speech_presence_prob(np.array([0.5]), np.array([1.0]), np.array([1.0]))
        assert p[0] == pytest.approx(1.0 / (1.0 + 2.0 * math.exp(-1.0)))
        assert p[0] == pytest.approx(0.576, abs=5e-4)

    def test_exponent_clamped(self):
        p = speech_presence_prob(np.array([0.5]), np.array([0.0]), np.array([1e6]))
        assert np.isfinite(p[0])

    def test_absence_prior_bounds_and_limits(self):
        quiet = speech_absence_prior(np.zeros(64))
        np.testing.assert_allclose(quiet, Q_CEILING)
        loud = speech_absence_prior(np.full(64, 1e4))
        np.testing.assert_allclose(loud, Q_FLOOR)


def random_frames(rng, count, sources, bins):
    return (rng.standard_normal((count, sources, bins))
            + 1j * rng.standard_normal((count, sources, bins))) * (0.1 + rng.random((count, sources, 1)))


class TestPostFilter:
    def test_output_is_gain_times_input(self):
        rng = np.random.default_rng(5)
        pf = PostFilter(2, 33, PipelineConfig(dump_diagnostics=True))
        for t, bins in enumerate(random_frames(rng, 30, 2, 33)):
            out, _, internals = filter_frame(pf, SpectralFrame(bins, t))
            gain = internals[4]
            np.testing.assert_allclose(out, gain * bins)
            assert np.all(gain >= GAIN_FLOOR)
            assert np.all(gain <= GAIN_MAX)

    # one source would broadcast unchecked into the two-source block
    @pytest.mark.parametrize("shape", [(1, 33), (3, 33), (2, 32)])
    def test_process_refuses_a_frame_of_another_shape(self, shape):
        pf = PostFilter(2, 33)
        expected = f"frame 4: shape {shape}, post-filter expects (2, 33)"
        with pytest.raises(StreamError, match=f"^{re.escape(expected)}$"):
            pf.process(SpectralFrame(np.ones(shape, dtype=complex), 4))
        assert pf.queued == []

    def test_zero_input_zero_output(self):
        pf = PostFilter(2, 33)
        out = filter_frame(pf, SpectralFrame(np.zeros((2, 33), dtype=complex), 0))[0]
        assert np.all(out == 0)

    def test_zero_leak_matches_independent_single_source_filters(self):
        rng = np.random.default_rng(6)
        frames = random_frames(rng, 60, 3, 65)
        multi = PostFilter(3, 65, PipelineConfig(leak_factor=0.0))
        singles = [PostFilter(1, 65, PipelineConfig(leak_factor=0.0)) for _ in range(3)]
        for t, bins in enumerate(frames):
            out_multi = filter_frame(multi, SpectralFrame(bins, t))[0]
            for m in range(3):
                single = SpectralFrame(bins[m : m + 1], t)
                out_single = filter_frame(singles[m], single)[0]
                np.testing.assert_array_equal(out_multi[m], out_single[0])

    @pytest.mark.parametrize("key, value", [("leak_factor", 0.5), ("spectral_exponent", 1.5)])
    def test_every_setting_reaches_the_output(self, key, value):
        assert getattr(PipelineConfig(), key) != value
        default, changed = PostFilter(3, 33), PostFilter(3, 33, PipelineConfig(**{key: value}))
        differs = False
        for t, bins in enumerate(random_frames(np.random.default_rng(10), 40, 3, 33)):
            frame = SpectralFrame(bins, t)
            differs |= not np.array_equal(filter_frame(default, frame)[0],
                                          filter_frame(changed, frame)[0])
        assert differs

    def test_noise_decomposition_every_frame(self):
        rng = np.random.default_rng(7)
        pf = PostFilter(3, 33)
        for t, bins in enumerate(random_frames(rng, 40, 3, 33)):
            filter_frame(pf, SpectralFrame(bins, t))
            np.testing.assert_array_equal(
                pf.noise.total, pf.noise.stationary + pf.noise.leakage)

    def test_record_holds_mask_inputs(self):
        bank = mask_filterbank(64)
        for dump_diagnostics in (False, True):
            rng = np.random.default_rng(8)
            pf = PostFilter(2, 33, PipelineConfig(dump_diagnostics=dump_diagnostics))
            for t, bins in enumerate(random_frames(rng, 3, 2, 33)):
                out, bands, internals = filter_frame(pf, SpectralFrame(bins, t))
                per_bin = [np.abs(bins) ** 2, np.abs(out) ** 2, pf.noise.stationary]
                assert bands.shape == (3, 2, 24)
                for k in range(3):
                    for m in range(2):
                        np.testing.assert_allclose(bands[k, m], mel_energies(per_bin[k][m], bank),
                                                   rtol=1e-12, atol=0.0)
                if not dump_diagnostics:
                    assert internals is None
                    continue
                # noise_stat, noise_leak, snr_prior, presence, gain
                assert internals.shape == (5, 2, 33)
                np.testing.assert_array_equal(internals[0], pf.noise.stationary)
                np.testing.assert_array_equal(internals[1], pf.noise.leakage)
                np.testing.assert_array_equal(out, internals[4] * bins)


class TestBlockPass:
    @pytest.mark.parametrize("exponent", [1.0, 1.5, 2.0])
    def test_results_do_not_depend_on_where_the_flushes_fall(self, exponent):
        # 21 frames flushed after every frame, after every BLOCK_FRAMES (the
        # last block holds 5) and after every 3.  Source 0 starts silent, so
        # its stationary floor holds at zero, and the others stay silent until
        # its impulse overflows the posterior SNR: gain faults count too.
        rng = np.random.default_rng(12)
        frames = random_frames(rng, 21, 3, 33)
        frames[:6] = 0.0
        frames[:9, 1:] = 0.0
        frames[8, 0] *= 1e70
        config = PipelineConfig(spectral_exponent=exponent, dump_diagnostics=True)
        results = []
        for every in (1, BLOCK_FRAMES, 3):
            pf = PostFilter(3, 33, config)
            out, bands, internals = [], [], []
            with np.errstate(over="ignore", invalid="ignore"):
                for t, bins in enumerate(frames):
                    pf.process(SpectralFrame(bins, t))
                    if len(pf.queued) == every or t == len(frames) - 1:
                        block = pf.flush()
                        # copied, as the internals are stacked: process reuses them
                        out.append(block[0].copy())
                        bands.append(block[1].copy())
                        internals.append(np.stack(block[2], axis=1))
            assert sum(map(len, out)) == len(frames)
            results.append((np.concatenate(out).tobytes(),
                            np.concatenate(bands).tobytes(), np.concatenate(internals).tobytes(),
                            pf.gains.fault_count))
        assert results[0][3] > 0
        assert results[1] == results[0] and results[2] == results[0]

    def test_process_refuses_a_frame_beyond_the_block(self):
        pf = PostFilter(1, 33)
        frames = [SpectralFrame(np.ones(33, dtype=complex), t)
                  for t in range(BLOCK_FRAMES + 1)]
        for frame in frames[:-1]:
            pf.process(frame)
        with pytest.raises(StreamError, match=f"frame {BLOCK_FRAMES}: post-filter block is full"):
            pf.process(frames[-1])
        assert pf.queued == list(range(BLOCK_FRAMES))
        assert pf.flush()[0].shape == (BLOCK_FRAMES, 1, 33)
        pf.process(frames[-1])
