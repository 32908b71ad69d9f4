"""Separation math: initialization, costs, gradients, adaptation."""

import tracemalloc

import numpy as np
import pytest

from arraysep import gss
from arraysep.errors import StreamError
from arraysep.geometry import ArrayGeometry, direction_vector, steering_matrix
from arraysep.stft import SpectralFrame


def random_state(rng, num_mics, num_sources, num_bins=1, scale=0.4):
    """Separation state over synthetic unit-modulus steering."""
    phases = rng.uniform(0, 2 * np.pi, (num_bins, num_mics, num_sources))
    steering = np.exp(1j * phases)
    demix = scale * (rng.standard_normal((num_bins, num_sources, num_mics))
                     + 1j * rng.standard_normal((num_bins, num_sources, num_mics)))
    return gss.SeparationState(steering, demix)


def brute_force_costs(demix, steering, x):
    """Element-sum evaluation of both costs on a single bin."""
    y = demix @ x
    corr = np.outer(y, y.conj())
    j1 = sum(abs(corr[i, j]) ** 2 for i in range(len(y)) for j in range(len(y)) if i != j)
    residual = demix @ steering - np.eye(demix.shape[0])
    j2 = sum(abs(v) ** 2 for v in residual.ravel())
    return j1, j2


def wirtinger_fd(cost, demix, h=1e-6):
    """d/dRe + j d/dIm of a real cost, by central differences per entry."""
    grad = np.zeros(demix.shape, dtype=complex)
    for m in range(demix.shape[0]):
        for n in range(demix.shape[1]):
            for direction in (1.0, 1.0j):
                up = demix.copy()
                up[m, n] += h * direction
                down = demix.copy()
                down[m, n] -= h * direction
                grad[m, n] += direction * (cost(up) - cost(down)) / (2 * h)
    return grad


class TestInitAndSeparate:
    def test_single_mic_single_source_conjugate(self):
        rng = np.random.default_rng(0)
        geom = ArrayGeometry(np.array([[0.05, 0, 0], [-0.05, 0, 0]]))
        sm = steering_matrix(geom, [direction_vector(0.3, 0.0)], 64)
        state = gss.init_delay_and_sum(sm)
        np.testing.assert_allclose(state.demix[:, 0, :], sm[:, :, 0].conj() / 2)

    def test_zero_delay_rows_uniform(self):
        geom = ArrayGeometry(np.array([[0, 0.1, 0], [0, -0.1, 0], [0, 0.2, 0], [0, -0.2, 0]]))
        sm = steering_matrix(geom, [direction_vector(0.0, 0.0)], 64)
        state = gss.init_delay_and_sum(sm)
        np.testing.assert_allclose(state.demix, 0.25, atol=1e-12)

    def test_two_mic_conjugate_phases(self):
        # +-2 sample delays: the row must apply the conjugate phase per bin
        delays = np.array([[2.0], [-2.0]])
        k = 16
        bins = np.arange(k // 2 + 1)
        values = np.exp(-2j * np.pi * bins[:, None, None] * delays[None, :, :] / k)
        state = gss.init_delay_and_sum(values)
        for kk in range(1, 5):
            np.testing.assert_allclose(
                state.demix[kk, 0], np.exp(2j * np.pi * kk * delays[:, 0] / k) / 2
            )

    def test_identity_demix_passthrough(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 3, 3, num_bins=5)
        state.demix = np.tile(np.eye(3, dtype=complex), (5, 1, 1))
        x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        out = gss.separate(state, SpectralFrame(x, 0))
        np.testing.assert_array_equal(out.bins, x)

    def test_zero_in_zero_out(self):
        state = random_state(np.random.default_rng(2), 4, 2, num_bins=3)
        out = gss.separate(state, SpectralFrame(np.zeros((4, 3), dtype=complex), 0))
        assert np.all(out.bins == 0)

    def test_channel_mismatch_rejected(self):
        state = random_state(np.random.default_rng(3), 4, 2, num_bins=3)
        with pytest.raises(StreamError):
            gss.separate(state, SpectralFrame(np.zeros((3, 3), dtype=complex), 0))

    @pytest.mark.parametrize("bins", [1, 4])  # one bin would broadcast unchecked
    def test_bin_count_mismatch_rejected(self, bins):
        state = random_state(np.random.default_rng(3), 4, 2, num_bins=3)
        with pytest.raises(StreamError, match=f"^frame 5: {bins} bins, demix expects 3$"):
            gss.separate(state, SpectralFrame(np.zeros((4, bins), dtype=complex), 5))


class TestCosts:
    def test_single_source_no_decorrelation_cost(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 3, 1, num_bins=4)
        x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert gss.decorrelation_cost(state, SpectralFrame(x, 0)) == 0.0

    def test_geometric_cost_zero_at_inverse(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 3, 3, num_bins=2)
        state.demix = np.linalg.inv(state.steering)
        assert gss.geometric_cost(state) == pytest.approx(0.0, abs=1e-20)

    def test_costs_match_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            state = random_state(rng, 2, 2, num_bins=1)
            x = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
            j1, j2 = brute_force_costs(state.demix[0], state.steering[0], x[:, 0])
            assert gss.decorrelation_cost(state, SpectralFrame(x, 0)) == pytest.approx(j1)
            assert gss.geometric_cost(state) == pytest.approx(j2)


class TestGradients:
    def test_zero_input_zero_decorrelation_gradient(self):
        state = random_state(np.random.default_rng(7), 3, 2, num_bins=2)
        pair = gss.gradients(state, SpectralFrame(np.zeros((3, 2), dtype=complex), 0))
        assert np.all(pair.decorrelation == 0)

    def test_geometric_gradient_zero_at_inverse(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, 3, 3, num_bins=2)
        state.demix = np.linalg.inv(state.steering)
        x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        pair = gss.gradients(state, SpectralFrame(x, 0))
        np.testing.assert_allclose(pair.geometric, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            num_mics = int(rng.integers(2, 5))
            num_sources = int(rng.integers(1, num_mics + 1))
            state = random_state(rng, num_mics, num_sources)
            x = rng.standard_normal((num_mics, 1)) + 1j * rng.standard_normal((num_mics, 1))
            pair = gss.gradients(state, SpectralFrame(x, 0))
            steering = state.steering[0]

            fd_dec = wirtinger_fd(lambda w: brute_force_costs(w, steering, x[:, 0])[0],
                                  state.demix[0])
            fd_geo = wirtinger_fd(lambda w: brute_force_costs(w, steering, x[:, 0])[1],
                                  state.demix[0])
            scale_dec = max(np.abs(fd_dec).max(), 1e-12)
            scale_geo = max(np.abs(fd_geo).max(), 1e-12)
            assert np.abs(pair.decorrelation[0] - fd_dec).max() / scale_dec < 1e-4
            assert np.abs(pair.geometric[0] - fd_geo).max() / scale_geo < 1e-4

    @pytest.mark.parametrize("num_sources", [1, 2, 3, 5])
    def test_decorrelation_gradient_is_the_broadcast_product_bit_for_bit(self, num_sources):
        # oracle: 4 E y times x^H as one broadcast ufunc call, on inputs whose
        # magnitudes span 1e-8 to 1e8; one source has E y = 0, so the signs
        # of zero products count too
        rng = np.random.default_rng(30 + num_sources)
        state = random_state(rng, 8, num_sources, num_bins=65)
        x = ((rng.standard_normal((8, 65)) + 1j * rng.standard_normal((8, 65)))
             * 10.0 ** rng.uniform(-8.0, 8.0, (8, 65)))
        frame = SpectralFrame(x, 0)
        y = gss.separate(state, frame).bins.T
        power = y.real ** 2 + y.imag ** 2
        ey = y * (np.sum(power, axis=1, keepdims=True) - power)
        expected = np.multiply(4.0 * ey[:, :, np.newaxis], x.T.conj()[:, np.newaxis, :])
        assert gss.gradients(state, frame).decorrelation.tobytes() == expected.tobytes()


class TestAdapt:
    def test_zero_step_size_no_change(self):
        rng = np.random.default_rng(10)
        state = random_state(rng, 3, 2, num_bins=4)
        state.step_size = 0.0
        before = state.demix.copy()
        x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        frame = SpectralFrame(x, 0)
        gss.adapt(state, frame, gss.separate(state, frame))
        np.testing.assert_array_equal(state.demix, before)

    def test_single_source_stays_at_delay_and_sum(self):
        rng = np.random.default_rng(11)
        geom = ArrayGeometry(rng.uniform(-0.2, 0.2, (4, 3)))
        sm = steering_matrix(geom, [direction_vector(0.5, 0.0)], 64)
        state = gss.init_delay_and_sum(sm)
        reference = state.demix.copy()
        for t in range(100):
            x = rng.standard_normal((4, 33)) + 1j * rng.standard_normal((4, 33))
            frame = SpectralFrame(x, t)
            gss.adapt(state, frame, gss.separate(state, frame))
        assert np.abs(state.demix - reference).max() <= 1e-6

    def test_quiet_bins_skip_decorrelation_term(self):
        rng = np.random.default_rng(12)
        state = random_state(rng, 3, 2, num_bins=2)
        x = np.zeros((3, 2), dtype=complex)
        x[:, 1] = 1e-10  # below the power floor
        before = state.demix.copy()
        frame = SpectralFrame(x, 0)
        pair = gss.gradients(state, frame)
        gss.adapt(state, frame, gss.separate(state, frame))
        expected = before - state.step_size * pair.geometric
        # bin 0 carries no signal at all: only the geometric term may act
        np.testing.assert_allclose(state.demix[0], expected[0], atol=1e-12)
        np.testing.assert_allclose(state.demix[1], expected[1], atol=1e-12)

    def test_step_matches_correlation_and_residual_forms(self):
        # oracle per bin: the full instantaneous-correlation form of the
        # decorrelation gradient and the residual form (W A - I) A^H of the
        # geometric one, with the inverse-squared-power scaling
        rng = np.random.default_rng(15)
        for num_mics, num_sources in [(2, 1), (3, 1), (4, 2), (4, 4), (8, 3)]:
            num_bins = 6
            state = random_state(rng, num_mics, num_sources, num_bins=num_bins)
            state.step_size = 0.05
            shape = (num_mics, num_bins)
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x[:, 1] *= 1e-7  # below the power floor: geometric term only
            x[:, 2] *= 1e3
            before = state.demix.copy()
            frame = SpectralFrame(x, 0)
            gss.adapt(state, frame, gss.separate(state, frame))
            for k in range(num_bins):
                w, a, xk = before[k], state.steering[k], x[:, k]
                y = w @ xk
                corr = np.outer(y, y.conj())
                corr[np.arange(num_sources), np.arange(num_sources)] = 0.0
                grad_dec = 4.0 * corr @ w @ np.outer(xk, xk.conj())
                grad_geo = 2.0 * (w @ a - np.eye(num_sources)) @ a.conj().T
                power = np.sum(np.abs(xk) ** 2)
                scale = power ** -2.0 if power >= gss.POWER_FLOOR else 0.0
                expected = w - state.step_size * (scale * grad_dec + grad_geo)
                np.testing.assert_allclose(state.demix[k], expected, rtol=1e-12, atol=0)

    def test_demix_matches_recomputed_output_update_bit_for_bit(self):
        # reference: the update with both gradients taken from gss.gradients,
        # which computes y = W x itself, instead of reusing separate's y
        rng = np.random.default_rng(17)
        geom = ArrayGeometry(rng.uniform(-0.2, 0.2, (8, 3)))
        sm = steering_matrix(geom, [direction_vector(a, 0.0) for a in (0.5, -0.6, 1.4)], 1024)
        state, reference = gss.init_delay_and_sum(sm), gss.init_delay_and_sum(sm)
        for t in range(50):
            x = rng.standard_normal((8, 513)) + 1j * rng.standard_normal((8, 513))
            x[:, :20] *= 1e-7  # below the power floor: geometric term only
            frame = SpectralFrame(x, t)
            gss.adapt(state, frame, gss.separate(state, frame))

            pair = gss.gradients(reference, frame)
            power = np.sum(np.abs(np.asfortranarray(x)) ** 2, axis=0)  # mic axis contiguous
            scale = np.zeros_like(power)
            active = power >= gss.POWER_FLOOR
            scale[active] = power[active] ** -2.0
            reference.demix -= reference.step_size * (
                scale[:, np.newaxis, np.newaxis] * pair.decorrelation + pair.geometric)
            assert np.array_equal(state.demix, reference.demix), t

    @pytest.mark.parametrize("num_sources", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_update_matches_complex_arithmetic_bit_for_bit(self, num_sources, layout):
        # oracle: demix - mu (scale grad_dec + grad_geo) in complex arithmetic,
        # the decorrelation gradient formed from the separated outputs; the
        # frames in both memory layouts, F being that of stft_analyze's
        rng = np.random.default_rng(19 + num_sources)
        # the demixing matrices are a strided view into a larger array
        state = random_state(rng, 8, num_sources, num_bins=65)
        parent = np.zeros((65, 2 * num_sources, 8), dtype=complex)
        parent[:, ::2] = state.demix
        state.demix = parent[:, ::2]
        for t in range(5):
            x = rng.standard_normal((8, 65)) + 1j * rng.standard_normal((8, 65))
            x[:, :6] *= 1e-7  # below the power floor: geometric term only
            x[:, 6] = 0.0
            x = np.asarray(x, order=layout)
            frame = SpectralFrame(x, 0)
            separated = gss.separate(state, frame)
            grad_geo = gss.gradients(state, frame).geometric
            y = separated.bins.T
            power = y.real ** 2 + y.imag ** 2
            ey = y * (np.sum(power, axis=1, keepdims=True) - power)
            grad_dec = 4.0 * ey[:, :, np.newaxis] * x.T.conj()[:, np.newaxis, :]
            xpow = np.sum(np.abs(np.asfortranarray(x)) ** 2, axis=0)  # mic axis contiguous
            scale = np.zeros_like(xpow)
            active = xpow >= gss.POWER_FLOOR
            scale[active] = xpow[active] ** -2.0
            expected = state.demix - state.step_size * (
                scale[:, np.newaxis, np.newaxis] * grad_dec + grad_geo)
            gss.adapt(state, frame, separated)
            assert np.array_equal(state.demix, expected), t
            assert np.shares_memory(state.demix, parent)

    def test_demix_does_not_depend_on_frame_layout(self):
        # the same frames as C- and F-ordered arrays; 8 microphones, where
        # numpy sums a contiguous axis pairwise and a strided one in sequence
        rng = np.random.default_rng(23)
        geom = ArrayGeometry(rng.uniform(-0.2, 0.2, (8, 3)))
        sm = steering_matrix(geom, [direction_vector(a, 0.0) for a in (0.5, -0.6, 1.4)], 1024)
        states = {layout: gss.init_delay_and_sum(sm) for layout in "CF"}
        for t in range(5):
            x = rng.standard_normal((8, 513)) + 1j * rng.standard_normal((8, 513))
            for layout, state in states.items():
                frame = SpectralFrame(np.asarray(x, order=layout), t)
                gss.adapt(state, frame, gss.separate(state, frame))
            assert np.array_equal(states["C"].demix, states["F"].demix), t

    def test_scratch_beyond_the_gradients_stays_small(self):
        # M = 3, N = 8, K = 513: the two gradients take 2 x 197 KB; a
        # broadcast outer product and the input power's temporaries beside
        # them had adapt peak 0.79 MB above its entry
        rng = np.random.default_rng(24)
        geom = ArrayGeometry(rng.uniform(-0.2, 0.2, (8, 3)))
        sm = steering_matrix(geom, [direction_vector(a, 0.0) for a in (0.5, -0.6, 1.4)], 1024)
        state = gss.init_delay_and_sum(sm)
        x = rng.standard_normal((8, 513)) + 1j * rng.standard_normal((8, 513))
        frame = SpectralFrame(x, 0)
        gss.adapt(state, frame, gss.separate(state, frame))  # builds the steering operators
        separated = gss.separate(state, frame)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            gss.adapt(state, frame, separated)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 0.65e6, peak

    def test_separated_frame_shape_checked(self):
        rng = np.random.default_rng(18)
        state = random_state(rng, 3, 2, num_bins=4)
        frame = SpectralFrame(rng.standard_normal((3, 4)) + 0j, 0)
        with pytest.raises(StreamError, match="separated"):
            gss.adapt(state, frame, frame)

    def test_divergence_raises(self):
        rng = np.random.default_rng(16)
        state = random_state(rng, 3, 2, num_bins=4)
        state.step_size = 1e308
        x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StreamError, match="diverged"):
            frame = SpectralFrame(x, 0)
            gss.adapt(state, frame, gss.separate(state, frame))

    def test_finite_after_bounded_input(self):
        rng = np.random.default_rng(13)
        state = random_state(rng, 4, 3, num_bins=8, scale=0.2)
        for t in range(200):
            x = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
            frame = SpectralFrame(x, t)
            gss.adapt(state, frame, gss.separate(state, frame))
        assert np.all(np.isfinite(state.demix))

    def test_source_permutation_permutes_outputs(self):
        rng = np.random.default_rng(14)
        geom = ArrayGeometry(rng.uniform(-0.2, 0.2, (4, 3)))
        src = [direction_vector(a, 0.0) for a in (0.5, -0.6, 1.4)]
        frames = [rng.standard_normal((4, 33)) + 1j * rng.standard_normal((4, 33))
                  for _ in range(20)]

        def run(order):
            sm = steering_matrix(geom, order, 64)
            state = gss.init_delay_and_sum(sm)
            outs = []
            for t, x in enumerate(frames):
                frame = SpectralFrame(x, t)
                separated = gss.separate(state, frame)
                outs.append(separated.bins)
                gss.adapt(state, frame, separated)
            return np.stack(outs)

        base = run(src)
        swapped = run([src[2], src[0], src[1]])
        np.testing.assert_allclose(swapped[:, [1, 2, 0], :], base, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("factor, converges", [(0.99, True), (1.01, False)])
    def test_zero_input_geometric_step_bound(self, factor, converges):
        # Zero input leaves only the geometric term, whose step converges only
        # below 1 / (N M): 1/24 for the eight-microphone box and three sources.
        from arraysep.simulate import BOX_MIC_POSITIONS

        geom = ArrayGeometry(BOX_MIC_POSITIONS)
        sm = steering_matrix(geom, [direction_vector(np.deg2rad(a), 0.0) for a in (0, 90, -90)], 1024)
        state = gss.init_delay_and_sum(sm, factor / 24)
        frame = SpectralFrame(np.zeros((8, 513)), 0)
        before = gss.geometric_cost(state)
        for _ in range(300):
            gss.adapt(state, frame, gss.separate(state, frame))
        after = gss.geometric_cost(state)
        assert after < 0.1 * before if converges else after > 100 * before


class TestOnScenes:
    def test_delay_and_sum_snr_beats_best_microphone(self):
        from arraysep.simulate import SceneSource, SceneSpec, SignalSpec, box_array_geometry, synthesize
        from helpers import noise_ratio_db, separate_scene

        geom = box_array_geometry()
        spec = SceneSpec(geom, (SceneSource("s", 20.0, signal=SignalSpec(kind="am_noise")),),
                         duration_s=2.0, noise_level_db=-25.0, seed=23)
        render = synthesize(spec)
        audio, _ = separate_scene(render, spec, adapt=True, postfilter=False)
        output_snr = noise_ratio_db(audio.samples[0], render.clean_references[0], render.noise)
        input_snrs = [noise_ratio_db(render.mixture.samples[c], render.clean_references[0],
                                     render.noise)
                      for c in range(geom.num_mics)]
        assert output_snr >= max(input_snrs)

    def test_geometric_cost_decreases_over_windows(self):
        from arraysep.simulate import synthesize, three_speaker_scene
        from arraysep.stft import stft_analyze

        spec = three_speaker_scene(90.0, duration_s=6.0, seed=1234)
        render = synthesize(spec)
        state = gss.init_delay_and_sum(
            steering_matrix(spec.geometry, [s.direction for s in spec.sources], 1024))
        series = []
        for frame in stft_analyze(render.mixture, 1024, 512):
            gss.adapt(state, frame, gss.separate(state, frame))
            series.append(gss.geometric_cost(state))
        window = 93  # about one second of frames
        means = [np.mean(series[i * window : (i + 1) * window])
                 for i in range(len(series) // window)]
        assert all(later <= earlier for earlier, later in zip(means, means[1:]))
