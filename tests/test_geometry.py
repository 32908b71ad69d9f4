"""Far-field delays and the steering model."""

import numpy as np
import pytest

from arraysep.audio import SEPARATION_RATE
from arraysep.errors import ConfigError, OverDeterminedSceneError
from arraysep.geometry import ArrayGeometry, direction_vector, far_field_delay, steering_matrix


def pair_geometry(offset=0.1):
    return ArrayGeometry(np.array([[offset, 0.0, 0.0], [-offset, 0.0, 0.0]]))


class TestDelays:
    def test_mic_at_origin_zero(self):
        geom = ArrayGeometry(np.array([[0, 0, 0], [1, 0, 0], [-1, 0, 0]]))
        for azimuth in [0.0, 0.7, 2.0]:
            assert far_field_delay(geom, 0, direction_vector(azimuth, 0.0)) == 0.0

    def test_hand_computed_value(self):
        # 0.1 m toward the source at 48 kHz, c=343: 0.1*48000/343 samples early
        geom = pair_geometry(0.1)
        delay = far_field_delay(geom, 0, np.array([1.0, 0.0, 0.0]))
        assert delay == pytest.approx(-0.1 * 48000 / 343.0, abs=1e-9)
        assert delay == pytest.approx(-13.99, abs=0.005)

    def test_reversed_direction_negates(self):
        geom = pair_geometry()
        forward = far_field_delay(geom, 0, np.array([1.0, 0.0, 0.0]))
        backward = far_field_delay(geom, 0, np.array([-1.0, 0.0, 0.0]))
        assert forward == -backward

    def test_relative_to_centroid(self):
        geom = ArrayGeometry(np.array([[0.3, 0, 0], [0.1, 0, 0]]))
        d0 = far_field_delay(geom, 0, np.array([1.0, 0.0, 0.0]))
        d1 = far_field_delay(geom, 1, np.array([1.0, 0.0, 0.0]))
        assert d0 == pytest.approx(-d1)


class TestSteering:
    def test_dc_bin_all_ones(self):
        sm = steering_matrix(pair_geometry(), [direction_vector(0.4, 0.0)], 1024)
        np.testing.assert_array_equal(sm[0], np.ones((2, 1)))

    def test_zero_delay_column_of_ones(self):
        geom = ArrayGeometry(np.array([[0, 0.2, 0], [0, -0.2, 0]]))
        # broadside source: both delays zero, every bin entry is exactly 1
        sm = steering_matrix(geom, [direction_vector(0.0, 0.0)], 1024)
        np.testing.assert_allclose(sm[:, :, 0], 1.0, atol=1e-12)

    def test_half_period_delay_is_minus_one(self):
        # delay K/2 at bin 1 lands on exp(-j*pi)
        k = 1024
        delay = k / 2
        phase = np.exp(-2j * np.pi * 1 * delay / k)
        assert phase == pytest.approx(-1.0)
        geom = ArrayGeometry(np.array([[delay * 343.0 / 48000.0, 0, 0], [0, 0, 0]]))
        sm = steering_matrix(geom, [direction_vector(np.pi, 0.0)], k)
        centered = geom.centered_positions[0, 0]
        expected = np.exp(-2j * np.pi * 1 * (centered * 48000 / 343.0) / k)
        assert sm[1, 0, 0] == pytest.approx(expected)

    def test_unit_modulus(self):
        geom = ArrayGeometry(np.random.default_rng(0).uniform(-0.2, 0.2, (5, 3)))
        sources = [direction_vector(0.9 * i, 0.2 * i) for i in range(4)]
        sm = steering_matrix(geom, sources, 1024)
        np.testing.assert_allclose(np.abs(sm), 1.0, atol=1e-12)

    def test_common_translation_changes_common_phase_only(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(-0.2, 0.2, (4, 3))
        sources = [direction_vector(0.3, 0.0), direction_vector(-1.1, 0.0)]
        base = steering_matrix(ArrayGeometry(positions), sources, 256)
        moved = steering_matrix(ArrayGeometry(positions + [1.0, -2.0, 0.5]), sources, 256)
        # positions are centered internally, so steering is translation invariant;
        # the delay-and-sum output power is therefore unchanged by construction
        np.testing.assert_allclose(base, moved, atol=1e-9)

    def test_over_determined_rejected(self):
        geom = pair_geometry()
        sources = [direction_vector(0.1 * i, 0.0) for i in range(3)]
        with pytest.raises(OverDeterminedSceneError):
            steering_matrix(geom, sources, 1024)


class TestValidation:
    def test_single_mic_rejected(self):
        with pytest.raises(ConfigError, match="^mic_positions_m needs at least two"):
            ArrayGeometry(np.array([[0.0, 0.0, 0.0]]))

    def test_nonfinite_positions_rejected(self):
        with pytest.raises(ConfigError, match="^mic_positions_m must be finite"):
            ArrayGeometry(np.array([[np.nan, 0, 0], [0, 0, 0]]))

    def test_positions_not_n_by_3_rejected(self):
        with pytest.raises(ConfigError, match=r"^mic_positions_m must be \(N, 3\)"):
            ArrayGeometry(np.zeros((4, 2)))

    def test_rate_is_the_separation_rate(self):
        geom = ArrayGeometry(np.array([[0.1, 0, 0], [-0.1, 0, 0]]), speed_of_sound=300.0)
        assert (geom.rate, geom.speed_of_sound) == (SEPARATION_RATE, 300.0)
