"""Microphone/source geometry and the free-field steering model.

Sources are far-field directions only (no distance); transfer functions are
modeled as pure unit-gain delays relative to the array centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import SEPARATION_RATE
from .errors import ConfigError, OverDeterminedSceneError, admits, check_fields, ranged

SPEED_OF_SOUND = 343.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions in meters, (N, 3), with N >= 2: the ``mic_positions_m`` key."""

    mic_positions: np.ndarray
    speed_of_sound: float = ranged("(0, inf)", SPEED_OF_SOUND)
    rate = SEPARATION_RATE  # a class attribute, not a field: every array runs at it

    def __post_init__(self):
        check_fields(self)
        positions = np.asarray(self.mic_positions, dtype=object)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ConfigError(f"mic_positions_m must be (N, 3), got {self.mic_positions!r}")
        if positions.shape[0] < 2:
            raise ConfigError(f"mic_positions_m needs at least two microphones, "
                              f"got {self.mic_positions!r}")
        if not all(admits("(-inf, inf)", v) for v in positions.flat):
            raise ConfigError(f"mic_positions_m must be finite numbers, got {self.mic_positions!r}")
        object.__setattr__(self, "mic_positions", positions.astype(np.float64))

    @property
    def num_mics(self) -> int:
        return self.mic_positions.shape[0]

    @property
    def centered_positions(self) -> np.ndarray:
        """Positions relative to the array origin (microphone centroid)."""
        return self.mic_positions - self.mic_positions.mean(axis=0)


def direction_vector(azimuth: float, elevation: float = 0.0) -> np.ndarray:
    """Unit vector toward (azimuth, elevation), both in radians."""
    cos_el = np.cos(elevation)
    return np.array([cos_el * np.cos(azimuth), cos_el * np.sin(azimuth), np.sin(elevation)])


def far_field_delay(geometry: ArrayGeometry, mic: int, direction: np.ndarray) -> float:
    """Arrival delay in samples at one microphone, relative to the centroid.

    A microphone displaced toward the source receives the wavefront early,
    hence the negative sign; fractional values are expected.
    """
    direction = np.asarray(direction, dtype=np.float64)
    position = geometry.centered_positions[mic]
    return float(-np.dot(position, direction) * geometry.rate / geometry.speed_of_sound)


def steering_matrix(geometry: ArrayGeometry, directions: list[np.ndarray],
                    fft_size: int) -> np.ndarray:
    """Free-field steering for bins 0..fft_size/2: (n_bins, N, M) unit-modulus
    phases, one column per far-field unit vector in ``directions``."""
    if len(directions) > geometry.num_mics:
        raise OverDeterminedSceneError(
            f"{len(directions)} sources exceed {geometry.num_mics} microphones"
        )
    bins = np.arange(fft_size // 2 + 1)
    columns = []
    for direction in directions:
        delays = np.array(
            [far_field_delay(geometry, i, direction) for i in range(geometry.num_mics)]
        )
        # Delay of d samples is exp(-2j*pi*k*d/K) on bin k of a K-point DFT.
        columns.append(np.exp(-2j * np.pi * np.outer(bins, delays) / fft_size))
    return np.stack(columns, axis=2)
