"""Microphone/source geometry and the free-field steering model.

Sources are far-field directions only (no distance); transfer functions are
modeled as pure unit-gain delays relative to the array centroid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, OverDeterminedSceneError

SPEED_OF_SOUND = 343.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions in meters, (N, 3), with N >= 2."""

    mic_positions: np.ndarray
    rate: int
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        positions = np.asarray(self.mic_positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ConfigError("mic_positions must be (N, 3)")
        if positions.shape[0] < 2:
            raise ConfigError("need at least two microphones")
        if not np.all(np.isfinite(positions)):
            raise ConfigError("mic positions must be finite")
        if self.speed_of_sound <= 0:
            raise ConfigError("speed of sound must be positive")
        object.__setattr__(self, "mic_positions", positions)

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


@dataclass(frozen=True)
class Source:
    """A far-field source direction with a stable identifier."""

    id: str
    azimuth: float
    elevation: float = 0.0

    @property
    def direction(self) -> np.ndarray:
        return direction_vector(self.azimuth, self.elevation)


@dataclass(frozen=True)
class SourceSet:
    sources: tuple[Source, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        ids = [s.id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate source ids: {ids}")

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.sources]


def far_field_delay(geometry: ArrayGeometry, mic: int, direction: np.ndarray) -> float:
    """Arrival delay in samples at one microphone, relative to the centroid.

    A microphone displaced toward the source receives the wavefront early,
    hence the negative sign; fractional values are expected.
    """
    direction = np.asarray(direction, dtype=np.float64)
    position = geometry.centered_positions[mic]
    return float(-np.dot(position, direction) * geometry.rate / geometry.speed_of_sound)


def _steering_column(geometry: ArrayGeometry, source: Source, fft_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Delays (N,) and unit-modulus phase column (n_bins, N) for one source."""
    delays = np.array(
        [far_field_delay(geometry, i, source.direction) for i in range(geometry.num_mics)]
    )
    bins = np.arange(fft_size // 2 + 1)
    # Delay of d samples is exp(-2j*pi*k*d/K) on bin k of a K-point DFT.
    column = np.exp(-2j * np.pi * np.outer(bins, delays) / fft_size)
    return delays, column


@dataclass(frozen=True)
class SteeringMatrix:
    """Per-bin mics-by-sources phase matrices, ``values`` is (n_bins, N, M)."""

    values: np.ndarray
    delays: np.ndarray
    fft_size: int
    geometry: ArrayGeometry
    sources: SourceSet

    @property
    def num_bins(self) -> int:
        return self.values.shape[0]

    @property
    def num_mics(self) -> int:
        return self.values.shape[1]

    @property
    def num_sources(self) -> int:
        return self.values.shape[2]


def steering_matrix(geometry: ArrayGeometry, sources: SourceSet, fft_size: int) -> SteeringMatrix:
    """Build the free-field steering matrix for all bins 0..fft_size/2."""
    if sources.num_sources > geometry.num_mics:
        raise OverDeterminedSceneError(
            f"{sources.num_sources} sources exceed {geometry.num_mics} microphones"
        )
    if sources.num_sources == 0:
        n_bins = fft_size // 2 + 1
        return SteeringMatrix(
            np.zeros((n_bins, geometry.num_mics, 0), dtype=np.complex128),
            np.zeros((geometry.num_mics, 0)),
            fft_size,
            geometry,
            sources,
        )
    delays = []
    columns = []
    for source in sources.sources:
        d, c = _steering_column(geometry, source, fft_size)
        delays.append(d)
        columns.append(c)
    values = np.stack(columns, axis=2)
    return SteeringMatrix(values, np.stack(delays, axis=1), fft_size, geometry, sources)
