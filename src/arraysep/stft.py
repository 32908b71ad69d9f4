"""Windowed STFT analysis and overlap-add synthesis.

One implementation serves both pipeline configurations: 1024/512 at 48 kHz
for separation and 400/160 at 16 kHz for features.  Half spectra only;
frame t covers samples [t*shift, t*shift + fft_size), no centering pad, so
analysis/synthesis round trips carry no latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .audio import AudioBuffer
from .errors import ConfigError, StreamError


@dataclass
class SpectralFrame:
    """Half spectrum for one analysis frame: ``bins`` is (channels, fft_size // 2 + 1)."""

    bins: np.ndarray
    frame_index: int
    fft_size: int
    rate: int

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim == 1:
            self.bins = self.bins[np.newaxis, :]
        expected = self.fft_size // 2 + 1
        if self.bins.shape[1] != expected:
            raise StreamError(
                f"frame {self.frame_index}: {self.bins.shape[1]} bins, expected {expected}"
            )

    @property
    def num_channels(self) -> int:
        return self.bins.shape[0]


def sqrt_hann_window(size: int) -> np.ndarray:
    """Periodic square-root Hann taper; self-paired it is COLA at 50% overlap."""
    n = np.arange(size)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / size))


def stft_analyze(audio: AudioBuffer, fft_size: int, shift: int) -> Iterator[SpectralFrame]:
    """Yield sqrt-Hann windowed half-spectrum frames from ``audio``.

    Frame t covers samples [t*shift, t*shift + fft_size); trailing samples
    that do not fill a frame are dropped.
    """
    if fft_size % 2 != 0:
        raise ConfigError(f"fft_size must be even, got {fft_size}")
    if not 0 < shift <= fft_size:
        raise ConfigError(f"shift must satisfy 0 < shift <= fft_size, got {shift}")
    window = sqrt_hann_window(fft_size)

    samples = audio.samples
    for t in range(frame_count(samples.shape[1], fft_size, shift)):
        start = t * shift
        segment = samples[:, start : start + fft_size] * window[np.newaxis, :]
        yield SpectralFrame(np.fft.rfft(segment, axis=1), t, fft_size, audio.rate)


def stft_synthesize(frames: Iterable[SpectralFrame], shift: int, num_frames: int) -> AudioBuffer:
    """Overlap-add synthesis, normalized by the accumulated window product.

    ``frames`` is consumed once, in order, and must yield exactly
    ``num_frames`` frames: a lazy stream cannot report its length, so the
    output is sized from ``num_frames`` at the first frame and each frame
    is added as it arrives.  The synthesis taper is the analysis one, so
    dividing by the summed squared window makes interior samples exact for
    any shift where that sum stays positive.  Within ``fft_size - shift``
    of either end fewer frames overlap; there the divisor is floored at the
    smallest sum of the fully overlapped interior (of the window's periodic
    sum if there is none), so the edges fade instead of being amplified.
    """
    out = None
    for t, frame in enumerate(frames):
        if t >= num_frames:
            raise StreamError(f"frame stream runs past the expected {num_frames} frames")
        if out is None:
            fft_size, rate, channels = frame.fft_size, frame.rate, frame.num_channels
            window = sqrt_hann_window(fft_size)
            window_sq = window * window
            num_samples = (num_frames - 1) * shift + fft_size
            out = np.zeros((channels, num_samples))
            norm = np.zeros(num_samples)
        elif frame.fft_size != fft_size or frame.rate != rate:
            raise StreamError(f"frame {frame.frame_index}: fft_size/rate changed mid-stream")
        elif frame.num_channels != channels:
            raise StreamError(f"frame {frame.frame_index}: channel count changed")
        elif frame.frame_index <= last_index:
            raise StreamError(f"frame index {frame.frame_index} not increasing")
        last_index = frame.frame_index
        start = t * shift
        out[:, start : start + fft_size] += np.fft.irfft(frame.bins, n=fft_size, axis=1) * window
        norm[start : start + fft_size] += window_sq
    if out is None:
        raise StreamError("cannot synthesize from an empty frame stream")
    if t + 1 != num_frames:
        raise StreamError(f"frame stream ended after {t + 1} of {num_frames} frames")
    edge = fft_size - shift
    interior = norm[edge : num_samples - edge]
    if interior.size:
        floor = interior.min()
    else:
        floor = np.pad(window_sq, (0, -fft_size % shift)).reshape(-1, shift).sum(axis=0).min()
    np.maximum(norm, floor, out=norm)
    np.divide(out, norm, out=out, where=norm > 1e-10)
    return AudioBuffer(out, rate)


def frame_count(num_samples: int, fft_size: int, shift: int) -> int:
    """Number of frames stft_analyze emits for an input of ``num_samples``."""
    return max(0, (num_samples - fft_size) // shift + 1)
