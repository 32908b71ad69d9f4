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
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer, WavFile
from .errors import ConfigError, StreamError


@dataclass
class SpectralFrame:
    """Half spectrum for one analysis frame: ``bins`` is (channels, fft_size // 2 + 1)."""

    bins: np.ndarray
    frame_index: int

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim == 1:
            self.bins = self.bins[np.newaxis, :]


def sqrt_hann_window(size: int) -> np.ndarray:
    """Periodic square-root Hann taper; self-paired it is COLA at 50% overlap."""
    n = np.arange(size)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / size))


# Frames the stage loop handles together: the post-filter runs its
# non-recursive tail over them in one pass and synthesis inverts its
# filtered block in one irfft.  Analysis does not wait for them; it yields
# each frame as soon as its samples are in.
BLOCK_FRAMES = 8


def _check_framing(fft_size: int, shift: int) -> None:
    if fft_size % 2 != 0:
        raise ConfigError(f"fft_size must be even, got {fft_size}")
    if not 0 < shift <= fft_size:
        raise ConfigError(f"shift must satisfy 0 < shift <= fft_size, got {shift}")


def analysis_frames(samples: np.ndarray, fft_size: int, shift: int) -> np.ndarray:
    """A read-only (..., T, fft_size) view of ``samples`` (..., n_samples):
    frame t covers samples [t*shift, t*shift + fft_size); trailing samples
    that do not fill a frame are dropped."""
    _check_framing(fft_size, shift)
    if samples.shape[-1] < fft_size:
        return np.empty(samples.shape[:-1] + (0, fft_size))
    return sliding_window_view(samples, fft_size, axis=-1)[..., ::shift, :]


def windowed_rfft(frames: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Half spectra of ``frames`` (..., fft_size) tapered by ``window``."""
    return np.fft.rfft(frames * window, axis=-1)


def stft_analyze(audio: AudioBuffer | WavFile, fft_size: int,
                 shift: int) -> Iterator[SpectralFrame]:
    """Yield sqrt-Hann windowed half-spectrum frames from ``audio``, one at a
    time, over the frames of ``analysis_frames``.

    The samples arrive as ``audio.blocks()`` of any size and are copied, at
    their own precision, into one (channels, fft_size) buffer; each frame is
    tapered and transformed as soon as its last sample is in, and the buffer
    then shifts by ``shift``.  The generator keeps no reference to a yielded
    frame, so one frame's spectra are alive at a time if the consumer drops
    each before it asks for the next.  Every block is read, trailing samples
    included, so a stream is scanned to its end.
    """
    _check_framing(fft_size, shift)
    window = sqrt_hann_window(fft_size)
    carry = fft_size - shift
    buffer, filled, index = None, 0, 0
    for block in audio.blocks():
        if buffer is None:
            buffer = np.empty((audio.num_channels, fft_size), block.dtype)
        while block.shape[1]:
            taken = block[:, : fft_size - filled]
            buffer[:, filled : filled + taken.shape[1]] = taken
            filled += taken.shape[1]
            block = block[:, taken.shape[1] :]
            if filled == fft_size:
                yield SpectralFrame(windowed_rfft(buffer, window), index)
                index += 1
                buffer[:, :carry] = buffer[:, shift:]
                filled = carry


def stft_synthesize(blocks: Iterable[np.ndarray], shift: int, num_frames: int) -> np.ndarray:
    """Overlap-add synthesis, normalized by the accumulated window product:
    the (channels, samples) output of ``blocks``, (k, channels, bins) half
    spectra of consecutive frames from frame 0 on.

    ``blocks`` is consumed once, in order, and must hold exactly
    ``num_frames`` frames: a lazy stream cannot report its length, so the
    output is sized from ``num_frames`` at the first block.  Each block is
    inverted as given in one irfft and added in frame order; the block and
    its inverse are dropped before the next block is pulled.
    The synthesis taper is the analysis one, so dividing by the summed
    squared window makes interior samples exact for any shift where that
    sum stays positive.  Within ``fft_size - shift`` of either end fewer
    frames overlap; there the divisor is floored at the smallest sum of the
    fully overlapped interior (of the window's periodic sum if there is
    none), so the edges fade instead of being amplified.
    """
    out, t = None, 0
    for block in blocks:
        if out is None:
            channels, num_bins = block.shape[1:]
            fft_size = 2 * (num_bins - 1)
            window = sqrt_hann_window(fft_size)
            out = np.zeros((channels, (num_frames - 1) * shift + fft_size))
        elif block.shape[1:] != (channels, num_bins):
            raise StreamError(f"block of {block.shape[1:]} (channels, bins) after "
                              f"{(channels, num_bins)}")
        if t + len(block) > num_frames:
            raise StreamError(f"frame stream runs past the expected {num_frames} frames")
        segments = np.fft.irfft(block, n=fft_size, axis=-1)
        del block  # not alive while the next block is made, nor is its inverse below
        segments *= window
        for s in range(len(segments)):
            out[:, (t + s) * shift : (t + s) * shift + fft_size] += segments[s]
        t += len(segments)
        del segments
    if out is None:
        raise StreamError("cannot synthesize from an empty frame stream")
    if t != num_frames:
        raise StreamError(f"frame stream ended after {t} of {num_frames} frames")

    # The window sum at a sample depends only on which frames cover it, so a
    # stand-in run of ceil(fft_size / shift) frames, summed in the same
    # order, holds every value of the divisor: its first stand_in * shift
    # samples are the output's head, its last fft_size - shift its tail, and
    # its last full period (interior once the run is that long) repeats in
    # between.  A run no longer than the stand-in is its own stand-in.
    stand_in = min(num_frames, -(-fft_size // shift))
    norm = np.zeros((stand_in - 1) * shift + fft_size)
    window_sq = window * window
    for start in range(0, stand_in * shift, shift):
        norm[start : start + fft_size] += window_sq
    edge = fft_size - shift
    interior = norm[edge : norm.size - edge]
    if interior.size:
        floor = interior.min()
    else:
        floor = np.pad(window_sq, (0, -fft_size % shift)).reshape(-1, shift).sum(axis=0).min()
    np.maximum(norm, floor, out=norm)
    norm[norm <= 1e-10] = 1.0  # a sample no window reaches stays as summed
    head, repeats = stand_in * shift, num_frames - stand_in
    out[:, :head] /= norm[:head]
    middle = out[:, head : head + repeats * shift].reshape(channels, repeats, shift)  # a view
    middle /= norm[head - shift : head]
    out[:, head + repeats * shift :] /= norm[head:]
    return out


def frame_count(num_samples: int, fft_size: int, shift: int) -> int:
    """Number of frames stft_analyze emits for an input of ``num_samples``."""
    return max(0, (num_samples - fft_size) // shift + 1)
