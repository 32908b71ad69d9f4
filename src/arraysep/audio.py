"""Time-domain audio containers, WAV file I/O and sample-rate conversion.

All buffers are channels-first arrays with amplitudes nominally in [-1, 1]:
float32 where the samples fit it exactly (a PCM16 or float32 file, or
float32 samples given), else float64.  Every consumer computes in float64.
Only the two pipeline rates are supported: 48 kHz on the separation side
and 16 kHz on the feature side.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal
from scipy.io import wavfile

from .errors import AudioIOError, ConfigError

SEPARATION_RATE = 48000  # the microphone array, separation and post-filter side
FEATURE_RATE = 16000  # the decimated outputs and their features
SUPPORTED_RATES = (SEPARATION_RATE, FEATURE_RATE)


def _check_rate(rate) -> None:
    if int(rate) not in SUPPORTED_RATES:
        raise ConfigError(f"unsupported sample rate {rate}; expected one of {SUPPORTED_RATES}")


@dataclass
class AudioBuffer:
    """Multichannel audio: ``samples`` is (channels, n_samples), float32 as
    given and float64 otherwise."""

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype != np.float32:
            samples = samples.astype(np.float64, copy=False)
        if samples.ndim == 1:
            samples = samples[np.newaxis, :]
        if samples.ndim != 2:
            raise ConfigError("samples must be 1-D or (channels, n_samples)")
        _check_rate(self.rate)
        self.samples = samples
        self.rate = int(self.rate)

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.num_samples / self.rate

    def blocks(self) -> Iterator[np.ndarray]:
        """The samples as one block, as ``WavFile.blocks`` yields a file's."""
        yield self.samples


# Each WAV sample format's full scale, the power of two that takes its samples
# into [-1, 1], and the narrowest float type that holds them exactly after
# that division: a PCM16 sample has 16 significant bits, an int32 one (24-bit
# PCM is read as int32) up to 31.
_DECODING = {np.dtype(np.int16): (32768.0, np.float32),
             np.dtype(np.int32): (2147483648.0, np.float64),
             np.dtype(np.float32): (1.0, np.float32), np.dtype(np.float64): (1.0, np.float64)}


def _decode(raw: np.ndarray, dtype=None) -> np.ndarray:
    """Raw (n_samples, channels) WAV samples as a channels-contiguous
    (channels, n_samples) array divided by their format's full scale, in
    ``dtype`` or else in the narrowest float type that holds them exactly."""
    scale, exact = _DECODING[raw.dtype]
    samples = np.empty(raw.shape[::-1], dtype or exact)
    samples[...] = raw.T
    if scale != 1.0:
        samples /= scale
    return samples


def _refuse_non_finite(path: str, samples: np.ndarray, start: int) -> None:
    """Raise for the first NaN or inf of ``samples``, (n, channels) from
    sample ``start`` of ``path`` on."""
    with np.errstate(all="ignore"):  # a finite sum rules out a non-finite sample
        bad = () if np.isfinite(samples.sum()) else np.argwhere(~np.isfinite(samples))
    if len(bad):
        raise AudioIOError(f"{path}: non-finite sample {samples[tuple(bad[0])]} "
                           f"at sample {start + bad[0][0]}, channel {bad[0][1]}")


class WavFile:
    """A checked WAV file (PCM16, int32, 24-bit, float32 or float64, 1-8
    channels) whose samples are mapped from disk, not decoded.

    ``raw`` is (n_samples, channels) in the file's own sample format, or for
    a 24-bit file its (n_samples, channels, 3) bytes; a data chunk cut short
    is refused.  ``wav[c]`` decodes channel ``c`` to float64, and ``blocks``
    decodes every channel ``block`` samples at a time, or all at once if
    ``block`` is None.  The mapping lasts as long as a reference to ``raw``
    or a view of it does; a file truncated under a live mapping faults on
    the next read, so drop it before anything can rewrite the file.
    """

    def __init__(self, path: str, block: int | None = None):
        if not os.path.isfile(path):
            raise AudioIOError(f"input file not found: {path}")
        try:
            try:
                rate, raw = wavfile.read(path, mmap=True)
            except ValueError:
                # scipy maps neither 3-byte samples nor a data chunk cut short
                rate, raw = _map_pcm24(path)
                if raw is None:
                    raise
        except (ValueError, OSError) as exc:
            raise AudioIOError(f"cannot read WAV file {path}: {exc}") from exc
        if raw.ndim == 1:
            raw = raw[:, np.newaxis]
        if raw.shape[1] > 8:
            raise AudioIOError(f"{path}: {raw.shape[1]} channels exceeds the 8-channel limit")
        if raw.ndim == 2 and raw.dtype not in _DECODING:
            raise AudioIOError(f"{path}: unsupported sample format {raw.dtype}")
        _check_rate(rate)
        self.path, self.block, self.rate, self.raw = path, block, rate, raw
        self.shape = self.num_channels, self.num_samples = raw.shape[1::-1]  # decoded shape

    def __getitem__(self, channel: int) -> np.ndarray:
        """One channel decoded to float64."""
        return _decode(_unpack(self.raw[:, channel : channel + 1]), np.float64)[0]

    def blocks(self) -> Iterator[np.ndarray]:
        """Each ``block`` samples (the last block may be shorter), or without
        a block size the whole file as one block, decoded as ``read_wav``
        decodes the whole file, (channels, n); each block is
        scanned for NaN and inf as it is decoded, so a bad sample raises
        only when its block is reached."""
        raw = np.asarray(self.raw)  # no memmap object per block
        block = self.block or max(len(raw), 1)
        for start in range(0, len(raw), block):
            samples = _decode(_unpack(raw[start : start + block]))
            if raw.dtype.kind == "f":
                _refuse_non_finite(self.path, samples.T, start)
            yield samples


# The subformat GUID of WAVE_FORMAT_EXTENSIBLE after its leading format tag.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _map_pcm24(path: str) -> tuple[int | None, np.ndarray | None]:
    """The rate and a read-only (n_samples, channels, 3) byte mapping of a
    little-endian RIFF file's 3-byte PCM samples; (None, None) for any
    other layout.  The chunks are walked as scipy walks them, each odd-sized
    one followed by a pad byte.  A data chunk cut short raises ValueError,
    whatever its sample format, without reading it."""
    with open(path, "rb") as fh:
        riff = fh.read(12)
        if riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            return None, None
        layout = None
        while len(head := fh.read(8)) == 8:
            size = struct.unpack("<I", head[4:])[0]
            if head[:4] == b"fmt ":
                fmt = fh.read(size + size % 2)
                if len(fmt) < 16:
                    return None, None
                tag, channels, rate, _, align, _ = struct.unpack("<HHIIHH", fmt[:16])
                if tag == 0xFFFE and fmt[28:40] == _GUID_TAIL:  # WAVE_FORMAT_EXTENSIBLE
                    tag = struct.unpack("<I", fmt[24:28])[0]
                layout = (rate, channels) if tag == 1 and align == 3 * channels else None
            elif head[:4] == b"data":
                offset, available = fh.tell(), os.fstat(fh.fileno()).st_size - fh.tell()
                if size > available:
                    raise ValueError(f"Reached EOF prematurely: the data chunk declares "
                                     f"{size} bytes, {available} follow its header")
                if layout is None or size % (3 * layout[1]):
                    return None, None
                rate, channels = layout
                return rate, np.memmap(fh, np.uint8, "r", offset,
                                       (size // (3 * channels), channels, 3))
            else:
                fh.seek(size + size % 2, os.SEEK_CUR)
    return None, None


def _unpack(raw: np.ndarray) -> np.ndarray:
    """File samples (n, channels) to decode: 24-bit ones, (n, channels, 3)
    bytes, as the left-justified int32 that scipy reads them as."""
    if raw.ndim == 2:
        return raw
    wide = np.zeros(raw.shape[:2] + (4,), np.uint8)
    wide[..., 1:] = raw
    return wide.view("<i4")[..., 0]


def open_wav(path: str) -> WavFile:
    """Map and check a WAV file without decoding it; NaN and inf samples
    are refused."""
    wav = WavFile(path)
    if wav.raw.dtype.kind == "f":  # integer samples are always finite
        _refuse_non_finite(path, wav.raw, 0)
    return wav


def read_wav(path: str, block: int | None = None) -> AudioBuffer | WavFile:
    """Read and decode a whole WAV file (formats and checks as ``open_wav``):
    PCM16 and float32 files to float32, int32, 24-bit and float64 files to
    float64.  Given ``block``, its block form: a ``WavFile`` whose
    ``blocks`` decode the file ``block`` samples at a time."""
    if block is not None:
        return WavFile(path, block)
    wav = open_wav(path)
    return AudioBuffer(_decode(_unpack(wav.raw)), wav.rate)


def write_wav(path: str, audio: AudioBuffer) -> None:
    """Write ``audio`` as little-endian float32 RIFF WAV."""
    try:
        wavfile.write(path, audio.rate, np.ascontiguousarray(audio.samples.T, dtype=np.float32))
    except OSError as exc:
        raise AudioIOError(f"cannot write WAV file {path}: {exc}") from exc


def _design_decimation_filter() -> np.ndarray:
    # Kaiser lowpass for 48 -> 16 kHz decimation: flat (<0.01 dB) below 7 kHz,
    # > 60 dB rejection above 8 kHz so folded images stay out of the passband.
    return signal.firwin(401, 7450.0, window=("kaiser", 8.0), fs=SEPARATION_RATE)


_DECIMATION_FILTER = _design_decimation_filter()

# Overlap-save grid of the decimator: block b filters the _BLOCK_FFT input
# samples from _BLOCK_STEP * b - 200 with one FFT and keeps every third of
# the outputs that did not wrap around, _BLOCK_STEP / 3 of them.  Blocks go
# through the transforms _BATCH at a time.
_BLOCK_FFT = 4096
_BLOCK_STEP = _BLOCK_FFT - len(_DECIMATION_FILTER) + 1  # 3,696, a multiple of 3
_BATCH = 4
_FILTER_SPECTRUM = np.fft.rfft(_DECIMATION_FILTER, _BLOCK_FFT)


def resample_48k_to_16k(audio: AudioBuffer) -> AudioBuffer:
    """Decimate a 48 kHz buffer to 16 kHz through the anti-alias filter.

    Output k is sum_j h[j] x[3k + 200 - j] over the 401 taps h, with zeros
    outside the input (the alignment of ``scipy.signal.resample_poly``), for
    k < ceil(n / 3).  It is evaluated by overlap-save on a grid of blocks
    anchored at sample 0, in batches of fixed size, so each output depends
    only on its position and the input around it, and scratch memory does
    not grow with the input.  The FFT's rounding differs from the direct
    sum's by about 1e-15 of the input's peak.
    """
    if audio.rate != SEPARATION_RATE:
        raise ConfigError(f"resampler expects {SEPARATION_RATE} Hz input, got {audio.rate}")
    channels, num_samples = audio.samples.shape
    out = np.empty((channels, -(-num_samples // 3)))
    span = (_BATCH - 1) * _BLOCK_STEP + _BLOCK_FFT  # input samples of one batch
    buffer = np.empty(span)
    blocks = sliding_window_view(buffer, _BLOCK_FFT)[::_BLOCK_STEP]  # (_BATCH, _BLOCK_FFT)
    per_batch = _BATCH * _BLOCK_STEP // 3
    for channel, samples in zip(out, audio.samples):
        for first in range(0, channel.size, per_batch):
            start = 3 * first - len(_DECIMATION_FILTER) // 2  # input index of buffer[0]
            lo, hi = max(start, 0), min(start + span, num_samples)
            buffer.fill(0.0)
            buffer[lo - start : hi - start] = samples[lo:hi]
            spectra = np.fft.rfft(blocks, axis=1)
            spectra *= _FILTER_SPECTRUM
            filtered = np.fft.irfft(spectra, _BLOCK_FFT, axis=1)
            kept = filtered[:, len(_DECIMATION_FILTER) - 1 :: 3].reshape(-1)
            part = channel[first : first + per_batch]
            part[:] = kept[: part.size]
    return AudioBuffer(out, FEATURE_RATE)
