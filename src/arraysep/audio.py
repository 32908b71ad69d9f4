"""Time-domain audio containers, WAV file I/O and sample-rate conversion.

All buffers are channels-first float64 arrays with amplitudes nominally in
[-1, 1].  Only the two pipeline rates are supported: 48 kHz on the
separation side and 16 kHz on the feature side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy import signal
from scipy.io import wavfile

from .errors import AudioIOError, ConfigError

SUPPORTED_RATES = (48000, 16000)


@dataclass
class AudioBuffer:
    """Multichannel audio: ``samples`` is (channels, n_samples) float64."""

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples[np.newaxis, :]
        if samples.ndim != 2:
            raise ConfigError("samples must be 1-D or (channels, n_samples)")
        if int(self.rate) not in SUPPORTED_RATES:
            raise ConfigError(
                f"unsupported sample rate {self.rate}; expected one of {SUPPORTED_RATES}"
            )
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

    def channel(self, index: int) -> np.ndarray:
        return self.samples[index]


def read_wav(path: str) -> AudioBuffer:
    """Read a RIFF WAV file (PCM16, int32, float32 or float64, 1-8 channels)."""
    if not os.path.isfile(path):
        raise AudioIOError(f"input file not found: {path}")
    try:
        rate, data = wavfile.read(path)
    except (ValueError, OSError) as exc:
        raise AudioIOError(f"cannot read WAV file {path}: {exc}") from exc
    if data.ndim == 1:
        data = data[:, np.newaxis]
    if data.shape[1] > 8:
        raise AudioIOError(f"{path}: {data.shape[1]} channels exceeds the 8-channel limit")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        raise AudioIOError(f"{path}: unsupported sample format {data.dtype}")
    return AudioBuffer(samples.T, rate)


def write_wav(path: str, audio: AudioBuffer) -> None:
    """Write ``audio`` as little-endian float32 RIFF WAV."""
    try:
        wavfile.write(path, audio.rate, audio.samples.T.astype(np.float32))
    except OSError as exc:
        raise AudioIOError(f"cannot write WAV file {path}: {exc}") from exc


def _design_decimation_filter() -> np.ndarray:
    # Kaiser lowpass for 48 -> 16 kHz decimation: flat (<0.01 dB) below 7 kHz,
    # > 60 dB rejection above 8 kHz so folded images stay out of the passband.
    return signal.firwin(401, 7450.0, window=("kaiser", 8.0), fs=48000.0)


_DECIMATION_FILTER = _design_decimation_filter()


def resample_48k_to_16k(audio: AudioBuffer) -> AudioBuffer:
    """Decimate a 48 kHz buffer to 16 kHz through the anti-alias filter."""
    if audio.rate != 48000:
        raise ConfigError(f"resampler expects 48000 Hz input, got {audio.rate}")
    out = signal.resample_poly(audio.samples, up=1, down=3, axis=-1, window=_DECIMATION_FILTER)
    return AudioBuffer(out, 16000)
