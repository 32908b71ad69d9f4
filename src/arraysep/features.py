"""Mel filterbank and the log-mel-spectral feature pipeline.

Features are spectral, not cepstral: the cepstral detour (DCT, lifter,
mean subtraction, inverse DCT) smooths the envelope and removes
convolutive effects while landing back in the 24-band log-mel domain,
where per-band reliability masks remain meaningful.

Pipeline per 16 kHz utterance: 400-point FFT with 160-sample shift, 24
triangular mel bands, log, DCT, lifter (coefficients 0 and 13-23 zeroed),
per-utterance cepstral mean subtraction, inverse DCT, then +-2 frame
regression deltas.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft

from .audio import FEATURE_RATE, AudioBuffer
from .errors import AudioIOError, ConfigError
from .formats import read_records, write_csv, write_records
from .stft import analysis_frames, sqrt_hann_window, windowed_rfft

NUM_BANDS = 24
FEATURE_FFT_SIZE = 400
FEATURE_SHIFT = 160
BAND_HIGH_HZ = 8000.0
LIFTER_KEPT = range(1, 13)  # cepstra 0 and 13..23 are zeroed

# Band energies are floored relative to the utterance's loudest band (-50 dB)
# before the log, so envelope dips land at a consistent level whether the
# recording floor is ambient noise or digital silence.  The relative floor
# scales with input gain, keeping static features gain-invariant.
RELATIVE_FLOOR = 1e-5
_LOG_FLOOR = 1e-30
_DELTA_WEIGHTS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) / 10.0  # +-2 frame regression

# Frames tapered and transformed together, so the windowed frames and their
# complex spectra never exist for the whole utterance at once; each row's
# rfft is the same whatever its batch.  The mel product stays one call over
# all frames: BLAS rounds a small block's product differently.
POWER_BLOCK_FRAMES = 64


def mel_from_hz(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz) / 700.0)


def hz_from_mel(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=None)
def mel_filterbank(fft_size: int = FEATURE_FFT_SIZE, rate: int = FEATURE_RATE) -> np.ndarray:
    """Triangular weights, (NUM_BANDS, fft_size // 2 + 1), equally mel-spaced
    up to 8 kHz (read-only, built once per grid).

    Works on any grid: the same band edges evaluated on a 48 kHz/1024 grid
    give band-aligned energies for the mask stage.
    """
    if BAND_HIGH_HZ > rate / 2:
        raise ConfigError(f"band edge {BAND_HIGH_HZ} Hz above Nyquist for rate {rate}")
    edges_hz = hz_from_mel(np.linspace(0.0, mel_from_hz(BAND_HIGH_HZ), NUM_BANDS + 2))
    bin_hz = np.arange(fft_size // 2 + 1) * rate / fft_size
    weights = np.zeros((NUM_BANDS, len(bin_hz)))
    for i in range(NUM_BANDS):
        lo, mid, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bin_hz - lo) / (mid - lo)
        falling = (hi - bin_hz) / (hi - mid)
        weights[i] = np.maximum(0.0, np.minimum(rising, falling))
    weights.setflags(write=False)
    return weights


def mel_energies(power_spectrum: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Band energies from a half-spectrum power vector (or a stack of them)."""
    spectrum = np.asarray(power_spectrum, dtype=np.float64)
    if spectrum.shape[-1] != weights.shape[1]:
        raise ConfigError(
            f"spectrum has {spectrum.shape[-1]} bins, filterbank expects {weights.shape[1]}"
        )
    return spectrum @ weights.T


def zero_lifter(cepstra: np.ndarray) -> np.ndarray:
    """Keep cepstra 1-12, zero the rest (idempotent)."""
    out = np.zeros_like(cepstra)
    out[..., LIFTER_KEPT] = cepstra[..., LIFTER_KEPT]
    return out


# One row per frame: log-mel-spectral values and their regression deltas,
# zero where the frame lacks +-2 frames of context (has_delta false).
FEATURE_RECORD = np.dtype([("frame_index", "<u4"), ("has_delta", "?"),
                           ("static", "<f8", (NUM_BANDS,)), ("delta", "<f8", (NUM_BANDS,))])


def delta_features(static: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear-regression deltas over +-2 frames.

    Returns (deltas, valid) where ``valid`` marks frames with full context;
    deltas outside it are zero.
    """
    n = static.shape[0]
    deltas = np.zeros_like(static)
    valid = np.zeros(n, dtype=bool)
    if n >= 5:
        deltas[2:-2] = sliding_window_view(static, 5, axis=0) @ _DELTA_WEIGHTS
        valid[2:-2] = True
    return deltas, valid


def extract_features(audio: AudioBuffer, lifter: bool = True,
                     mean_subtract: bool = True) -> np.recarray:
    """Run the full feature pipeline on a mono 16 kHz utterance: one
    ``FEATURE_RECORD`` row per FEATURE_FFT_SIZE / FEATURE_SHIFT frame."""
    if audio.rate != FEATURE_RATE:
        raise ConfigError(f"feature pipeline expects {FEATURE_RATE} Hz input, got {audio.rate}")
    if audio.num_channels != 1:
        raise ConfigError("feature pipeline expects a mono buffer")

    frames = analysis_frames(audio.samples[0], FEATURE_FFT_SIZE, FEATURE_SHIFT)
    if not len(frames):
        return np.zeros(0, FEATURE_RECORD).view(np.recarray)
    window = sqrt_hann_window(FEATURE_FFT_SIZE)
    power = np.empty((len(frames), FEATURE_FFT_SIZE // 2 + 1))
    for start in range(0, len(frames), POWER_BLOCK_FRAMES):
        block = power[start : start + POWER_BLOCK_FRAMES]
        np.abs(windowed_rfft(frames[start : start + POWER_BLOCK_FRAMES], window), out=block)
        np.square(block, out=block)
    energies = mel_energies(power, mel_filterbank())
    del power, block  # the last block is a view of the spectra: both go before the cepstra
    floor = max(float(energies.max()) * RELATIVE_FLOOR, _LOG_FLOOR)
    log_mel = np.log(np.maximum(energies, floor))

    cepstra = sfft.dct(log_mel, type=2, norm="ortho", axis=1)
    if lifter:
        cepstra = zero_lifter(cepstra)
    if mean_subtract:
        cepstra = cepstra - cepstra.mean(axis=0, keepdims=True)
    static = sfft.idct(cepstra, type=2, norm="ortho", axis=1)

    if len(frames) < 5:
        warnings.warn(f"utterance of {len(frames)} frames is too short for delta features")
    # allocated past the transforms' memory peak
    features = np.zeros(len(frames), FEATURE_RECORD).view(np.recarray)
    features["frame_index"], features["static"] = np.arange(len(frames)), static
    features["delta"], features["has_delta"] = delta_features(static)
    return features


# --------------------------------------------------------------------------
# Feature files: CSV and a packed little-endian binary variant.
#
# Binary layout: one _FEATURE_HEADER, then one _FEATURE_FRAME record per
# frame: FEATURE_RECORD's fields in order, at float32, with 3 zero pad bytes
# after has_delta.
# --------------------------------------------------------------------------

_FEATURE_MAGIC = b"MELF"
_FEATURE_VERSION = 1
_FEATURE_HEADER = np.dtype([("magic", "S4"), ("version", "<u4"), ("count", "<u4"),
                            ("n_static", "<u2"), ("n_delta", "<u2")])
_FEATURE_FRAME = np.dtype({"names": FEATURE_RECORD.names,
                           "formats": ["<u4", "u1", ("<f4", (NUM_BANDS,)), ("<f4", (NUM_BANDS,))],
                           "offsets": [0, 4, 8, 104], "itemsize": 200})


def write_features_csv(path: str, features: np.ndarray) -> None:
    names = [f"static_{i}" for i in range(NUM_BANDS)] + [f"delta_{i}" for i in range(NUM_BANDS)]
    table = np.column_stack([features[name] for name in FEATURE_RECORD.names])
    write_csv(path, "frame,has_delta," + ",".join(names), table,
              ["%d", "%d"] + ["%.9e"] * (2 * NUM_BANDS), "feature")


def write_features_binary(path: str, features: np.ndarray) -> None:
    header = np.array((_FEATURE_MAGIC, _FEATURE_VERSION, len(features), NUM_BANDS, NUM_BANDS),
                      _FEATURE_HEADER)
    records = np.zeros(len(features), _FEATURE_FRAME)
    records[...] = features  # field by field, in order; the pad bytes stay zero
    write_records(path, header, records, "feature")


def read_features_binary(path: str) -> np.recarray:
    head, records = read_records(path, _FEATURE_HEADER, _FEATURE_MAGIC, _FEATURE_VERSION,
                                 "feature", lambda head: _FEATURE_FRAME)
    if (head["n_static"], head["n_delta"]) != (NUM_BANDS, NUM_BANDS):
        raise AudioIOError(f"{path}: {head['n_static']}+{head['n_delta']} values per frame, "
                           f"expected {NUM_BANDS}+{NUM_BANDS}")
    return records.astype(FEATURE_RECORD).view(np.recarray)
