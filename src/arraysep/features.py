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

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft

from .audio import AudioBuffer
from .errors import AudioIOError, ConfigError
from .stft import stft_analyze

NUM_BANDS = 24
FEATURE_FFT_SIZE = 400
FEATURE_SHIFT = 160
FEATURE_RATE = 16000
BAND_HIGH_HZ = 8000.0
LIFTER_KEPT = range(1, 13)  # cepstra 0 and 13..23 are zeroed

# Band energies are floored relative to the utterance's loudest band (-50 dB)
# before the log, so envelope dips land at a consistent level whether the
# recording floor is ambient noise or digital silence.  The relative floor
# scales with input gain, keeping static features gain-invariant.
RELATIVE_FLOOR = 1e-5
_LOG_FLOOR = 1e-30
_DELTA_WEIGHTS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) / 10.0  # +-2 frame regression


def mel_from_hz(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz) / 700.0)


def hz_from_mel(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel-band weights on one FFT grid; ``weights`` is (num_bands, n_bins)."""

    weights: np.ndarray
    fft_size: int
    rate: int
    low_hz: float
    high_hz: float

    @property
    def num_bands(self) -> int:
        return self.weights.shape[0]

    @property
    def num_bins(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def build(cls, num_bands: int = NUM_BANDS, fft_size: int = FEATURE_FFT_SIZE,
              rate: int = FEATURE_RATE, low_hz: float = 0.0,
              high_hz: float = BAND_HIGH_HZ) -> "MelFilterbank":
        """Equally mel-spaced triangles between ``low_hz`` and ``high_hz``.

        Works on any grid: the same band edges evaluated on a 48 kHz/1024
        grid give band-aligned energies for the mask stage.
        """
        if high_hz > rate / 2:
            raise ConfigError(f"band edge {high_hz} Hz above Nyquist for rate {rate}")
        edges_hz = hz_from_mel(np.linspace(mel_from_hz(low_hz), mel_from_hz(high_hz), num_bands + 2))
        n_bins = fft_size // 2 + 1
        bin_hz = np.arange(n_bins) * rate / fft_size
        weights = np.zeros((num_bands, n_bins))
        for i in range(num_bands):
            lo, mid, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
            rising = (bin_hz - lo) / (mid - lo)
            falling = (hi - bin_hz) / (hi - mid)
            weights[i] = np.maximum(0.0, np.minimum(rising, falling))
        return cls(weights, fft_size, rate, low_hz, high_hz)


def mel_energies(power_spectrum: np.ndarray, bank: MelFilterbank) -> np.ndarray:
    """Band energies from a half-spectrum power vector (or a stack of them)."""
    spectrum = np.asarray(power_spectrum, dtype=np.float64)
    if spectrum.shape[-1] != bank.num_bins:
        raise ConfigError(
            f"spectrum has {spectrum.shape[-1]} bins, filterbank expects {bank.num_bins}"
        )
    return spectrum @ bank.weights.T


def zero_lifter(cepstra: np.ndarray) -> np.ndarray:
    """Keep cepstra 1-12, zero the rest (idempotent)."""
    out = np.zeros_like(cepstra)
    out[..., LIFTER_KEPT] = cepstra[..., LIFTER_KEPT]
    return out


@dataclass
class FeatureVector:
    frame_index: int
    static: np.ndarray           # (24,) log-mel-spectral values
    delta: np.ndarray            # (24,) regression deltas, zero without context
    has_delta: bool = True


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


def extract_features(audio: AudioBuffer, bank: MelFilterbank | None = None,
                     fft_size: int = FEATURE_FFT_SIZE, shift: int = FEATURE_SHIFT,
                     lifter: bool = True, mean_subtract: bool = True) -> list[FeatureVector]:
    """Run the full feature pipeline on a mono 16 kHz utterance."""
    if audio.rate != FEATURE_RATE:
        raise ConfigError(f"feature pipeline expects {FEATURE_RATE} Hz input, got {audio.rate}")
    if audio.num_channels != 1:
        raise ConfigError("feature pipeline expects a mono buffer")
    if bank is None:
        bank = MelFilterbank.build(fft_size=fft_size, rate=audio.rate)

    frames = list(stft_analyze(audio, fft_size, shift))
    if not frames:
        return []
    power = np.stack([np.abs(f.bins[0]) ** 2 for f in frames])
    energies = mel_energies(power, bank)
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
    deltas, valid = delta_features(static)
    return [
        FeatureVector(frame.frame_index, static[t], deltas[t], bool(valid[t]))
        for t, frame in enumerate(frames)
    ]


# --------------------------------------------------------------------------
# Feature files: CSV and a packed little-endian binary variant.
#
# Binary layout: one _FEATURE_HEADER, then one _FEATURE_FRAME record per frame.
# --------------------------------------------------------------------------

_FEATURE_MAGIC = b"MELF"
_FEATURE_VERSION = 1
_FEATURE_HEADER = np.dtype([("magic", "S4"), ("version", "<u4"), ("count", "<u4"),
                            ("n_static", "<u2"), ("n_delta", "<u2")])
_FEATURE_FRAME = np.dtype([("index", "<u4"), ("has_delta", "u1"), ("pad", "V3"),
                           ("static", "<f4", (NUM_BANDS,)), ("delta", "<f4", (NUM_BANDS,))])


def _write_records(path: str, header: np.ndarray, records: np.ndarray, kind: str) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(header.tobytes() + records.tobytes())
    except OSError as exc:
        raise AudioIOError(f"cannot write {kind} file {path}: {exc}") from exc


def _read_records(path: str, header: np.dtype, magic: bytes, version: int, kind: str,
                  frame) -> tuple[np.void, np.ndarray]:
    """Check a header-plus-records file and view its body as ``frame(header)`` records."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise AudioIOError(f"cannot read {kind} file {path}: {exc}") from exc
    if data[:4] != magic:
        raise AudioIOError(f"{path}: not a {kind} file")
    if len(data) < header.itemsize:
        raise AudioIOError(f"{path}: truncated {kind} file header")
    head = np.frombuffer(data, header, count=1)[0]
    if head["version"] != version:
        raise AudioIOError(f"{path}: unsupported {kind} file version {head['version']}")
    record = frame(head)
    count = int(head["count"])
    if len(data) != header.itemsize + count * record.itemsize:
        raise AudioIOError(f"{path}: {len(data)} bytes do not hold {count} {kind} frames")
    return head, np.frombuffer(data, record, count=count, offset=header.itemsize)


def _write_csv(path: str, header: str, table: np.ndarray, fmt: list[str], kind: str) -> None:
    try:
        np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")
    except OSError as exc:
        raise AudioIOError(f"cannot write {kind} file {path}: {exc}") from exc


def write_features_csv(path: str, features: list[FeatureVector]) -> None:
    names = [f"static_{i}" for i in range(NUM_BANDS)] + [f"delta_{i}" for i in range(NUM_BANDS)]
    table = np.array([np.concatenate(([vec.frame_index, vec.has_delta], vec.static, vec.delta))
                      for vec in features]).reshape(len(features), 2 + 2 * NUM_BANDS)
    _write_csv(path, "frame,has_delta," + ",".join(names), table,
               ["%d", "%d"] + ["%.9e"] * (2 * NUM_BANDS), "feature")


def write_features_binary(path: str, features: list[FeatureVector]) -> None:
    header = np.array((_FEATURE_MAGIC, _FEATURE_VERSION, len(features), NUM_BANDS, NUM_BANDS),
                      _FEATURE_HEADER)
    records = np.zeros(len(features), _FEATURE_FRAME)
    if features:
        records["index"] = [vec.frame_index for vec in features]
        records["has_delta"] = [vec.has_delta for vec in features]
        records["static"] = [vec.static for vec in features]
        records["delta"] = [vec.delta for vec in features]
    _write_records(path, header, records, "feature")


def read_features_binary(path: str) -> list[FeatureVector]:
    head, records = _read_records(path, _FEATURE_HEADER, _FEATURE_MAGIC, _FEATURE_VERSION,
                                  "feature", lambda head: _FEATURE_FRAME)
    if (head["n_static"], head["n_delta"]) != (NUM_BANDS, NUM_BANDS):
        raise AudioIOError(f"{path}: {head['n_static']}+{head['n_delta']} values per frame, "
                           f"expected {NUM_BANDS}+{NUM_BANDS}")
    static = records["static"].astype(np.float64)
    delta = records["delta"].astype(np.float64)
    return [FeatureVector(int(index), s, d, bool(has_delta))
            for index, has_delta, s, d in zip(records["index"], records["has_delta"], static, delta)]
