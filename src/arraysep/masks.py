"""Per-band reliability masks derived from post-filter bookkeeping.

A band is reliable when the post-filter kept most of its energy or when
the stationary-noise estimate explains it (silence stays reliable).  The
post-filter integrates its separation-grid (48 kHz/1024) powers over
``mask_filterbank``, the same 0-8 kHz mel bands the feature pipeline uses,
so masks and features agree band-wise without a second analysis pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import FEATURE_RATE, SEPARATION_RATE
from .errors import AudioIOError, ConfigError
from .features import FEATURE_FFT_SIZE, FEATURE_SHIFT, mel_filterbank
from .formats import read_records, write_csv, write_records

DEFAULT_THRESHOLD = 0.25
# Bands carrying less than this fraction of the frame's total band energy
# count as silence and stay reliable.
SILENCE_FLOOR = 1e-10


def mask_filterbank(fft_size: int = 1024) -> np.ndarray:
    """The feature mel bands evaluated on the separation FFT grid, (24, n_bins)."""
    return mel_filterbank(fft_size, SEPARATION_RATE)


def compute_mask(band_in: np.ndarray, band_out: np.ndarray, band_noise: np.ndarray) -> np.ndarray:
    """Continuous reliability of band energies; bands run along the last axis.

    The value is (output + stationary noise) / input.  Bands whose input
    energy falls under SILENCE_FLOOR times the frame total are forced
    reliable with a value of 1.
    """
    band_in = np.asarray(band_in, dtype=np.float64)
    floor = SILENCE_FLOOR * band_in.sum(axis=-1, keepdims=True)
    silent = band_in <= floor
    safe_in = np.where(silent, 1.0, band_in)
    return np.where(silent, 1.0, (band_out + band_noise) / safe_in)


def band_reliability(bands: np.ndarray) -> np.ndarray:
    """The continuous reliability, (frames, sources, 24), of the post-filter's
    (frames, 3, sources, 24) band powers: input, output, stationary noise."""
    return compute_mask(bands[:, 0], bands[:, 1], bands[:, 2])


@dataclass
class MaskMatrix:
    """Frame-by-band reliability: continuous values plus static/delta bits."""

    continuous: np.ndarray  # (n_frames, bands) float
    static: np.ndarray      # (n_frames, bands) bool
    delta: np.ndarray       # (n_frames, bands) bool

    @property
    def num_frames(self) -> int:
        return self.continuous.shape[0]


def masks_from_records(reliability: np.ndarray, source: int,
                       threshold: float = DEFAULT_THRESHOLD) -> MaskMatrix:
    """Build the mask matrix for one separated source from the continuous
    reliability record, (frames, sources, 24), that ``band_reliability``
    gives; a static bit is reliable when its value exceeds ``threshold``.

    A delta bit is reliable when all five frames its regression spans are;
    the two frames at each end, which lack that context, keep delta = 0.
    """
    continuous = reliability[:, source]
    static = continuous > threshold
    delta = np.zeros_like(static)
    if len(continuous) >= 5:
        delta[2:-2] = sliding_window_view(static, 5, axis=0).all(axis=-1)
    return MaskMatrix(continuous, static, delta)


def align_to_feature_frames(mask: MaskMatrix, num_feature_frames: int, mask_shift: int = 512,
                            mask_size: int = 1024) -> MaskMatrix:
    """Resample the rows of ``mask``, which has at least one frame, onto the
    feature frame grid (FEATURE_FFT_SIZE / FEATURE_SHIFT at FEATURE_RATE)
    by nearest center time.

    The separation and feature pipelines run at slightly different frame
    rates (93.75 vs 100 frames/s); band-aligned masks tolerate this
    nearest-neighbour mapping.
    """
    feature_centers = ((np.arange(num_feature_frames) * FEATURE_SHIFT + FEATURE_FFT_SIZE / 2)
                       / FEATURE_RATE)
    mask_centers = (np.arange(mask.num_frames) * mask_shift + mask_size / 2) / SEPARATION_RATE
    nearest = np.searchsorted(mask_centers, feature_centers)
    nearest = np.clip(nearest, 0, mask.num_frames - 1)
    left = np.maximum(nearest - 1, 0)
    use_left = np.abs(mask_centers[left] - feature_centers) <= np.abs(mask_centers[nearest] - feature_centers)
    rows = np.where(use_left, left, nearest)
    return MaskMatrix(mask.continuous[rows], mask.static[rows], mask.delta[rows])


# --------------------------------------------------------------------------
# Mask files: CSV and a packed little-endian binary variant.
#
# Binary layout: one _MASK_HEADER, then one _mask_frame(bands) record per
# frame; bit i of the 32-bit static/delta words is band i, so at most 32 bands.
# --------------------------------------------------------------------------

_MASK_MAGIC = b"MASK"
_MASK_VERSION = 1
_MASK_HEADER = np.dtype([("magic", "S4"), ("version", "<u4"), ("count", "<u4"),
                         ("bands", "<u2"), ("pad", "V2")])


def _mask_frame(bands: int) -> np.dtype:
    return np.dtype([("index", "<u4"), ("continuous", "<f4", (bands,)),
                     ("static", "<u4"), ("delta", "<u4")])


def write_mask_csv(path: str, mask: MaskMatrix) -> None:
    bands = mask.continuous.shape[1]
    names = [f"{kind}_{i}" for kind in ("m", "static", "delta") for i in range(bands)]
    table = np.hstack([np.arange(mask.num_frames)[:, np.newaxis], mask.continuous,
                       mask.static, mask.delta])
    write_csv(path, "frame," + ",".join(names), table,
              ["%d"] + ["%.9e"] * bands + ["%d"] * (2 * bands), "mask")


def write_mask_binary(path: str, mask: MaskMatrix) -> None:
    bands = mask.continuous.shape[1]
    if bands > 32:
        raise ConfigError(f"a mask file holds at most 32 bands, not {bands}")
    header = np.array((_MASK_MAGIC, _MASK_VERSION, mask.num_frames, bands, b""), _MASK_HEADER)
    records = np.zeros(mask.num_frames, _mask_frame(bands))
    weights = 1 << np.arange(bands)
    records["index"] = np.arange(mask.num_frames)
    records["continuous"] = mask.continuous
    records["static"] = mask.static @ weights
    records["delta"] = mask.delta @ weights
    write_records(path, header, records, "mask")


def read_mask_binary(path: str) -> MaskMatrix:
    head, records = read_records(path, _MASK_HEADER, _MASK_MAGIC, _MASK_VERSION, "mask",
                                 lambda head: _mask_frame(int(head["bands"])))
    if head["bands"] > 32:
        raise AudioIOError(f"{path}: {head['bands']} bands, a mask file holds at most 32")
    weights = 1 << np.arange(int(head["bands"]))
    static = (records["static"][:, np.newaxis] & weights) != 0
    delta = (records["delta"][:, np.newaxis] & weights) != 0
    return MaskMatrix(records["continuous"].astype(np.float64), static, delta)
