"""Separation quality metrics against simulator ground truth.

Outputs are decomposed by least-squares projection onto each clean
reference; the target projection's power against the rival projections'
power gives the interference ratio, and against the noise projections the
noise ratio.  Perfect reconstructions cap at 99 dB, and an output with no
projection on its target floors at -99 dB; zero-power references, and a
silent output (zero target power over zero residual), make the metric
undefined (None).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .audio import WavFile

SIR_CAP_DB = 99.0
EDGE_TRIM = 1024  # analysis/synthesis edges carry partial windows; skip them


@dataclass
class SourceQuality:
    source_id: str
    output_sir_db: float | None
    output_snr_db: float | None


@dataclass
class QualityReport:
    """Per-stage, per-source quality rows."""

    stages: dict[str, list[SourceQuality]]

    def to_csv(self, path: str) -> None:
        """One row per stage and source.  The input-side ratio needs clean
        per-microphone source images, which no file interface carries, so
        its column is always ``nan``."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["stage", "source", "input_sir_db", "output_sir_db", "output_snr_db"])
            for stage, rows in self.stages.items():
                for row in rows:
                    cells = ["nan" if v is None else f"{v:.4f}"
                             for v in (row.output_sir_db, row.output_snr_db)]
                    writer.writerow([stage, row.source_id, "nan", *cells])


def projected_power(output: np.ndarray, reference: np.ndarray) -> float | None:
    """Power of the output component explained by one reference; a float32
    input is widened first, so the products are always summed in float64."""
    output = np.asarray(output, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    ref_power = float(np.dot(reference, reference))
    if ref_power <= 0.0:
        return None
    gain = float(np.dot(output, reference)) / ref_power
    return gain * gain * ref_power


def _projection_ratio_db(output: np.ndarray, references: Iterable[np.ndarray],
                         n: int) -> float | None:
    """Projection power on the first of ``references`` (the target) over the
    summed projection powers on the rest, in dB, over the first ``n``
    samples less EDGE_TRIM at both ends.  Each reference is projected as the
    iteration yields it and released before the next one is drawn."""
    lo, hi = (EDGE_TRIM, n - EDGE_TRIM) if n > 2 * EDGE_TRIM else (0, n)
    output = output[..., lo:hi]
    target, residual = None, 0.0
    for reference in references:
        power = projected_power(output, reference[..., lo:hi])
        del reference  # perhaps a decoded channel: release it before the next one decodes
        if target is None:
            if power is None:
                return None
            target = power
        elif power is not None:
            residual += power
    if residual <= target * 10.0 ** (-SIR_CAP_DB / 10.0):
        return SIR_CAP_DB if target > 0.0 else None
    if target <= residual * 10.0 ** (-SIR_CAP_DB / 10.0):
        return -SIR_CAP_DB
    return min(SIR_CAP_DB, 10.0 * np.log10(target / residual))


def _decoded(references: list[np.ndarray | WavFile]) -> Iterable[np.ndarray]:
    """Each reference as an array, a mapped WAV file's first channel decoded
    only once the iteration reaches it."""
    return (r[0] if isinstance(r, WavFile) else r for r in references)


def interference_ratio_db(output: np.ndarray, target_ref: np.ndarray | WavFile,
                          rival_refs: list[np.ndarray | WavFile]) -> float | None:
    """Target projection power over the summed rival projection powers, in dB.

    A reference is an array, or a mapped WAV file scored on its first
    channel, which is decoded only while it is projected, so that no two
    decoded references exist at once.
    """
    output = np.asarray(output, dtype=np.float64)
    references = [target_ref, *rival_refs]
    n = min([output.shape[-1]] + [r.shape[-1] for r in references])
    return _projection_ratio_db(output, _decoded(references), n)


def noise_ratio_db(output: np.ndarray, target_ref: np.ndarray | WavFile,
                   noise: np.ndarray | WavFile) -> float | None:
    """Target projection power over the summed per-channel noise projections.

    ``target_ref`` is as ``interference_ratio_db`` takes it.  ``noise`` is
    (N, n): an array, or a mapped WAV file whose channels are decoded one at
    a time as they are projected, so that no (N, n) float64 copy of it
    exists.
    """
    output = np.asarray(output, dtype=np.float64)
    channels, length = noise.shape
    n = min(output.shape[-1], target_ref.shape[-1], length)
    return _projection_ratio_db(
        output, chain(_decoded([target_ref]), (noise[c] for c in range(channels))), n)


def measure_quality(separated: Iterable[np.ndarray], references: list[np.ndarray | WavFile],
                    noise: np.ndarray | WavFile | None = None,
                    source_ids: list[str] | None = None) -> list[SourceQuality]:
    """Quality rows for one stage: separated channel m against reference m.
    ``separated`` is read once, in order, so it may be a generator.

    The references are as ``interference_ratio_db`` takes them and ``noise``
    as ``noise_ratio_db`` does; without noise the noise ratio is undefined.
    """
    rows = []
    for m, output in enumerate(separated):
        rivals = [references[j] for j in range(len(references)) if j != m]
        sir = interference_ratio_db(output, references[m], rivals)
        snr = None if noise is None else noise_ratio_db(output, references[m], noise)
        name = source_ids[m] if source_ids else f"source_{m}"
        rows.append(SourceQuality(name, sir, snr))
    return rows
