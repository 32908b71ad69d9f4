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


def _span(n: int) -> slice:
    """The first ``n`` samples less EDGE_TRIM at both ends, or all of them if too few."""
    return slice(EDGE_TRIM, n - EDGE_TRIM) if n > 2 * EDGE_TRIM else slice(0, n)


def _ratio_db(target: float | None, rivals: list[float | None]) -> float | None:
    """Projection power on the target over the rivals' summed in order, in dB;
    a rival with no power (a zero-power reference) is left out."""
    if target is None:
        return None
    residual = 0.0
    for power in rivals:
        if power is not None:
            residual += power
    if residual <= target * 10.0 ** (-SIR_CAP_DB / 10.0):
        return SIR_CAP_DB if target > 0.0 else None
    if target <= residual * 10.0 ** (-SIR_CAP_DB / 10.0):
        return -SIR_CAP_DB
    return min(SIR_CAP_DB, 10.0 * np.log10(target / residual))


def interference_ratio_db(output: np.ndarray, target_ref: np.ndarray | WavFile,
                          rival_refs: list[np.ndarray | WavFile]) -> float | None:
    """Target projection power over the summed rival projection powers, in dB,
    over the shortest input's length less EDGE_TRIM at both ends.

    A reference is an array, or a mapped WAV file scored on its first
    channel, which is decoded only while it is projected, so that no two
    decoded references exist at once.
    """
    return measure_quality([output], [target_ref, *rival_refs])[0].output_sir_db


def measure_quality(separated: Iterable[np.ndarray], references: list[np.ndarray | WavFile],
                    noise: np.ndarray | WavFile | None = None,
                    source_ids: list[str] | None = None) -> list[SourceQuality]:
    """Quality rows for one stage: separated channel m against reference m.

    The references are as ``interference_ratio_db`` takes them.  ``noise``
    is (N, n): an array, or a mapped WAV file whose channels are decoded one
    at a time as they are projected, so that no (N, n) float64 copy of it
    exists; without noise the noise ratio is undefined.
    Every output is held while each reference, then each noise channel, is
    decoded once, projected onto all of them and released before the next
    one decodes.  Each output's interference ratio spans the shortest of it
    and the references, and its noise ratio the shortest of it, its own
    reference and the noise.
    """
    outputs = [np.asarray(output, dtype=np.float64) for output in separated]
    shortest = min((r.shape[-1] for r in references), default=0)
    sir_spans = [_span(min(o.shape[-1], shortest)) for o in outputs]
    snr_spans = [_span(min(o.shape[-1], references[m].shape[-1], noise.shape[-1]))
                 for m, o in enumerate(outputs)] if noise is not None else []
    on_references = [[] for _ in outputs]  # over each output's interference span
    on_noise = [[] for _ in outputs]  # own reference, then each noise channel
    for j, reference in enumerate(references):
        channel = reference[0] if isinstance(reference, WavFile) else reference
        for m, output in enumerate(outputs):
            span = sir_spans[m]
            on_references[m].append(projected_power(output[..., span], channel[..., span]))
            if j == m and noise is not None:
                span = snr_spans[m]
                on_noise[m].append(projected_power(output[..., span], channel[..., span]))
        del channel  # perhaps a decoded channel: release it before the next one decodes
    for c in range(0 if noise is None else noise.shape[0]):
        channel = noise[c]
        for m, output in enumerate(outputs):
            on_noise[m].append(projected_power(output[..., snr_spans[m]],
                                               channel[..., snr_spans[m]]))
        del channel
    rows = []
    for m, powers in enumerate(on_references):
        sir = _ratio_db(powers[m], powers[:m] + powers[m + 1 :])
        snr = None if noise is None else _ratio_db(on_noise[m][0], on_noise[m][1:])
        rows.append(SourceQuality(source_ids[m] if source_ids else f"source_{m}", sir, snr))
    return rows
