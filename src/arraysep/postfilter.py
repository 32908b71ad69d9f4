"""Per-source spectral post-filter for separated streams.

For every separated channel the noise variance is the sum of a stationary
estimate (minima-controlled recursive averaging) and a leakage estimate (a
fixed fraction of the other channels' smoothed spectra).  An MMSE
spectral-amplitude gain, weighted by a per-bin speech presence
probability, is then applied.  With one source, or a zero leak factor,
each channel reduces exactly to an independent single-channel suppressor.

Each frame also yields the input power, output power and stationary-noise
level integrated over the 24 mask bands, (3, sources, 24); the mask stage
consumes them without recomputing any gains.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage, special

from .config import PipelineConfig
from .errors import StreamError
from .features import mel_energies
from .masks import mask_filterbank
from .stft import SpectralFrame

_TINY = 1e-30
GAIN_FLOOR = 0.001   # final gain floor; also replaces non-finite gains
GAIN_MAX = 1.0
Q_LOW_DB = -10.0     # absence-prior ramp endpoints on prior SNR
Q_HIGH_DB = 5.0
Q_FLOOR = 0.02       # absence-prior bounds
Q_CEILING = 0.98
UPSILON_MAX = 30.0   # clamp inside exp(-upsilon)
# The minimum tracker's input smoother, faster than the noise recursion so
# the tracked minimum decays to the floor within sub-second speech pauses.
TRACKING_SMOOTHING = 0.8


class McraEstimator:
    """Stationary noise floor tracker, elementwise over (sources, bins) or bins.

    Smoothed power is compared against its tracked minimum; a ratio above
    the onset threshold freezes the noise recursion instantly, and the
    smoothed presence score releases it gradually once the transient ends.
    Transients therefore barely leak into the floor while stationary noise
    converges within a couple of tracking windows.  ``mcra_power_smoothing``
    governs the noise recursion itself.
    """

    def __init__(self, shape: int | tuple[int, ...], config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.noise = np.zeros(shape)
        self._smoothed = np.zeros(shape)
        self._minimum = np.zeros(shape)
        self._scratch = np.zeros(shape)
        self._presence = np.zeros(shape)
        self._frames_seen = 0

    def update(self, power: np.ndarray) -> np.ndarray:
        cfg = self.config
        if self._frames_seen == 0:
            self._smoothed = power.copy()
            self._minimum = power.copy()
            self._scratch = power.copy()
            self.noise = power.copy()
            self._frames_seen = 1
            return self.noise

        a = cfg.mcra_power_smoothing
        at = TRACKING_SMOOTHING
        self._smoothed = at * self._smoothed + (1.0 - at) * power
        if self._frames_seen % cfg.mcra_window_length == 0:
            self._minimum = np.minimum(self._scratch, self._smoothed)
            self._scratch = self._smoothed.copy()
        else:
            self._minimum = np.minimum(self._minimum, self._smoothed)
            self._scratch = np.minimum(self._scratch, self._smoothed)

        onset = self._smoothed > cfg.mcra_onset_threshold * np.maximum(self._minimum, _TINY)
        ap = cfg.mcra_presence_smoothing
        self._presence = ap * self._presence + (1.0 - ap) * onset
        hold = np.maximum(self._presence, onset)  # instant freeze, smoothed release
        retain = a + (1.0 - a) * hold
        self.noise = retain * self.noise + (1.0 - retain) * power
        self._frames_seen += 1
        return self.noise


class NoiseState:
    """Stationary plus leakage noise variances for all sources.

    Leakage couples the sources through their smoothed spectra, so a frame
    update refreshes every smoothed spectrum before any leakage estimate
    is read (the update order within one frame is: smooth all, track all,
    then sum leakage).  Each source's leakage is a direct sum over the
    other rows, never a total minus the row itself: that difference
    cancels when one source is many orders of magnitude louder.
    """

    def __init__(self, num_sources: int, num_bins: int, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.smoothed = np.zeros((num_sources, num_bins))
        self.stationary = np.zeros((num_sources, num_bins))
        self.leakage = np.zeros((num_sources, num_bins))
        self.total = np.zeros((num_sources, num_bins))
        self._mcra = McraEstimator((num_sources, num_bins), self.config)
        # row m lists every source except m, in order: (M, M - 1)
        others = [[j for j in range(num_sources) if j != m] for m in range(num_sources)]
        self._others = np.array(others, dtype=np.intp).reshape(num_sources, num_sources - 1)

    def update(self, power: np.ndarray) -> np.ndarray:
        """Advance one frame; ``power`` is (num_sources, num_bins).  Returns total."""
        if power.shape != self.smoothed.shape:
            raise StreamError(
                f"noise update expects {self.smoothed.shape}, got {power.shape}"
            )
        a = self.config.spectrum_smoothing
        self.smoothed = a * self.smoothed + (1.0 - a) * power
        self.stationary = self._mcra.update(power)
        self.leakage = self.config.leak_factor * np.sum(self.smoothed[self._others], axis=1)
        self.total = self.stationary + self.leakage
        return self.total


def _gain_core(upsilon: np.ndarray, gamma: np.ndarray,
               exponent: float) -> tuple[np.ndarray, int]:
    """Unclamped speech-present gain and its fault count, gamma the posterior SNR.

    Non-finite gains count as faults and are replaced by GAIN_FLOOR.
    """
    gain = np.zeros_like(upsilon)
    active = upsilon > 0
    if np.any(active):
        u = upsilon[active]
        g = gamma[active]
        if exponent == 1.0:
            # Scaled-Bessel evaluation of the spectral-amplitude estimator:
            # Gamma(1.5) * (sqrt(u)/g) * exp(-u/2) * ((1+u) I0(u/2) + u I1(u/2)),
            # stable for arbitrarily large u.
            bessel = (1.0 + u) * special.i0e(u / 2.0) + u * special.i1e(u / 2.0)
            gain[active] = (math.sqrt(math.pi) / 2.0) * np.sqrt(u) / g * bessel
        elif exponent == 2.0:
            # The series truncates: M(-1; 1; -u) = 1 + u.
            gain[active] = np.sqrt(u) / g * np.sqrt(1.0 + u)
        else:
            # M(-b/2; 1; -u) grows like u^(b/2) / Gamma(1 + b/2), so
            # bracket^(1/b) tends to sqrt(u): a Wiener-like gain at high SNR.
            # hyp1f1 overflows to inf far out (from u ~ 1e190 at b = 1.5),
            # where that limit is exact to rounding, so it stands in there.
            bracket = special.gamma(1.0 + exponent / 2.0) * special.hyp1f1(-exponent / 2.0, 1.0, -u)
            root = np.where(np.isfinite(bracket), bracket ** (1.0 / exponent), np.sqrt(u))
            gain[active] = np.sqrt(u) / g * root

    bad = ~np.isfinite(gain)
    faults = int(np.count_nonzero(bad))
    if faults:
        gain = np.where(bad, GAIN_FLOOR, gain)
    return gain, faults


def decision_directed_snr(prev_gain: np.ndarray, prev_snr_post: np.ndarray,
                          snr_post: np.ndarray, smoothing: float) -> np.ndarray:
    """Recursive prior-SNR estimate mixing the previous clean estimate with the
    current instantaneous one."""
    instantaneous = np.maximum(snr_post - 1.0, 0.0)
    return smoothing * prev_gain * prev_gain * prev_snr_post + (1.0 - smoothing) * instantaneous


def _window_mean(values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Mean over the +-halfwidth bins inside the row, along the last axis."""
    if halfwidth <= 0:
        return values.copy()
    # direct window sums: differences of cumulative sums cancel on spectra
    # spanning many decades
    num = ndimage.correlate1d(values, np.ones(2 * halfwidth + 1), axis=-1, mode="constant")
    k = np.arange(values.shape[-1])
    den = np.minimum(k, halfwidth) + np.minimum(k[::-1], halfwidth) + 1.0
    return num / den


def _snr_ramp(snr: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(np.maximum(snr, 0.0))
    return np.clip((snr_db - Q_LOW_DB) / (Q_HIGH_DB - Q_LOW_DB), 0.0, 1.0)


def speech_absence_prior(snr_prior: np.ndarray) -> np.ndarray:
    """A-priori probability that speech is absent, per bin.

    Three prior-SNR aggregates (local +-1 bin, broad +-15 bins, whole frame)
    each pass through a dB-linear ramp; their product is the presence
    evidence and the prior is its complement, kept inside
    [Q_FLOOR, Q_CEILING].  Bins run along the last axis, so a
    (num_sources, num_bins) array gives each source its own prior.
    """
    local = _snr_ramp(_window_mean(snr_prior, 1))
    broad = _snr_ramp(_window_mean(snr_prior, 15))
    frame = _snr_ramp(np.mean(snr_prior, axis=-1, keepdims=True))
    q = 1.0 - local * broad * frame
    return np.clip(q, Q_FLOOR, Q_CEILING)


def speech_presence_prob(absence_prior: np.ndarray, snr_prior: np.ndarray,
                         upsilon: np.ndarray) -> np.ndarray:
    """Per-bin posterior speech presence; an absence prior of 1 maps to 0."""
    q = np.asarray(absence_prior, dtype=np.float64)
    certain_absent = q >= 1.0
    q_safe = np.where(certain_absent, 0.5, q)
    odds = q_safe / (1.0 - q_safe)
    p = 1.0 / (1.0 + odds * (1.0 + snr_prior) * np.exp(-np.minimum(upsilon, UPSILON_MAX)))
    return np.where(certain_absent, 0.0, p)


class GainState:
    """Previous-frame gain and posterior SNR, per source and bin."""

    def __init__(self, num_sources: int, num_bins: int):
        self.prev_gain = np.zeros((num_sources, num_bins))
        self.prev_snr_post = np.zeros((num_sources, num_bins))
        self.fault_count = 0


class PostFilter:
    """Streaming multi-source suppressor operating on separated frames.

    Reads the post-filter keys of ``config`` (``PipelineConfig()`` if None).
    """

    def __init__(self, num_sources: int, num_bins: int, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.noise = NoiseState(num_sources, num_bins, self.config)
        self.gains = GainState(num_sources, num_bins)
        self._bank = mask_filterbank(2 * (num_bins - 1))

    def process(self, frame: SpectralFrame) -> tuple[SpectralFrame, np.ndarray, np.ndarray | None]:
        """The filtered frame; input, output and stationary-noise power over
        the mask bands, (3, M, 24); and, with ``dump_diagnostics`` only, the
        per-bin noise_stat, noise_leak, snr_prior, presence and gain,
        (5, M, n_bins), else None."""
        cfg = self.config
        bins = frame.bins
        if bins.shape != self.noise.smoothed.shape:
            raise StreamError(
                f"frame {frame.frame_index}: shape {bins.shape}, "
                f"post-filter expects {self.noise.smoothed.shape}"
            )
        power = np.abs(bins) ** 2

        noise_total = self.noise.update(power)
        snr_post = power / np.maximum(noise_total, _TINY)
        snr_prior = decision_directed_snr(
            self.gains.prev_gain, self.gains.prev_snr_post, snr_post, cfg.snr_smoothing
        )
        upsilon = snr_post * snr_prior / (1.0 + snr_prior)

        gain_h1, faults = _gain_core(upsilon, snr_post, cfg.spectral_exponent)
        gain_h1 = np.clip(gain_h1, 0.0, GAIN_MAX)
        self.gains.fault_count += faults

        q = speech_absence_prior(snr_prior)
        presence = speech_presence_prob(q, snr_prior, upsilon)

        gain = np.clip(presence ** (1.0 / cfg.spectral_exponent) * gain_h1, GAIN_FLOOR, GAIN_MAX)
        out_bins = gain * bins

        self.gains.prev_gain = gain_h1
        self.gains.prev_snr_post = snr_post

        bands = mel_energies(np.stack((power, np.abs(out_bins) ** 2, self.noise.stationary)),
                             self._bank)
        internals = None
        if cfg.dump_diagnostics:
            internals = np.stack((self.noise.stationary, self.noise.leakage, snr_prior,
                                  presence, gain))
        return SpectralFrame(out_bins, frame.frame_index, frame.fft_size, frame.rate), bands, internals
