"""Per-source spectral post-filter for separated streams.

For every separated channel the noise variance is the sum of a stationary
estimate (minima-controlled recursive averaging) and a leakage estimate (a
fixed fraction of the other channels' smoothed spectra).  An MMSE
spectral-amplitude gain, weighted by a per-bin speech presence
probability, is then applied.  With one source, or a zero leak factor,
each channel reduces exactly to an independent single-channel suppressor.

Each frame also yields the input power, output power and stationary-noise
level integrated over the 24 mask bands, (3, sources, 24), each banded
where it is computed; the mask stage consumes them without recomputing any
gains.

Only the recursions run frame by frame; everything downstream of them runs
over a block of frames at once, elementwise or along the bin axis, so a
frame's values do not depend on the block it fell in.  Both update
preallocated arrays in place, one numpy call per arithmetic step, in the
order the formulas in the comments give, so the results do not depend on
whether an intermediate had its own array.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import ndimage, special

from .config import PipelineConfig
from .errors import StreamError
from .features import NUM_BANDS, mel_energies
from .masks import mask_filterbank
from .stft import BLOCK_FRAMES, SpectralFrame

_TINY = 1e-30
GAIN_FLOOR = 0.001   # final gain floor; also replaces non-finite gains
GAIN_MAX = 1.0
Q_LOW_DB = -10.0     # absence-prior ramp endpoints on prior SNR
Q_HIGH_DB = 5.0
Q_FLOOR = 0.02       # absence-prior bounds
Q_CEILING = 0.98
UPSILON_MAX = 30.0   # clamp inside exp(-upsilon)
SNR_SMOOTHING = 0.98            # decision-directed weight on the previous frame
SPECTRUM_SMOOTHING = 0.7        # leakage reference smoother
MCRA_POWER_SMOOTHING = 0.95     # stationary-noise recursion weight
MCRA_WINDOW_LENGTH = 150        # minimum-tracking window, in frames
MCRA_PRESENCE_SMOOTHING = 0.95  # presence score smoother
MCRA_ONSET_THRESHOLD = 5.0      # smoothed power over tracked minimum that freezes the floor
# The minimum tracker's input smoother, faster than the noise recursion so
# the tracked minimum decays to the floor within sub-second speech pauses.
TRACKING_SMOOTHING = 0.8


class McraEstimator:
    """Stationary noise floor tracker, elementwise over (sources, bins) or bins.

    Smoothed power is compared against its tracked minimum; a ratio above
    the onset threshold freezes the noise recursion instantly, and the
    smoothed presence score releases it gradually once the transient ends.
    Transients therefore barely leak into the floor while stationary noise
    converges within a couple of tracking windows.  MCRA_POWER_SMOOTHING
    governs the noise recursion itself.  ``noise`` is one array, updated in
    place every frame.
    """

    def __init__(self, shape: int | tuple[int, ...]):
        self.noise = np.zeros(shape)
        self._smoothed = np.zeros(shape)
        self._minimum = np.zeros(shape)
        self._scratch = np.zeros(shape)
        self._presence = np.zeros(shape)
        self._work = np.zeros(shape)
        self._onset = np.zeros(shape, dtype=bool)
        self._frames_seen = 0

    def update(self, power: np.ndarray) -> None:
        if self._frames_seen == 0:
            for state in (self._smoothed, self._minimum, self._scratch, self.noise):
                state[...] = power
            self._frames_seen = 1
            return

        a = MCRA_POWER_SMOOTHING
        at = TRACKING_SMOOTHING
        ap = MCRA_PRESENCE_SMOOTHING
        smoothed, presence, work, onset = self._smoothed, self._presence, self._work, self._onset
        # smoothed = at * smoothed + (1 - at) * power
        smoothed *= at
        np.multiply(power, 1.0 - at, out=work)
        smoothed += work
        if self._frames_seen % MCRA_WINDOW_LENGTH == 0:
            np.minimum(self._scratch, smoothed, out=self._minimum)
            self._scratch[...] = smoothed
        else:
            np.minimum(self._minimum, smoothed, out=self._minimum)
            np.minimum(self._scratch, smoothed, out=self._scratch)

        # onset = smoothed > threshold * max(minimum, tiny)
        np.maximum(self._minimum, _TINY, out=work)
        work *= MCRA_ONSET_THRESHOLD
        np.greater(smoothed, work, out=onset)
        # presence = ap * presence + (1 - ap) * onset
        presence *= ap
        np.multiply(onset, 1.0 - ap, out=work)
        presence += work
        # retain = a + (1 - a) * max(presence, onset): instant freeze, smoothed release
        np.maximum(presence, onset, out=work)
        work *= 1.0 - a
        work += a
        # noise = retain * noise + (1 - retain) * power
        self.noise *= work
        np.subtract(1.0, work, out=work)
        work *= power
        self.noise += work
        self._frames_seen += 1


class NoiseState:
    """Stationary plus leakage noise variances for all sources.

    Leakage couples the sources through their smoothed spectra, so a frame
    update refreshes every smoothed spectrum before any leakage estimate
    is read (the update order within one frame is: smooth all, track all,
    then sum leakage).  Each source's leakage is a direct sum over the
    other rows, never a total minus the row itself: that difference
    cancels when one source is many orders of magnitude louder.  All four
    arrays are updated in place.  ``leak_factor`` is the power fraction of
    each rival's smoothed spectrum counted as leakage.
    """

    def __init__(self, num_sources: int, num_bins: int, leak_factor: float):
        self.leak_factor = leak_factor
        self.smoothed = np.zeros((num_sources, num_bins))
        self._mcra = McraEstimator((num_sources, num_bins))
        self.stationary = self._mcra.noise
        self.leakage = np.zeros((num_sources, num_bins))
        self.total = np.zeros((num_sources, num_bins))
        # row m lists every source except m, in order: (M, M - 1)
        others = [[j for j in range(num_sources) if j != m] for m in range(num_sources)]
        self._others = np.array(others, dtype=np.intp).reshape(num_sources, num_sources - 1)
        self._rows = np.zeros((num_sources, num_sources - 1, num_bins))

    def update(self, power: np.ndarray) -> np.ndarray:
        """Advance one frame; ``power`` is (num_sources, num_bins).  Returns total."""
        a = SPECTRUM_SMOOTHING
        # smoothed = a * smoothed + (1 - a) * power, with total as scratch
        self.smoothed *= a
        np.multiply(power, 1.0 - a, out=self.total)
        self.smoothed += self.total
        self._mcra.update(power)
        np.take(self.smoothed, self._others, axis=0, out=self._rows, mode="clip")
        np.add.reduce(self._rows, axis=1, out=self.leakage)
        self.leakage *= self.leak_factor
        np.add(self.stationary, self.leakage, out=self.total)
        return self.total


def _gain_core(upsilon: np.ndarray, gamma: np.ndarray,
               exponent: float) -> tuple[np.ndarray, int]:
    """Unclamped speech-present gain and its fault count, gamma the posterior SNR.

    Every bin is evaluated, then bins whose upsilon is not above 0 get gain
    0.  Non-finite gains count as faults and are replaced by GAIN_FLOOR.
    """
    gain, (a, b) = np.empty(upsilon.shape), np.empty((2,) + upsilon.shape)  # gain outlives a, b
    with np.errstate(all="ignore"):
        if exponent == 1.0:
            # Scaled-Bessel evaluation of the spectral-amplitude estimator:
            # Gamma(1.5) * (sqrt(u)/g) * exp(-u/2) * ((1+u) I0(u/2) + u I1(u/2)),
            # stable for arbitrarily large u.
            np.divide(upsilon, 2.0, out=a)
            special.i1e(a, out=b)
            special.i0e(a, out=a)
            np.add(upsilon, 1.0, out=gain)
            a *= gain
            b *= upsilon
            a += b
            np.sqrt(upsilon, out=gain)
            gain *= math.sqrt(math.pi) / 2.0
        elif exponent == 2.0:
            # The series truncates: M(-1; 1; -u) = 1 + u.
            np.add(upsilon, 1.0, out=a)
            np.sqrt(a, out=a)
            np.sqrt(upsilon, out=gain)
        else:
            # M(-b/2; 1; -u) grows like u^(b/2) / Gamma(1 + b/2), so
            # bracket^(1/b) tends to sqrt(u): a Wiener-like gain at high SNR.
            # hyp1f1 overflows to inf far out (from u ~ 1e190 at b = 1.5),
            # where that limit is exact to rounding, so it stands in there.
            np.negative(upsilon, out=a)
            special.hyp1f1(-exponent / 2.0, 1.0, a, out=a)
            a *= special.gamma(1.0 + exponent / 2.0)
            overflowed = ~np.isfinite(a)
            a **= 1.0 / exponent
            np.sqrt(upsilon, out=gain)
            np.copyto(a, gain, where=overflowed)
        # sqrt(u) / g * root
        gain /= gamma
        gain *= a
        np.copyto(gain, 0.0, where=~(upsilon > 0))
        # a finite sum rules out a non-finite gain
        faults = 0 if np.isfinite(np.sum(gain)) else int(np.count_nonzero(~np.isfinite(gain)))
    if faults:
        np.copyto(gain, GAIN_FLOOR, where=~np.isfinite(gain))
    return gain, faults


def decision_directed_snr(prev_gain: np.ndarray, prev_snr_post: np.ndarray,
                          snr_post: np.ndarray, smoothing: float) -> np.ndarray:
    """Recursive prior-SNR estimate mixing the previous clean estimate with the
    current instantaneous one."""
    out, instantaneous = np.empty((2,) + np.shape(snr_post))
    # smoothing * prev_gain * prev_gain * prev_snr_post + (1 - smoothing) * max(snr_post - 1, 0)
    np.multiply(prev_gain, smoothing, out=out)
    out *= prev_gain
    out *= prev_snr_post
    np.subtract(snr_post, 1.0, out=instantaneous)
    np.maximum(instantaneous, 0.0, out=instantaneous)
    instantaneous *= 1.0 - smoothing
    out += instantaneous
    return out


@functools.lru_cache(maxsize=None)
def _window_counts(num_bins: int, halfwidth: int) -> np.ndarray:
    """Bins inside each +-halfwidth window of a row (read-only)."""
    k = np.arange(num_bins)
    counts = np.minimum(k, halfwidth) + np.minimum(k[::-1], halfwidth) + 1.0
    counts.setflags(write=False)
    return counts


def _window_mean(values: np.ndarray, halfwidth: int, out: np.ndarray) -> np.ndarray:
    """Mean over the +-halfwidth bins inside the row, along the last axis
    (at least two bins; halfwidth at least 1), written to and returned in ``out``.

    Window sums are direct, never differences of cumulative sums, which
    cancel on spectra spanning many decades.
    """
    ndimage.correlate1d(values, np.ones(2 * halfwidth + 1), axis=-1, output=out, mode="constant")
    out /= _window_counts(out.shape[-1], halfwidth)
    return out


def speech_absence_prior(snr_prior: np.ndarray) -> np.ndarray:
    """A-priori probability that speech is absent, per bin.

    Three prior-SNR aggregates (local +-1 bin, broad +-15 bins, whole frame)
    each pass through a dB-linear ramp; their product is the presence
    evidence and the prior is its complement, kept inside
    [Q_FLOOR, Q_CEILING].  Bins run along the last axis, so a
    (num_sources, num_bins) array gives each source its own prior.
    """
    values = np.asarray(snr_prior, dtype=np.float64)
    shape, n = values.shape, values.size
    # the three aggregates side by side, so one pass ramps them all
    stacked = np.empty(2 * n + n // shape[-1])
    local = _window_mean(values, 1, stacked[:n].reshape(shape))
    broad = _window_mean(values, 15, stacked[n : 2 * n].reshape(shape))
    frame = stacked[2 * n :].reshape(shape[:-1] + (1,))
    np.add.reduce(values, axis=-1, keepdims=True, out=frame)
    frame /= shape[-1]
    # ramp = clip((10 log10(max(aggregate, 0)) - Q_LOW_DB) / (Q_HIGH_DB - Q_LOW_DB), 0, 1)
    np.maximum(stacked, 0.0, out=stacked)
    with np.errstate(divide="ignore"):
        np.log10(stacked, out=stacked)
    stacked *= 10.0
    stacked -= Q_LOW_DB
    stacked /= Q_HIGH_DB - Q_LOW_DB
    np.maximum(stacked, 0.0, out=stacked)
    np.minimum(stacked, 1.0, out=stacked)
    # q = clip(1 - local * broad * frame, Q_FLOOR, Q_CEILING)
    local *= broad
    local *= frame
    np.subtract(1.0, local, out=local)
    np.maximum(local, Q_FLOOR, out=local)
    np.minimum(local, Q_CEILING, out=local)
    return local


def speech_presence_prob(absence_prior: np.ndarray, snr_prior: np.ndarray,
                         upsilon: np.ndarray) -> np.ndarray:
    """Per-bin posterior speech presence for absence priors in [0, 1]; a
    prior of 1 maps to 0."""
    q = np.asarray(absence_prior, dtype=np.float64)
    p, work = np.empty((2,) + q.shape)
    # 1 / (1 + q / (1 - q) * (1 + snr_prior) * exp(-min(upsilon, UPSILON_MAX)))
    np.subtract(1.0, q, out=p)
    with np.errstate(divide="ignore"):  # q = 1: infinite odds, presence 0
        np.divide(q, p, out=p)
    np.add(snr_prior, 1.0, out=work)
    p *= work
    np.minimum(upsilon, UPSILON_MAX, out=work)
    np.negative(work, out=work)
    np.exp(work, out=work)
    p *= work
    p += 1.0
    np.divide(1.0, p, out=p)
    return p


class GainState:
    """Previous-frame gain and posterior SNR, per source and bin."""

    def __init__(self, num_sources: int, num_bins: int):
        self.prev_gain = np.zeros((num_sources, num_bins))
        self.prev_snr_post = np.zeros((num_sources, num_bins))
        self.fault_count = 0


class PostFilter:
    """Streaming multi-source suppressor operating on separated frames.

    Reads ``leak_factor``, ``spectral_exponent`` and ``dump_diagnostics``
    from ``config`` (``PipelineConfig()`` if None).
    The work is split in two.  ``process`` runs, frame by frame, the part
    that feeds back into later frames: the noise update, the
    decision-directed prior SNR and the speech-present gain.  It bands the
    frame's input power and stationary noise onto the mask bands and queues
    the rest of its inputs, up to BLOCK_FRAMES frames.  ``flush`` then runs
    everything that does not feed back over all queued frames in one pass:
    the absence prior, presence, the final gain, the output and its banded
    power.  Where the flushes fall does not change any result.
    """

    def __init__(self, num_sources: int, num_bins: int, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.noise = NoiseState(num_sources, num_bins, self.config.leak_factor)
        self.gains = GainState(num_sources, num_bins)
        self._bank = mask_filterbank(2 * (num_bins - 1))
        self._power, self._snr_post, self._scratch = np.zeros((3, num_sources, num_bins))
        # the queued frames' indexes, then per frame the input bins; input
        # power, output power and stationary noise over the mask bands; the
        # prior SNR, upsilon and gain of process; and, for the dump only, the
        # stationary noise and the leakage per bin
        self.queued = []
        shape = (BLOCK_FRAMES, num_sources, num_bins)
        self._bins = np.zeros(shape, dtype=np.complex128)
        self._bands = np.zeros((BLOCK_FRAMES, 3, num_sources, NUM_BANDS))
        self._snr_prior, self._upsilon, self._gain = np.zeros((3,) + shape)
        self._stationary, self._leakage = (np.zeros((2,) + shape) if self.config.dump_diagnostics
                                           else (None, None))

    def process(self, frame: SpectralFrame) -> None:
        """Advance the recursions by one frame and queue it for ``flush``."""
        cfg = self.config
        bins = frame.bins
        if bins.shape != self.noise.smoothed.shape:
            raise StreamError(
                f"frame {frame.frame_index}: shape {bins.shape}, "
                f"post-filter expects {self.noise.smoothed.shape}"
            )
        k = len(self.queued)
        if k == len(self._bins):
            raise StreamError(f"frame {frame.frame_index}: post-filter block is full; flush it")
        self._bins[k] = bins
        power = self._power
        np.abs(bins, out=power)
        np.square(power, out=power)
        self._bands[k, 0] = mel_energies(power, self._bank)

        noise_total = self.noise.update(power)
        snr_post = self._snr_post
        np.maximum(noise_total, _TINY, out=snr_post)
        np.divide(power, snr_post, out=snr_post)
        snr_prior = self._snr_prior[k]
        snr_prior[...] = decision_directed_snr(
            self.gains.prev_gain, self.gains.prev_snr_post, snr_post, SNR_SMOOTHING
        )
        # upsilon = snr_post * snr_prior / (1 + snr_prior)
        upsilon = self._upsilon[k]
        np.add(snr_prior, 1.0, out=self._scratch)
        np.multiply(snr_post, snr_prior, out=upsilon)
        upsilon /= self._scratch

        gain_h1, faults = _gain_core(upsilon, snr_post, cfg.spectral_exponent)
        np.maximum(gain_h1, 0.0, out=gain_h1)
        np.minimum(gain_h1, GAIN_MAX, out=gain_h1)
        self.gains.fault_count += faults
        self._gain[k] = gain_h1

        self.gains.prev_gain = gain_h1
        self.gains.prev_snr_post, self._snr_post = snr_post, self.gains.prev_snr_post
        self._bands[k, 2] = mel_energies(self.noise.stationary, self._bank)
        if self._leakage is not None:
            self._stationary[k] = self.noise.stationary
            self._leakage[k] = self.noise.leakage
        self.queued.append(frame.frame_index)

    def flush(self) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...] | None]:
        """Filter every queued frame in place and empty the queue.  Returns
        the filtered bins, (k, M, n_bins); their input, output and
        stationary-noise power over the mask bands, (k, 3, M, 24); and, with
        ``dump_diagnostics`` only, their per-bin noise_stat, noise_leak,
        snr_prior, presence and gain, five (k, M, n_bins) arrays, else None.
        All three stay valid until the next ``process``."""
        cfg = self.config
        k = len(self.queued)
        snr_prior, gain = self._snr_prior[:k], self._gain[:k]
        q = speech_absence_prior(snr_prior)
        presence = speech_presence_prob(q, snr_prior, self._upsilon[:k])

        # gain = clip(presence ** (1 / exponent) * gain_h1, GAIN_FLOOR, GAIN_MAX)
        q[...] = presence
        q **= 1.0 / cfg.spectral_exponent  # the power operator's fast paths, as ever
        gain *= q
        np.maximum(gain, GAIN_FLOOR, out=gain)
        np.minimum(gain, GAIN_MAX, out=gain)
        out_bins = self._bins[:k]
        out_bins *= gain

        out_power = self._upsilon[:k]  # upsilon is spent once presence is known
        np.abs(out_bins, out=out_power)
        np.square(out_power, out=out_power)
        bands = self._bands[:k]
        bands[:, 1] = mel_energies(out_power, self._bank)
        internals = None
        if self._leakage is not None:
            internals = self._stationary[:k], self._leakage[:k], snr_prior, presence, gain
        self.queued = []
        return out_bins, bands, internals
