"""Deterministic anechoic scene synthesis for testing and benchmarks.

Scenes place far-field sources around a microphone array, render each one
to every microphone through windowed-sinc fractional delays consistent
with the steering model, and add independent white noise per channel.
Everything is a pure function of the scene description including its
seed, so rendered scenes are bit-reproducible within one version of the
package on one machine.  Harmonic trains are summed by Horner's rule
(one complex exponential per sample), so renders differ by float64
rounding, a few 1e-12 of full scale, from those of versions that summed
one sine per harmonic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sp_signal

from .audio import SEPARATION_RATE, AudioBuffer
from .errors import ConfigError, OverDeterminedSceneError, check_fields, check_file_name, ranged
from .geometry import ArrayGeometry, direction_vector, far_field_delay

DELAY_TAPS = 64  # windowed-sinc length of the fractional-delay interpolator
# Clean references are normalized to this RMS before per-source gain, leaving
# headroom so three active sources plus noise stay inside [-1, 1].
REFERENCE_RMS = 0.05
# Samples per Horner pass in _sine_sum: bounds its complex scratch to a few
# hundred KB however long the signal is.  Any value gives the same bits.
HARMONIC_BLOCK = 8192
SIGNAL_KINDS = ("harmonic", "am_noise")
PITCH_DRIFT = 0.06  # peak fractional deviation of a harmonic train's pitch
ENVELOPE_RATE_HZ = 4.0  # syllabic rate of the slow amplitude envelope

# Eight microphones on the corners of a 22 x 17 x 47 cm bounding box, a
# body-mountable constraint rather than a free-standing array.
BOX_MIC_POSITIONS = np.array(
    [[sx * 0.11, sy * 0.085, sz * 0.235]
     for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for a synthetic nonstationary test signal.

    ``am_noise`` is band-limited (300-7000 Hz) noise under a slow random
    envelope; ``harmonic`` is a random-phase harmonic train with pitch
    drift and resonance bumps, a rough stand-in for voiced speech.
    """

    kind: str = ranged(SIGNAL_KINDS, "harmonic")
    pitch_hz: float = ranged("[20, inf)", 160.0)  # at most 1,132 harmonics below Nyquist
    band_low_hz: float = ranged("(0, inf)", 300.0)
    band_high_hz: float = ranged(f"(0, {SEPARATION_RATE // 2})", 7000.0)  # below Nyquist
    formants_hz: tuple[float, ...] = ranged("(0, inf)", (700.0, 2200.0))

    def __post_init__(self):
        check_fields(self)
        if not self.band_low_hz < self.band_high_hz:
            raise ConfigError("signal needs band_low_hz < band_high_hz")
        if self.kind == "harmonic" and self.num_harmonics < 1:
            raise ConfigError(f"no harmonic of {self.pitch_hz} Hz (drift {PITCH_DRIFT}) "
                              f"lies below band_high_hz {self.band_high_hz}")

    @property
    def num_harmonics(self) -> int:
        """Harmonics whose drifted frequency stays at or below ``band_high_hz``."""
        return int(self.band_high_hz / (self.pitch_hz * (1.0 + PITCH_DRIFT)))


@dataclass(frozen=True)
class SceneSource:
    """One source: direction, signal recipe, level and onset."""

    source_id: str
    azimuth_deg: float = ranged("(-inf, inf)")
    elevation_deg: float = ranged("(-inf, inf)", 0.0)
    signal: SignalSpec = field(default_factory=SignalSpec)
    gain_db: float = ranged("(-inf, 26]", 0.0)  # at 26.02 dB the reference RMS is full scale
    onset_s: float = ranged("[0, inf)", 0.0)

    def __post_init__(self):
        check_fields(self, f"source {self.source_id!r}: ")

    @property
    def direction(self) -> np.ndarray:
        """Far-field unit vector toward the source."""
        return direction_vector(np.deg2rad(self.azimuth_deg), np.deg2rad(self.elevation_deg))


@dataclass(frozen=True)
class SceneSpec:
    geometry: ArrayGeometry
    sources: tuple[SceneSource, ...]
    duration_s: float = ranged("(0, inf)", 10.0)
    noise_level_db: float = ranged("[-inf, 0]", -40.0)  # white noise RMS per channel, dB re full scale
    seed: int = ranged("[0, inf)", 0)

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        check_fields(self)
        if self.num_samples < 1:
            raise ConfigError(f"scene duration {self.duration_s!r}s must hold at least one sample")
        ids = [src.source_id for src in self.sources]
        for src in self.sources:
            check_file_name(src.source_id, "scene source id")
            if ids.count(src.source_id) > 1:
                raise ConfigError(f"duplicate scene source id {src.source_id!r}")
            if src.onset_s > self.duration_s:
                raise ConfigError(f"onset {src.onset_s}s outside scene duration")

    @property
    def num_samples(self) -> int:
        return int(round(self.duration_s * self.geometry.rate))


@dataclass
class SceneRender:
    """Rendered scene: mixture plus the ground truth needed for metrics."""

    mixture: AudioBuffer
    source_images: list[np.ndarray]      # per source, (N, n) as received at the mics
    clean_references: list[np.ndarray]   # per source, (n,) aligned to the array origin
    noise: np.ndarray                    # (N, n)
    spec: SceneSpec


def fractional_delay(x: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay a signal by a possibly fractional number of samples.

    Windowed-sinc interpolation (Blackman taper) whose accuracy comfortably
    exceeds the 0.01-sample level for band-limited content, as the steering
    oracle requires.  Output has the input's length; content shifted in
    from outside is zero.
    """
    whole = int(np.floor(delay_samples))
    frac = delay_samples - whole
    if frac == 0.0:  # integer delays shift exactly, no interpolation error
        out = np.zeros_like(x)
        n = x.shape[0]
        if abs(whole) >= n:  # shifted wholly outside the signal
            return out
        if whole >= 0:
            out[whole:] = x[: n - whole]
        else:
            out[: n + whole] = x[-whole:]
        return out
    half = DELAY_TAPS // 2
    offsets = np.arange(-half + 1, half + 1)  # DELAY_TAPS integer offsets
    u = offsets - frac
    taper = 0.42 + 0.5 * np.cos(np.pi * u / half) + 0.08 * np.cos(2.0 * np.pi * u / half)
    kernel = np.sinc(u) * np.where(np.abs(u) <= half, taper, 0.0)

    full = np.convolve(x, kernel)
    out = np.zeros_like(x)
    n = x.shape[0]
    # full[i] pairs with output sample i - (half - 1) + whole
    offset = half - 1 - whole
    lo = max(0, -offset)
    hi = min(n, full.shape[0] - offset)
    if hi > lo:
        out[lo:hi] = full[lo + offset : hi + offset]
    return out


def _slow_envelope(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    # Smoothed positive noise, normalized to unit mean: a syllabic-rate AM
    # track.  A slower soft gate inserts utterance-like pauses, without
    # which minimum-statistics noise tracking has no floor to find.
    control = rng.standard_normal(max(8, int(np.ceil(n * ENVELOPE_RATE_HZ / rate)) + 4))
    dense = np.interp(np.linspace(0, len(control) - 1, n), np.arange(len(control)), control)
    envelope = np.maximum(dense, 0.0) + 0.05

    pause_ctrl = rng.standard_normal(
        max(6, int(np.ceil(n * ENVELOPE_RATE_HZ / (3.0 * rate))) + 4))
    pause = np.interp(np.linspace(0, len(pause_ctrl) - 1, n), np.arange(len(pause_ctrl)), pause_ctrl)
    gate = np.clip((pause + 0.4) * 6.0, 0.0, 1.0)

    envelope *= gate
    return envelope / max(envelope.mean(), 1e-6)


def _am_noise(spec: SignalSpec, rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    raw = rng.standard_normal(n)
    taps = sp_signal.firwin(513, [spec.band_low_hz, spec.band_high_hz],
                            pass_zero=False, fs=rate)
    shaped = sp_signal.fftconvolve(raw, taps, mode="same")
    return shaped * _slow_envelope(rng, n, rate)


def _pitch_phase(spec: SignalSpec, rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    """Fundamental phase in radians under a slow sinusoidal pitch drift."""
    t = np.arange(n) / rate
    drift = PITCH_DRIFT * np.sin(2.0 * np.pi * rng.uniform(0.1, 0.4) * t
                                 + rng.uniform(0, 2 * np.pi))
    pitch = spec.pitch_hz * (1.0 + drift)
    return 2.0 * np.pi * np.cumsum(pitch) / rate


def _harmonic_train(spec: SignalSpec, rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    phase_base = _pitch_phase(spec, rng, n, rate)
    harmonics = np.arange(1, spec.num_harmonics + 1)
    freq = harmonics * spec.pitch_hz
    # Two strong resonance bumps over a gentle tilt give a vowel-like
    # envelope that survives cepstral smoothing.
    resonance = sum(np.exp(-0.5 * ((freq - f0) / (0.2 * f0 + 120.0)) ** 2)
                    for f0 in spec.formants_hz)
    amplitude = (0.05 + 2.0 * resonance) / np.sqrt(harmonics)
    coeffs = amplitude * np.exp(1j * rng.uniform(0, 2 * np.pi, size=harmonics.size))
    return _sine_sum(phase_base, coeffs) * _slow_envelope(rng, n, rate)


def _sine_sum(theta: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_h |c_h| sin(h theta + arg c_h), h = 1..H, by Horner's rule on the
    unit rotor z = exp(j theta): Im(z (c_1 + z (c_2 + ... + z c_H))).

    One complex exponential per sample instead of H sines of arguments up
    to H theta.  Each block is evaluated alone, so the result does not
    depend on HARMONIC_BLOCK.  The product goes to a separate buffer: numpy
    rounds an in-place multiply of a one-sample block differently.
    """
    out = np.empty(theta.shape[0])
    for lo in range(0, theta.shape[0], HARMONIC_BLOCK):
        z = np.exp(1j * theta[lo : lo + HARMONIC_BLOCK])
        acc = np.full(z.shape, coeffs[-1])
        product = np.empty_like(z)
        for c in coeffs[-2::-1]:
            np.multiply(acc, z, out=product)
            np.add(product, c, out=acc)
        np.multiply(acc, z, out=product)
        out[lo : lo + HARMONIC_BLOCK] = product.imag
    return out


def render_signal(spec: SignalSpec, rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    if spec.kind == "am_noise":
        out = _am_noise(spec, rng, n, rate)
    else:
        out = _harmonic_train(spec, rng, n, rate)
    rms = np.sqrt(np.mean(out**2))
    out *= REFERENCE_RMS / max(rms, 1e-12)
    return out


def synthesize(spec: SceneSpec) -> SceneRender:
    """Render a scene; bit-identical for identical specs.

    Microphones whose delays toward a source are equal floats share one
    fractional-delay convolution: on the box array at elevation 0, the
    pairs that differ only in height do.  The mixture is summed in place
    in the order of ``np.add.reduce(source_images) + noise``, which it
    equals bit for bit.
    """
    geometry = spec.geometry
    if len(spec.sources) > geometry.num_mics:
        raise OverDeterminedSceneError(
            f"{len(spec.sources)} sources exceed {geometry.num_mics} microphones"
        )
    rate = geometry.rate
    n = spec.num_samples
    streams = np.random.SeedSequence(spec.seed).spawn(len(spec.sources) + 1)

    references = []
    images = []
    for scene_source, stream in zip(spec.sources, streams):
        rng = np.random.default_rng(stream)
        clean = render_signal(scene_source.signal, rng, n, rate)
        clean *= 10.0 ** (scene_source.gain_db / 20.0)
        onset = int(round(scene_source.onset_s * rate))
        clean[:onset] = 0.0
        references.append(clean)

        mics_by_delay: dict[float, list[int]] = {}
        for mic in range(geometry.num_mics):
            delay = far_field_delay(geometry, mic, scene_source.direction)
            mics_by_delay.setdefault(delay, []).append(mic)
        image = np.empty((geometry.num_mics, n))
        for delay, mics in mics_by_delay.items():
            image[mics] = fractional_delay(clean, delay)
        images.append(image)

    noise_rng = np.random.default_rng(streams[-1])
    if np.isneginf(spec.noise_level_db):
        noise = np.zeros((geometry.num_mics, n))
    else:
        noise = noise_rng.standard_normal((geometry.num_mics, n))
        noise *= 10.0 ** (spec.noise_level_db / 20.0)

    if images:
        mixture = images[0].copy()
        for image in images[1:]:
            mixture += image
        mixture += noise
    else:
        mixture = noise.copy()
    return SceneRender(AudioBuffer(mixture, rate), images, references, noise, spec)


# --------------------------------------------------------------------------
# Presets: three talkers two meters out, the center one dead ahead and the
# side ones at +-angle, on the box-constrained eight-microphone array.
# --------------------------------------------------------------------------

PRESET_ANGLES_DEG = tuple(range(10, 100, 10))


def box_array_geometry() -> ArrayGeometry:
    return ArrayGeometry(BOX_MIC_POSITIONS.copy())


def three_speaker_scene(angle_deg: float, duration_s: float, seed: int) -> SceneSpec:
    """Center talker plus two at +-angle, distinct signal recipes per seat."""
    voices = (
        SignalSpec(kind="harmonic", pitch_hz=120.0, formants_hz=(600.0, 1800.0)),
        SignalSpec(kind="harmonic", pitch_hz=200.0, formants_hz=(850.0, 2400.0)),
        SignalSpec(kind="am_noise"),
    )
    sources = (
        SceneSource("center", 0.0, signal=voices[0]),
        SceneSource("left", angle_deg, signal=voices[1]),
        SceneSource("right", -angle_deg, signal=voices[2]),
    )
    return SceneSpec(box_array_geometry(), sources, duration_s=duration_s, seed=seed)


def preset_names() -> list[str]:
    return [f"trio-{angle}deg" for angle in PRESET_ANGLES_DEG]


def preset_scene(name: str, duration_s: float, seed: int) -> SceneSpec:
    for angle in PRESET_ANGLES_DEG:
        if name == f"trio-{angle}deg":
            return three_speaker_scene(float(angle), duration_s=duration_s, seed=seed)
    raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
