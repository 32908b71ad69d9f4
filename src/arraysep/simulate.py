"""Deterministic anechoic scene synthesis for testing and benchmarks.

Scenes place far-field sources around a microphone array, render each one
to every microphone through windowed-sinc fractional delays consistent
with the steering model, and add independent white noise per channel.
Everything is a pure function of the scene description including its
seed, so rendered scenes are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sp_signal

from .audio import AudioBuffer
from .errors import ConfigError, OverDeterminedSceneError
from .geometry import ArrayGeometry, direction_vector, far_field_delay

SCENE_RATE = 48000
DELAY_TAPS = 64  # windowed-sinc length of the fractional-delay interpolator
# Clean references are normalized to this RMS before per-source gain, leaving
# headroom so three active sources plus noise stay inside [-1, 1].
REFERENCE_RMS = 0.05

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

    kind: str = "harmonic"
    pitch_hz: float = 160.0
    pitch_drift: float = 0.06
    envelope_rate_hz: float = 4.0
    envelope_depth: float = 1.0  # 0 = steady level, 1 = full syllabic swings
    band_low_hz: float = 300.0
    band_high_hz: float = 7000.0
    formants_hz: tuple[float, ...] = (700.0, 2200.0)


@dataclass(frozen=True)
class SceneSource:
    """One source: direction, signal recipe, level and onset."""

    source_id: str
    azimuth_deg: float
    elevation_deg: float = 0.0
    signal: SignalSpec = field(default_factory=SignalSpec)
    gain_db: float = 0.0
    onset_s: float = 0.0

    @property
    def direction(self) -> np.ndarray:
        """Far-field unit vector toward the source."""
        return direction_vector(np.deg2rad(self.azimuth_deg), np.deg2rad(self.elevation_deg))


@dataclass(frozen=True)
class SceneSpec:
    geometry: ArrayGeometry
    sources: tuple[SceneSource, ...]
    duration_s: float = 10.0
    noise_level_db: float = -40.0  # white noise RMS per channel, dB re full scale
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        for src in self.sources:
            if not 0.0 <= src.onset_s <= self.duration_s:
                raise ConfigError(f"onset {src.onset_s}s outside scene duration")


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


def _slow_envelope(rng: np.random.Generator, n: int, rate: int, rate_hz: float,
                   depth: float = 1.0) -> np.ndarray:
    # Smoothed positive noise, normalized to unit mean: a syllabic-rate AM
    # track.  A slower soft gate inserts utterance-like pauses, without
    # which minimum-statistics noise tracking has no floor to find.
    control = rng.standard_normal(max(8, int(np.ceil(n * rate_hz / rate)) + 4))
    dense = np.interp(np.linspace(0, len(control) - 1, n), np.arange(len(control)), control)
    envelope = np.maximum(dense, 0.0) + 0.05

    pause_ctrl = rng.standard_normal(max(6, int(np.ceil(n * rate_hz / (3.0 * rate))) + 4))
    pause = np.interp(np.linspace(0, len(pause_ctrl) - 1, n), np.arange(len(pause_ctrl)), pause_ctrl)
    gate = np.clip((pause + 0.4) * 6.0, 0.0, 1.0)

    envelope *= gate
    envelope /= max(envelope.mean(), 1e-6)
    return (1.0 - depth) + depth * envelope


def _am_noise(spec: SignalSpec, rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    raw = rng.standard_normal(n)
    taps = sp_signal.firwin(513, [spec.band_low_hz, spec.band_high_hz],
                            pass_zero=False, fs=rate)
    shaped = sp_signal.fftconvolve(raw, taps, mode="same")
    return shaped * _slow_envelope(rng, n, rate, spec.envelope_rate_hz, spec.envelope_depth)


def _harmonic_train(spec: SignalSpec, rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    t = np.arange(n) / rate
    drift = spec.pitch_drift * np.sin(2.0 * np.pi * rng.uniform(0.1, 0.4) * t
                                      + rng.uniform(0, 2 * np.pi))
    pitch = spec.pitch_hz * (1.0 + drift)
    phase_base = 2.0 * np.pi * np.cumsum(pitch) / rate

    max_harmonic = int(spec.band_high_hz / (spec.pitch_hz * (1.0 + spec.pitch_drift)))
    out = np.zeros(n)
    for h in range(1, max_harmonic + 1):
        freq = h * spec.pitch_hz
        # Two strong resonance bumps over a gentle tilt give a vowel-like
        # envelope that survives cepstral smoothing.
        resonance = sum(np.exp(-0.5 * ((freq - f0) / (0.2 * f0 + 120.0)) ** 2)
                        for f0 in spec.formants_hz)
        amplitude = (0.05 + 2.0 * resonance) / np.sqrt(h)
        out += amplitude * np.sin(h * phase_base + rng.uniform(0, 2 * np.pi))
    return out * _slow_envelope(rng, n, rate, spec.envelope_rate_hz, spec.envelope_depth)


def render_signal(spec: SignalSpec, rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    if spec.kind == "am_noise":
        out = _am_noise(spec, rng, n, rate)
    elif spec.kind == "harmonic":
        out = _harmonic_train(spec, rng, n, rate)
    else:
        raise ConfigError(f"unknown signal kind {spec.kind!r}")
    rms = np.sqrt(np.mean(out**2))
    return out * (REFERENCE_RMS / max(rms, 1e-12))


def synthesize(spec: SceneSpec) -> SceneRender:
    """Render a scene; bit-identical for identical specs."""
    geometry = spec.geometry
    if len(spec.sources) > geometry.num_mics:
        raise OverDeterminedSceneError(
            f"{len(spec.sources)} sources exceed {geometry.num_mics} microphones"
        )
    rate = geometry.rate
    n = int(round(spec.duration_s * rate))
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

        image = np.stack([
            fractional_delay(clean, far_field_delay(geometry, mic, scene_source.direction))
            for mic in range(geometry.num_mics)
        ])
        images.append(image)

    noise_rng = np.random.default_rng(streams[-1])
    if np.isneginf(spec.noise_level_db):
        noise = np.zeros((geometry.num_mics, n))
    else:
        noise = 10.0 ** (spec.noise_level_db / 20.0) * noise_rng.standard_normal((geometry.num_mics, n))

    if images:
        mixture = np.add.reduce(images) + noise
    else:
        mixture = noise.copy()
    return SceneRender(AudioBuffer(mixture, rate), images, references, noise, spec)


# --------------------------------------------------------------------------
# Presets: three talkers two meters out, the center one dead ahead and the
# side ones at +-angle, on the box-constrained eight-microphone array.
# --------------------------------------------------------------------------

PRESET_ANGLES_DEG = tuple(range(10, 100, 10))


def box_array_geometry(rate: int = SCENE_RATE) -> ArrayGeometry:
    return ArrayGeometry(BOX_MIC_POSITIONS.copy(), rate)


def three_speaker_scene(angle_deg: float, duration_s: float = 10.0,
                        seed: int = 1234) -> SceneSpec:
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


def preset_scene(name: str, duration_s: float = 10.0, seed: int = 1234) -> SceneSpec:
    for angle in PRESET_ANGLES_DEG:
        if name == f"trio-{angle}deg":
            return three_speaker_scene(float(angle), duration_s=duration_s, seed=seed)
    raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
