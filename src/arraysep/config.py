"""Pipeline configuration: parsing, validation and the effective-config echo.

Config files are YAML with explicit units in the key names (degrees, dB,
meters, seconds).  Every tunable has a default; geometry and source
directions are the only required inputs.  Parsed configs hold plain
Python values so serialize(parse(file)) round-trips exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .errors import ConfigError
from .geometry import ArrayGeometry, direction_vector
from .simulate import SceneSource, SceneSpec, SignalSpec


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(obj, where: str = "") -> None:
    """``int`` fields must hold an int, ``float`` fields a finite number (bools are
    neither) and ``bool`` fields a bool."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        number = _is_number(value)
        if f.type == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{where}{f.name} must be true or false, got {value!r}")
        if f.type == "int" and not (number and isinstance(value, int)):
            raise ConfigError(f"{where}{f.name} must be an integer, got {value!r}")
        if f.type == "float" and not (number and math.isfinite(value)):
            raise ConfigError(f"{where}{f.name} must be a finite number, got {value!r}")


def _check_file_name(name, what: str) -> None:
    """Source ids name output files, so each must be one plain file name."""
    if (not isinstance(name, str) or name in ("", ".", "..")
            or {"/", os.sep, os.altsep} & set(name)):
        raise ConfigError(f"{what} {name!r} must be a file name without a path")


@dataclass
class SourceDirection:
    id: str
    azimuth_deg: float
    elevation_deg: float = 0.0


@dataclass
class StageToggles:
    adapt: bool = True        # off = hold the delay-and-sum initialization
    postfilter: bool = True
    features: bool = True     # feature/mask extraction and emission


@dataclass
class PipelineConfig:
    mic_positions_m: list = field(default_factory=list)
    sources: list = field(default_factory=list)          # SourceDirection rows
    rate: int = 48000
    speed_of_sound: float = 343.0

    fft_size: int = 1024
    shift: int = 512
    step_size: float = 0.01           # separation adaptation rate

    # post-filter and its minima-controlled (MCRA) stationary noise tracker
    leak_factor: float = 0.25         # power fraction of rival spectra (about -6 dB)
    spectral_exponent: float = 1.0    # amplitude power the MMSE estimator optimizes
    snr_smoothing: float = 0.98       # decision-directed weight on the previous frame
    spectrum_smoothing: float = 0.7   # leakage reference smoother
    mcra_power_smoothing: float = 0.95
    mcra_window_length: int = 150
    mcra_presence_smoothing: float = 0.95
    mcra_onset_threshold: float = 5.0

    mask_threshold: float = 0.25
    feature_fft_size: int = 400
    feature_shift: int = 160

    stages: StageToggles = field(default_factory=StageToggles)
    dump_diagnostics: bool = False

    input_wav: str | None = None
    output_dir: str | None = None
    reference_wavs: list = field(default_factory=list)   # per source, for metrics
    noise_wav: str | None = None

    def validate(self) -> "PipelineConfig":
        if not self.sources:
            raise ConfigError("config needs at least one source direction")
        for source in self.sources:
            _check_file_name(source.id, "source id")
            _check_numbers(source, f"source {source.id}: ")
        ids = [s.id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate source ids: {ids}")
        _check_numbers(self)
        _check_numbers(self.stages, "stages: ")
        try:
            self.geometry()  # checks the count, shape and finiteness of the positions
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad mic_positions_m: {exc}") from exc
        if not all(_is_number(v) for position in self.mic_positions_m for v in position):
            raise ConfigError(f"mic_positions_m must hold numbers, got {self.mic_positions_m!r}")
        if self.rate != 48000:
            raise ConfigError("separation pipeline runs at 48000 Hz")
        if self.fft_size % 2 or not 0 < self.shift <= self.fft_size:
            raise ConfigError("invalid separation fft_size/shift")
        if self.feature_fft_size % 2 or not 0 < self.feature_shift <= self.feature_fft_size:
            raise ConfigError("feature_fft_size must be even and 0 < feature_shift <= "
                              "feature_fft_size")
        if self.step_size < 0:
            raise ConfigError("step_size must be non-negative")
        if not 0.0 <= self.leak_factor <= 1.0:
            raise ConfigError("leak_factor must be within [0, 1]")
        if self.spectral_exponent <= 0:
            raise ConfigError("spectral_exponent must be positive")
        if not 0.0 <= self.snr_smoothing < 1.0:
            raise ConfigError("snr_smoothing must be within [0, 1)")
        if not 0.0 < self.spectrum_smoothing < 1.0:
            raise ConfigError("spectrum_smoothing must be within (0, 1)")
        if self.mcra_window_length < 1:
            raise ConfigError("mcra_window_length must be at least 1")
        for name in ("mcra_power_smoothing", "mcra_presence_smoothing"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be within [0, 1)")
        if self.mcra_onset_threshold <= 0:
            raise ConfigError("mcra_onset_threshold must be positive")
        if self.mask_threshold <= 0:
            raise ConfigError("mask_threshold must be positive")
        if self.reference_wavs and len(self.reference_wavs) != len(self.sources):
            raise ConfigError("reference_wavs must list one file per source")
        return self

    # ---- object builders -------------------------------------------------

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry([list(map(float, p)) for p in self.mic_positions_m],
                             self.rate, self.speed_of_sound)

    def directions(self) -> list[np.ndarray]:
        """Far-field unit vector toward each source, in ``sources`` order."""
        return [direction_vector(float(np.deg2rad(s.azimuth_deg)),
                                 float(np.deg2rad(s.elevation_deg))) for s in self.sources]


def config_to_dict(config: PipelineConfig) -> dict:
    data = asdict(config)
    data["sources"] = [asdict(s) if isinstance(s, SourceDirection) else dict(s)
                       for s in config.sources]
    data["stages"] = asdict(config.stages)
    return data


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    known = {f for f in PipelineConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    try:
        if "sources" in kwargs:
            kwargs["sources"] = [SourceDirection(**row) for row in kwargs["sources"]]
        if "stages" in kwargs:
            kwargs["stages"] = StageToggles(**kwargs["stages"])
        config = PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return config.validate()


def parse_config(path: str) -> PipelineConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict(data or {})


def serialize_config(config: PipelineConfig, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=False)


# --------------------------------------------------------------------------
# Scene description files (for the simulate subcommand).
# --------------------------------------------------------------------------


def scene_to_dict(spec: SceneSpec) -> dict:
    return {
        "rate": spec.geometry.rate,
        "speed_of_sound": spec.geometry.speed_of_sound,
        "mic_positions_m": [list(map(float, p)) for p in spec.geometry.mic_positions],
        "duration_s": spec.duration_s,
        "noise_level_db": float(spec.noise_level_db),
        "seed": spec.seed,
        "sources": [
            {
                "id": s.source_id,
                "azimuth_deg": s.azimuth_deg,
                "elevation_deg": s.elevation_deg,
                "gain_db": s.gain_db,
                "onset_s": s.onset_s,
                "signal": asdict(s.signal),
            }
            for s in spec.sources
        ],
    }


def scene_from_dict(data: dict) -> SceneSpec:
    try:
        geometry = ArrayGeometry(
            data["mic_positions_m"],
            int(data.get("rate", 48000)),
            float(data.get("speed_of_sound", 343.0)),
        )
        sources = []
        for row in data.get("sources", []):
            _check_file_name(row["id"], "scene source id")
            if any(s.source_id == row["id"] for s in sources):
                raise ConfigError(f"duplicate scene source id {row['id']!r}")
            signal_data = dict(row.get("signal", {}))
            if "formants_hz" in signal_data:
                signal_data["formants_hz"] = tuple(signal_data["formants_hz"])
            sources.append(SceneSource(
                source_id=row["id"],
                azimuth_deg=float(row["azimuth_deg"]),
                elevation_deg=float(row.get("elevation_deg", 0.0)),
                signal=SignalSpec(**signal_data),
                gain_db=float(row.get("gain_db", 0.0)),
                onset_s=float(row.get("onset_s", 0.0)),
            ))
        return SceneSpec(
            geometry,
            tuple(sources),
            duration_s=float(data.get("duration_s", 10.0)),
            noise_level_db=float(data.get("noise_level_db", -40.0)),
            seed=int(data.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scene description: {exc}") from exc


def parse_scene_file(path: str) -> SceneSpec:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scene file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse scene file {path}: {exc}") from exc
    return scene_from_dict(data or {})


def write_scene_file(spec: SceneSpec, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scene_to_dict(spec), fh, sort_keys=False)
