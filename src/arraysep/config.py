"""Pipeline configuration: parsing, validation and the effective-config echo.

Config files are YAML with explicit units in the key names (degrees, dB,
meters, seconds).  Every tunable has a default; geometry and source
directions are the only required inputs.  Parsed configs hold plain
Python values so serialize(parse(file)) round-trips exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .errors import ConfigError, check_fields, check_file_name, ranged
from .geometry import SPEED_OF_SOUND, ArrayGeometry, direction_vector
from .gss import DEFAULT_STEP_SIZE
from .masks import DEFAULT_THRESHOLD
from .simulate import SceneSource, SceneSpec, SignalSpec


@dataclass
class SourceDirection:
    id: str
    azimuth_deg: float = ranged("(-inf, inf)")
    elevation_deg: float = ranged("(-inf, inf)", 0.0)


@dataclass
class StageToggles:
    adapt: bool = True        # off = hold the delay-and-sum initialization
    postfilter: bool = True
    features: bool = True     # feature/mask extraction and emission


@dataclass
class PipelineConfig:
    mic_positions_m: list = field(default_factory=list)
    sources: list = field(default_factory=list)          # SourceDirection rows
    speed_of_sound: float = ranged("(0, inf)", SPEED_OF_SOUND)

    fft_size: int = ranged("(0, inf)", 1024)
    shift: int = ranged("(0, inf)", 512)
    step_size: float = ranged("[0, inf)", DEFAULT_STEP_SIZE)  # separation adaptation rate

    # post-filter
    leak_factor: float = ranged("[0, 1]", 0.25)         # power fraction of rival spectra (about -6 dB)
    spectral_exponent: float = ranged("(0, inf)", 1.0)  # amplitude power the MMSE estimator optimizes

    mask_threshold: float = ranged("(0, inf)", DEFAULT_THRESHOLD)

    stages: StageToggles = field(default_factory=StageToggles)
    dump_diagnostics: bool = False

    input_wav: str | None = None
    output_dir: str | None = None
    reference_wavs: list[str] = field(default_factory=list)  # per source, for metrics
    noise_wav: str | None = None

    def validate(self) -> "PipelineConfig":
        if not self.sources:
            raise ConfigError("config needs at least one source direction")
        for source in self.sources:
            if not isinstance(source, SourceDirection):
                raise ConfigError(f"sources rows must be SourceDirection, got {source!r}")
            check_file_name(source.id, "source id")
            check_fields(source, f"source {source.id}: ")
        ids = [s.id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate source ids: {ids}")
        check_fields(self)
        if not isinstance(self.stages, StageToggles):
            raise ConfigError(f"stages must be StageToggles, got {self.stages!r}")
        check_fields(self.stages, "stages: ")
        geometry = self.geometry()
        num_mics = geometry.num_mics
        # The sqrt-Hann analysis/synthesis pair overlap-adds to a constant
        # only up to 50% overlap.
        if self.fft_size % 2 or 2 * self.shift > self.fft_size:
            raise ConfigError("fft_size must be even and shift at most fft_size / 2")
        # Alone, the geometric term's gradient step converges only for
        # step_size < 1 / max over bins of the largest eigenvalue of A^H A.
        # With unit-modulus steering that is trace(A^H A) = N M, reached at
        # the DC bin; a single source never leaves delay-and-sum.
        bound = 1.0 / (num_mics * len(self.sources))
        if len(self.sources) > 1 and self.step_size >= bound:
            raise ConfigError(f"step_size must be below 1 / (microphones * sources) = "
                              f"{bound:.6g} here, got {self.step_size!r}")
        # Sources whose far-field delays agree at every microphone, to
        # rounding, share one steering column, and WA = I has no solution.
        paths = geometry.centered_positions @ np.transpose(self.directions())  # (N, M)
        tolerance = 1e-9 * np.abs(paths).max()
        for j in range(len(ids)):
            for i in range(j):
                if np.abs(paths[:, i] - paths[:, j]).max() <= tolerance:
                    raise ConfigError(f"sources {ids[i]} and {ids[j]} have the same far-field "
                                      f"delays at every microphone")
        if self.reference_wavs and len(self.reference_wavs) != len(self.sources):
            raise ConfigError("reference_wavs must list one file per source")
        return self

    # ---- object builders -------------------------------------------------

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.mic_positions_m, speed_of_sound=self.speed_of_sound)

    def directions(self) -> list[np.ndarray]:
        """Far-field unit vector toward each source, in ``sources`` order."""
        return [direction_vector(float(np.deg2rad(s.azimuth_deg)),
                                 float(np.deg2rad(s.elevation_deg))) for s in self.sources]


def _unknown_keys(data: dict, schema: dict, path: str = "") -> list[str]:
    """Every key in ``data``, and below it, that ``schema`` does not admit,
    by its path.  ``schema`` maps each key to None, or to the schema of the
    mapping it holds or of each mapping in the list it holds."""
    unknown = []
    for key, value in data.items():
        if key not in schema:
            unknown.append(f"{path}{key}")
        elif schema[key] is not None:
            rows = ({f"{key}[{i}]": row for i, row in enumerate(value)}
                    if isinstance(value, list) else {key: value})
            for name, row in rows.items():
                if isinstance(row, dict):
                    unknown += _unknown_keys(row, schema[key], f"{path}{name}.")
    return unknown


def _check_keys(data, schema: dict, what: str) -> None:
    """Refuse a ``what`` file whose root is not a mapping, or that holds any
    key its level does not admit, naming every such key by its path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} root must be a mapping")
    unknown = _unknown_keys(data, schema)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


# The keys each level of a pipeline config admits.
_CONFIG_KEYS = {**dict.fromkeys(PipelineConfig.__dataclass_fields__),
                "sources": dict.fromkeys(SourceDirection.__dataclass_fields__),
                "stages": dict.fromkeys(StageToggles.__dataclass_fields__)}


def config_from_dict(data: dict) -> PipelineConfig:
    """Every key that no level of the config admits is named first."""
    _check_keys(data, _CONFIG_KEYS, "config")
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


def _load_yaml(path: str, what: str):
    """The YAML document in ``path``, or {} for an empty file; ``what`` names
    the file in the error."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {what} {path}: {exc}") from exc


def parse_config(path: str) -> PipelineConfig:
    return config_from_dict(_load_yaml(path, "config"))


def serialize_config(config: PipelineConfig, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(asdict(config), fh, sort_keys=False)


# --------------------------------------------------------------------------
# Scene description files (for the simulate subcommand).
# --------------------------------------------------------------------------


def scene_to_dict(spec: SceneSpec) -> dict:
    """The scene as a scene file holds it; numbers of float fields echo as floats."""
    return {
        "speed_of_sound": float(spec.geometry.speed_of_sound),
        "mic_positions_m": [list(map(float, p)) for p in spec.geometry.mic_positions],
        "duration_s": float(spec.duration_s),
        "noise_level_db": float(spec.noise_level_db),
        "seed": spec.seed,
        "sources": [
            {
                "id": s.source_id,
                "azimuth_deg": float(s.azimuth_deg),
                "elevation_deg": float(s.elevation_deg),
                "gain_db": float(s.gain_db),
                "onset_s": float(s.onset_s),
                "signal": asdict(s.signal),
            }
            for s in spec.sources
        ],
    }


def _scene_source(row: dict) -> SceneSource:
    row = dict(row)
    signal = dict(row.pop("signal", {}))
    if "formants_hz" in signal:
        signal["formants_hz"] = tuple(signal["formants_hz"])
    return SceneSource(row.pop("id"), signal=SignalSpec(**signal), **row)


# The keys each level of a scene file admits: the scene's own values and the
# array's, each source's (named by ``id``) and each signal's.
_SOURCE_KEYS = {**dict.fromkeys({"id", *SceneSource.__dataclass_fields__} - {"source_id"}),
                "signal": dict.fromkeys(SignalSpec.__dataclass_fields__)}
_SCENE_KEYS = {**dict.fromkeys({"speed_of_sound", "mic_positions_m",
                                *SceneSpec.__dataclass_fields__} - {"geometry"}),
               "sources": _SOURCE_KEYS}


def scene_from_dict(data: dict) -> SceneSpec:
    """Values reach the scene classes as written, so their checks see them.  Every
    key that no level of the file admits is named first."""
    _check_keys(data, _SCENE_KEYS, "scene")
    try:
        data = dict(data)
        geometry = ArrayGeometry(data.pop("mic_positions_m"),
                                 speed_of_sound=data.pop("speed_of_sound", SPEED_OF_SOUND))
        sources = [_scene_source(row) for row in data.pop("sources", [])]
        return SceneSpec(geometry, sources, **data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scene description: {exc}") from exc


def parse_scene_file(path: str) -> SceneSpec:
    return scene_from_dict(_load_yaml(path, "scene file"))


def write_scene_file(spec: SceneSpec, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scene_to_dict(spec), fh, sort_keys=False)
