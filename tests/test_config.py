"""Config parsing, validation and round trips."""

import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from arraysep import postfilter
from arraysep.config import (PipelineConfig, SourceDirection, StageToggles, config_from_dict,
                             parse_config, parse_scene_file, scene_from_dict, scene_to_dict,
                             serialize_config, write_scene_file)
from arraysep.errors import ConfigError
from arraysep.geometry import ArrayGeometry, direction_vector, steering_matrix
from arraysep.simulate import (BOX_MIC_POSITIONS, SIGNAL_KINDS, SceneSource, SceneSpec, SignalSpec,
                               box_array_geometry, three_speaker_scene)

MINIMAL = {
    "mic_positions_m": [[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]],
    "sources": [{"id": "talker", "azimuth_deg": 15.0}],
}


class TestParse:
    def test_defaults_carry_reference_values(self):
        config = config_from_dict(dict(MINIMAL))
        assert config.mask_threshold == 0.25
        assert config.spectral_exponent == 1.0
        assert config.leak_factor == 0.25
        assert config.step_size == 0.01
        assert config.speed_of_sound == 343.0
        assert (postfilter.SPECTRUM_SMOOTHING, postfilter.SNR_SMOOTHING) == (0.7, 0.98)

    def test_unknown_keys_rejected(self):
        bad = dict(MINIMAL, wavelet_order=3)
        with pytest.raises(ConfigError, match="wavelet_order"):
            config_from_dict(bad)
        # every one, at every level, by its path
        bad = dict(MINIMAL, colour="red", stages={"adapt": True, "fast": True},
                   sources=[{"id": "a", "azimuth_deg": 0, "bogus": 1, "other": 2}])
        named = ["colour", "sources[0].bogus", "sources[0].other", "stages.fast"]
        with pytest.raises(ConfigError, match=f"^{re.escape(f'unknown config keys: {named}')}$"):
            config_from_dict(bad)

    def test_missing_source_key_is_a_bad_value(self):
        with pytest.raises(ConfigError, match="^bad config value: .*'azimuth_deg'"):
            config_from_dict(dict(MINIMAL, sources=[{"id": "a"}]))

    def test_requires_sources(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mic_positions_m": MINIMAL["mic_positions_m"], "sources": []})

    def test_duplicate_ids_rejected(self):
        sources = [{"id": "a", "azimuth_deg": 0.0}, {"id": "a", "azimuth_deg": 60.0}]
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_dict(dict(MINIMAL, sources=sources))

    def test_range_validation(self):
        for key, value in [("leak_factor", 1.5), ("mask_threshold", 0.0),
                           ("spectral_exponent", -1.0), ("step_size", -0.1)]:
            with pytest.raises(ConfigError):
                config_from_dict(dict(MINIMAL, **{key: value}))

    # The feature framing and the noise tracker are constants, not keys: a
    # config that names one is refused as naming an unknown key.
    @pytest.mark.parametrize("key, value", [
        ("feature_shift", 0), ("feature_shift", 401), ("feature_fft_size", 401),
        ("mcra_window_length", 0), ("mcra_power_smoothing", 1.5),
        ("mcra_power_smoothing", -0.1), ("mcra_presence_smoothing", 2.0),
        ("mcra_presence_smoothing", 1.0), ("mcra_onset_threshold", 0.0),
    ])
    def test_feature_and_noise_tracker_validation(self, key, value):
        with pytest.raises(ConfigError, match=f"^unknown config keys: \\['{key}'\\]$"):
            config_from_dict(dict(MINIMAL, **{key: value}))

    # feature_fft_size and the mcra_* cases name keys that are now constants,
    # refused as unknown keys
    @pytest.mark.parametrize("key, value", [
        ("fft_size", 1024.0), ("shift", 512.0), ("feature_fft_size", True),
        ("mcra_window_length", 150.5), ("mcra_window_length", float("inf")),
        ("mcra_window_length", True), ("spectral_exponent", float("nan")),
        ("mask_threshold", float("nan")), ("step_size", float("nan")),
        ("step_size", float("inf")), ("mcra_onset_threshold", float("nan")),
        ("speed_of_sound", float("nan")), ("leak_factor", "0.25"),
    ])
    def test_non_integer_and_non_finite_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(dict(MINIMAL, **{key: value}))

    @pytest.mark.parametrize("key, value", [("azimuth_deg", float("nan")),
                                            ("elevation_deg", float("-inf")),
                                            ("azimuth_deg", None)])
    def test_non_finite_source_angles_rejected(self, key, value):
        source = dict(MINIMAL["sources"][0], **{key: value})
        with pytest.raises(ConfigError, match=key):
            config_from_dict(dict(MINIMAL, sources=[source]))

    @pytest.mark.parametrize("shift, accepted", [(513, False), (1024, False), (512, True),
                                                 (256, True)])
    def test_shift_at_most_half_the_fft_size(self, shift, accepted):
        if accepted:
            assert config_from_dict(dict(MINIMAL, shift=shift)).shift == shift
        else:
            with pytest.raises(ConfigError, match="shift"):
                config_from_dict(dict(MINIMAL, shift=shift))

    def test_reference_count_must_match_sources(self):
        with pytest.raises(ConfigError):
            config_from_dict(dict(MINIMAL, reference_wavs=["a.wav", "b.wav"]))

    @pytest.mark.parametrize("field, value", [
        ("sources", [{"id": "talker", "azimuth_deg": 15.0}]), ("sources", ["talker"]),
        ("stages", {"adapt": True}), ("stages", None)])
    def test_rows_of_the_wrong_type_are_config_errors(self, field, value):
        config = config_from_dict(dict(MINIMAL))
        setattr(config, field, value)
        with pytest.raises(ConfigError, match=f"^{field}( rows)? must be"):
            config.validate()

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("mic_positions_m: [[0.1, 0\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "none.yaml"))

    @pytest.mark.parametrize("parse, what", [(parse_config, "config"),
                                             (parse_scene_file, "scene file")])
    def test_load_errors_name_the_file(self, tmp_path, parse, what):
        missing, broken = str(tmp_path / "none.yaml"), tmp_path / "c.yaml"
        broken.write_text("mic_positions_m: [[0.1, 0\n")
        with pytest.raises(ConfigError, match=f"^cannot read {what} {re.escape(missing)}: "):
            parse(missing)
        with pytest.raises(ConfigError, match=f"^cannot parse {what} {re.escape(str(broken))}: "):
            parse(str(broken))


class TestRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        config = config_from_dict(dict(MINIMAL, step_size=0.02, dump_diagnostics=True))
        path = str(tmp_path / "c.yaml")
        serialize_config(config, path)
        again = parse_config(path)
        assert again == config
        assert asdict(again) == asdict(config)

    def test_builders(self):
        config = config_from_dict(dict(MINIMAL))
        geometry = config.geometry()
        assert geometry.num_mics == 2
        [direction] = config.directions()
        azimuth = np.deg2rad(15.0)
        np.testing.assert_allclose(direction, [np.cos(azimuth), np.sin(azimuth), 0.0])


class TestSceneFiles:
    def test_round_trip(self, tmp_path):
        spec = three_speaker_scene(40.0, duration_s=1.0, seed=5)
        path = str(tmp_path / "scene.yaml")
        write_scene_file(spec, path)
        again = parse_scene_file(path)
        assert scene_to_dict(again) == scene_to_dict(spec)
        assert again.seed == 5
        assert len(again.sources) == 3

    def test_units_are_explicit(self, tmp_path):
        spec = three_speaker_scene(40.0, duration_s=1.0, seed=5)
        path = str(tmp_path / "scene.yaml")
        write_scene_file(spec, path)
        data = yaml.safe_load(open(path))
        assert "duration_s" in data and "noise_level_db" in data
        assert "azimuth_deg" in data["sources"][0]

    def test_bad_scene_rejected(self):
        with pytest.raises(ConfigError):
            scene_from_dict({"mic_positions_m": [[0, 0, 0], [1, 0, 0]],
                             "sources": [{"azimuth_deg": 10.0}]})  # id missing

    def test_unknown_scene_keys_are_all_named_at_every_level(self):
        data = scene_to_dict(three_speaker_scene(40.0, duration_s=0.2, seed=5))
        data["colour"] = "red"
        data["sources"][2]["volume"] = 1.0
        data["sources"][0]["signal"]["vibrato"] = 0.1
        named = ["colour", "sources[0].signal.vibrato", "sources[2].volume"]
        with pytest.raises(ConfigError, match=re.escape(f"unknown scene keys: {named}")):
            scene_from_dict(data)
        with pytest.raises(ConfigError, match="scene root must be a mapping"):
            scene_from_dict([data])


# Every class whose fields declare what they admit, and how the program checks it.
TABLE = (PipelineConfig, SourceDirection, StageToggles, SignalSpec, SceneSource, SceneSpec,
         ArrayGeometry)
RANGED = [(cls, f) for cls in TABLE for f in fields(cls)
          if isinstance(f.metadata.get("allowed"), str)]


def build(cls, **changes):
    """A valid ``cls`` with ``changes``, checked where the program checks it."""
    if cls is PipelineConfig:
        return config_from_dict(dict(MINIMAL, **changes))
    if cls is SourceDirection:
        return config_from_dict(dict(MINIMAL, sources=[dict(MINIMAL["sources"][0], **changes)]))
    if cls is StageToggles:
        return config_from_dict(dict(MINIMAL, stages=changes))
    required = {SceneSource: {"source_id": "s", "azimuth_deg": 0.0},
                SceneSpec: {"geometry": box_array_geometry(), "sources": ()},
                ArrayGeometry: {"mic_positions": BOX_MIC_POSITIONS}}
    return cls(**{**required.get(cls, {}), **changes})


def boundary_cases():
    """(class, field, value, accepted) at both ends of every declared interval:
    a closed end is accepted, and an open end and the nearest value outside a
    closed finite end (the next float, or the next integer) are rejected."""
    for cls, f in RANGED:
        text, integer = f.metadata["allowed"], f.type == "int"
        wrap = (lambda v: (v,)) if f.type.startswith("tuple") else (lambda v: v)
        for end, closed, outward in zip((float(e) for e in text[1:-1].split(",")),
                                        (text[0] == "[", text[-1] == "]"), (-np.inf, np.inf)):
            if integer and np.isfinite(end):
                end = int(end)
            yield cls, f.name, wrap(end), closed
            if closed and np.isfinite(end):
                outside = end + (1 if outward > 0 else -1) if integer else np.nextafter(end, outward)
                yield cls, f.name, wrap(outside), False
        for value in (True, "1"):
            yield cls, f.name, wrap(value), False


@pytest.mark.parametrize("cls, name, value, accepted", list(boundary_cases()),
                         ids=lambda v: getattr(v, "__name__", repr(v)))
def test_declared_interval_ends(cls, name, value, accepted):
    if accepted:
        build(cls, **{name: value})
    else:
        with pytest.raises(ConfigError, match=name):
            build(cls, **{name: value})


def test_table_covers_every_numeric_field():
    for cls in TABLE:
        for f in fields(cls):
            assert f.type not in ("int", "float") or (cls, f) in RANGED, f"{cls.__name__}.{f.name}"


def config_on(positions, num_sources, step_size):
    return PipelineConfig(
        mic_positions_m=[list(map(float, p)) for p in positions],
        sources=[SourceDirection(f"s{i}", 90.0 * i - 90.0) for i in range(num_sources)],
        step_size=step_size)


class TestStepSizeBound:
    """The geometric term's step converges only below 1 / max_k lambda_max(A_k^H A_k),
    which for unit-modulus steering is 1 / (N M), reached at the DC bin."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_closed_form_matches_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        positions = BOX_MIC_POSITIONS if seed is None else rng.uniform(-0.3, 0.3, (
            rng.integers(2, 9), 3))
        geometry = ArrayGeometry(positions)
        for num_sources in range(2, geometry.num_mics + 1):
            directions = [direction_vector(rng.uniform(-np.pi, np.pi), rng.uniform(-1, 1))
                          for _ in range(num_sources)]
            a = steering_matrix(geometry, directions, 1024)
            largest = np.linalg.eigvalsh(a.conj().transpose(0, 2, 1) @ a)[:, -1]
            assert largest.max() == pytest.approx(geometry.num_mics * num_sources, rel=1e-12)
            assert largest[0] == pytest.approx(geometry.num_mics * num_sources, rel=1e-12)

    @pytest.mark.parametrize("positions, num_sources", [
        (BOX_MIC_POSITIONS, 3), (np.random.default_rng(0).uniform(-0.3, 0.3, (5, 3)), 2)])
    def test_validate_rejects_steps_at_the_bound(self, positions, num_sources):
        bound = 1.0 / (len(positions) * num_sources)  # 1/24 for the box trio
        with pytest.raises(ConfigError, match="step_size"):
            config_on(positions, num_sources, bound).validate()
        config_on(positions, num_sources, 0.99 * bound).validate()
        config_on(positions, 1, 1.0).validate()  # one source never leaves delay-and-sum


def readme_yaml_block(intro: str) -> str:
    """The first YAML block of README.md after the text ``intro``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("```yaml\n", text.index(intro)) + len("```yaml\n")
    return text[start : text.index("```", start)]


def readme_config_block() -> dict:
    """The YAML block that README.md introduces as "(all defaults shown)"."""
    return yaml.safe_load(readme_yaml_block("(all defaults shown)"))


def assert_lines_show_intervals(block: str, classes) -> None:
    """Each line of ``block`` that sets a ranged field of ``classes`` shows its interval."""
    for cls, f in RANGED:
        if cls in classes:
            lines = [line for line in block.splitlines()
                     if re.search(rf"(?<!\w){f.name}:", line)]
            assert lines, f"README lacks {cls.__name__}.{f.name}"
            for line in lines:
                assert f.metadata["allowed"] in line, (f"{cls.__name__}.{f.name}", line)


def test_readme_shows_every_default():
    block = readme_config_block()
    config = config_from_dict(block)
    default = PipelineConfig()
    run_paths = {"input_wav", "output_dir", "reference_wavs", "noise_wav"}
    assert set(block) == set(PipelineConfig.__dataclass_fields__) - run_paths
    for key in set(block) - {"mic_positions_m", "sources"}:
        assert getattr(config, key) == getattr(default, key), key
    assert_lines_show_intervals(readme_yaml_block("(all defaults shown)"),
                                (PipelineConfig, SourceDirection))


def test_readme_shows_every_scene_key():
    text = readme_yaml_block("arraysep simulate --scene S.yaml")
    assert_lines_show_intervals(text, (ArrayGeometry, SceneSpec, SceneSource, SignalSpec))
    scene = scene_from_dict(yaml.safe_load(text))
    assert scene == SceneSpec(scene.geometry, (SceneSource("center", 0.0),))
    assert (scene.geometry.rate, scene.geometry.speed_of_sound) == (48000, 343.0)
    [kind_line] = [line for line in text.splitlines() if "kind:" in line]
    assert all(kind in kind_line for kind in SIGNAL_KINDS)
