"""Config parsing, validation and round trips."""

from pathlib import Path

import numpy as np
import pytest
import yaml

from arraysep.config import (PipelineConfig, SourceDirection, config_from_dict,
                             config_to_dict, parse_config, parse_scene_file,
                             scene_from_dict, scene_to_dict, serialize_config,
                             write_scene_file)
from arraysep.errors import ConfigError
from arraysep.simulate import three_speaker_scene

MINIMAL = {
    "mic_positions_m": [[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]],
    "sources": [{"id": "talker", "azimuth_deg": 15.0}],
}


class TestParse:
    def test_defaults_carry_reference_values(self):
        config = config_from_dict(dict(MINIMAL))
        assert config.spectrum_smoothing == 0.7
        assert config.mask_threshold == 0.25
        assert config.spectral_exponent == 1.0
        assert config.leak_factor == 0.25
        assert config.snr_smoothing == 0.98
        assert config.step_size == 0.01

    def test_unknown_keys_rejected(self):
        bad = dict(MINIMAL, wavelet_order=3)
        with pytest.raises(ConfigError, match="wavelet_order"):
            config_from_dict(bad)

    def test_requires_sources(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mic_positions_m": MINIMAL["mic_positions_m"], "sources": []})

    def test_duplicate_ids_rejected(self):
        sources = [{"id": "a", "azimuth_deg": 0.0}, {"id": "a", "azimuth_deg": 60.0}]
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_dict(dict(MINIMAL, sources=sources))

    def test_range_validation(self):
        for key, value in [("leak_factor", 1.5), ("snr_smoothing", 1.0),
                           ("mask_threshold", 0.0), ("spectral_exponent", -1.0),
                           ("step_size", -0.1)]:
            with pytest.raises(ConfigError):
                config_from_dict(dict(MINIMAL, **{key: value}))

    @pytest.mark.parametrize("key, value", [
        ("feature_shift", 0), ("feature_shift", 401), ("feature_fft_size", 401),
        ("mcra_window_length", 0), ("mcra_power_smoothing", 1.5),
        ("mcra_power_smoothing", -0.1), ("mcra_presence_smoothing", 2.0),
        ("mcra_presence_smoothing", 1.0), ("mcra_onset_threshold", 0.0),
    ])
    def test_feature_and_noise_tracker_validation(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(dict(MINIMAL, **{key: value}))

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

    def test_reference_count_must_match_sources(self):
        with pytest.raises(ConfigError):
            config_from_dict(dict(MINIMAL, reference_wavs=["a.wav", "b.wav"]))

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("mic_positions_m: [[0.1, 0\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "none.yaml"))


class TestRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        config = config_from_dict(dict(MINIMAL, step_size=0.02, dump_diagnostics=True))
        path = str(tmp_path / "c.yaml")
        serialize_config(config, path)
        again = parse_config(path)
        assert again == config
        assert config_to_dict(again) == config_to_dict(config)

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


def readme_config_block() -> dict:
    """The YAML block that README.md introduces as "(all defaults shown)"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("```yaml\n", text.index("(all defaults shown)")) + len("```yaml\n")
    return yaml.safe_load(text[start : text.index("```", start)])


def test_readme_shows_every_default():
    block = readme_config_block()
    config = config_from_dict(block)
    default = PipelineConfig()
    run_paths = {"input_wav", "output_dir", "reference_wavs", "noise_wav"}
    assert set(block) == set(PipelineConfig.__dataclass_fields__) - run_paths
    for key in set(block) - {"mic_positions_m", "sources"}:
        assert getattr(config, key) == getattr(default, key), key
