"""Shared builders for scene-based tests."""

import numpy as np

from arraysep.config import PipelineConfig, SourceDirection, StageToggles
from arraysep.metrics import measure_quality
from arraysep.pipeline import run_stages
from arraysep.simulate import SceneSpec, box_array_geometry


def pipeline_config_for_scene(spec: SceneSpec, adapt=True, postfilter=True,
                              features=False, **overrides) -> PipelineConfig:
    config = PipelineConfig(
        mic_positions_m=[list(map(float, p)) for p in spec.geometry.mic_positions],
        sources=[SourceDirection(s.source_id, s.azimuth_deg, s.elevation_deg)
                 for s in spec.sources],
        stages=StageToggles(adapt=adapt, postfilter=postfilter, features=features),
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config.validate()


def separate_scene(render, spec, adapt=True, postfilter=True, **overrides):
    """Run the separation stages over a rendered scene; returns (audio, output)."""
    config = pipeline_config_for_scene(spec, adapt=adapt, postfilter=postfilter, **overrides)
    output = run_stages(render.mixture, config)
    return output.separated, output


def stage_sir(render, spec, adapt, postfilter):
    audio, _ = separate_scene(render, spec, adapt=adapt, postfilter=postfilter)
    rows = measure_quality(
        [audio.samples[m] for m in range(len(spec.sources))],
        render.clean_references, render.noise,
        source_ids=[s.source_id for s in spec.sources],
    )
    return np.array([row.output_sir_db for row in rows])


__all__ = ["box_array_geometry", "pipeline_config_for_scene", "separate_scene", "stage_sir"]
