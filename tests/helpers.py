"""Shared builders for scene-based tests."""

import struct

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


def write_pcm24(path, data, extra_chunk=b"", extensible=False):
    """Write integer samples (n, channels) as a 48 kHz 24-bit PCM WAV file,
    with ``extra_chunk`` between the fmt and data chunks and, if
    ``extensible``, a WAVE_FORMAT_EXTENSIBLE fmt chunk; returns the path."""
    channels = data.shape[1]
    data = np.ascontiguousarray(data, dtype="<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else 1, channels, 48000,
                      48000 * 3 * channels, 3 * channels, 24)
    if extensible:  # cbSize, valid bits, channel mask, the PCM subformat GUID
        fmt += struct.pack("<HHIH", 22, 24, 0, 1) + bytes.fromhex("000000001000800000aa00389b71")
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + extra_chunk
            + b"data" + struct.pack("<I", len(data)) + data)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return str(path)


def filter_frame(postfilter, frame):
    """One frame through ``PostFilter.process`` and a ``flush`` of its own:
    a copy of the filtered (M, n_bins) bins, their (3, M, 24) band powers and
    a (5, M, n_bins) copy of the internals, or None without ``dump_diagnostics``."""
    postfilter.process(frame)
    block, bands, internals = postfilter.flush()
    return block[0].copy(), bands[0], None if internals is None else np.stack(internals)[:, 0]


def noise_ratio_db(output, target, noise):
    """The noise ratio, in dB, that the quality report gives ``output``
    against ``target`` and the (N, n) ``noise``."""
    return measure_quality([output], [target], noise)[0].output_snr_db


def stage_sir(render, spec, adapt, postfilter):
    audio, _ = separate_scene(render, spec, adapt=adapt, postfilter=postfilter)
    rows = measure_quality(
        [audio.samples[m] for m in range(len(spec.sources))],
        render.clean_references, render.noise,
        source_ids=[s.source_id for s in spec.sources],
    )
    return np.array([row.output_sir_db for row in rows])


__all__ = ["box_array_geometry", "filter_frame", "noise_ratio_db", "pipeline_config_for_scene",
           "separate_scene", "stage_sir", "write_pcm24"]
