"""Command-line entry points.

Subcommands compose the pipeline stages so each is exercisable alone:

  separate   run GSS (+ post-filter, features, masks) over a WAV
  features   extract log-mel features from a single WAV
  score      measure separation quality against clean references
  simulate   render a deterministic test scene to WAV files
  bench      report the real-time factor of the processing stages

Failures exit with distinct codes: 2 config, 3 file I/O, 4 stream shape,
5 over-determined scene.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .audio import (SEPARATION_RATE, AudioBuffer, open_wav, read_wav, resample_48k_to_16k,
                    write_wav)
from .config import (PipelineConfig, SourceDirection, parse_config, parse_scene_file,
                     write_scene_file)
from .errors import ArraySepError, AudioIOError, ConfigError, StreamError
from .features import extract_features, write_features_binary, write_features_csv
from .metrics import measure_quality, write_quality_report
from .pipeline import bench_pipeline, run_pipeline, staged_outputs
from .simulate import preset_names, preset_scene, synthesize


def _cmd_separate(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    config.input_wav = args.input or config.input_wav
    config.output_dir = args.output_dir or config.output_dir
    result = run_pipeline(config)
    print(f"processed {result.frames_processed} frames into {result.output_dir}")
    for source_id, path in result.separated_48k.items():
        print(f"  {source_id}: {path}")
    if result.report_csv:
        print(f"  quality report: {result.report_csv}")
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    audio = read_wav(args.input)
    if audio.num_channels != 1:
        raise ConfigError("features expects a mono WAV; separate the mixture first")
    if audio.rate == SEPARATION_RATE:
        audio = resample_48k_to_16k(audio)
    features = extract_features(audio)
    stem = os.path.splitext(os.path.basename(args.input))[0]
    csv_path = os.path.join(args.output_dir, f"{stem}_features.csv")
    bin_path = os.path.join(args.output_dir, f"{stem}_features.bin")
    with staged_outputs(args.output_dir) as staging:  # both files or neither
        write_features_csv(staging(csv_path), features)
        write_features_binary(staging(bin_path), features)
    print(f"{len(features)} frames -> {csv_path}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    if len(args.output) != len(args.reference):
        raise ConfigError("need one reference per separated output")
    # Each output and reference is scored on its first channel.  The outputs
    # are decoded and held while each reference and noise channel is decoded
    # once and projected onto all of them; every mapping is dropped before
    # --csv is written, since that may rewrite one of the inputs.
    outputs = [open_wav(p) for p in args.output]
    references = [open_wav(p) for p in args.reference]
    noise = open_wav(args.noise) if args.noise else None
    rates = {w.rate for w in [*outputs, *references, *([noise] if noise else [])]}
    if len(rates) > 1:
        raise StreamError(f"score inputs must share one sample rate, got {sorted(rates)} Hz")
    ids = [os.path.splitext(os.path.basename(p))[0] for p in args.output]
    rows = measure_quality((w[0] for w in outputs), references, noise,
                           source_ids=ids)
    del outputs, references, noise
    if args.csv:
        write_quality_report(args.csv, args.stage, rows)
        print(f"wrote {args.csv}")
    for row in rows:
        sir = "n/a" if row.output_sir_db is None else f"{row.output_sir_db:.2f} dB"
        snr = "n/a" if row.output_snr_db is None else f"{row.output_snr_db:.2f} dB"
        print(f"{row.source_id}: SIR {sir}, SNR {snr}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.scene:
        spec = parse_scene_file(args.scene)
    elif args.preset:
        spec = preset_scene(args.preset, duration_s=args.duration, seed=args.seed)
    else:
        raise ConfigError(f"choose --preset (one of: {', '.join(preset_names())}) or --scene")
    render = synthesize(spec)
    rate = spec.geometry.rate
    mixture_path = os.path.join(args.output_dir, "mixture.wav")
    with staged_outputs(args.output_dir) as staging:  # every file or none
        write_wav(staging(mixture_path), render.mixture)
        for scene_source, reference in zip(spec.sources, render.clean_references):
            path = os.path.join(args.output_dir, f"{scene_source.source_id}_reference.wav")
            write_wav(staging(path), AudioBuffer(reference, rate))
        write_wav(staging(os.path.join(args.output_dir, "noise.wav")),
                  AudioBuffer(render.noise, rate))
        write_scene_file(spec, staging(os.path.join(args.output_dir, "scene.yaml")))
    print(f"scene -> {mixture_path} ({render.mixture.num_channels} channels, "
          f"{render.mixture.duration:.1f}s, {len(spec.sources)} sources)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.seconds == 0:
        print("bench: empty input, nothing to measure")
        return 0
    spec = preset_scene(args.preset, duration_s=args.seconds, seed=args.seed)
    if not 1 <= args.sources <= len(spec.sources):
        raise ConfigError(f"--sources must be within 1..{len(spec.sources)} "
                          f"for preset {args.preset}, got {args.sources}")
    render = synthesize(spec)
    config = PipelineConfig(
        mic_positions_m=[list(map(float, p)) for p in spec.geometry.mic_positions],
        sources=[SourceDirection(s.source_id, s.azimuth_deg, s.elevation_deg)
                 for s in spec.sources[: args.sources]],
    )
    config.validate()
    report = bench_pipeline(render.mixture, config)
    print(report.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arraysep", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage details")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("separate", help="run the separation pipeline over a WAV")
    p.add_argument("--config", required=True, help="pipeline config YAML; every tunable comes from it")
    p.add_argument("--input", help="override input WAV")
    p.add_argument("--output-dir", help="override output directory")
    p.set_defaults(func=_cmd_separate)

    p = subparsers.add_parser("features", help="extract log-mel features from one WAV")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_features)

    p = subparsers.add_parser("score", help="score separated outputs against references")
    p.add_argument("--output", nargs="+", required=True, help="separated WAVs")
    p.add_argument("--reference", nargs="+", required=True, help="clean reference WAVs")
    p.add_argument("--noise", help="noise reference WAV")
    p.add_argument("--csv", help="write the report here")
    p.add_argument("--stage", default="output", help="stage label for the report")
    p.set_defaults(func=_cmd_score)

    p = subparsers.add_parser("simulate", help="render a deterministic test scene")
    p.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    p.add_argument("--scene", help="scene description YAML")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(func=_cmd_simulate)

    p = subparsers.add_parser("bench", help="measure the real-time factor")
    p.add_argument("--preset", default="trio-90deg")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--sources", type=int, default=3)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the package logger's level and one stderr handler hold for this call
    # only, so each call in a process logs as its own -v says
    log = logging.getLogger("arraysep")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except ArraySepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an output location that cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return AudioIOError.exit_code
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
