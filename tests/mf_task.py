"""Frozen desk-scale missing-feature classification task.

Ten synthetic voice classes are trained on clean renditions; evaluation
scenes put one class against another through the separation front-end at
its delay-and-sum operating point, where residual leakage matches the
post-filter's leakage model.  Per-frame classification accuracy with the
estimated reliability masks is compared against all-ones masks, paired
per seed.  All parameters here are frozen after the first verified run.
"""

import numpy as np

from arraysep.audio import AudioBuffer, resample_48k_to_16k
from arraysep.config import PipelineConfig, SourceDirection, StageToggles
from arraysep.features import extract_features
from arraysep.gmm import LabeledFeatureSet, classify_frames, train_gmm
from arraysep.masks import align_to_feature_frames, masks_from_records
from arraysep.pipeline import run_stages
from arraysep.simulate import (SceneSource, SceneSpec, SignalSpec,
                               box_array_geometry, render_signal, synthesize)

VOICE_CLASSES = [
    SignalSpec(kind="harmonic", pitch_hz=100.0, formants_hz=(400.0, 800.0)),
    SignalSpec(kind="harmonic", pitch_hz=140.0, formants_hz=(1500.0, 1900.0)),
    SignalSpec(kind="harmonic", pitch_hz=180.0, formants_hz=(3000.0, 3600.0)),
    SignalSpec(kind="harmonic", pitch_hz=120.0, formants_hz=(500.0, 2500.0)),
    SignalSpec(kind="harmonic", pitch_hz=160.0, formants_hz=(900.0, 4500.0)),
    SignalSpec(kind="harmonic", pitch_hz=220.0, formants_hz=(1100.0, 1400.0)),
    SignalSpec(kind="harmonic", pitch_hz=90.0, formants_hz=(2200.0, 5500.0)),
    SignalSpec(kind="harmonic", pitch_hz=200.0, formants_hz=(600.0, 6000.0)),
    SignalSpec(kind="am_noise", band_low_hz=300.0, band_high_hz=1200.0),
    SignalSpec(kind="am_noise", band_low_hz=2500.0, band_high_hz=7000.0),
]

TRAIN_UTTERANCES = 5
TRAIN_SECONDS = 2.0
GMM_COMPONENTS = 6

ANGLE_DEG = 25.0          # separation between the two talkers
NOISE_LEVEL_DB = -35.0
SCENE_SECONDS = 4.5
ONSET_S = 0.4             # noise-only lead-in so the floor tracker locks on
SETTLE_S = 1.2            # evaluation skips the estimator settle time
ACTIVE_FRACTION = 0.4     # of the 90th-percentile reference band energy


def clean_feature_rows(class_index: int, seed: int, seconds: float = TRAIN_SECONDS):
    rng = np.random.default_rng(np.random.SeedSequence((seed, class_index)))
    signal = render_signal(VOICE_CLASSES[class_index], rng, int(seconds * 48000), 48000)
    features = extract_features(resample_48k_to_16k(AudioBuffer(signal, 48000)))
    return np.stack([np.concatenate([f.static, f.delta]) for f in features])


def train_models(seed: int = 0):
    rows, labels = [], []
    for class_index in range(len(VOICE_CLASSES)):
        for utterance in range(TRAIN_UTTERANCES):
            block = clean_feature_rows(class_index, 1000 + utterance)
            rows.append(block)
            labels += [str(class_index)] * block.shape[0]
    dataset = LabeledFeatureSet(np.concatenate(rows), np.array(labels))
    return train_gmm(dataset, GMM_COMPONENTS, seed=seed)


def run_trial(models, seed: int):
    """One scene: returns (masked accuracy, all-ones accuracy) or None if the
    target is silent through the whole evaluation window."""
    rng = np.random.default_rng(seed)
    target_class, rival_class = rng.choice(len(VOICE_CLASSES), size=2, replace=False)

    geometry = box_array_geometry()
    spec = SceneSpec(geometry, (
        SceneSource("target", ANGLE_DEG / 2, signal=VOICE_CLASSES[target_class],
                    onset_s=ONSET_S),
        SceneSource("rival", -ANGLE_DEG / 2, signal=VOICE_CLASSES[rival_class],
                    onset_s=ONSET_S),
    ), duration_s=SCENE_SECONDS, noise_level_db=NOISE_LEVEL_DB, seed=int(seed))
    render = synthesize(spec)

    config = PipelineConfig(
        mic_positions_m=[list(map(float, p)) for p in geometry.mic_positions],
        sources=[SourceDirection("target", ANGLE_DEG / 2),
                 SourceDirection("rival", -ANGLE_DEG / 2)],
        stages=StageToggles(adapt=False, postfilter=True, features=False),
    ).validate()
    output = run_stages(render.mixture, config)

    stream16 = resample_48k_to_16k(AudioBuffer(output.separated.samples[0], 48000))
    features = extract_features(stream16)
    vectors = np.stack([np.concatenate([f.static, f.delta]) for f in features])
    mask = align_to_feature_frames(masks_from_records(output.reliability, 0), len(features))
    bits = np.concatenate([mask.static, mask.delta], axis=1)

    reference16 = resample_48k_to_16k(AudioBuffer(render.clean_references[0], 48000))
    raw = extract_features(reference16, lifter=False, mean_subtract=False)
    energy = np.array([np.exp(f.static).sum() for f in raw])
    frames = min(len(energy), vectors.shape[0])
    energy = energy[:frames]
    active = energy > ACTIVE_FRACTION * np.quantile(energy, 0.9)
    active[: int(SETTLE_S * 100)] = False
    if active.sum() < 10:
        return None

    vectors, bits = vectors[:frames], bits[:frames]
    label = str(target_class)
    masked = classify_frames(models, vectors[active], bits[active])
    allones = classify_frames(models, vectors[active])
    return float((masked == label).mean()), float((allones == label).mean())
