"""Quality metrics against an independently scripted projection oracle."""

import tracemalloc

import numpy as np
import pytest

from arraysep.audio import AudioBuffer, open_wav, write_wav
from arraysep.metrics import (EDGE_TRIM, QualityReport, SourceQuality, interference_ratio_db,
                              measure_quality, noise_ratio_db)
from arraysep.simulate import synthesize, three_speaker_scene


def orthogonal_references(half=9000, seed=0):
    # disjoint time supports make the projections exactly orthogonal; both
    # lie inside the edges the metrics trim
    rng = np.random.default_rng(seed)
    n = 2 * EDGE_TRIM + 2 * half
    a = np.zeros(n)
    b = np.zeros(n)
    a[EDGE_TRIM : EDGE_TRIM + half] = rng.standard_normal(half)
    b[EDGE_TRIM + half : n - EDGE_TRIM] = a[EDGE_TRIM : EDGE_TRIM + half]  # same power
    return a, b


class TestRatios:
    def test_perfect_output_caps_at_99(self):
        a, b = orthogonal_references()
        assert interference_ratio_db(a, a, [b]) == 99.0

    def test_equal_power_sum_is_zero_db(self):
        a, b = orthogonal_references()
        mixed = a + b
        assert interference_ratio_db(mixed, a, [b]) == pytest.approx(0.0, abs=0.1)

    def test_degenerate_reference_undefined(self):
        a, _ = orthogonal_references()
        assert interference_ratio_db(a, np.zeros_like(a), [a]) is None

    def test_known_mixture_ratio(self):
        a, b = orthogonal_references()
        mixed = a + 0.1 * b  # 20 dB target to interference
        assert interference_ratio_db(mixed, a, [b]) == pytest.approx(20.0, abs=0.1)

    def test_noise_ratio_multichannel(self):
        rng = np.random.default_rng(1)
        a, _ = orthogonal_references()
        noise = rng.standard_normal((2, len(a))) * 0.05
        out = a + noise[0]
        ratio = noise_ratio_db(out, a, noise)
        inner = slice(EDGE_TRIM, -EDGE_TRIM)
        expected = 10 * np.log10(np.mean(a[inner] ** 2) / np.mean(noise[0, inner] ** 2))
        assert ratio == pytest.approx(expected, abs=0.5)


    def test_mapped_noise_decoded_one_channel_at_a_time(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 5 * 48000
        path = str(tmp_path / "noise.wav")
        write_wav(path, AudioBuffer(0.01 * rng.standard_normal((8, n)), 48000))
        noise = open_wav(path)
        target = rng.standard_normal(n)
        output = target + 0.1 * rng.standard_normal(n)
        expected = noise_ratio_db(output, target, noise)  # also warms lazy imports
        tracemalloc.start()
        try:
            got = noise_ratio_db(output, target, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak <= 1.1 * n * 8  # one decoded float64 channel


class TestMeasureQuality:
    def test_matches_reimplemented_oracle_on_preset(self):
        spec = three_speaker_scene(60.0, duration_s=3.0, seed=21)
        render = synthesize(spec)
        # a crude separator: each "output" is one microphone signal
        outputs = [render.mixture.samples[i] for i in range(3)]
        rows = measure_quality(outputs, render.clean_references, render.noise,
                               source_ids=["a", "b", "c"])

        trim = 1024
        for m, row in enumerate(rows):
            out = outputs[m][trim:-trim]
            refs = [r[trim:-trim] for r in render.clean_references]

            def power_on(reference):
                denom = np.dot(reference, reference)
                if denom <= 0.0:
                    return None
                gain = np.dot(out, reference) / denom
                return gain * gain * denom

            target = power_on(refs[m])
            rivals = sum(p for j in range(3) if j != m
                         for p in [power_on(refs[j])] if p is not None)
            expected = min(99.0, 10 * np.log10(target / rivals))
            assert row.output_sir_db == pytest.approx(expected, rel=1e-9)

    def test_no_noise_reference_leaves_snr_undefined(self):
        a, b = orthogonal_references()
        rows = measure_quality([a], [a], None)
        assert rows[0].output_snr_db is None
        assert rows[0].output_sir_db == 99.0  # no rivals at all


def test_report_csv_format(tmp_path):
    report = QualityReport({
        "gss": [SourceQuality("a", 12.345, None)],
        "gss+pf": [SourceQuality("a", 20.0, 30.0)],
    })
    path = str(tmp_path / "q.csv")
    report.to_csv(path)
    lines = open(path).read().splitlines()
    assert lines[0] == "stage,source,input_sir_db,output_sir_db,output_snr_db"
    assert lines[1] == "gss,a,nan,12.3450,nan"
    assert lines[2] == "gss+pf,a,nan,20.0000,30.0000"
    assert len(lines) == 3
