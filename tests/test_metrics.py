"""Quality metrics against an independently scripted projection oracle."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from arraysep.audio import AudioBuffer, open_wav, write_wav
from arraysep.metrics import (EDGE_TRIM, SourceQuality, interference_ratio_db, measure_quality,
                              write_quality_report)
from arraysep.simulate import synthesize, three_speaker_scene
from helpers import noise_ratio_db


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

    def test_output_without_its_target_floors_at_minus_99(self):
        # no projection on the target over some on a rival: the mirror of the cap
        a, b = orthogonal_references()
        assert interference_ratio_db(b, a, [b]) == -99.0
        assert noise_ratio_db(b, a, b[None]) == -99.0

    def test_equal_power_sum_is_zero_db(self):
        a, b = orthogonal_references()
        mixed = a + b
        assert interference_ratio_db(mixed, a, [b]) == pytest.approx(0.0, abs=0.1)

    def test_degenerate_reference_undefined(self):
        a, _ = orthogonal_references()
        assert interference_ratio_db(a, np.zeros_like(a), [a]) is None

    def test_silent_output_undefined_not_capped(self, tmp_path):
        # zero target power over zero residual shows no separation at all:
        # it must not score the cap, and the report writes nan
        a, b = orthogonal_references()
        silent = np.zeros_like(a)
        assert interference_ratio_db(silent, a, [b]) is None
        assert noise_ratio_db(silent, a, np.stack([b, 0.5 * b])) is None
        rows = measure_quality([silent, b], [a, b], np.stack([b, 0.5 * b]), ["a", "b"])
        write_quality_report(str(tmp_path / "q.csv"), "gss", rows)
        assert (tmp_path / "q.csv").read_text().splitlines()[1] == "gss,a,nan,nan,nan"

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

    @pytest.mark.parametrize("noise_kind", ["array", "mapped"])
    def test_float32_inputs_score_like_their_float64_upcasts(self, tmp_path, noise_kind):
        # every projection is summed in float64, whatever the inputs' type
        render = synthesize(three_speaker_scene(60.0, duration_s=1.0, seed=22))
        outputs = render.mixture.samples[:3].astype(np.float32)
        references = [r.astype(np.float32) for r in render.clean_references]
        noise = render.noise.astype(np.float32)
        narrow_noise = noise
        if noise_kind == "mapped":
            path = str(tmp_path / "noise.wav")
            write_wav(path, AudioBuffer(noise, 48000))
            narrow_noise = open_wav(path)
        narrow = measure_quality(list(outputs), references, narrow_noise)
        wide = measure_quality([o.astype(np.float64) for o in outputs],
                               [r.astype(np.float64) for r in references],
                               noise.astype(np.float64))
        for a, b in zip(narrow, wide, strict=True):
            assert a.output_sir_db is not None and a.output_snr_db is not None
            assert np.float64(a.output_sir_db).tobytes() == np.float64(b.output_sir_db).tobytes()
            assert np.float64(a.output_snr_db).tobytes() == np.float64(b.output_snr_db).tobytes()

    def test_no_noise_reference_leaves_snr_undefined(self):
        a, b = orthogonal_references()
        rows = measure_quality([a], [a], None)
        assert rows[0].output_snr_db is None
        assert rows[0].output_sir_db == 99.0  # no rivals at all


def test_report_csv_format(tmp_path):
    path = str(tmp_path / "q.csv")
    write_quality_report(path, "gss+pf", [SourceQuality("a", 12.345, None),
                                          SourceQuality("b", 20.0, 30.0)])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "stage,source,input_sir_db,output_sir_db,output_snr_db"
    assert lines[1] == "gss+pf,a,nan,12.3450,nan"
    assert lines[2] == "gss+pf,b,nan,20.0000,30.0000"
    assert len(lines) == 3
