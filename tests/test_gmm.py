"""Marginalized mixture scoring, EM training and the model file format."""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp

from arraysep import gmm
from arraysep.errors import AudioIOError
from arraysep.gmm import (GmmModel, LabeledFeatureSet, classify_frames, load_models,
                          marginal_log_likelihoods, save_models, train_gmm)


def toy_model():
    return GmmModel(
        priors=np.array([0.6, 0.4]),
        means=np.array([[-1.0, 2.0], [1.5, -0.5]]),
        variances=np.array([[0.5, 1.2], [0.8, 0.3]]),
    )


def scalar_gaussian(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


class TestMarginal:
    def test_full_mask_equals_standard_density(self):
        model = toy_model()
        frames = np.random.default_rng(0).standard_normal((20, 2))
        full = marginal_log_likelihoods(model, frames, np.ones((20, 2), bool))
        for x, got in zip(frames, full):
            direct = math.log(sum(
                p * scalar_gaussian(x[0], mu[0], v[0]) * scalar_gaussian(x[1], mu[1], v[1])
                for p, mu, v in zip(model.priors, model.means, model.variances)))
            assert got == pytest.approx(direct, abs=1e-10)

    def test_empty_mask_is_log_one(self):
        frames = np.array([[0.0, 0.0], [100.0, -50.0]])
        got = marginal_log_likelihoods(toy_model(), frames, np.zeros((2, 2), bool))
        assert np.all(np.abs(got) < 1e-12)

    def test_hand_computed_one_dim_mixture(self):
        model = toy_model()
        x = np.array([[0.5, 99.0]])  # second dim masked out, value irrelevant
        got = marginal_log_likelihoods(model, x, np.array([[True, False]]))[0]
        direct = math.log(sum(p * scalar_gaussian(0.5, mu[0], v[0])
                              for p, mu, v in zip(model.priors, model.means, model.variances)))
        assert got == pytest.approx(direct, abs=1e-12)

    def test_matches_quadrature_of_full_density(self):
        # integrating the joint density over the masked dimension is the oracle
        model = toy_model()

        def joint(x0, x1):
            return sum(p * scalar_gaussian(x0, mu[0], v[0]) * scalar_gaussian(x1, mu[1], v[1])
                       for p, mu, v in zip(model.priors, model.means, model.variances))

        starts = [-1.5, 0.2, 2.0]
        frames = np.column_stack((starts, np.zeros(3)))
        got = marginal_log_likelihoods(model, frames, np.tile([True, False], (3, 1)))
        for x0, value in zip(starts, got):
            integral, _ = integrate.quad(lambda t: joint(x0, t), -np.inf, np.inf)
            assert value == pytest.approx(math.log(integral), rel=1e-4)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            marginal_log_likelihoods(toy_model(), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            marginal_log_likelihoods(toy_model(), np.zeros((1, 2)), np.zeros((1, 3), bool))

    def test_component_order_invariance(self):
        model = toy_model()
        flipped = GmmModel(model.priors[::-1].copy(), model.means[::-1].copy(),
                           model.variances[::-1].copy())
        x = np.array([[0.3, -0.7]])
        mask = np.array([[True, True]])
        assert marginal_log_likelihoods(model, x, mask)[0] == pytest.approx(
            marginal_log_likelihoods(flipped, x, mask)[0], rel=1e-12)


class TestTraining:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(3.0, 2.0, (400, 3))
        dataset = LabeledFeatureSet(rows, np.array(["only"] * 400))
        model = train_gmm(dataset, 1, seed=0)["only"]
        np.testing.assert_allclose(model.means[0], rows.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(model.variances[0], rows.var(axis=0), rtol=1e-12)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(2)
        centers = np.array([[-3.0, 0.0], [3.0, 1.0]])
        rows = np.concatenate([rng.normal(c, 0.3, (300, 2)) for c in centers])
        dataset = LabeledFeatureSet(rows, np.array(["c"] * 600))
        model = train_gmm(dataset, 2, seed=1)["c"]
        found = model.means[np.argsort(model.means[:, 0])]
        np.testing.assert_allclose(found, centers, atol=0.1)

    def test_seed_determinism(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((300, 4))
        dataset = LabeledFeatureSet(rows, np.array(["c"] * 300))
        a = train_gmm(dataset, 3, seed=42)["c"]
        b = train_gmm(dataset, 3, seed=42)["c"]
        np.testing.assert_array_equal(a.priors, b.priors)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_constant_features_single_component_fallback(self):
        rows = np.full((100, 2), 1.5)
        dataset = LabeledFeatureSet(rows, np.array(["c"] * 100))
        model = train_gmm(dataset, 4, seed=0)["c"]
        assert model.num_components == 1
        np.testing.assert_allclose(model.means[0], [1.5, 1.5])

    def test_too_few_frames_rejected(self):
        dataset = LabeledFeatureSet(np.zeros((19, 2)), np.array(["c"] * 19))
        with pytest.raises(ValueError):
            train_gmm(dataset, 2, seed=0)

    def test_variance_floor_applied(self):
        rng = np.random.default_rng(4)
        rows = np.column_stack([rng.standard_normal(200), np.full(200, 2.0)])
        dataset = LabeledFeatureSet(rows, np.array(["c"] * 200))
        model = train_gmm(dataset, 2, seed=0)["c"]
        assert np.all(model.variances >= 1e-4)


class TestClassify:
    def test_single_class_returned(self):
        labels = classify_frames({"only": toy_model()}, np.zeros((3, 2)))
        assert list(labels) == ["only"] * 3

    def test_sampled_frames_recover_their_class(self):
        rng = np.random.default_rng(5)
        model_a = GmmModel(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([[0.4, 0.4]]))
        model_b = GmmModel(np.array([1.0]), np.array([[4.0, -4.0]]), np.array([[0.4, 0.4]]))
        samples = rng.normal(model_a.means[0], np.sqrt(model_a.variances[0]), (50, 2))
        assert np.all(classify_frames({"a": model_a, "b": model_b}, samples) == "a")

    def test_masked_out_discriminative_dims_tie(self):
        model_a = GmmModel(np.array([1.0]), np.array([[0.0, 7.0]]), np.array([[1.0, 0.5]]))
        model_b = GmmModel(np.array([1.0]), np.array([[0.0, -7.0]]), np.array([[1.0, 0.5]]))
        models = {"b": model_b, "a": model_a}
        rng = np.random.default_rng(6)
        frames = np.column_stack((rng.standard_normal(30), -7.0 + rng.standard_normal(30)))
        masks = np.tile(np.array([True, False]), (30, 1))  # hide the differing dim
        np.testing.assert_allclose(marginal_log_likelihoods(model_a, frames, masks),
                                   marginal_log_likelihoods(model_b, frames, masks),
                                   rtol=0, atol=1e-9)
        assert np.all(classify_frames(models, frames) == "b")
        # every frame ties, and a tie goes to the lexically first class
        assert np.all(classify_frames(models, frames, masks) == "a")

    def test_class_order_invariance(self):
        rng = np.random.default_rng(7)
        frames = rng.standard_normal((20, 2))
        frames[10:] += 5.0  # half the frames sit on class b
        models = {"a": toy_model(), "b": GmmModel(np.array([1.0]), np.array([[5.0, 5.0]]),
                                                  np.array([[1.0, 1.0]]))}
        forward = classify_frames(models, frames)
        np.testing.assert_array_equal(
            forward, classify_frames(dict(reversed(list(models.items()))), frames))
        assert set(forward) == {"a", "b"}

    def test_true_mask_beats_inverted_mask(self):
        # classes differ in every dim; corruption hits dims 0-1 only.  Keeping
        # the clean dims must beat keeping the corrupted ones, on average.
        rng = np.random.default_rng(8)
        mean_a = np.array([2.0, -2.0, 2.0, -2.0])
        mean_b = np.array([-2.0, 2.0, -2.0, 2.0])
        variance = np.full(4, 0.5)
        model_a = GmmModel(np.array([1.0]), mean_a[np.newaxis], variance[np.newaxis])
        model_b = GmmModel(np.array([1.0]), mean_b[np.newaxis], variance[np.newaxis])
        models = {"a": model_a, "b": model_b}

        trials = 500
        correct_true = correct_inverted = 0
        for _ in range(trials):
            label = "a" if rng.random() < 0.5 else "b"
            mean = mean_a if label == "a" else mean_b
            frame = rng.normal(mean, np.sqrt(variance))
            frame[:2] += rng.normal(0.0, 6.0, 2)  # corruption hits dims 0-1
            true_mask = np.array([False, False, True, True])
            inverted = ~true_mask
            got_true = classify_frames(models, frame[np.newaxis], true_mask[np.newaxis])[0]
            got_inv = classify_frames(models, frame[np.newaxis], inverted[np.newaxis])[0]
            correct_true += got_true == label
            correct_inverted += got_inv == label
        assert correct_true / trials >= correct_inverted / trials


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        models = {}
        for name in ["zero", "one", "two"]:
            priors = rng.random(3)
            priors /= priors.sum()
            models[name] = GmmModel(priors, rng.standard_normal((3, 5)),
                                    rng.random((3, 5)) + 0.1)
        path = str(tmp_path / "models.gmm")
        save_models(path, models)
        loaded = load_models(path)
        assert set(loaded) == set(models)
        for name in models:
            np.testing.assert_array_equal(loaded[name].priors, models[name].priors)
            np.testing.assert_array_equal(loaded[name].means, models[name].means)
            np.testing.assert_array_equal(loaded[name].variances, models[name].variances)

    def test_header_is_text(self, tmp_path):
        models = {"c": toy_model()}
        path = str(tmp_path / "m.gmm")
        save_models(path, models)
        with open(path, "rb") as file:
            header = file.read(64).split(b"\n\n")[0].decode("ascii")
        assert header.splitlines()[0] == "gmmset 1"
        assert "classes c" in header

    def test_file_bytes(self, tmp_path):
        second = GmmModel(np.array([0.25, 0.75]), np.array([[3.0, -0.0], [1e-300, 7.5]]),
                          np.array([[2.0, 0.125], [1e300, 0.5]]))
        models = {"b": toy_model(), "a": second}
        path = tmp_path / "m.gmm"
        save_models(str(path), models)
        expected = b"gmmset 1\nclasses a b\ncomponents 2\ndims 2\n\n"
        for name in ("a", "b"):
            model = models[name]
            expected += struct.pack("<10d", *model.priors, *model.means.ravel(),
                                    *model.variances.ravel())
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("name", ["", "x y", "x\ny", "tab\t", "caf\u00e9"],
                             ids=["empty", "space", "newline", "tab", "non-ascii"])
    def test_class_names_that_cannot_round_trip_refused(self, tmp_path, name):
        path = tmp_path / "m.gmm"
        with pytest.raises(ValueError, match="class names"):
            save_models(str(path), {name: toy_model(), "c": toy_model()})
        assert not path.exists()

    @pytest.mark.parametrize("header, values", [
        (b"components 2\ndims 2", 10),
        (b"classes c\ncomponents x\ndims 2", 10),
        (b"classes c\ncomponents 2\ndims 2\nnote caf\xc3\xa9", 10),
        (b"classes c\ncomponents 2\ndims 2\nnote", 10),
        (b"classes\ncomponents 2\ndims 2", 0),
        (b"classes c c\ncomponents 2\ndims 2", 20),
        (b"classes c\ncomponents 0\ndims 2", 0),
    ], ids=["no-classes", "components-x", "non-ascii", "no-value", "no-class", "repeated-class",
            "zero-components"])
    def test_unparseable_headers_rejected(self, tmp_path, header, values):
        path = tmp_path / "m.gmm"
        body = np.tile(np.concatenate((toy_model().priors, np.ones(8))), values // 10)
        path.write_bytes(b"gmmset 1\n" + header + b"\n\n" + body.astype("<f8").tobytes())
        with pytest.raises(AudioIOError, match=f"^{re.escape(str(path))}: unreadable model file"):
            load_models(str(path))


    # toy_model's block: priors at 0-1, means at 2-5, variances at 6-9
    @pytest.mark.parametrize("changes, message", [
        ({9: -1.0}, "variances must be positive"), ({0: 0.7}, "mixture priors sum to"),
        ({0: -0.6, 1: 1.6}, "mixture priors must be nonnegative"),
        ({1: np.nan}, "mixture priors sum to"), ({3: np.nan}, "means must be finite"),
        ({6: np.nan}, "variances must be positive"), ({8: np.inf}, "variances must be positive"),
    ], ids=["negative-variance", "priors-sum", "negative-prior", "nan-prior", "nan-mean",
            "nan-variance", "inf-variance"])
    def test_corrupt_parameter_block_rejected(self, tmp_path, changes, message):
        path = tmp_path / "m.gmm"
        save_models(str(path), {"a": toy_model(), "b": toy_model()})
        data = bytearray(path.read_bytes())
        for index, value in changes.items():  # in the last class, "b"
            offset = len(data) - 8 * 10 + 8 * index
            data[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(AudioIOError, match=f"^{re.escape(str(path))}: class b: {message}"):
            load_models(str(path))

class TestInvariants:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([0.5, 0.4]), np.zeros((2, 2)), np.ones((2, 2)))

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([1.0]), np.zeros((1, 2)), np.array([[1.0, 0.0]]))

    def test_batch_matches_single(self):
        model = toy_model()
        rng = np.random.default_rng(10)
        frames = rng.standard_normal((10, 2))
        masks = rng.random((10, 2)) > 0.3
        batch = marginal_log_likelihoods(model, frames, masks)
        for i in range(10):
            single = marginal_log_likelihoods(model, frames[i : i + 1], masks[i : i + 1])[0]
            assert batch[i] == pytest.approx(single, rel=1e-12)


def expression_log_factors(x, means, variances):
    """The per-dimension log factors as one expression, temporaries and all."""
    diff = x[:, np.newaxis, :] - means[np.newaxis, :, :]
    return -0.5 * (np.log(2.0 * np.pi) + np.log(variances)[np.newaxis, :, :]
                   + diff * diff / variances[np.newaxis, :, :])


def expression_scores(model, x, masks=None):
    """Marginal log-likelihoods from the (n, M, D) factors, masked factor by factor."""
    factors = expression_log_factors(x, model.means, model.variances)
    if masks is not None:
        factors = factors * masks[:, np.newaxis, :]
    return logsumexp(factors.sum(axis=2) + np.log(model.priors), axis=1)


def expression_assignment(x, centers):
    return np.argmin(np.sum((x[:, np.newaxis, :] - centers[np.newaxis, :, :]) ** 2, axis=2),
                     axis=1)


def expression_kmeans(x, k, rng):
    centers = x[rng.choice(x.shape[0], size=k, replace=False)]
    for _ in range(gmm.KMEANS_ITERATIONS):
        assignment = expression_assignment(x, centers)
        for j in range(k):
            members = x[assignment == j]
            centers[j] = (x[rng.integers(x.shape[0])] if members.shape[0] == 0
                          else members.mean(axis=0))
    return centers


def train_rows(seed):
    """Three blobs in 6 dims, one dim nearly constant so the variance floor binds."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, 6)) * 3.0
    rows = np.concatenate([rng.normal(c, rng.uniform(0.2, 2.0, 6), (200, 6)) for c in centers])
    rows[:, 5] = 0.5 + 1e-4 * rng.standard_normal(600)
    return rows


class TestProductKernel:
    """Scores and k-means as matrix products agree with the per-dimension
    expressions to rounding."""

    def _data(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((300, 48)) * rng.uniform(0.1, 30.0, 48)
        means = rng.standard_normal((8, 48)) * 5.0
        variances = rng.uniform(1e-4, 50.0, (8, 48))
        return x, means, variances

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scores_match_per_dimension_form(self, seed):
        x, means, variances = self._data(seed)
        model = GmmModel(np.full(8, 0.125), means, variances)
        masks = np.random.default_rng(seed + 5).random(x.shape) < 0.6
        np.testing.assert_allclose(marginal_log_likelihoods(model, x),
                                   expression_scores(model, x), rtol=1e-12, atol=0)
        np.testing.assert_allclose(marginal_log_likelihoods(model, x, masks),
                                   expression_scores(model, x, masks), rtol=1e-12, atol=0)

    def test_stress_scores_match_per_dimension_form(self):
        rng = np.random.default_rng(4)
        means = rng.standard_normal((8, 48)) * 5.0
        variances = np.full((8, 48), gmm.VARIANCE_FLOOR)
        variances[::2] = rng.uniform(gmm.VARIANCE_FLOOR, 1e-3, (4, 48))
        model = GmmModel(rng.dirichlet(np.ones(8)), means, variances)
        spread = np.sqrt(variances.max(axis=0))
        # 1e3 standard deviations of the widest component from every mean
        far = means[rng.integers(8, size=300)] + 1e3 * spread * rng.choice([-1.0, 1.0], (300, 48))
        masks = rng.random(far.shape) < 0.5
        masks[:20] = False
        np.testing.assert_allclose(marginal_log_likelihoods(model, far),
                                   expression_scores(model, far), rtol=1e-12, atol=0)
        got = marginal_log_likelihoods(model, far, masks)
        np.testing.assert_allclose(got[20:], expression_scores(model, far, masks)[20:],
                                   rtol=1e-12, atol=0)
        assert np.all(np.abs(got[:20]) < 1e-12)  # all-zero mask rows score log 1

        # one reliable dimension, near a mean: the score itself can pass
        # through 0, so the error is bounded by the size of the summed terms
        near = means[rng.integers(8, size=300)] + spread * rng.standard_normal((300, 48))
        single = np.zeros(near.shape, bool)
        single[np.arange(300), rng.integers(48, size=300)] = True
        terms = ((near[:, np.newaxis, :] ** 2 + means ** 2) / variances
                 + np.abs(np.log(2.0 * np.pi * variances))) * single[:, np.newaxis, :]
        expected = expression_scores(model, near, single)
        error = np.abs(marginal_log_likelihoods(model, near, single) - expected)
        assert np.all(error <= 1e-12 * np.maximum(np.abs(expected), terms.sum(axis=2).max(axis=1)))

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_kmeans_matches_expression_form(self, k):
        x = self._data(2)[0]
        got = gmm._kmeans(x, k, np.random.default_rng(3))
        expected = expression_kmeans(x, k, np.random.default_rng(3))
        np.testing.assert_array_equal(expression_assignment(x, got),
                                      expression_assignment(x, expected))
        # relative per coordinate, or to the data's scale where a center sits near 0
        np.testing.assert_allclose(got, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(x).max())


class TestTrainingInvariants:
    """Properties of EM that hold whatever the arithmetic."""

    def test_em_log_likelihood_never_falls(self, monkeypatch):
        totals = []
        kernel = gmm._log_joint

        def recording(x, squares, reliable, model):
            out = kernel(x, squares, reliable, model)
            totals.append(float(logsumexp(out, axis=1).sum()))
            return out

        monkeypatch.setattr(gmm, "_log_joint", recording)
        rows = train_rows(11)
        train_gmm(LabeledFeatureSet(rows, np.array(["c"] * rows.shape[0])), 4, seed=5)
        assert len(totals) > 2
        steps = np.diff(totals)
        assert np.all(steps >= -1e-9 * np.abs(totals[1:])), steps.min()

    def test_one_component_is_sample_mean_and_floored_variance(self):
        rows = train_rows(12)
        model = train_gmm(LabeledFeatureSet(rows, np.array(["c"] * rows.shape[0])), 1,
                          seed=0)["c"]
        assert model.num_components == 1 and model.priors[0] == 1.0
        np.testing.assert_allclose(model.means[0], rows.mean(axis=0), rtol=1e-12)
        variance = rows.var(axis=0)
        assert variance[5] < gmm.VARIANCE_FLOOR
        np.testing.assert_allclose(model.variances[0],
                                   np.maximum(variance, gmm.VARIANCE_FLOOR), rtol=1e-12)

    def test_scoring_builds_no_frame_by_component_by_dim_array(self):
        rng = np.random.default_rng(13)
        model = GmmModel(np.full(8, 0.125), rng.standard_normal((8, 48)),
                         rng.uniform(0.5, 2.0, (8, 48)))
        frames = rng.standard_normal((4000, 48))
        masks = rng.random(frames.shape) < 0.5
        cube_bytes = frames.shape[0] * model.num_components * frames.shape[1] * 8
        for scored_masks in (None, masks):
            tracemalloc.start()
            try:
                marginal_log_likelihoods(model, frames, scored_masks)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cube_bytes, (peak, cube_bytes)
