"""Diagonal-covariance Gaussian mixtures scored over reliable dimensions only.

With diagonal covariance, marginalizing a component over masked-out
dimensions is just dropping their per-dimension factors, so a binary
reliability mask turns the full density into the marginal one directly.
Scores are unnormalized across different mask cardinalities and are only
ever compared between models under the same mask.

Scoring, the EM E-step and k-means distances are matrix products over
(n, D) rows and (M, D) parameters; no (n, M, D) temporary is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import AudioIOError
from .formats import write_records

VARIANCE_FLOOR = 1e-4
EM_TOL = 1e-5         # stop once the log-likelihood gain per frame falls below this
EM_MAX_ITER = 200
KMEANS_ITERATIONS = 25
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GmmModel:
    """Mixture weights, means and diagonal variances: (M,), (M, D), (M, D)."""

    priors: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        # each check is written to fail on NaN
        if not abs(self.priors.sum() - 1.0) <= 1e-9:
            raise ValueError(f"mixture priors sum to {self.priors.sum()}, expected 1")
        if not np.all(self.priors >= 0):
            raise ValueError("mixture priors must be nonnegative")
        if not np.all(np.isfinite(self.means)):
            raise ValueError("means must be finite")
        if not np.all(np.isfinite(self.variances) & (self.variances > 0)):
            raise ValueError("variances must be positive and finite")

    @property
    def num_components(self) -> int:
        return self.priors.shape[0]

    @property
    def num_dims(self) -> int:
        return self.means.shape[1]


@dataclass
class LabeledFeatureSet:
    """Feature rows with their class labels."""

    features: np.ndarray            # (n, D)
    labels: np.ndarray              # (n,) class tokens

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels and features disagree on frame count")


def _log_joint(x: np.ndarray, squares: np.ndarray, reliable: np.ndarray | None,
               model: GmmModel) -> np.ndarray:
    """(n, M) log prior plus Gaussian log-likelihood of each row under each
    component, summed over the dimensions ``reliable`` (n, D) marks, or
    over all of them when it is None.

    ``x`` and ``squares`` are the rows and their squares with unreliable
    entries zeroed.  With p = 1/variance each component's sum is
    -1/2 x^2.p + x.(mean p) - 1/2 b.(mean^2 p + log 2 pi variance).
    """
    precision = 1.0 / model.variances
    constant = model.means * model.means * precision + (_LOG_2PI + np.log(model.variances))
    out = squares @ (-0.5 * precision).T
    out += x @ (model.means * precision).T
    if reliable is None:
        out -= 0.5 * constant.sum(axis=1)
    else:
        out -= reliable @ (0.5 * constant).T
    out += np.log(model.priors)
    return out


def marginal_log_likelihoods(model: GmmModel, features: np.ndarray,
                             masks: np.ndarray | None = None) -> np.ndarray:
    """Log-density of each frame over its reliable dimensions, (n,).

    An all-zero mask row yields log 1 = 0 for every model (the
    marginalization limit), keeping fully unreliable frames neutral.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != model.num_dims:
        raise ValueError(f"features have {x.shape[1]} dims, model expects {model.num_dims}")
    if masks is None:
        return logsumexp(_log_joint(x, x * x, None, model), axis=1)
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    if masks.shape != x.shape:
        raise ValueError(f"mask shape {masks.shape} does not match features {x.shape}")
    reliable = masks.astype(np.float64)
    kept = reliable * x
    return logsumexp(_log_joint(kept, kept * x, reliable, model), axis=1)


def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = x[rng.choice(x.shape[0], size=k, replace=False)]
    clusters = np.arange(k)
    for _ in range(KMEANS_ITERATIONS):
        # |x - c|^2 less |x|^2, which is the same for every center
        distances = np.sum(centers * centers, axis=1) - 2.0 * (x @ centers.T)
        members = np.argmin(distances, axis=1)[:, np.newaxis] == clusters  # (n, k)
        counts = members.sum(axis=0)
        sums = members.T.astype(np.float64) @ x
        for j in range(k):
            if counts[j] == 0:  # re-seed an empty cluster
                centers[j] = x[rng.integers(x.shape[0])]
            else:
                centers[j] = sums[j] / counts[j]
    return centers


def _fit_single_class(x: np.ndarray, num_components: int, rng: np.random.Generator) -> GmmModel:
    n, dims = x.shape
    if np.all(x.var(axis=0) < 1e-12):  # constant features: one component is all there is
        num_components = 1
    if num_components == 1:
        variance = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
        return GmmModel(np.ones(1), x.mean(axis=0, keepdims=True), variance[np.newaxis, :])

    squares = x * x
    model = GmmModel(np.full(num_components, 1.0 / num_components),
                     _kmeans(x, num_components, rng),
                     np.tile(np.maximum(x.var(axis=0), VARIANCE_FLOOR), (num_components, 1)))
    previous = -np.inf
    for _ in range(EM_MAX_ITER):
        weighted = _log_joint(x, squares, None, model)
        peak = weighted.max(axis=1, keepdims=True)
        responsibility = np.exp(weighted - peak)  # (n, M), normalized below
        evidence = responsibility.sum(axis=1, keepdims=True)
        total = float(np.sum(np.log(evidence) + peak))
        responsibility /= evidence
        counts = responsibility.sum(axis=0)
        counts = np.maximum(counts, 1e-12)
        means = (responsibility.T @ x) / counts[:, np.newaxis]
        second = (responsibility.T @ squares) / counts[:, np.newaxis]
        model = GmmModel(counts / counts.sum(), means,
                         np.maximum(second - means * means, VARIANCE_FLOOR))

        if total - previous < EM_TOL * n and np.isfinite(previous):
            break
        previous = total
    return model


def train_gmm(dataset: LabeledFeatureSet, num_components: int,
              seed: int) -> dict[str, GmmModel]:
    """EM-fit one mixture per class; deterministic for a fixed seed.

    Training uses clean feature rows; masks matter only at scoring time.
    """
    labels = dataset.labels.astype(str)
    classes = np.unique(labels).tolist()
    seeds = np.random.SeedSequence(seed).spawn(len(classes))
    models = {}
    for class_seed, name in zip(seeds, classes):
        rows = dataset.features[labels == name]
        if rows.shape[0] < 10 * num_components:
            raise ValueError(
                f"class {name!r} has {rows.shape[0]} frames, "
                f"needs at least {10 * num_components} for {num_components} components"
            )
        rng = np.random.default_rng(class_seed)
        models[name] = _fit_single_class(rows, num_components, rng)
    return models


def classify_frames(models: dict[str, GmmModel], features: np.ndarray,
                    masks: np.ndarray | None = None) -> np.ndarray:
    """Per-frame argmax labels; ties resolve to the lexically first class."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    names = sorted(models)
    ll = np.stack([marginal_log_likelihoods(models[name], features, masks) for name in names])
    return np.asarray(names, dtype=object)[np.argmax(ll, axis=0)]


# --------------------------------------------------------------------------
# Model files: a short text header followed by little-endian float64 blocks.
#
#   gmmset 1
#   classes <name> <name> ...
#   components <M>
#   dims <D>
#   <blank line>
#   then per class, in header order: f64[M] priors, f64[M*D] means
#   (row-major), f64[M*D] variances.
# --------------------------------------------------------------------------


def save_models(path: str, models: dict[str, GmmModel]) -> None:
    names = sorted(models)
    if any(not name.isascii() or name.split() != [name] for name in names):
        raise ValueError(f"class names must be nonempty ASCII without whitespace: {names}")
    components = {models[n].num_components for n in names}
    dims = {models[n].num_dims for n in names}
    if len(components) != 1 or len(dims) != 1:
        raise ValueError("all models in one file must share component count and dims")
    header = (f"gmmset 1\nclasses {' '.join(names)}\n"
              f"components {components.pop()}\ndims {dims.pop()}\n\n")
    body = [np.concatenate((models[n].priors, models[n].means.ravel(), models[n].variances.ravel()))
            for n in names]
    write_records(path, np.frombuffer(header.encode(), np.uint8), np.concatenate(body).astype("<f8"),
                  "model")


def load_models(path: str) -> dict[str, GmmModel]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise AudioIOError(f"cannot read model file {path}: {exc}") from exc
    split = data.find(b"\n\n")
    if split < 0 or not data.startswith(b"gmmset 1\n"):
        raise AudioIOError(f"{path}: not a model file")
    try:
        fields = dict(line.split(" ", 1) for line in data[:split].decode("ascii").splitlines()[1:])
        names, m, d = fields["classes"].split(), int(fields["components"]), int(fields["dims"])
        if min(m, d) < 1 or not names or len(set(names)) != len(names):
            raise ValueError(f"{m} components, {d} dims, classes {names}")
    except (KeyError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise AudioIOError(f"{path}: unreadable model file header: {exc!r}") from exc
    per_class = m + 2 * m * d
    if len(data) - split - 2 != 8 * per_class * len(names):
        raise AudioIOError(f"{path}: parameter block size mismatch")
    block = np.frombuffer(data, "<f8", offset=split + 2)
    models = {}
    for i, name in enumerate(names):
        chunk = block[i * per_class : (i + 1) * per_class]
        priors = chunk[:m]
        means = chunk[m : m + m * d].reshape(m, d)
        variances = chunk[m + m * d :].reshape(m, d)
        try:
            models[name] = GmmModel(priors.copy(), means.copy(), variances.copy())
        except ValueError as exc:
            raise AudioIOError(f"{path}: class {name}: {exc}") from exc
    return models
