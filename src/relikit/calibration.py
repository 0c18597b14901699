"""Post-hoc temperature calibration.

Four calibrators share one idea: divide logits by a positive temperature
before the softmax, which sharpens (T < 1) or softens (T > 1) the
distribution without ever changing the argmax.

* global scaling   -- one temperature for the whole dataset, fitted by
  minimizing mean NLL over calibration pixels (:func:`fit_global_ts`);
* cluster scaling  -- images are grouped by their feature vectors with
  k-means and each cluster gets its own temperature
  (:func:`fit_cluster_ts`, ``per_image`` variant);
* cluster + class  -- additionally one temperature per predicted class
  within each cluster (``per_class`` variant);
* learned scaling  -- a small network predicts a per-pixel temperature
  from per-pixel features (:func:`fit_lts`).

The mean NLL is convex in the inverse temperature beta = 1/T, so a
temperature is fitted by a safeguarded Newton search for the root of
dNLL/dbeta: one pass over the pixels yields the NLL with its exact first
and second derivatives, and a fit that wants to leave [t_min, t_max] is
pinned to exactly that bound.

Fitting and evaluation load every manifest entry through
:func:`load_entry`, the one place where an entry is read, checked and its
pixels drawn, so a given seed sees one pixel set per image everywhere.
:func:`needs_image` decides whether a calibrator reads the image tensor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import mlp, tensor_io
from .errors import CalibrationError, ManifestError, NumericalError, UsageError
from .kmeans import assign_points, kmeans
from .manifest import DatasetManifest, ManifestEntry, load_features
from .rng import derive_stream, subsample_indices
from .tensors import (
    ImageTensor,
    LabelMap,
    LogitTensor,
    ProbTensor,
    check_same_shape,
    validate_labels,
)

T_MIN = 0.05
T_MAX = 20.0
LN_T_TOL = 1e-4
DEFAULT_PIXELS_PER_IMAGE = 20_000
DEFAULT_CLUSTERS = 16


class ClusterVariant(str, Enum):
    PER_IMAGE = "per_image"
    PER_CLASS = "per_class"


class FeatureMode(str, Enum):
    LOGITS = "logits"
    IMAGE = "image"
    BOTH = "both"


@dataclass(frozen=True)
class GlobalTemperature:
    temperature: float


@dataclass(frozen=True)
class TemperatureMap:
    """Per-pixel temperatures, (H, W) float64, strictly positive."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise CalibrationError(f"temperature map must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or arr.min() <= 0.0:
            raise CalibrationError("temperature map must be finite and strictly positive")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class ClusterTemperatureModel:
    """k-means centroids with one temperature per cluster (or per cluster and class)."""

    variant: ClusterVariant
    centroids: np.ndarray      # (k, D)
    temperatures: np.ndarray   # (k,) for per_image, (k, classes) for per_class
    fallback_temperature: float
    classes: int

    @property
    def clusters(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class TemperatureRegressor:
    """Network mapping per-pixel features to a per-pixel temperature.

    Features are standardized with the stored mean/scale, passed through
    the perceptron, and the raw output becomes ``softplus(raw) + t_floor``.
    """

    feature_mode: FeatureMode
    input_dim: int
    hidden_width: int
    t_floor: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    params: mlp.MlpParams


@dataclass(frozen=True)
class LtsHyper:
    hidden_width: int = 16
    t_floor: float = 0.05
    learning_rate: float = 0.05
    epochs: int = 50
    batch_pixels: int = 2048
    domain_weights: dict[str, float] | None = None


Calibrator = GlobalTemperature | ClusterTemperatureModel | TemperatureRegressor


def scaled_nll(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    """Mean NLL of softmax(logits / temperature) against integer labels."""
    z = np.asarray(logits, dtype=np.float64) / temperature
    shift = z.max(axis=1, keepdims=True)
    lse = shift[:, 0] + np.log(np.exp(z - shift).sum(axis=1))
    return float((lse - z[np.arange(z.shape[0]), labels]).mean())


def _nll_derivatives(z: np.ndarray, mean_zy: float, beta: float) -> tuple[float, float, float]:
    """Mean NLL of softmax(beta * z) and its first two derivatives in beta.

    ``z`` holds row-shifted logits (each row's maximum is 0, so every
    exp(beta * z) lies in (0, 1] and each row sum is at least 1) and
    ``mean_zy`` the mean shifted logit of the labels. One exp pass serves
    all three values: the derivatives are the mean over rows of
    E_p[z] - z_y and of Var_p[z].
    """
    ones = np.ones(z.shape[1])
    e = np.multiply(z, beta)
    np.exp(e, out=e)
    total = e @ ones
    e *= z
    mean_z = (e @ ones) / total
    e *= z
    var_z = (e @ ones) / total - mean_z * mean_z
    nll = float(np.log(total).mean()) - beta * mean_zy
    return nll, float(mean_z.mean()) - mean_zy, float(np.maximum(var_z, 0.0).mean())


def fit_temperature(logits: np.ndarray, labels: np.ndarray,
                    t_min: float = T_MIN, t_max: float = T_MAX) -> float:
    """Minimize mean NLL over T in [t_min, t_max].

    The NLL is convex in beta = 1/T, so its minimizer is the root of
    dNLL/dbeta on [1/t_max, 1/t_min]. The search starts at T = 1 (clipped
    to the range) and checks the bound downhill of it once: if the slope
    keeps its sign there, that bound is the minimizer and exactly t_min or
    t_max is returned. Otherwise Newton steps shrink the sign bracket,
    with a geometric-mean bisection whenever a step leaves the bracket or
    fails to halve the slope, until the bracket is within LN_T_TOL in
    ln T or a Newton step moves ln T by at most LN_T_TOL (its error is
    then of the order of that step squared). The best temperature
    evaluated is returned.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise CalibrationError(f"need a non-empty (n, K) logit matrix, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise CalibrationError("labels must be one class index per logit row")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise CalibrationError("labels outside [0, classes)")
    if not 0 < t_min < t_max:
        raise CalibrationError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")

    z = logits - logits.max(axis=1, keepdims=True)
    mean_zy = float(z[np.arange(z.shape[0]), labels].mean())
    lo, hi = 1.0 / t_max, 1.0 / t_min
    temperature_of = {lo: t_max, hi: t_min}
    seen: dict[float, float] = {}

    def evaluate(beta: float) -> tuple[float, float]:
        nll, slope, curvature = _nll_derivatives(z, mean_zy, beta)
        if not np.all(np.isfinite([nll, slope, curvature])):
            raise NumericalError("temperature search produced a non-finite NLL")
        seen[beta] = nll
        return slope, curvature

    beta = min(max(1.0, lo), hi)
    slope, curvature = evaluate(beta)
    if slope != 0.0:
        downhill = hi if slope < 0.0 else lo
        if beta == downhill or np.sign(evaluate(downhill)[0]) != -np.sign(slope):
            return temperature_of[downhill]
        a, b = (beta, hi) if slope < 0.0 else (lo, beta)
        newton = True
        while np.log(b / a) > LN_T_TOL:
            step = beta - slope / curvature if curvature > 0.0 else a
            newton = newton and a < step < b
            if not newton:
                step = float(np.sqrt(a * b))
            last, previous = beta, slope
            beta = float(step)
            slope, curvature = evaluate(beta)
            if slope == 0.0 or (newton and abs(np.log(beta / last)) <= LN_T_TOL):
                break
            a, b = (beta, b) if slope < 0.0 else (a, beta)
            newton = abs(slope) <= 0.5 * abs(previous)
    best = min(seen, key=seen.get)
    return temperature_of.get(best, 1.0 / best)


def apply_temperature(logits: LogitTensor, temperature) -> ProbTensor:
    """softmax(logits / T) with T a positive scalar or per-pixel map."""
    if isinstance(temperature, GlobalTemperature):
        temperature = temperature.temperature
    z = logits.data.astype(np.float64)
    if isinstance(temperature, TemperatureMap):
        tmap = temperature.values
        if tmap.shape != (logits.height, logits.width):
            raise CalibrationError(
                f"temperature map shape {tmap.shape} does not match image {(logits.height, logits.width)}"
            )
        z = z / tmap[:, :, None]
    elif isinstance(temperature, np.ndarray):
        return apply_temperature(logits, TemperatureMap(temperature))
    else:
        t = float(temperature)
        if not np.isfinite(t) or t <= 0.0:
            raise CalibrationError(f"temperature must be positive and finite, got {t}")
        z = z / t
    z -= z.max(axis=2, keepdims=True)
    e = np.exp(z)
    e /= e.sum(axis=2, keepdims=True)
    return ProbTensor(e)


@dataclass(frozen=True)
class LoadedEntry:
    """One entry's checked tensors and its drawn pixels.

    ``valid`` lists the flat indices of the non-ignored pixels and ``rows``
    those drawn from them; a tensor that was not asked for is None.
    """

    logits: LogitTensor
    labels: LabelMap
    valid: np.ndarray
    rows: np.ndarray
    image: ImageTensor | None = None
    feature: np.ndarray | None = None
    ood_mask: np.ndarray | None = None  # (H, W) bool

    def drawn(self, per_pixel: np.ndarray) -> np.ndarray:
        """The drawn pixels of an (H, W) or (H, W, C) array, in pixel order."""
        return per_pixel.reshape(-1, *per_pixel.shape[2:])[self.rows]


def load_entry(manifest: DatasetManifest, entry: ManifestEntry, *,
               pixels_per_image: int | None, seed: int,
               image: bool = False, feature: bool = False, mask: bool = False) -> LoadedEntry:
    """Read and check one entry's logits and labels and draw its pixels, for fit and eval.

    The draw uses the ``(seed, image_id)`` stream of record extraction, so
    fitting and evaluation see identical pixels. The image and the feature
    are read only when asked for, and the entry must then list them; the
    OOD mask is read when asked for and listed.
    """
    logits = tensor_io.read_logits(manifest.resolve(entry.logits))
    labels = tensor_io.read_labels(manifest.resolve(entry.labels))
    check_same_shape(logits, labels, f"{entry.image_id}: logits vs labels")
    if logits.classes != manifest.classes:
        raise ManifestError(
            f"{entry.image_id}: logits carry {logits.classes} classes, manifest says {manifest.classes}"
        )
    validate_labels(labels, manifest.classes, manifest.ignore_value)
    valid = np.flatnonzero(labels.data.reshape(-1) != manifest.ignore_value)
    rows = valid[subsample_indices(valid.size, pixels_per_image, seed, f"pixels:{entry.image_id}")]
    image_tensor = feature_vector = ood_mask = None
    if image:
        if entry.image is None:
            raise CalibrationError(f"{entry.image_id}: entry has no image tensor")
        image_tensor = tensor_io.read_image(manifest.resolve(entry.image))
        check_same_shape(logits, image_tensor, f"{entry.image_id}: logits vs image")
    if feature:
        if entry.feature is None:
            raise CalibrationError(f"{entry.image_id}: entry has no feature vector")
        feature_vector = tensor_io.read_feature(manifest.resolve(entry.feature))
    if mask and entry.ood_mask is not None:
        ood_mask = tensor_io.read_mask(manifest.resolve(entry.ood_mask))
        if ood_mask.shape != (logits.height, logits.width):
            raise ManifestError(f"{entry.image_id}: ood mask shape {ood_mask.shape} does not match image")
    return LoadedEntry(logits, labels, valid, rows, image_tensor, feature_vector, ood_mask)


@dataclass(frozen=True)
class PixelBatch:
    """Subsampled calibration pixels of one image."""

    image_id: str
    domain: str
    logits: np.ndarray                 # (m, K) float64
    labels: np.ndarray                 # (m,) int64
    predicted: np.ndarray              # (m,) int64, argmax of raw logits
    channels: np.ndarray | None = None  # (m, C) float64 per-pixel image channels


def gather_pixel_batches(manifest: DatasetManifest, entries: list[ManifestEntry], *,
                         pixels_per_image: int | None, seed: int,
                         need_image: bool = False) -> list[PixelBatch]:
    """The drawn pixels of each entry (see :func:`load_entry`), as float64 rows."""
    if not entries:
        raise CalibrationError("no manifest entries to gather pixels from")
    batches = []
    for entry in entries:
        loaded = load_entry(manifest, entry, pixels_per_image=pixels_per_image, seed=seed,
                            image=need_image)
        z = loaded.drawn(loaded.logits.data).astype(np.float64)
        batches.append(PixelBatch(
            image_id=entry.image_id,
            domain=entry.domain,
            logits=z,
            labels=loaded.drawn(loaded.labels.data).astype(np.int64),
            predicted=z.argmax(axis=1).astype(np.int64),
            channels=None if loaded.image is None else loaded.drawn(loaded.image.data).astype(np.float64),
        ))
    return batches


def _stack_batches(batches: list[PixelBatch]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.concatenate([b.logits for b in batches]),
        np.concatenate([b.labels for b in batches]),
    )


def fit_global_ts(manifest: DatasetManifest, *, split: str = "calibration",
                  pixels_per_image: int | None = DEFAULT_PIXELS_PER_IMAGE,
                  seed: int = 0) -> GlobalTemperature:
    """One temperature for the whole dataset, fitted on the given split."""
    entries = manifest.select(split=split)
    if not entries:
        raise CalibrationError(f"manifest has no entries in split {split!r}")
    batches = gather_pixel_batches(manifest, entries, pixels_per_image=pixels_per_image, seed=seed)
    logits, labels = _stack_batches(batches)
    return GlobalTemperature(fit_temperature(logits, labels))


def fit_cluster_ts(manifest: DatasetManifest, *, k: int = DEFAULT_CLUSTERS,
                   variant: ClusterVariant = ClusterVariant.PER_IMAGE,
                   split: str = "calibration",
                   pixels_per_image: int | None = DEFAULT_PIXELS_PER_IMAGE,
                   seed: int = 0) -> ClusterTemperatureModel:
    """Cluster images by their feature vectors, then fit one T per cluster.

    The ``per_class`` variant fits one T per (cluster, predicted class)
    cell. Cells with no calibration pixels inherit the global temperature,
    so the model degrades gracefully; with k = 1 it coincides with global
    scaling exactly.
    """
    variant = ClusterVariant(variant)
    entries = manifest.select(split=split)
    if not entries:
        raise CalibrationError(f"manifest has no entries in split {split!r}")
    ids, features = load_features(manifest, entries)
    result = kmeans(features, k, seed)
    batches = gather_pixel_batches(manifest, entries, pixels_per_image=pixels_per_image, seed=seed)
    by_id = {batch.image_id: batch for batch in batches}
    logits, labels = _stack_batches(batches)
    fallback = fit_temperature(logits, labels)
    members: list[list[PixelBatch]] = [[] for _ in range(k)]
    for image_id, cluster in zip(ids, result.assignment):
        members[cluster].append(by_id[image_id])
    if variant is ClusterVariant.PER_IMAGE:
        temperatures = np.full(k, fallback)
        for j in range(k):
            if members[j]:
                z, y = _stack_batches(members[j])
                if z.shape[0]:
                    temperatures[j] = fit_temperature(z, y)
    else:
        temperatures = np.full((k, manifest.classes), fallback)
        for j in range(k):
            if not members[j]:
                continue
            z, y = _stack_batches(members[j])
            predicted = np.concatenate([b.predicted for b in members[j]])
            for c in range(manifest.classes):
                rows = predicted == c
                if rows.any():
                    temperatures[j, c] = fit_temperature(z[rows], y[rows])
    return ClusterTemperatureModel(
        variant=variant,
        centroids=result.centroids,
        temperatures=temperatures,
        fallback_temperature=fallback,
        classes=manifest.classes,
    )


def assign_cluster(model: ClusterTemperatureModel, feature: np.ndarray) -> int:
    """Nearest centroid by Euclidean distance; ties go to the lowest index."""
    feature = np.asarray(feature, dtype=np.float64)
    width = model.centroids.shape[1]
    if feature.shape != (width,):
        raise CalibrationError(
            f"feature vector has shape {feature.shape}, cluster centroids have {width} dimensions"
        )
    return int(assign_points(model.centroids, feature)[0])


def apply_cluster_ts(model: ClusterTemperatureModel, feature: np.ndarray,
                     logits: LogitTensor, predicted: np.ndarray | None = None) -> ProbTensor:
    """Calibrate one image with its cluster's temperature(s)."""
    cluster = assign_cluster(model, feature)
    if model.variant is ClusterVariant.PER_IMAGE:
        return apply_temperature(logits, float(model.temperatures[cluster]))
    if predicted is None:
        predicted = logits.data.argmax(axis=2)
    predicted = np.asarray(predicted, dtype=np.int64)
    if predicted.shape != (logits.height, logits.width):
        raise CalibrationError(
            f"predicted-class map shape {predicted.shape} does not match image"
        )
    if predicted.min() < 0 or predicted.max() >= model.classes:
        raise CalibrationError("predicted classes outside [0, classes)")
    tmap = model.temperatures[cluster][predicted]
    return apply_temperature(logits, TemperatureMap(tmap))


def _lts_input(mode: FeatureMode, logits: np.ndarray, channels: np.ndarray | None) -> np.ndarray:
    """The regressor's per-pixel input rows, float64: (n, K) logits, (n, C) channels or both."""
    if mode is FeatureMode.LOGITS:
        rows = logits
    elif mode is FeatureMode.IMAGE:
        rows = channels
    else:
        rows = np.concatenate([logits, channels], axis=1)
    return np.asarray(rows, dtype=np.float64)


def fit_lts(manifest: DatasetManifest, *, feature_mode: FeatureMode = FeatureMode.BOTH,
            hyper: LtsHyper = LtsHyper(), split: str = "calibration",
            pixels_per_image: int | None = DEFAULT_PIXELS_PER_IMAGE,
            seed: int = 0) -> tuple[TemperatureRegressor, list[float]]:
    """Train the per-pixel temperature network on a calibration split.

    Returns the regressor and the per-epoch training loss curve. The raw
    output bias starts at softplus^-1(1 - t_floor) so training begins near
    the identity temperature. Optional per-domain loss weights rebalance
    domains of different sizes.
    """
    feature_mode = FeatureMode(feature_mode)
    entries = manifest.select(split=split)
    if not entries:
        raise CalibrationError(f"manifest has no entries in split {split!r}")
    batches = gather_pixel_batches(
        manifest, entries, pixels_per_image=pixels_per_image, seed=seed,
        need_image=needs_image(feature_mode),
    )
    features = np.concatenate([_lts_input(feature_mode, b.logits, b.channels) for b in batches])
    logits, labels = _stack_batches(batches)
    weights = None
    if hyper.domain_weights is not None:
        weights = np.concatenate([
            np.full(b.labels.shape[0], float(hyper.domain_weights.get(b.domain, 1.0)))
            for b in batches
        ])
        if weights.min() < 0:
            raise CalibrationError("domain weights must be non-negative")
    mean = features.mean(axis=0)
    scale = features.std(axis=0)
    scale[scale < 1e-12] = 1.0
    standardized = (features - mean) / scale
    params = mlp.init_params(
        features.shape[1], hyper.hidden_width,
        derive_stream(seed, "lts-init"),
        mlp.softplus_inverse(1.0 - hyper.t_floor),
    )
    curve = mlp.sgd_train(
        params, standardized, logits, labels, hyper.t_floor,
        hyper.learning_rate, hyper.epochs, hyper.batch_pixels,
        derive_stream(seed, "lts-batches"), weights,
    )
    if curve and not np.isfinite(curve[-1]):
        raise NumericalError("temperature regressor training diverged")
    regressor = TemperatureRegressor(
        feature_mode=feature_mode,
        input_dim=features.shape[1],
        hidden_width=hyper.hidden_width,
        t_floor=hyper.t_floor,
        feature_mean=mean,
        feature_scale=scale,
        params=params,
    )
    return regressor, curve


def predict_temperature_map(regressor: TemperatureRegressor, logits: LogitTensor,
                            image: ImageTensor | None = None) -> TemperatureMap:
    """Per-pixel temperatures for one image."""
    channels = None
    if needs_image(regressor):
        if image is None:
            raise CalibrationError(f"feature mode {regressor.feature_mode.value} needs the image tensor")
        check_same_shape(logits, image, "logits vs image")
        channels = image.data.reshape(-1, image.channels)
    features = _lts_input(regressor.feature_mode, logits.data.reshape(-1, logits.classes), channels)
    if features.shape[1] != regressor.input_dim:
        raise CalibrationError(
            f"feature dimension {features.shape[1]} does not match the regressor's {regressor.input_dim}"
        )
    standardized = (features - regressor.feature_mean) / regressor.feature_scale
    raw = mlp.raw_output(regressor.params, standardized)
    t = mlp.softplus(raw) + regressor.t_floor
    return TemperatureMap(t.reshape(logits.height, logits.width))


def needs_image(calibrator: Calibrator | FeatureMode | None) -> bool:
    """Whether a calibrator, or fitting an LTS in a feature mode, reads the image channels."""
    if isinstance(calibrator, TemperatureRegressor):
        calibrator = calibrator.feature_mode
    return calibrator is FeatureMode.IMAGE or calibrator is FeatureMode.BOTH


def apply_calibrator(calibrator: Calibrator | None, logits: LogitTensor,
                     feature: np.ndarray | None = None,
                     image: ImageTensor | None = None) -> ProbTensor:
    """Dispatch any calibrator (or None for the raw softmax) on one image."""
    if calibrator is None:
        return apply_temperature(logits, 1.0)
    if isinstance(calibrator, GlobalTemperature):
        return apply_temperature(logits, calibrator)
    if isinstance(calibrator, ClusterTemperatureModel):
        if feature is None:
            raise CalibrationError("cluster calibration needs the image's feature vector")
        return apply_cluster_ts(calibrator, feature, logits)
    if isinstance(calibrator, TemperatureRegressor):
        return apply_temperature(logits, predict_temperature_map(calibrator, logits, image))
    raise UsageError(f"unknown calibrator type {type(calibrator).__name__}")


def save_calibrator(calibrator: Calibrator, path) -> Path:
    """Serialize any calibrator to a method-tagged JSON artifact."""
    if isinstance(calibrator, GlobalTemperature):
        payload = {"method": "ts", "temperature": calibrator.temperature}
    elif isinstance(calibrator, ClusterTemperatureModel):
        payload = {
            "method": "cluster_ts" if calibrator.variant is ClusterVariant.PER_IMAGE else "class_cluster_ts",
            "centroids": calibrator.centroids.tolist(),
            "temperatures": calibrator.temperatures.tolist(),
            "fallback_temperature": calibrator.fallback_temperature,
            "classes": calibrator.classes,
        }
    elif isinstance(calibrator, TemperatureRegressor):
        payload = {
            "method": "lts",
            "feature_mode": calibrator.feature_mode.value,
            "input_dim": calibrator.input_dim,
            "hidden_width": calibrator.hidden_width,
            "t_floor": calibrator.t_floor,
            "feature_mean": calibrator.feature_mean.tolist(),
            "feature_scale": calibrator.feature_scale.tolist(),
            "w1": calibrator.params.w1.tolist(),
            "b1": calibrator.params.b1.tolist(),
            "w2": calibrator.params.w2.tolist(),
            "b2": calibrator.params.b2,
        }
    else:
        raise UsageError(f"unknown calibrator type {type(calibrator).__name__}")
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_calibrator(path) -> Calibrator:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CalibrationError(f"{path}: cannot read calibrator ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"{path}: calibrator is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "method" not in payload:
        raise CalibrationError(f"{path}: calibrator artifact has no method tag")
    method = payload["method"]
    try:
        if method == "ts":
            t = float(payload["temperature"])
            if not np.isfinite(t) or t <= 0:
                raise CalibrationError(f"{path}: non-positive temperature")
            return GlobalTemperature(t)
        if method in ("cluster_ts", "class_cluster_ts"):
            centroids = np.asarray(payload["centroids"], dtype=np.float64)
            temperatures = np.asarray(payload["temperatures"], dtype=np.float64)
            variant = ClusterVariant.PER_IMAGE if method == "cluster_ts" else ClusterVariant.PER_CLASS
            expected_ndim = 1 if variant is ClusterVariant.PER_IMAGE else 2
            if centroids.ndim != 2 or temperatures.ndim != expected_ndim:
                raise CalibrationError(f"{path}: malformed cluster calibrator arrays")
            if temperatures.shape[0] != centroids.shape[0]:
                raise CalibrationError(f"{path}: temperature/centroid count mismatch")
            if not np.all(np.isfinite(temperatures)) or temperatures.min() <= 0:
                raise CalibrationError(f"{path}: non-positive cluster temperature")
            fallback = float(payload["fallback_temperature"])
            if not np.isfinite(fallback) or fallback <= 0:
                raise CalibrationError(f"{path}: non-positive fallback temperature")
            classes = int(payload["classes"])
            if variant is ClusterVariant.PER_CLASS and temperatures.shape[1] != classes:
                raise CalibrationError(
                    f"{path}: {temperatures.shape[1]} temperatures per cluster, artifact says {classes} classes"
                )
            return ClusterTemperatureModel(
                variant=variant,
                centroids=centroids,
                temperatures=temperatures,
                fallback_temperature=fallback,
                classes=classes,
            )
        if method == "lts":
            w1 = np.asarray(payload["w1"], dtype=np.float64)
            params = mlp.MlpParams(
                w1=w1,
                b1=np.asarray(payload["b1"], dtype=np.float64),
                b2=float(payload["b2"]),
                w2=np.asarray(payload["w2"], dtype=np.float64),
            )
            regressor = TemperatureRegressor(
                feature_mode=FeatureMode(payload["feature_mode"]),
                input_dim=int(payload["input_dim"]),
                hidden_width=int(payload["hidden_width"]),
                t_floor=float(payload["t_floor"]),
                feature_mean=np.asarray(payload["feature_mean"], dtype=np.float64),
                feature_scale=np.asarray(payload["feature_scale"], dtype=np.float64),
                params=params,
            )
            hidden, dim = regressor.hidden_width, regressor.input_dim
            shapes = {"w1": (w1.shape, (hidden, dim)), "b1": (params.b1.shape, (hidden,)),
                      "w2": (params.w2.shape, (hidden,)),
                      "feature_mean": (regressor.feature_mean.shape, (dim,)),
                      "feature_scale": (regressor.feature_scale.shape, (dim,))}
            for name, (shape, expected) in shapes.items():
                if shape != expected:
                    raise CalibrationError(
                        f"{path}: regressor {name} has shape {shape}, metadata implies {expected}"
                    )
            return regressor
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CalibrationError(f"{path}: malformed calibrator artifact ({exc})") from exc
    raise CalibrationError(f"{path}: unknown calibrator method {method!r}")
