"""Post-hoc temperature calibration.

Four calibrators share one idea: divide logits by a positive temperature
before the softmax, which sharpens (T < 1) or softens (T > 1) the
distribution without ever changing the argmax. Every calibrator is
therefore a temperature per image: :func:`calibrator_temperature` returns
a positive scalar or a per-pixel :class:`TemperatureMap`, which
:func:`~relikit.confidence.confidence_map` turns into confidences (eval)
and :func:`apply_temperature` into probabilities (:func:`apply_calibrator`).

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
pinned to exactly that bound. A fit shifts each row by its maximum once;
each pass runs over L2-sized blocks of rows
(:data:`~relikit.confidence.BLOCK_VALUES`) through one reused buffer, and
block sizes that are multiples of 64 rows give every row the bits of one
whole-array pass. Cluster cells start their searches from the per-row
terms the global fit kept at T = 1 and at the bound it checked. LTS
reads the same blocks: :func:`predict_temperature_map` builds,
standardizes and runs each block of input rows through the network in
one buffer, and :func:`fit_lts` takes the feature mean and spread block
by block and widens and standardizes each minibatch as training takes
it, so the gathered float32 pixel rows are the only (n, K + C) matrix.

Fitting reads a split through the read path of :mod:`relikit.manifest`:
:func:`~relikit.manifest.load_batches`, and for cluster scaling
:func:`~relikit.manifest.load_features`.
:func:`needs_image` decides whether a calibrator reads the image tensor.
Every fit stacks its split's drawn pixels once, in entry order, into one
:class:`CalibrationPixels` set (:func:`gather_pixel_batches`) that records
each row's entry and keeps the image channels, when read, next to the
logits in one matrix of the tensors' own float32; all arithmetic is done
in float64 on widened copies. Global scaling fits all rows; cluster
scaling gives each row a cell id, groups the rows by one stable sort on
it and fits each cell's contiguous slice; the NLL fits widen the logits
into one float64 copy that they shift in place, and drop the float32
stack before the search. LTS takes its per-row domain weights from the
entry index. :data:`METHODS` is the one schema of the calibrator artifact,
walked by :func:`save_calibrator` to write it and :func:`load_calibrator` to check it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import mlp
from .confidence import _block_rows, _blocks, _checked_temperature, scaled_logits
from .errors import CalibrationError, NumericalError, UsageError, convert_option, read_json_object
from .kmeans import assign_points, kmeans
from .manifest import DatasetManifest, EntryBatch, ManifestEntry, _stack, load_batches, load_features
from .rng import derive_stream
from .tensors import ImageTensor, LogitTensor, TemperatureMap, check_same_shape
# Unused here; the benchmark tracer's smoke test looks these bindings up.
from .rng import subsample_indices  # noqa: F401
from .tensors import validate_labels  # noqa: F401

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

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.type == "int"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name.replace('_', '-')} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.t_floor < 1.0:
            raise UsageError(f"t-floor must be in (0, 1), got {self.t_floor}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise UsageError(f"learning-rate must be positive and finite, got {self.learning_rate}")
        weights = list((self.domain_weights or {}).values())
        if not np.all(np.isfinite(weights)):
            raise UsageError(f"domain weights must be finite, got {self.domain_weights}")
        if min(weights, default=0.0) < 0:
            raise UsageError(f"domain weights must be non-negative, got {self.domain_weights}")


Calibrator = GlobalTemperature | ClusterTemperatureModel | TemperatureRegressor


def _shift_rows(z: np.ndarray) -> np.ndarray:
    """Subtract each row's maximum from ``z`` in place, block by block; return ``z``.

    The bits are those of ``z - z.max(axis=1, keepdims=True)``. The maximum
    is taken column by column, and a row whose maximum is zero takes it from
    ``max`` itself, the only thing that decides the sign of a zero maximum.
    """
    step = _block_rows(z.shape[1])
    top = np.empty(min(step, z.shape[0]))
    for start in range(0, z.shape[0], step):
        block = z[start:start + step]
        peak = top[:block.shape[0]]
        np.copyto(peak, block[:, 0])
        for column in block.T[1:]:
            np.maximum(peak, column, out=peak)
        zero = np.flatnonzero(peak == 0.0)
        if zero.size:
            peak[zero] = block[zero].max(axis=1)
        block -= peak[:, None]
    return z


def _row_terms(z: np.ndarray, beta: float, out: np.ndarray, buffer: np.ndarray) -> None:
    """Each row's ln sum exp(beta * z), E_p[z] and Var_p[z] into the three rows of ``out``.

    ``buffer`` holds at least ``len(z)`` rows of exp(beta * z); each row sum
    is one BLAS matrix-vector product over all of ``z``.
    """
    e = np.multiply(z, beta, out=buffer[:z.shape[0]])
    np.exp(e, out=e)
    ones = np.ones(z.shape[1])
    total, mean_z, var_z = out
    np.matmul(e, ones, out=total)
    e *= z
    np.matmul(e, ones, out=mean_z)
    mean_z /= total
    e *= z
    np.matmul(e, ones, out=var_z)
    var_z /= total
    var_z -= mean_z * mean_z
    np.maximum(var_z, 0.0, out=var_z)
    np.log(total, out=total)


def _means(terms: np.ndarray, beta: float, mean_zy: float) -> tuple[float, float, float]:
    """The mean NLL and its two derivatives in beta from per-row terms (:func:`_row_terms`)."""
    nll, first, second = np.add.reduce(terms, axis=1) / terms.shape[1]
    return float(nll) - beta * mean_zy, float(first) - mean_zy, float(second)


def _nll_derivatives(z: np.ndarray, mean_zy: float, beta: float,
                     terms: np.ndarray | None = None) -> tuple[float, float, float]:
    """Mean NLL of softmax(beta * z) and its first two derivatives in beta.

    ``z`` holds row-shifted logits (each row's maximum is 0, so every
    exp(beta * z) lies in (0, 1] and each row sum is at least 1) and
    ``mean_zy`` the mean shifted logit of the labels. One exp pass serves
    all three values: the derivatives are the mean over rows of
    E_p[z] - z_y and of Var_p[z]. The pass runs block by block
    (:func:`_blocks`) through one L2-sized buffer and writes each row's
    terms into ``terms`` (3, n), a new array when None; the means are then
    taken over all rows at once.
    """
    terms = np.empty((3, z.shape[0])) if terms is None else terms
    blocks = _blocks(*z.shape)
    buffer = np.empty((max(block.stop - block.start for block in blocks), z.shape[1]))
    for block in blocks:
        _row_terms(z[block], beta, terms[:, block], buffer)
    return _means(terms, beta, mean_zy)


def _search(evaluate, t_min: float = T_MIN, t_max: float = T_MAX) -> float:
    """The temperature in [t_min, t_max] minimizing a convex NLL; see :func:`fit_temperature`.

    ``evaluate(beta)`` returns the NLL and its first two derivatives at beta = 1/T.
    """
    lo, hi = 1.0 / t_max, 1.0 / t_min
    temperature_of = {lo: t_max, hi: t_min}
    seen: dict[float, float] = {}

    def slope_at(beta: float) -> tuple[float, float]:
        nll, slope, curvature = evaluate(beta)
        if not np.all(np.isfinite([nll, slope, curvature])):
            raise NumericalError("temperature search produced a non-finite NLL")
        seen[beta] = nll
        return slope, curvature

    beta = min(max(1.0, lo), hi)
    slope, curvature = slope_at(beta)
    if slope != 0.0:
        downhill = hi if slope < 0.0 else lo
        if beta == downhill or np.sign(slope_at(downhill)[0]) != -np.sign(slope):
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
            slope, curvature = slope_at(beta)
            if slope == 0.0 or (newton and abs(np.log(beta / last)) <= LN_T_TOL):
                break
            a, b = (beta, b) if slope < 0.0 else (a, beta)
            newton = abs(slope) <= 0.5 * abs(previous)
    best = min(seen, key=seen.get)
    return temperature_of.get(best, 1.0 / best)


def _fit_in_place(logits: np.ndarray, labels: np.ndarray, t_min: float = T_MIN, t_max: float = T_MAX,
                  keep: dict | None = None) -> float:
    """:func:`fit_temperature` on float64 rows that it shifts in place (:func:`_shift_rows`).

    With ``keep``, the per-row terms of the first two betas evaluated (T = 1
    and the bound downhill of it) are kept there by beta, 48 bytes a row.
    """
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise CalibrationError(f"need a non-empty (n, K) logit matrix, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise CalibrationError("labels must be one class index per logit row")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise CalibrationError("labels outside [0, classes)")
    if not 0 < t_min < t_max:
        raise CalibrationError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    z = _shift_rows(logits)
    mean_zy = float(z[np.arange(z.shape[0]), labels].mean())

    def evaluate(beta: float) -> tuple[float, float, float]:
        terms = np.empty((3, z.shape[0]))
        derivatives = _nll_derivatives(z, mean_zy, beta, terms)
        if keep is not None and len(keep) < 2:
            keep[beta] = terms
        return derivatives
    return _search(evaluate, t_min, t_max)


def _cell_passes(z: np.ndarray, zy: np.ndarray, rows: np.ndarray, kept: dict):
    """``evaluate(beta)`` for :func:`_search` over the rows ``z[rows]`` (ascending).

    ``zy`` holds each row's shifted logit of its label, and ``kept`` the
    per-row terms over all of ``z`` that :func:`_fit_in_place` kept. A
    pass over ``z[rows]`` gives each row before its last block the bits
    that row has in the pass over ``z`` (:func:`_blocks`), and the last
    block holds the cell's last rows, among them any of the last rows of
    ``z``. So at a kept beta only the last block is computed; the other
    rows' terms are gathered.
    """
    mean_zy = float(zy[rows].mean())
    last = _blocks(rows.size, z.shape[1])[-1]
    cell = None

    def evaluate(beta: float) -> tuple[float, float, float]:
        nonlocal cell
        if beta not in kept:
            cell = z[rows] if cell is None else cell
            return _nll_derivatives(cell, mean_zy, beta)
        terms = np.empty((3, rows.size))
        terms[:, :last.start] = kept[beta][:, rows[:last.start]]
        tail = z[rows[last]]
        _row_terms(tail, beta, terms[:, last], np.empty_like(tail))
        return _means(terms, beta, mean_zy)
    return evaluate


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
    evaluated is returned. The rows are shifted by their maxima once, in a
    copy: ``logits`` is never changed.
    """
    return _fit_in_place(np.array(logits, dtype=np.float64), np.asarray(labels, dtype=np.int64), t_min, t_max)


def apply_temperature(logits: LogitTensor, temperature: float | TemperatureMap) -> np.ndarray:
    """softmax(logits / T) as an (H, W, K) float64 array.

    T is a positive scalar or a per-pixel :class:`TemperatureMap`, checked once.
    """
    z = scaled_logits(logits.data, _checked_temperature(logits.data.shape[:-1], temperature))
    z -= z.max(axis=2, keepdims=True)
    e = np.exp(z)
    e /= e.sum(axis=2, keepdims=True)
    return e


@dataclass(frozen=True)
class CalibrationPixels:
    """The drawn pixels of a list of entries, stacked in entry order.

    Row i was drawn from ``entries[entry[i]]``; each entry's rows are
    contiguous and in pixel order. ``values`` holds each row's K logits
    and, when the image was gathered, its C channels after them, as the
    tensors' own float32, so the LTS input rows of every feature mode are
    views of it (:meth:`lts_input`). LTS widens them to float64 a block or
    a minibatch at a time; the NLL fits widen the logits into one copy and
    then drop the stack.
    """

    values: np.ndarray                  # (n, K) or (n, K + C) float32
    labels: np.ndarray                  # (n,) int64
    entry: np.ndarray                   # (n,) int64 index into the gathered entries
    classes: int

    @property
    def logits(self) -> np.ndarray:
        """(n, K) float32."""
        return self.values[:, :self.classes]

    @property
    def channels(self) -> np.ndarray | None:
        """(n, C) float32 per-pixel image channels, or None when the image was not gathered."""
        return self.values[:, self.classes:] if self.values.shape[1] > self.classes else None

    def lts_input(self, mode: FeatureMode) -> np.ndarray:
        """The regressor's input rows in ``mode``: the logits, the channels or both."""
        return {FeatureMode.LOGITS: self.logits, FeatureMode.IMAGE: self.channels,
                FeatureMode.BOTH: self.values}[mode]


def gather_pixel_batches(manifest: DatasetManifest, entries: list[ManifestEntry], *,
                         pixels_per_image: int | None, seed: int,
                         need_image: bool = False) -> CalibrationPixels:
    """The drawn pixels of each entry, read batch by batch (:func:`load_batches`), stacked as float32 rows.

    Each batch is dropped before the next one is read, so the reader holds
    at most one earlier entry. Its drawn rows go straight into the stack,
    allocated with room for every entry at the first batch's grid, grown
    when a batch does not fit and cut to size at the end: no per-batch copy
    stays alive among the freed tensors of later entries to fragment the heap.
    """
    if not entries:
        raise CalibrationError("no manifest entries to gather pixels from")
    values = labels = None
    counts: list[int] = []
    for batch in load_batches(manifest, entries, pixels_per_image=pixels_per_image, seed=seed,
                              image=need_image):
        parts = [batch.logits, _stack([one.image.data for one in batch.loaded])] if need_image else [batch.logits]
        start = sum(counts)
        stop = start + batch.rows.size
        if values is None or stop > len(values):  # room for the entries left, each drawing all its pixels at most
            pixels = batch.labels[0].size
            per_entry = pixels if pixels_per_image is None else min(pixels, pixels_per_image)
            room = stop + (len(entries) - len(counts) - len(batch.loaded)) * per_entry
            values = _with_rows(values, start, (room, sum(part.shape[-1] for part in parts)), np.float32)
            labels = _with_rows(labels, start, (room,), np.int64)
        column = 0
        for part in parts:
            values[start:stop, column:column + part.shape[-1]] = batch.drawn(part)
            column += part.shape[-1]
        labels[start:stop] = batch.drawn(batch.labels)
        counts.extend(one.rows.size for one in batch.loaded)
        del batch, parts  # its tensors, before the next batch is read
    if stop < len(values):
        values, labels = values[:stop].copy(), labels[:stop].copy()
    return CalibrationPixels(
        values=values,
        labels=labels,
        entry=np.repeat(np.arange(len(entries)), counts),
        classes=manifest.classes,
    )


def _with_rows(array: np.ndarray | None, rows: int, shape: tuple, dtype) -> np.ndarray:
    """An unfilled ``shape`` array holding the first ``rows`` rows of ``array``, if any."""
    grown = np.empty(shape, dtype=dtype)
    if array is not None:
        grown[:rows] = array[:rows]
    return grown


def _split_entries(manifest: DatasetManifest, split: str) -> list[ManifestEntry]:
    entries = manifest.select(split=split)
    if not entries:
        raise CalibrationError(f"manifest has no entries in split {split!r}")
    return entries


def fit_global_ts(manifest: DatasetManifest, *, split: str = "calibration",
                  pixels_per_image: int | None = DEFAULT_PIXELS_PER_IMAGE,
                  seed: int = 0) -> GlobalTemperature:
    """One temperature for the whole dataset, fitted on the given split."""
    pixels = gather_pixel_batches(manifest, _split_entries(manifest, split),
                                  pixels_per_image=pixels_per_image, seed=seed)
    z, labels = pixels.logits.astype(np.float64), pixels.labels
    del pixels  # the float32 stack, before the search
    return GlobalTemperature(_fit_in_place(z, labels))


def fit_cluster_ts(manifest: DatasetManifest, *, k: int = DEFAULT_CLUSTERS,
                   variant: ClusterVariant = ClusterVariant.PER_IMAGE,
                   split: str = "calibration",
                   pixels_per_image: int | None = DEFAULT_PIXELS_PER_IMAGE,
                   seed: int = 0) -> ClusterTemperatureModel:
    """Cluster images by their feature vectors, then fit one T per cluster.

    The ``per_class`` variant fits one T per (cluster, predicted class)
    cell. Both variants give each calibration pixel a cell id (its image's
    cluster, or cluster * K + the argmax of its raw logits), group the
    stacked pixels by one stable sort on that id and fit each non-empty
    cell on its contiguous slice, whose rows stay in entry order. The rows
    are widened to float64 and shifted by their maxima once, in place, for
    the global fit and every cell; each cell's search starts at T = 1 and
    the bound downhill of it, where the global fit kept every row's terms,
    so a cell gathers those instead of making its first passes. Cells with
    no calibration pixels inherit the global temperature, so the model
    degrades gracefully; with k = 1 it coincides with global scaling exactly.
    """
    variant = ClusterVariant(variant)
    entries = _split_entries(manifest, split)
    _, features = load_features(manifest, entries)
    result = kmeans(features, k, seed)
    pixels = gather_pixel_batches(manifest, entries, pixels_per_image=pixels_per_image, seed=seed)
    cell = result.assignment[pixels.entry]
    shape = (k,)
    if variant is ClusterVariant.PER_CLASS:
        cell = cell * manifest.classes + pixels.logits.argmax(axis=1)
        shape = (k, manifest.classes)
    z, labels = pixels.logits.astype(np.float64), pixels.labels
    del pixels  # the float32 stack, before the searches
    kept: dict = {}
    fallback = _fit_in_place(z, labels, keep=kept)
    zy = z[np.arange(z.shape[0]), labels]
    temperatures = np.full(shape, fallback)
    order = np.argsort(cell, kind="stable")
    bounds = np.searchsorted(cell, np.arange(temperatures.size + 1), sorter=order)
    for c in np.flatnonzero(np.diff(bounds)):
        temperatures.flat[c] = _search(_cell_passes(z, zy, order[bounds[c]:bounds[c + 1]], kept))
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


def _lts_parts(mode: FeatureMode, logits: np.ndarray, channels: np.ndarray | None) -> list[np.ndarray]:
    """The column groups of the regressor's per-pixel input rows: (n, K) logits, (n, C) channels or both."""
    return {FeatureMode.LOGITS: [logits], FeatureMode.IMAGE: [channels], FeatureMode.BOTH: [logits, channels]}[mode]


def _feature_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x.mean(axis=0)`` and ``x.std(axis=0)`` bit for bit, x = ``features`` in float64, through one block buffer.

    NumPy sums the rows of a C-ordered matrix one after another into the
    column sums, starting from 0. Each block, widened into the buffer, does
    the same from the sums so far, added to its first row, so no (n, D)
    temporary is made.
    """
    n = features.shape[0]
    step = _block_rows(features.shape[1])
    buffer = np.empty((min(step, n), features.shape[1]))
    mean = np.zeros(features.shape[1])
    squares = np.zeros(features.shape[1])
    for total, centre in ((mean, None), (squares, mean)):
        for start in range(0, n, step):
            block = buffer[:min(step, n - start)]
            if centre is None:
                np.copyto(block, features[start:start + step])
            else:
                np.subtract(features[start:start + step], centre, out=block)
                block *= block
            block[0] += total
            np.add.reduce(block, axis=0, out=total)
        total /= n
    return mean, np.sqrt(squares, out=squares)


def fit_lts(manifest: DatasetManifest, *, feature_mode: FeatureMode = FeatureMode.BOTH,
            hyper: LtsHyper = LtsHyper(), split: str = "calibration",
            pixels_per_image: int | None = DEFAULT_PIXELS_PER_IMAGE,
            seed: int = 0) -> tuple[TemperatureRegressor, list[float]]:
    """Train the per-pixel temperature network on a calibration split.

    Returns the regressor and the per-epoch training loss curve: each
    epoch's value is the weighted running mean of its minibatch losses
    (:func:`relikit.mlp.sgd_train`), not a separate pass over the split. The
    raw output bias starts at softplus^-1(1 - t_floor) so training begins
    near the identity temperature. Optional per-domain loss weights
    rebalance domains of different sizes; a domain without a weight counts
    1, and a weight whose tag names no domain of the split is a usage error.
    Training has diverged, a numerical error, when the last curve value or
    any trained parameter is not finite.
    """
    feature_mode = FeatureMode(feature_mode)
    entries = _split_entries(manifest, split)
    domains = sorted({entry.domain for entry in entries})
    unknown = sorted(set(hyper.domain_weights or {}) - set(domains))
    if unknown:
        raise UsageError(f"domain weights name no domain of split {split!r}: "
                         f"{', '.join(map(repr, unknown))} (its domains: {', '.join(domains)})")
    pixels = gather_pixel_batches(
        manifest, entries, pixels_per_image=pixels_per_image, seed=seed,
        need_image=needs_image(feature_mode),
    )
    features = pixels.lts_input(feature_mode)
    weights = None
    if hyper.domain_weights is not None:
        per_entry = [float(hyper.domain_weights.get(entry.domain, 1.0)) for entry in entries]
        weights = np.array(per_entry)[pixels.entry]
        if weights.sum() == 0:
            raise CalibrationError("domain weights are zero on every calibration pixel")
    mean, scale = _feature_stats(features)
    scale[scale < 1e-12] = 1.0
    params = mlp.init_params(
        features.shape[1], hyper.hidden_width,
        derive_stream(seed, "lts-init"),
        mlp.softplus_inverse(1.0 - hyper.t_floor),
    )
    curve = mlp.sgd_train(
        params, features, pixels.logits, pixels.labels, hyper.t_floor,
        hyper.learning_rate, hyper.epochs, hyper.batch_pixels,
        derive_stream(seed, "lts-batches"), weights, (mean, scale),
    )
    if (curve and not np.isfinite(curve[-1])) or not np.isfinite(params.to_vector()).all():
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
    """Per-pixel temperatures for one image.

    The input rows are built, standardized and run through the network
    block by block (:func:`~relikit.confidence._blocks`, blocks of at
    least 128 rows), through one buffer of each kind, so the map is the
    only whole-image array made. Each BLAS product then gives every row the
    bits of one product over the whole image.
    """
    channels = None
    if needs_image(regressor):
        if image is None:
            raise CalibrationError(f"feature mode {regressor.feature_mode.value} needs the image tensor")
        check_same_shape(logits, image, "logits vs image")
        channels = image.data.reshape(-1, image.channels)
    parts = _lts_parts(regressor.feature_mode, logits.data.reshape(-1, logits.classes), channels)
    width = sum(part.shape[1] for part in parts)
    if width != regressor.input_dim:
        raise CalibrationError(f"feature dimension {width} does not match the regressor's {regressor.input_dim}")
    blocks = _blocks(logits.height * logits.width, width, least=128)
    size = max(block.stop - block.start for block in blocks)
    features = np.empty((size, width))
    hidden = np.empty((size, regressor.hidden_width))
    t = np.empty(logits.height * logits.width)
    for block in blocks:
        rows = features[:block.stop - block.start]
        np.concatenate([part[block] for part in parts], axis=1, out=rows)
        rows -= regressor.feature_mean
        rows /= regressor.feature_scale
        raw = mlp.raw_output(regressor.params, rows, t[block], hidden[:rows.shape[0]])
        mlp.softplus(raw, out=raw)
        raw += regressor.t_floor
    return TemperatureMap(t.reshape(logits.height, logits.width))


def needs_image(calibrator: Calibrator | FeatureMode | None) -> bool:
    """Whether a calibrator, or fitting an LTS in a feature mode, reads the image channels."""
    if isinstance(calibrator, TemperatureRegressor):
        calibrator = calibrator.feature_mode
    return calibrator is FeatureMode.IMAGE or calibrator is FeatureMode.BOTH


def calibrator_temperature(calibrator: Calibrator | None, logits: LogitTensor,
                           feature: np.ndarray | None = None,
                           image: ImageTensor | None = None) -> float | TemperatureMap:
    """The temperature any calibrator (or None, for T = 1) gives one image.

    A global or ``per_image`` cluster calibrator gives a scalar: its T or
    the T of the image's cluster. A ``per_class`` cluster calibrator gives
    each pixel the T of its (cluster, raw-logit argmax) cell, and LTS its
    predicted map.
    """
    if calibrator is None:
        return 1.0
    if isinstance(calibrator, GlobalTemperature):
        return calibrator.temperature
    if isinstance(calibrator, ClusterTemperatureModel):
        if feature is None:
            raise CalibrationError("cluster calibration needs the image's feature vector")
        temperatures = calibrator.temperatures[assign_cluster(calibrator, feature)]
        if calibrator.variant is ClusterVariant.PER_IMAGE:
            return float(temperatures)
        if logits.classes != calibrator.classes:
            raise CalibrationError(f"logits carry {logits.classes} classes, calibrator has {calibrator.classes}")
        return TemperatureMap(temperatures[logits.data.argmax(axis=2)])
    if isinstance(calibrator, TemperatureRegressor):
        return predict_temperature_map(calibrator, logits, image)
    raise UsageError(f"unknown calibrator type {type(calibrator).__name__}")


def batch_temperature(calibrator: Calibrator | None, batch: EntryBatch) -> np.ndarray | TemperatureMap:
    """:func:`calibrator_temperature` of each entry of a batch, stacked: B scalars or a (B, H, W) map."""
    temperatures = [calibrator_temperature(calibrator, one.logits, one.feature, one.image) for one in batch.loaded]
    if isinstance(temperatures[0], TemperatureMap):
        return TemperatureMap(_stack([t.values for t in temperatures]))
    return np.array(temperatures, dtype=np.float64)


def apply_calibrator(calibrator: Calibrator | None, logits: LogitTensor,
                     feature: np.ndarray | None = None,
                     image: ImageTensor | None = None) -> np.ndarray:
    """softmax(logits / T) with T from :func:`calibrator_temperature`."""
    return apply_temperature(logits, calibrator_temperature(calibrator, logits, feature, image))


_RULES = {
    "finite": np.isfinite,
    "positive": lambda v: v > 0,
    "positive and finite": lambda v: np.isfinite(v) & (v > 0),
    "in (0, 1)": lambda v: (v > 0) & (v < 1),
}


class _Method(NamedTuple):
    build: type       # the calibrator class
    fixed: dict       # the constructor arguments the method tag implies
    keys: dict        # name -> (cast or array shape, rule), in read order
    parts: dict = {}  # attribute -> the dataclass whose fields are keys of their own


# The calibrator artifact by method tag, the one place that names its keys. An array
# shape names int keys read before it and dimensions that the first array to use them binds.
METHODS = {
    "ts": _Method(GlobalTemperature, {}, {"temperature": (float, "positive and finite")}),
    **{tag: _Method(ClusterTemperatureModel, {"variant": variant}, {
        "fallback_temperature": (float, "positive and finite"),
        "classes": (int, "positive"),
        "centroids": ("(k, d)", "finite"),
        "temperatures": (shape, "positive and finite"),
    }) for tag, variant, shape in (("cluster_ts", ClusterVariant.PER_IMAGE, "(k,)"),
                                   ("class_cluster_ts", ClusterVariant.PER_CLASS, "(k, classes)"))},
    "lts": _Method(TemperatureRegressor, {}, {
        "feature_mode": (FeatureMode, None),
        "input_dim": (int, "positive"),
        "hidden_width": (int, "positive"),
        "t_floor": (float, "in (0, 1)"),
        "feature_mean": ("(input_dim,)", "finite"),
        "feature_scale": ("(input_dim,)", "positive and finite"),
        "w1": ("(hidden_width, input_dim)", "finite"),
        "b1": ("(hidden_width,)", "finite"),
        "w2": ("(hidden_width,)", "finite"),
        "b2": (float, "finite"),
    }, parts={"params": mlp.MlpParams}),
}


def save_calibrator(calibrator: Calibrator, path) -> Path:
    """Serialize any calibrator to a JSON artifact: its method tag and the keys of its :data:`METHODS` entry."""
    tag = next((tag for tag, method in METHODS.items() if isinstance(calibrator, method.build)
                and all(getattr(calibrator, k) == v for k, v in method.fixed.items())), None)
    if tag is None:
        raise UsageError(f"unknown calibrator type {type(calibrator).__name__}")
    values = asdict(calibrator)
    for part in METHODS[tag].parts:
        values.update(values.pop(part))
    payload = {"method": tag, **{name: values[name] for name in METHODS[tag].keys}}
    # an enum is a str subclass, written as its value; an array is written as nested lists
    text = json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
    Path(path).write_text(text + "\n", encoding="utf-8")
    return Path(path)


def _read_key(path, name: str, kind, rule: str | None, raw, sizes: dict):
    """Cast one artifact value, then check its shape against ``sizes`` (binding new names) and its rule."""
    if isinstance(kind, str):
        dims, items = kind.strip("()").replace(",", " ").split(), np.asarray(raw, dtype=object)
        if items.ndim != len(dims) or not all(type(x) in (int, float) for x in items.flat):  # a bool is no number
            raise UsageError(f"{name.replace('_', '-')} must be a {kind} array of numbers, got {raw!r}")
        value = items.astype(np.float64)
        shape = tuple(map(sizes.setdefault, dims, value.shape))
        if value.shape != shape:
            raise CalibrationError(f"{path}: {name} has shape {value.shape}, metadata implies {shape}")
    else:
        value = sizes[name] = convert_option(name, raw, kind, text=False)
    ok = np.asarray(_RULES[rule](np.asarray(value)) if rule else True)
    if not ok.all():
        raise CalibrationError(f"{path}: {name} must be {rule}, got {np.asarray(value)[~ok].flat[0]}")
    return value


def load_calibrator(path) -> Calibrator:
    """Read a calibrator artifact, casting and checking each key of its :data:`METHODS` entry."""
    payload = read_json_object(path, CalibrationError, "calibrator")
    tag = payload.get("method")
    method = METHODS.get(tag) if isinstance(tag, str) else None
    if method is None:
        raise CalibrationError(f"{path}: method must be one of {', '.join(METHODS)}, got {tag!r}")
    if payload.keys() != {"method", *method.keys}:
        raise CalibrationError(f"{path}: a {tag} artifact has exactly the keys method, "
                               f"{', '.join(method.keys)}; got {', '.join(sorted(payload))}")
    sizes: dict = {}
    try:
        values = {name: _read_key(path, name, *spec, payload[name], sizes) for name, spec in method.keys.items()}
        for part, build in method.parts.items():
            values[part] = build(**{f.name: values.pop(f.name) for f in fields(build)})
        return method.build(**method.fixed, **values)
    except (TypeError, ValueError, OverflowError, UsageError) as exc:
        raise CalibrationError(f"{path}: malformed calibrator artifact ({exc})") from exc
