"""Reliability metrics over prediction records.

Calibration metrics (:func:`ece`, :func:`ada_ece`, :func:`ks_error`) compare
confidence against empirical accuracy. Rank metrics (:func:`prr`,
:func:`auroc`) depend on the ordering of confidences only, so they are
invariant under strictly increasing transforms of the score. Segmentation
quality is measured by :func:`iou_from_confusion` over a
:func:`confusion_matrix` pooled across images. Image- and pixel-level OOD
detection are :func:`auroc` over the confidences that
:func:`~relikit.evaluate.evaluate_manifest` collects.

:func:`ada_ece` and :func:`ks_error` read the record set's one ordered view
with its running sums (:attr:`~relikit.confidence.RecordSet.running`), and
:func:`prr` only its running correct count
(:attr:`~relikit.confidence.RecordSet.running_correct`).

All metric functions raise :class:`~relikit.errors.MetricError` when their
preconditions fail (empty inputs, no evaluable classes, degenerate
correctness patterns) instead of returning sentinels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .confidence import RecordSet
# Not called here; the benchmark tracer's smoke test looks this binding up.
from .confidence import confidence_map  # noqa: F401
from .errors import MetricError
from .tensors import LabelMap

DEFAULT_BINS = 15


class BinStrategy(str, Enum):
    EQUAL_WIDTH = "equal_width"
    EQUAL_POPULATION = "equal_population"


@dataclass(frozen=True)
class BinPartition:
    """Confidence bins with per-bin population, mean confidence and accuracy.

    ``lower``/``upper`` give each bin's confidence range: fixed edges
    i/m, (i+1)/m for equal-width bins (the last bin closed at 1), observed
    min/max for equal-population bins. Empty bins have NaN statistics and
    contribute zero calibration error.
    """

    strategy: BinStrategy
    total: int
    count: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray

    @property
    def bins(self) -> int:
        return self.count.shape[0]

    @property
    def gap(self) -> np.ndarray:
        return np.abs(self.accuracy - self.mean_confidence)

    def expected_calibration_error(self) -> float:
        filled = self.count > 0
        weights = self.count[filled] / self.total
        return float((weights * self.gap[filled]).sum())


def _normalized_confidence(records: RecordSet) -> RecordSet:
    """The records with confidences mapped onto [0, 1] for binning.

    Records whose scores already lie inside [0, 1] are returned as they
    are. Anything else (e.g. negative entropy) is min-max normalized into
    a new set; a constant score maps to 0.5.
    """
    conf = records.confidence
    lo = conf.min()
    hi = conf.max()
    if lo >= 0.0 and hi <= 1.0:
        return records
    scaled = np.full_like(conf, 0.5) if hi == lo else (conf - lo) / (hi - lo)
    return RecordSet(scaled, records.correct)


def bin_partition(records: RecordSet, bins: int = DEFAULT_BINS,
                  strategy: BinStrategy = BinStrategy.EQUAL_WIDTH) -> BinPartition:
    """Partition records into confidence bins.

    Equal-width bins split [0, 1] into ``bins`` fixed intervals; a record
    with confidence exactly 1 lands in the last bin. Equal-population bins
    order records by ascending confidence, ties in record order, and cut
    the ordered sequence into ``bins`` runs whose sizes differ by at most
    one, the first ``n mod bins`` runs taking the extra record, read from
    :attr:`RecordSet.running`; normalized confidences are a set of their
    own, ordered afresh, since normalization can merge distinct scores.
    """
    n = len(records)
    if n == 0:
        raise MetricError("cannot bin an empty record set")
    if bins < 1:
        raise MetricError(f"bin count must be >= 1, got {bins}")
    strategy = BinStrategy(strategy)
    normalized = _normalized_confidence(records)
    if strategy is BinStrategy.EQUAL_WIDTH:
        conf = normalized.confidence
        idx = np.minimum(np.floor(conf * bins).astype(np.int64), bins - 1)
        count = np.bincount(idx, minlength=bins)
        sum_conf = np.bincount(idx, weights=conf, minlength=bins)
        sum_correct = np.bincount(idx, weights=records.correct.astype(np.float64), minlength=bins)
        lower = np.arange(bins) / bins
        upper = np.arange(1, bins + 1) / bins
    else:
        sorted_conf, cum_conf, cum_correct = normalized.running
        sizes = np.full(bins, n // bins, dtype=np.int64)
        sizes[: n % bins] += 1
        stops = np.cumsum(sizes)
        starts = stops - sizes
        count = sizes
        sum_conf = cum_conf[stops] - cum_conf[starts]
        sum_correct = cum_correct[stops] - cum_correct[starts]
        lower = np.full(bins, np.nan)
        upper = np.full(bins, np.nan)
        filled = sizes > 0
        lower[filled] = sorted_conf[starts[filled]]
        upper[filled] = sorted_conf[stops[filled] - 1]
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(count > 0, sum_conf / np.maximum(count, 1), np.nan)
        acc = np.where(count > 0, sum_correct / np.maximum(count, 1), np.nan)
    return BinPartition(
        strategy=strategy,
        total=n,
        count=count.astype(np.int64),
        lower=lower,
        upper=upper,
        mean_confidence=mean_conf,
        accuracy=acc,
    )


def ece(records: RecordSet, bins: int = DEFAULT_BINS,
        strategy: BinStrategy = BinStrategy.EQUAL_WIDTH) -> float:
    """Expected calibration error: sum_i (|B_i|/n) * |acc(B_i) - conf(B_i)|."""
    return bin_partition(records, bins, strategy).expected_calibration_error()


def ada_ece(records: RecordSet, bins: int = DEFAULT_BINS) -> float:
    """Adaptive ECE: equal-population bins remove the binning artifacts."""
    return ece(records, bins, BinStrategy.EQUAL_POPULATION)


def ks_error(records: RecordSet) -> float:
    """Binning-free calibration error.

    Sort records by confidence ascending (stable) and return the largest
    absolute difference between the running sums of confidence and of
    correctness (:attr:`RecordSet.running`), divided by n.
    """
    n = len(records)
    if n == 0:
        raise MetricError("cannot compute KS error of an empty record set")
    _, cum_conf, cum_correct = records.running
    gap = np.subtract(cum_conf, cum_correct)
    return float(np.abs(gap, out=gap).max() / n)


@dataclass(frozen=True)
class MiouResult:
    miou: float
    per_class: np.ndarray  # IoU per class, NaN where the class never occurs


def confusion_matrix(predicted, labels, classes: int, ignore_value: int = 255) -> np.ndarray:
    """(classes, classes) count matrix, rows = actual, columns = predicted.

    For a (B, H, W) stack of predictions and labels, the (B, classes,
    classes) matrices of its images, counted by one ``bincount`` in which
    image i's cells are offset by i * classes^2.
    """
    pred = np.asarray(predicted.data if isinstance(predicted, LabelMap) else predicted).astype(np.int64)
    actual = np.asarray(labels.data if isinstance(labels, LabelMap) else labels).astype(np.int64)
    if pred.shape != actual.shape:
        raise MetricError(f"prediction/label shapes differ: {pred.shape} vs {actual.shape}")
    valid = actual != ignore_value
    pred = pred[valid]
    actual = actual[valid]
    if pred.size and (pred.min() < 0 or pred.max() >= classes):
        raise MetricError("predicted class outside [0, classes)")
    if actual.size and (actual.min() < 0 or actual.max() >= classes):
        raise MetricError("actual class outside [0, classes)")
    cell = actual * classes + pred
    images = int(np.prod(valid.shape[:-2]))
    if images > 1:
        cell += np.flatnonzero(valid) // (valid.shape[-2] * valid.shape[-1]) * (classes * classes)
    counts = np.bincount(cell, minlength=images * classes * classes)
    return counts.reshape(*valid.shape[:-2], classes, classes)


def iou_from_confusion(confusion: np.ndarray) -> MiouResult:
    """Per-class intersection over union from a pooled confusion matrix.

    Classes that never occur (no true, predicted, or confused pixel) are
    excluded from the mean and reported as NaN.
    """
    tp = np.diag(confusion).astype(np.float64)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    union = tp + fp + fn
    evaluable = union > 0
    if not evaluable.any():
        raise MetricError("no evaluable classes: every pixel is ignored")
    per_class = np.full(confusion.shape[0], np.nan)
    per_class[evaluable] = tp[evaluable] / union[evaluable]
    return MiouResult(float(per_class[evaluable].mean()), per_class)


def auroc(positive, negative) -> float:
    """Probability a random positive outscores a random negative, ties at half credit.

    This is the Mann-Whitney U over n_pos * n_neg, counted exactly in
    O(n log n) from two unstable sorts, one per side: with both sides
    sorted, ``searchsorted`` gives for each positive the negatives strictly
    below it ("left") and at most equal to it ("right"). Their two int64
    sums add up to 2U, since a negative below counts 1 and a tied one 1/2.
    The count is exact, so the result does not depend on the order of
    summation.
    """
    pos = np.asarray(positive, dtype=np.float64).reshape(-1)
    neg = np.asarray(negative, dtype=np.float64).reshape(-1)
    if pos.size == 0 or neg.size == 0:
        raise MetricError("auroc needs at least one score on each side")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
        raise MetricError("auroc scores must be finite")
    # sorted queries make searchsorted cache-friendly
    pos = np.sort(pos)
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left").sum(dtype=np.int64)
    atmost = np.searchsorted(neg, pos, side="right").sum(dtype=np.int64)
    return float((below + atmost) * 0.5 / (pos.size * neg.size))


def _errors_remaining(records: RecordSet) -> np.ndarray:
    """Errors left after rejecting the k least-confident records, k = 0..n, as int64.

    The k rejected records hold k minus their (exact) running correct count
    errors. Tied records are rejected in record order.
    """
    rejected = np.arange(len(records) + 1) - records.running_correct.astype(np.int64)
    return rejected[-1] - rejected


def rejection_curve(records: RecordSet) -> np.ndarray:
    """Errors remaining (as a fraction of n) after rejecting k least-confident records.

    Index k of the returned length n+1 array is the number of rejections;
    rejected records count as handled, so the curve starts at the error
    rate and ends at 0. Tied records are rejected in record order.
    """
    n = len(records)
    if n == 0:
        raise MetricError("cannot build a rejection curve from an empty record set")
    return _errors_remaining(records) / n


def prr(records: RecordSet) -> float:
    """Rejection gain over random, as a percentage of the oracle's gain.

    The model curve rejects least-confident first; the random baseline's
    area is e/2 for error rate e; the oracle rejects every error first.
    100 means oracle-grade ordering, 0 means no better than random,
    negative means worse than random. Undefined (raises) when the records
    are all correct or all incorrect.

    All three curves take values (errors remaining)/n on a 1/n grid, so
    their trapezoid areas scaled by 2 n^2 are integers, computed here in
    closed form with exact integer arithmetic; only the final ratio
    touches floating point, which keeps the result exact up to one
    rounding even when the random/oracle gap is tiny. With E errors and
    C_k correct records among the k least confident, the model curve is
    m_k = E - k + C_k, so its area is 2 S - E for S = sum_k m_k =
    (n + 1) E - n (n + 1) / 2 + sum_k C_k; the oracle curve max(0, E - k)
    has area E^2, and the random one E n.
    """
    n = len(records)
    if n < 2:
        raise MetricError("prr needs at least two records")
    running_correct = records.running_correct
    errors = n - int(running_correct[-1])
    if errors == 0 or errors == n:
        raise MetricError("prr is undefined for all-correct or all-incorrect records")
    # the running counts are whole floats below 2^53: their int64 sum is exact
    model_sum = (n + 1) * errors - n * (n + 1) // 2 + int(running_correct.sum(dtype=np.int64))
    model_area = 2 * model_sum - errors
    oracle_area = errors * errors
    random_area = errors * n  # 2 n^2 * (e/n)/2
    return float(100.0 * ((random_area - model_area) / (random_area - oracle_area)))
