"""Confidence scores and flat prediction records.

Every reliability metric in this package consumes the same substrate: a
flat set of (confidence, predicted class, actual class) records extracted
from per-pixel distributions. Two confidence scores are supported:

* ``max_prob``    -- the probability of the predicted class, in [0, 1];
* ``neg_entropy`` -- sum_k p_k ln p_k, in [-ln K, 0], higher = more confident.

Predicted classes always come from the distribution argmax with ties
broken toward the lowest class index, independent of the score used.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidTensorError, MetricError
from .rng import subsample_indices
from .tensors import LabelMap, ProbTensor, check_same_shape, validate_labels


class ConfidenceScore(str, Enum):
    MAX_PROB = "max_prob"
    NEG_ENTROPY = "neg_entropy"


def confidence_map(probs: ProbTensor, score: ConfidenceScore = ConfidenceScore.MAX_PROB):
    """Reduce per-pixel distributions to (confidence, predicted class) maps.

    Returns a float64 (H, W) confidence array and an int64 (H, W) array of
    predicted classes. For ``neg_entropy`` the convention 0 * ln 0 = 0 is
    used, so one-hot distributions score exactly 0.
    """
    p = probs.data
    predicted = p.argmax(axis=2).astype(np.int64)
    score = ConfidenceScore(score)
    if score is ConfidenceScore.MAX_PROB:
        conf = p.max(axis=2)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        conf = terms.sum(axis=2)
    return conf, predicted


@dataclass(frozen=True)
class RecordSet:
    """Flat per-pixel prediction records, the input to every metric.

    Parallel arrays: ``confidence`` float64, ``predicted`` and ``actual``
    int64 class indices. Ignored pixels are never present.

    :attr:`order` is the stable ascending sort of ``confidence``, computed
    on first use and shared by every rank-based metric that reads the set,
    so one set is sorted at most once.
    """

    confidence: np.ndarray
    predicted: np.ndarray
    actual: np.ndarray

    def __post_init__(self):
        conf = np.asarray(self.confidence, dtype=np.float64)
        pred = np.asarray(self.predicted, dtype=np.int64)
        act = np.asarray(self.actual, dtype=np.int64)
        lengths = {conf.shape, pred.shape, act.shape}
        if len(lengths) != 1 or conf.ndim != 1:
            raise InvalidTensorError("records: parallel arrays must share one 1-D shape")
        if not np.all(np.isfinite(conf)):
            raise InvalidTensorError("records: non-finite confidences")
        object.__setattr__(self, "confidence", conf)
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "actual", act)

    def __len__(self) -> int:
        return self.confidence.shape[0]

    @property
    def correct(self) -> np.ndarray:
        return self.predicted == self.actual

    @cached_property
    def order(self) -> np.ndarray:
        """Record indices by ascending confidence; ties keep record order."""
        return np.argsort(self.confidence, kind="mergesort")

    @staticmethod
    def concat(parts: list["RecordSet"]) -> "RecordSet":
        if not parts:
            raise MetricError("cannot concatenate zero record sets")
        return RecordSet(
            np.concatenate([p.confidence for p in parts]),
            np.concatenate([p.predicted for p in parts]),
            np.concatenate([p.actual for p in parts]),
        )


def extract_records(
    probs: ProbTensor,
    labels: LabelMap,
    image_id: str,
    *,
    score: ConfidenceScore = ConfidenceScore.MAX_PROB,
    ignore_value: int = 255,
    pixels_per_image: int | None = None,
    seed: int | None = None,
) -> RecordSet:
    """Flatten one image into prediction records, optionally subsampled.

    Ignored pixels are dropped first; when ``pixels_per_image`` is given,
    that many of the remaining pixels are drawn without replacement from a
    stream derived from ``(seed, image_id)``, so any pass over the same
    image with the same seed sees the same pixels. Records keep ascending
    pixel order.
    """
    check_same_shape(probs, labels, "probs vs labels")
    validate_labels(labels, probs.classes, ignore_value)
    conf, predicted = confidence_map(probs, score)
    flat_labels = labels.data.reshape(-1)
    valid = np.flatnonzero(flat_labels != ignore_value)
    if pixels_per_image is not None:
        if seed is None:
            raise MetricError("pixels_per_image requires a seed")
        keep = subsample_indices(valid.shape[0], pixels_per_image, seed, f"pixels:{image_id}")
        valid = valid[keep]
    return RecordSet(
        conf.reshape(-1)[valid],
        predicted.reshape(-1)[valid],
        flat_labels[valid].astype(np.int64),
    )
