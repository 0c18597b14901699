"""Confidence scores and flat prediction records.

Every reliability metric in this package consumes the same substrate: a
flat set of (confidence, predicted class, actual class) records taken
from per-pixel logits scaled by a temperature. Two confidence scores are
supported:

* ``max_prob``    -- the probability of the predicted class, in [0, 1];
* ``neg_entropy`` -- sum_k p_k ln p_k, in [-ln K, 0], higher = more confident.

The predicted class is always the argmax of the raw logits, ties broken
toward the lowest class index, whatever the score and the temperature:
one positive temperature per pixel never reorders a pixel's classes. A
:class:`RecordSet` orders and sums its records once for every metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import CalibrationError, InvalidTensorError, MetricError
from .tensors import LogitTensor, TemperatureMap


class ConfidenceScore(str, Enum):
    MAX_PROB = "max_prob"
    NEG_ENTROPY = "neg_entropy"


def scaled_logits(logits: np.ndarray, temperature: float | np.ndarray | TemperatureMap) -> np.ndarray:
    """float64 (..., K) logits / T.

    T is a positive finite scalar, one such scalar per image of a
    (B, H, W, K) stack, or a :class:`TemperatureMap` of the logits' pixel
    shape: (H, W), or (B, H, W) for a stack.
    """
    z = logits.astype(np.float64)
    if isinstance(temperature, TemperatureMap):
        t = temperature.values
        if t.shape != z.shape[:-1]:
            raise CalibrationError(f"temperature map shape {t.shape} does not match image {z.shape[:-1]}")
    else:
        t = np.asarray(temperature, dtype=np.float64)
        if not np.all(np.isfinite(t) & (t > 0.0)):
            raise CalibrationError(f"temperature must be positive and finite, got {temperature}")
        if t.ndim:  # one T per image of a stack
            if t.shape != z.shape[:-3]:
                raise CalibrationError(f"{t.size} temperatures for a stack of {z.shape[:-3]} images")
            t = t[:, None, None]
    z /= t[..., None]
    return z


def confidence_map(logits: LogitTensor | np.ndarray, temperature: float | np.ndarray | TemperatureMap = 1.0,
                   score: ConfidenceScore = ConfidenceScore.MAX_PROB):
    """Per-pixel (confidence, predicted class) of softmax(logits / T).

    ``logits`` is one image's tensor or a (B, H, W, K) stack, and T takes
    the forms of :func:`scaled_logits`. Returns a float64 confidence array
    and the int64 argmax of the raw logits, both of the pixel shape. With z
    the scaled logits minus their row maximum and s = sum_k exp z_k,
    ``max_prob`` is 1 / s; ``neg_entropy`` is sum_k p_k ln p_k over
    p = exp z / s, with 0 * ln 0 = 0, so one-hot distributions score
    exactly 0. No probability tensor is kept.
    """
    score = ConfidenceScore(score)
    max_prob, neg_entropy, predicted = _confidence_pass(
        logits, temperature, entropy=score is ConfidenceScore.NEG_ENTROPY)
    return (max_prob if neg_entropy is None else neg_entropy), predicted


def _confidence_pass(logits: LogitTensor | np.ndarray, temperature: float | np.ndarray | TemperatureMap, *,
                     entropy: bool):
    """(max_prob, neg_entropy or None, predicted) from one exp pass, as :func:`confidence_map` defines them."""
    if isinstance(logits, LogitTensor):
        logits = logits.data
    predicted = logits.argmax(axis=-1).astype(np.int64)
    z = scaled_logits(logits, temperature)
    z -= np.take_along_axis(z, predicted[..., None], axis=-1)
    e = np.exp(z, out=z)
    total = e.sum(axis=-1, keepdims=True)
    max_prob = 1.0 / total[..., 0]
    if not entropy:
        return max_prob, None, predicted
    p = np.divide(e, total, out=e)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return max_prob, terms.sum(axis=-1), predicted


def _stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for a 1-D array without NaN, from unstable sorts.

    NumPy's default sort is unstable but SIMD-accelerated; its stable sort
    is a timsort, several times slower. The default argsort ranks the
    values; each position then gets the id of its tie group (a run of
    equal values, so -0.0 ties with 0.0), and the key ``group * n +
    index`` is unique and orders ties by index. Sorting the keys, again
    unstably, and taking ``key % n`` gives the stable order. The key fits
    in int64 while n < 3e9.
    """
    n = values.shape[0]
    order = np.argsort(values)
    ranked = values[order]
    key = np.empty(n, dtype=np.int64)
    key[:1] = 0
    np.cumsum(ranked[1:] != ranked[:-1], out=key[1:])
    key *= n
    key += order
    key.sort()
    return key % n


@dataclass(frozen=True)
class RecordSet:
    """Flat per-pixel prediction records, the input to every metric.

    Parallel arrays: ``confidence`` float64, ``predicted`` and ``actual``
    int64 class indices. Ignored pixels are never present.

    :attr:`order` (the stable ascending order of ``confidence``) and
    :attr:`running` (sums along it) are computed on first use and shared
    by every metric that reads the set, so one set is ordered at most once.
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
        """Record indices by ascending confidence; ties keep record order.

        Equal to ``np.argsort(confidence, kind="stable")``; see
        :func:`_stable_argsort` for how the tie order is kept.
        """
        return _stable_argsort(self.confidence)

    @cached_property
    def running(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Confidences along :attr:`order`, and the float64 running sums of confidence and of
        correctness along it, each n + 1 long from 0; the correctness sums are exact counts."""
        ordered = self.confidence[self.order]
        sums = np.zeros((2, ordered.shape[0] + 1))
        np.cumsum(ordered, out=sums[0, 1:])
        np.cumsum(self.correct[self.order], dtype=np.float64, out=sums[1, 1:])
        return ordered, sums[0], sums[1]

    @staticmethod
    def concat(parts: list["RecordSet"]) -> "RecordSet":
        if not parts:
            raise MetricError("cannot concatenate zero record sets")
        return RecordSet(
            np.concatenate([p.confidence for p in parts]),
            np.concatenate([p.predicted for p in parts]),
            np.concatenate([p.actual for p in parts]),
        )
