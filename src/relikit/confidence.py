"""Confidence scores and flat prediction records.

Every reliability metric in this package consumes the same substrate: a
flat set of (confidence, correct) records taken from per-pixel logits
scaled by a temperature, 9 bytes a record. Two confidence scores are
supported:

* ``max_prob``    -- the probability of the predicted class, in [0, 1];
* ``neg_entropy`` -- sum_k p_k ln p_k, in [-ln K, 0], higher = more confident.

The predicted class is always the argmax of the raw logits, ties broken
toward the lowest class index, whatever the score and the temperature:
one positive temperature per pixel never reorders a pixel's classes. A
pass checks its temperature once and divides each block by its slice. A
:class:`RecordSet` orders and sums its records once for every metric.

Every per-pixel pass of the package runs over blocks of about
:data:`BLOCK_VALUES` float64 values (512 KiB, so a block stays in L2),
sized here by one rule (:func:`_block_rows`, :func:`_blocks`): the
confidence pass, the temperature fit's NLL passes, the LTS prediction and
feature statistics, and the synthetic scene generator. A pass holds its
outputs and a few blocks, never a float64 copy of a whole image, and
each output keeps the bits of one whole-array pass: an elementwise value
or a row's own sum does not depend on the block, and a block of a BLAS
product is cut where the product gives every row the same bits.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import CalibrationError, InvalidTensorError, MetricError
from .tensors import LogitTensor, TemperatureMap


class ConfidenceScore(str, Enum):
    MAX_PROB = "max_prob"
    NEG_ENTROPY = "neg_entropy"


# float64 values per block of a per-pixel pass: 512 KiB, so a block stays in L2.
BLOCK_VALUES = 1 << 16


def _block_rows(classes: int) -> int:
    """Rows per block of a pass over (n, classes) rows: a multiple of 64 holding about :data:`BLOCK_VALUES` values."""
    return max(64, BLOCK_VALUES // classes // 64 * 64)


def _blocks(rows: int, classes: int, least: int = 4) -> list[slice]:
    """The row blocks of one pass over (rows, classes) rows, for passes whose row sums are BLAS products.

    A matrix-vector product gives a row the same bits wherever the row
    sits, except in its last ``rows % 4`` rows, which the kernel finishes
    one or two at a time (and in a one-row product, which NumPy hands to a
    dot kernel). So every block but the last holds a multiple of 64 rows,
    and the last holds the final ``rows % 64`` rows, plus 64 as often as
    it takes to hold ``least`` rows: every row then gets the bits that one
    product over all rows gives it on one BLAS thread, and two (or four)
    BLAS threads, which split a block in equal parts, give the same bits.
    A matrix-matrix product of fewer than about 76 rows sums in another
    order than a longer one, so a pass that makes one asks for ``least`` =
    128: no block is then shorter, a short block before the last joining it.
    """
    tail = rows % 64
    while tail < min(least, rows):
        tail += 64
    step = max(_block_rows(classes), least)
    head = rows - tail
    if head % step < least:
        head -= head % step
    return [slice(start, min(start + step, head)) for start in range(0, head, step)] + [slice(head, rows)]


def _image_blocks(images: int, pixels: int, classes: int) -> Iterator[tuple[slice, slice]]:
    """(image slice, pixel slice) blocks of a pass over ``images`` images of ``pixels`` (pixels, classes) rows.

    An image of at most :func:`_block_rows` pixels goes whole, as many to a
    block as fit, so a per-image scalar is applied over a whole image at
    once; a larger image is cut into the row blocks of :func:`_blocks`.
    """
    step = _block_rows(classes)
    if pixels <= step:
        per_block = step // max(pixels, 1)
        for start in range(0, images, per_block):
            yield slice(start, min(start + per_block, images)), slice(0, pixels)
        return
    blocks = _blocks(pixels, classes)
    for image in range(images):
        for block in blocks:
            yield slice(image, image + 1), block


def _checked_temperature(pixel_shape: tuple, temperature: float | np.ndarray | TemperatureMap) -> np.ndarray:
    """``temperature`` checked against logits of pixel shape ``pixel_shape``, as a float64 array of that shape.

    A :class:`TemperatureMap` must have the pixel shape; anything else (a plain array
    is no map) is a positive finite scalar or one per image of a stack, broadcast.
    """
    if isinstance(temperature, TemperatureMap):
        if temperature.values.shape != pixel_shape:
            raise CalibrationError(
                f"temperature map shape {temperature.values.shape} does not match image {pixel_shape}")
        return temperature.values
    t = np.asarray(temperature, dtype=np.float64)
    if not np.all(np.isfinite(t) & (t > 0.0)):
        raise CalibrationError(f"temperature must be positive and finite, got {temperature}")
    if t.ndim and t.shape != pixel_shape[:-2]:  # one T per image of a stack
        raise CalibrationError(f"{t.size} temperatures for a stack of {pixel_shape[:-2]} images")
    return np.broadcast_to(t.reshape(t.shape + (1, 1)) if t.ndim else t, pixel_shape)


def scaled_logits(logits: np.ndarray, t: np.ndarray) -> np.ndarray:
    """float64 (..., K) logits / T, for T (a slice of) :func:`_checked_temperature`'s array; no check here."""
    z = logits.astype(np.float64)
    z /= t[..., None]
    return z


def confidence_map(logits: LogitTensor | np.ndarray, temperature: float | np.ndarray | TemperatureMap = 1.0,
                   score: ConfidenceScore = ConfidenceScore.MAX_PROB):
    """Per-pixel (confidence, predicted class) of softmax(logits / T).

    ``logits`` is one image's tensor or a (B, H, W, K) stack. T is a
    positive finite scalar, one such scalar per image of a stack, or a
    :class:`TemperatureMap` of the logits' pixel shape, (H, W) or
    (B, H, W). Returns a float64 confidence array and the int64 argmax of
    the raw logits, both of the pixel shape. With z
    the scaled logits minus their row maximum and s = sum_k exp z_k,
    ``max_prob`` is 1 / s; ``neg_entropy`` is sum_k p_k ln p_k over
    p = exp z / s, with 0 * ln 0 = 0, so one-hot distributions score
    exactly 0. No probability tensor is kept, and no float64 copy of the
    logits: the pass runs over blocks of :data:`BLOCK_VALUES` values.
    """
    score = ConfidenceScore(score)
    max_prob, neg_entropy, predicted = _confidence_pass(
        logits, temperature, entropy=score is ConfidenceScore.NEG_ENTROPY)
    return (max_prob if neg_entropy is None else neg_entropy), predicted


def _confidence_pass(logits: LogitTensor | np.ndarray, temperature: float | np.ndarray | TemperatureMap, *,
                     entropy: bool):
    """(max_prob, neg_entropy or None, predicted) from one exp pass, as :func:`confidence_map` defines them.

    The temperature is checked once; the pass then runs over (images,
    pixels, K) rows block by block (:func:`_image_blocks`), each block
    divided by its slice of the temperature and reduced to its rows'
    outputs, so it holds the outputs and a few blocks. Every value is a
    function of its pixel's logits and temperature alone, so each pixel
    gets the bits of one whole-array pass.
    """
    if isinstance(logits, LogitTensor):
        logits = logits.data
    pixel_shape = logits.shape[:-1]
    images = int(np.prod(pixel_shape[:-2]))
    pixels = int(np.prod(pixel_shape[-2:]))
    classes = logits.shape[-1]
    rows = logits.reshape(images, pixels, classes)
    t = _checked_temperature(pixel_shape, temperature).reshape(images, pixels)
    max_prob = np.empty((images, pixels))
    neg_entropy = np.empty((images, pixels)) if entropy else None
    predicted = np.empty((images, pixels), dtype=np.int64)
    for image, pixel in _image_blocks(images, pixels, classes):
        block = rows[image, pixel]
        top = predicted[image, pixel]
        np.argmax(block, axis=-1, out=top)
        z = scaled_logits(block, t[image, pixel])
        # each row's scaled logit at the raw argmax, by one flat gather
        z -= z.reshape(-1)[top.reshape(-1) + np.arange(0, top.size * classes, classes)].reshape(*top.shape, 1)
        e = np.exp(z, out=z)
        total = e.sum(axis=-1, keepdims=True)
        np.divide(1.0, total[..., 0], out=max_prob[image, pixel])
        if entropy:
            p = np.divide(e, total, out=e)
            # p ln p with 0 ln 0 = 0: ln 1 * 0 is 0 as well
            terms = np.where(p > 0.0, p, 1.0)
            np.log(terms, out=terms)
            terms *= p
            np.add.reduce(terms, axis=-1, out=neg_entropy[image, pixel])
    return (max_prob.reshape(pixel_shape), None if neg_entropy is None else neg_entropy.reshape(pixel_shape),
            predicted.reshape(pixel_shape))


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
    del ranked
    key *= n
    key += order
    del order  # the sort below then holds the key alone
    key.sort()
    key %= n
    return key


@dataclass(frozen=True)
class RecordSet:
    """Flat per-pixel prediction records, the input to every metric.

    Two parallel arrays: ``confidence`` float64 and ``correct`` bool
    (predicted class == actual class), 9 bytes a record; every metric
    depends on these pairs alone. Ignored pixels are never present.

    :attr:`order` (the stable ascending order of ``confidence``),
    :attr:`running_correct` and :attr:`running` (sums along it) are
    computed on first use and shared by every metric that reads the set,
    and a set read only by ``prr`` never gathers or sums its confidences.
    No metric reads :attr:`order` once :attr:`running_correct` is summed,
    so summing it, or building :attr:`running`, drops the cached order.
    Eval reads ``prr`` last, so it orders each set once; a set read by
    ``prr`` before ``ada_ece`` or ``ks_error`` is ordered twice.
    """

    confidence: np.ndarray
    correct: np.ndarray

    def __post_init__(self):
        conf = np.asarray(self.confidence, dtype=np.float64)
        correct = np.asarray(self.correct)
        if correct.dtype != np.bool_:
            raise InvalidTensorError(f"records: correct must be a bool array, got {correct.dtype}")
        if conf.ndim != 1 or correct.shape != conf.shape:
            raise InvalidTensorError("records: parallel arrays must share one 1-D shape")
        if not np.all(np.isfinite(conf)):
            raise InvalidTensorError("records: non-finite confidences")
        object.__setattr__(self, "confidence", conf)
        object.__setattr__(self, "correct", correct)

    def __len__(self) -> int:
        return self.confidence.shape[0]

    @cached_property
    def order(self) -> np.ndarray:
        """Record indices by ascending confidence; ties keep record order.

        Equal to ``np.argsort(confidence, kind="stable")``; see
        :func:`_stable_argsort` for how the tie order is kept.
        """
        return _stable_argsort(self.confidence)

    @cached_property
    def running_correct(self) -> np.ndarray:
        """The float64 running count of correct records along :attr:`order`, n + 1 long from 0."""
        sums = np.zeros(len(self) + 1)
        np.cumsum(self.correct[self.order], dtype=np.float64, out=sums[1:])
        self.__dict__.pop("order", None)
        return sums

    @cached_property
    def running(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Confidences along :attr:`order`, and the float64 running sums of confidence and of
        correctness (:attr:`running_correct`) along it, each n + 1 long from 0."""
        ordered = self.confidence[self.order]
        sums = np.zeros(ordered.shape[0] + 1)
        np.cumsum(ordered, out=sums[1:])
        view = ordered, sums, self.running_correct
        self.__dict__.pop("order", None)  # read again above when running_correct was summed first
        return view

    @staticmethod
    def concat(parts: list["RecordSet"]) -> "RecordSet":
        if not parts:
            raise MetricError("cannot concatenate zero record sets")
        return RecordSet(np.concatenate([p.confidence for p in parts]), np.concatenate([p.correct for p in parts]))
