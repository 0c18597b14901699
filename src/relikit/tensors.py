"""Core tensor types.

Thin dataclass wrappers around numpy arrays that validate the structural
invariants once, at construction, so downstream code can rely on them:

* :class:`LogitTensor`  -- raw per-pixel class scores, (H, W, K) float32, K >= 2, finite.
* :class:`ProbTensor`   -- per-pixel distributions, (H, W, K) float64, entries in
  [0, 1] and rows summing to 1 within 1e-6.
* :class:`LabelMap`     -- per-pixel class indices, (H, W) uint16. Values are
  checked against a class count and ignore sentinel via :func:`validate_labels`
  because the map itself does not know either.
* :class:`ImageTensor`  -- per-pixel input channels, (H, W, C) float32, C >= 1, finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTensorError

PROB_SUM_TOL = 1e-6
PROB_RANGE_TOL = 1e-9


def _as_array(data, dtype, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidTensorError(f"{name}: cannot interpret data as {dtype}") from exc
    return arr


@dataclass(frozen=True)
class LogitTensor:
    """Raw class scores for one image, shape (height, width, classes)."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.data, np.float32, "logits")
        if arr.ndim != 3:
            raise InvalidTensorError(f"logits: expected 3 axes (H, W, K), got shape {arr.shape}")
        if arr.shape[2] < 2:
            raise InvalidTensorError(f"logits: need at least 2 classes, got {arr.shape[2]}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidTensorError(f"logits: empty spatial extent {arr.shape[:2]}")
        if not np.all(np.isfinite(arr)):
            raise InvalidTensorError("logits: non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def classes(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class ProbTensor:
    """Per-pixel class distributions, shape (height, width, classes)."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.data, np.float64, "probs")
        if arr.ndim != 3:
            raise InvalidTensorError(f"probs: expected 3 axes (H, W, K), got shape {arr.shape}")
        if arr.shape[2] < 2:
            raise InvalidTensorError(f"probs: need at least 2 classes, got {arr.shape[2]}")
        if not np.all(np.isfinite(arr)):
            raise InvalidTensorError("probs: non-finite values")
        if arr.min() < -PROB_RANGE_TOL or arr.max() > 1.0 + PROB_RANGE_TOL:
            raise InvalidTensorError("probs: entries outside [0, 1]")
        sums = arr.sum(axis=2)
        if np.abs(sums - 1.0).max() > PROB_SUM_TOL:
            raise InvalidTensorError("probs: per-pixel sums deviate from 1 beyond 1e-6")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def classes(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class LabelMap:
    """Ground-truth class indices for one image, shape (height, width)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype != np.uint16:
            # reject silent narrowing: only exact-range integer input is accepted
            cast = _as_array(arr, np.uint16, "labels")
            if arr.dtype.kind not in "ui" or not np.array_equal(cast, arr):
                raise InvalidTensorError(f"labels: expected uint16-compatible data, got {arr.dtype}")
            arr = cast
        if arr.ndim != 2:
            raise InvalidTensorError(f"labels: expected 2 axes (H, W), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidTensorError(f"labels: empty spatial extent {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ImageTensor:
    """Per-pixel input channels for one image, shape (height, width, channels)."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.data, np.float32, "image")
        if arr.ndim != 3:
            raise InvalidTensorError(f"image: expected 3 axes (H, W, C), got shape {arr.shape}")
        if arr.shape[2] < 1:
            raise InvalidTensorError("image: need at least one channel")
        if not np.all(np.isfinite(arr)):
            raise InvalidTensorError("image: non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def validate_labels(labels: LabelMap, classes: int, ignore_value: int) -> None:
    """Check that every non-ignore label is a valid class index."""
    data = labels.data
    bad = (data != ignore_value) & (data >= classes)
    if bad.any():
        worst = int(data[bad].max())
        raise InvalidTensorError(
            f"labels: value {worst} outside [0, {classes}) and not the ignore sentinel {ignore_value}"
        )


def check_same_shape(a, b, what: str) -> None:
    """Raise unless two tensors cover the same (height, width) grid."""
    if (a.height, a.width) != (b.height, b.width):
        raise InvalidTensorError(
            f"{what}: spatial shapes differ, {(a.height, a.width)} vs {(b.height, b.width)}"
        )
