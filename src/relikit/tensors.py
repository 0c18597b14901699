"""Core tensor types.

Thin dataclass wrappers around numpy arrays that validate the structural
invariants once, at construction, so downstream code can rely on them;
every grid has at least one pixel:

* :class:`LogitTensor`  -- raw per-pixel class scores, (H, W, K) float32, K >= 2, finite.
* :class:`LabelMap`     -- per-pixel class indices, (H, W) uint16. Values are
  checked against a class count and ignore sentinel via :func:`validate_labels`
  because the map itself does not know either.
* :class:`ImageTensor`  -- per-pixel input channels, (H, W, C) float32, C >= 1, finite.
* :class:`TemperatureMap` -- per-pixel temperatures, (H, W) or a (B, H, W) stack, float64, finite and > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, InvalidTensorError


def _as_array(data, dtype, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidTensorError(f"{name}: cannot interpret data as {dtype}") from exc
    return arr


def _float_grid(data, name: str, axes: str, least: int, too_few: str) -> np.ndarray:
    """``data`` as a finite float32 (H, W, C) grid of at least one pixel and ``least`` channels."""
    arr = _as_array(data, np.float32, name)
    if arr.ndim != 3:
        raise InvalidTensorError(f"{name}: expected 3 axes {axes}, got shape {arr.shape}")
    if arr.shape[2] < least:
        raise InvalidTensorError(f"{name}: " + too_few.format(arr.shape[2]))
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidTensorError(f"{name}: empty spatial extent {arr.shape[:2]}")
    if not np.all(np.isfinite(arr)):
        raise InvalidTensorError(f"{name}: non-finite values")
    return arr


class _Grid:
    """A per-pixel array whose first two axes are the (height, width) grid."""

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LogitTensor(_Grid):
    """Raw class scores for one image, shape (height, width, classes)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _float_grid(self.data, "logits", "(H, W, K)", 2,
                                                     "need at least 2 classes, got {}"))

    @property
    def classes(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class LabelMap(_Grid):
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


@dataclass(frozen=True)
class ImageTensor(_Grid):
    """Per-pixel input channels for one image, shape (height, width, channels)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _float_grid(self.data, "image", "(H, W, C)", 1,
                                                     "need at least one channel"))

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class TemperatureMap:
    """Per-pixel temperatures of one image (H, W) or a stack of images (B, H, W), float64, strictly positive."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise CalibrationError(f"temperature map must be (H, W) or (B, H, W), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or arr.min() <= 0.0:
            raise CalibrationError("temperature map must be finite and strictly positive")
        object.__setattr__(self, "values", arr)


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
