"""Serialized tensor files.

Layout of a tensor file, in order:

* 8-byte magic ``RELITNSR``;
* little-endian uint32 header length;
* UTF-8 JSON header with exactly the keys ``dtype`` (``"f32"`` or ``"u16"``),
  ``layout`` (``"HWC"`` or ``"HW"``), ``height``, ``width``, ``classes``;
* raw payload: little-endian values in C order, ``height * width * classes``
  of them for layout HWC and ``height * width`` for layout HW.

The same container carries five roles, distinguished by the manifest slot
they are referenced from rather than by the file itself:

* logits   -- f32 HWC, ``classes`` = class count K >= 2;
* labels   -- u16 HW  (``classes`` records K for documentation);
* images   -- f32 HWC, ``classes`` = channel count C >= 1;
* features -- f32 HW with height 1 and width D (one row vector);
* masks    -- u16 HW with values in {0, 1} (``classes`` = 2).

Round-trips are bit-exact: writing a tensor and reading it back yields
equal arrays, and re-writing a freshly read file reproduces its bytes.
A reader parses the header first and checks the payload size against
the file size and the dtype and layout against the role it reads, then
reads the payload straight into the returned array, so a file is held in
memory once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidTensorError, TensorFormatError
from .tensors import ImageTensor, LabelMap, LogitTensor

MAGIC = b"RELITNSR"
MAX_HEADER_BYTES = 1 << 20

_DTYPES = {"f32": np.dtype("<f4"), "u16": np.dtype("<u2")}
_LAYOUTS = ("HWC", "HW")


@dataclass(frozen=True)
class TensorHeader:
    """Parsed file header plus the payload offset within the file."""

    dtype: str
    layout: str
    height: int
    width: int
    classes: int
    payload_offset: int

    @property
    def shape(self) -> tuple[int, ...]:
        if self.layout == "HWC":
            return (self.height, self.width, self.classes)
        return (self.height, self.width)

    @property
    def payload_bytes(self) -> int:
        return math.prod(self.shape) * _DTYPES[self.dtype].itemsize


def _fail(path, message: str) -> TensorFormatError:
    return TensorFormatError(f"{path}: {message}")


def _parse_header(file, size: int, path) -> TensorHeader:
    """Read and check the header of an open file of ``size`` bytes, leaving it at the payload."""
    start = len(MAGIC) + 4
    prefix = file.read(start)
    if len(prefix) < start:
        raise _fail(path, "file too short for magic and header length")
    if prefix[: len(MAGIC)] != MAGIC:
        raise _fail(path, f"bad magic {prefix[:len(MAGIC)]!r}")
    header_len = int.from_bytes(prefix[len(MAGIC) :], "little")
    if header_len > MAX_HEADER_BYTES:
        raise _fail(path, f"header length {header_len} exceeds {MAX_HEADER_BYTES}")
    body = file.read(header_len)
    if len(body) < header_len:
        raise _fail(path, "file truncated inside header")
    try:
        header = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise _fail(path, f"header is not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise _fail(path, "header is not a JSON object")
    required = {"dtype", "layout", "height", "width", "classes"}
    missing = required - header.keys()
    if missing:
        raise _fail(path, f"header missing keys {sorted(missing)}")
    extra = header.keys() - required
    if extra:
        raise _fail(path, f"header has unknown keys {sorted(extra)}")
    dtype = header["dtype"]
    layout = header["layout"]
    if dtype not in _DTYPES:
        raise _fail(path, f"unknown dtype {dtype!r}")
    if layout not in _LAYOUTS:
        raise _fail(path, f"unknown layout {layout!r}")
    dims = {}
    for key in ("height", "width", "classes"):
        value = header[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise _fail(path, f"header field {key} must be a positive integer, got {value!r}")
        dims[key] = value
    parsed = TensorHeader(
        dtype=dtype,
        layout=layout,
        height=dims["height"],
        width=dims["width"],
        classes=dims["classes"],
        payload_offset=start + header_len,
    )
    actual = size - parsed.payload_offset
    if actual != parsed.payload_bytes:
        raise _fail(path, f"payload is {actual} bytes, header implies {parsed.payload_bytes}")
    return parsed


def _read_raw(path, dtype: str, layout: str, role: str) -> np.ndarray:
    """The payload of a ``dtype`` ``layout`` file holding ``role``; any other dtype or layout is an error."""
    try:
        with open(path, "rb") as file:
            header = _parse_header(file, os.fstat(file.fileno()).st_size, path)
            if (header.dtype, header.layout) != (dtype, layout):
                raise _fail(path, f"expected {dtype} {layout} {role}, got {header.dtype} {header.layout}")
            arr = np.empty(header.shape, dtype=_DTYPES[header.dtype])
            if file.readinto(memoryview(arr).cast("B")) != header.payload_bytes:
                raise _fail(path, "file truncated inside payload")
    except OSError as exc:
        raise _fail(path, f"cannot read file ({exc})") from exc
    return arr


def _write_raw(path, arr: np.ndarray, dtype: str, layout: str, classes: int) -> None:
    header = {
        "dtype": dtype,
        "layout": layout,
        "height": int(arr.shape[0]),
        "width": int(arr.shape[1]),
        "classes": int(classes),
    }
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes()
    blob = MAGIC + len(body).to_bytes(4, "little") + body + payload
    Path(path).write_bytes(blob)


def _checked(path, tensor_type, arr: np.ndarray):
    """``tensor_type(arr)``; data that breaks the type's invariants is a format error naming the file."""
    try:
        return tensor_type(arr)
    except InvalidTensorError as exc:
        raise _fail(path, str(exc)) from exc


def read_logits(path) -> LogitTensor:
    return _checked(path, LogitTensor, _read_raw(path, "f32", "HWC", "logits"))


def read_labels(path) -> LabelMap:
    return LabelMap(_read_raw(path, "u16", "HW", "labels"))


def read_image(path) -> ImageTensor:
    return _checked(path, ImageTensor, _read_raw(path, "f32", "HWC", "image channels"))


def read_feature(path) -> np.ndarray:
    """Read a per-image feature vector (f32 HW file with a single row)."""
    arr = _read_raw(path, "f32", "HW", "feature")
    if arr.shape[0] != 1:
        raise _fail(path, f"feature file must have height 1, got {arr.shape[0]}")
    vec = arr[0].astype(np.float32)
    if not np.all(np.isfinite(vec)):
        raise _fail(path, "feature: non-finite values")
    return vec


def read_mask(path) -> np.ndarray:
    """Read a binary pixel mask (u16 HW, values 0/1) as a boolean array."""
    arr = _read_raw(path, "u16", "HW", "mask")
    if arr.max(initial=0) > 1:
        raise _fail(path, f"mask values must be 0 or 1, found {int(arr.max())}")
    return arr.astype(bool)


def write_logits(path, logits: LogitTensor) -> None:
    _write_raw(path, logits.data, "f32", "HWC", logits.classes)


def write_labels(path, labels: LabelMap, classes: int) -> None:
    _write_raw(path, labels.data, "u16", "HW", classes)


def write_image(path, image: ImageTensor) -> None:
    _write_raw(path, image.data, "f32", "HWC", image.channels)


def write_feature(path, vector: np.ndarray) -> None:
    vec = np.asarray(vector, dtype=np.float32)
    if vec.ndim != 1 or vec.shape[0] < 1:
        raise InvalidTensorError(f"feature: expected a non-empty 1-D vector, got shape {vec.shape}")
    _write_raw(path, vec.reshape(1, -1), "f32", "HW", 1)


def write_mask(path, mask: np.ndarray) -> None:
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise InvalidTensorError(f"mask: expected 2 axes, got shape {arr.shape}")
    _write_raw(path, arr.astype(np.uint16), "u16", "HW", 2)
