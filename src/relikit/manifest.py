"""Dataset manifests.

A manifest is a JSON file that binds tensor files into a dataset:

.. code-block:: json

    {
      "classes": 5,
      "ignore_value": 255,
      "entries": [
        {
          "image_id": "id-cal-000",
          "split": "calibration",
          "domain": "id",
          "logits": "data/id-cal-000.logits.bin",
          "labels": "data/id-cal-000.labels.bin",
          "feature": "data/id-cal-000.feature.bin",
          "image": "data/id-cal-000.image.bin",
          "ood_mask": "data/id-cal-000.mask.bin"
        }
      ]
    }

An entry's keys are the fields of :class:`ManifestEntry`, and each value
is a non-empty string. ``logits`` and ``labels`` are required per entry;
``feature`` (per-image descriptor for cluster calibration), ``image``
(per-pixel channels for the temperature regressor) and ``ood_mask``
(unknown-class pixels) are optional, and :func:`save_manifest` writes only
those an entry has. Relative paths are resolved against the manifest's
directory; :meth:`DatasetManifest.path` gives each entry path's resolved
text, computed once when the manifest is built. ``split`` is
``calibration`` or ``test``. ``ignore_value`` labels pixels excluded from
every metric and fit; it must not collide with a class index. Entries are sorted by ``image_id`` at load so downstream results do
not depend on the order they were listed in.

The read path that ``validate``, ``fit`` and ``eval`` share lives here
too. :func:`check_entry` reads an entry's tensors through
:data:`_READERS` and yields each violation of the checks, each written
once: ``validate`` lists them all, :func:`load_entry` and
:func:`load_features` raise the first. :func:`load_batches` stacks runs
of loaded same-grid entries into batches of at most :data:`BATCH_PIXELS`
pixels. Every read runs on the calling thread.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import tensor_io
from .errors import (CalibrationError, InvalidTensorError, ManifestError, RelikitError, TensorFormatError,
                     read_json_object)
from .rng import subsample_indices
from .tensors import ImageTensor, LabelMap, LogitTensor, check_same_shape, validate_labels

SPLITS = ("calibration", "test")
_REQUIRED_FIELDS = ("image_id", "split", "domain", "logits", "labels")
DEFAULT_IGNORE = 255
# Pixels per batch of same-grid entries: a 128 x 256 image fills one on its own.
BATCH_PIXELS = 1 << 15


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    split: str
    domain: str
    logits: str
    labels: str
    feature: str | None = None
    image: str | None = None
    ood_mask: str | None = None


_FIELD_NAMES = tuple(f.name for f in fields(ManifestEntry))
_FIELD_SET = frozenset(_FIELD_NAMES)
# Each path slot's reader in tensor_io, in the order check_entry reads and checks the slots.
_READERS = {"logits": "read_logits", "labels": "read_labels", "feature": "read_feature",
            "image": "read_image", "ood_mask": "read_mask"}


def _joined(root: str, relpath: str) -> str:
    """``str(Path(root) / relpath)`` for ``root`` the text of a Path; builds no Path for a plain relative path."""
    if (os.sep != "/" or root.endswith("/") or relpath.startswith("/") or relpath.endswith("/")
            or "//" in relpath or "/./" in f"/{relpath}/"):
        return str(Path(root) / relpath)  # pathlib normalizes these; keep its text
    return relpath if root == "." else f"{root}/{relpath}"


@dataclass(frozen=True)
class DatasetManifest:
    classes: int
    ignore_value: int
    entries: tuple[ManifestEntry, ...]
    root: Path = field(default_factory=Path)
    _paths: dict = field(init=False, repr=False, compare=False)  # entry path -> resolved text

    def __post_init__(self):
        root = str(self.root)
        object.__setattr__(self, "_paths", {
            rel: _joined(root, rel) for entry in self.entries
            for rel in (getattr(entry, key) for key in _READERS) if rel is not None
        })

    def path(self, relpath: str) -> str:
        """The text of :meth:`resolve`; an entry's paths are looked up, not joined again."""
        text = self._paths.get(relpath)
        return _joined(str(self.root), relpath) if text is None else text

    def resolve(self, relpath: str) -> Path:
        return Path(self.path(relpath))

    def select(self, split: str | None = None, domain: str | None = None) -> list[ManifestEntry]:
        out = []
        for entry in self.entries:
            if split is not None and entry.split != split:
                continue
            if domain is not None and entry.domain != domain:
                continue
            out.append(entry)
        return out

    def domains(self) -> list[str]:
        return sorted({entry.domain for entry in self.entries})


def _require(condition: bool, message: str):
    if not condition:
        raise ManifestError(message)


def _parse_entry(raw: dict, index: int) -> ManifestEntry:
    """The entry ``raw``, the ``index``-th of its manifest; a message is formatted only for a failed check."""
    if not isinstance(raw, dict):
        raise ManifestError(f"entry {index}: not a JSON object")
    for key in _REQUIRED_FIELDS:
        if key not in raw:
            raise ManifestError(f"entry {index}: missing required field {key!r}")
    unknown = raw.keys() - _FIELD_SET
    if unknown:
        raise ManifestError(f"entry {index}: unknown fields {sorted(unknown)}")
    for key in _FIELD_NAMES:
        if key in raw and not (isinstance(raw[key], str) and raw[key]):
            raise ManifestError(f"entry {index}: field {key!r} must be a non-empty string")
    if raw["split"] not in SPLITS:
        raise ManifestError(f"entry {index}: split must be one of {SPLITS}, got {raw['split']!r}")
    return ManifestEntry(**raw)


def load_manifest(path) -> DatasetManifest:
    """Load and validate a manifest, checking referenced files exist."""
    path = Path(path)
    raw = read_json_object(path, ManifestError, "manifest")
    for key in ("classes", "ignore_value", "entries"):
        _require(key in raw, f"{path}: missing top-level field {key!r}")
    classes = raw["classes"]
    ignore_value = raw["ignore_value"]
    _require(isinstance(classes, int) and not isinstance(classes, bool) and classes >= 2,
             f"{path}: classes must be an integer >= 2, got {classes!r}")
    _require(isinstance(ignore_value, int) and not isinstance(ignore_value, bool),
             f"{path}: ignore_value must be an integer, got {ignore_value!r}")
    _require(0 <= ignore_value <= np.iinfo(np.uint16).max,
             f"{path}: ignore_value must fit in uint16, got {ignore_value}")
    _require(ignore_value >= classes,
             f"{path}: ignore_value {ignore_value} collides with class indices [0, {classes})")
    _require(isinstance(raw["entries"], list) and raw["entries"],
             f"{path}: entries must be a non-empty list")
    entries = [_parse_entry(item, i) for i, item in enumerate(raw["entries"])]
    seen: set[str] = set()
    for entry in entries:
        if entry.image_id in seen:
            raise ManifestError(f"{path}: duplicate image_id {entry.image_id!r}")
        seen.add(entry.image_id)
    manifest = DatasetManifest(
        classes=classes,
        ignore_value=ignore_value,
        entries=tuple(sorted(entries, key=lambda e: e.image_id)),
        root=path.parent,
    )
    for entry in manifest.entries:
        for key in _READERS:
            rel = getattr(entry, key)
            # os.path.isfile is False, not an exception, on a name the OS refuses
            if rel is not None and not os.path.isfile(manifest.path(rel)):
                raise ManifestError(f"{path}: entry {entry.image_id!r} references missing {key} file {rel!r}")
    return manifest


def save_manifest(manifest: DatasetManifest, path) -> Path:
    """Write a manifest as JSON; entry paths are stored as given."""
    path = Path(path)
    payload = {
        "classes": manifest.classes,
        "ignore_value": manifest.ignore_value,
        "entries": [{key: value for key, value in asdict(entry).items() if value is not None}
                    for entry in manifest.entries],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class LoadedEntry:
    """One entry's checked tensors and its drawn pixels.

    ``valid`` lists the flat indices of the non-ignored pixels and ``rows``
    those drawn from them; a tensor that was not asked for is None.
    """

    entry: ManifestEntry
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


def _failures(file: str, field: str, check, *args) -> Iterator[tuple[str, str, RelikitError]]:
    """``(file, field, error)`` if ``check(*args)`` raises ``error``, else nothing."""
    try:
        check(*args)
    except RelikitError as exc:
        yield file, field, exc


def check_entry(manifest: DatasetManifest, entry: ManifestEntry, read: dict, seen: dict,
                slots=frozenset(_READERS)) -> Iterator[tuple[str, str, RelikitError]]:
    """Read each tensor ``entry`` lists among ``slots`` into ``read``; yield each failed check.

    A failed check is ``(file, field, error)``, in one fixed order: each
    file's ``format``, the logits' ``classes``, the labels' ``shape`` and
    ``values``, the feature ``width``, the image's ``shape`` and
    ``channels``, the mask's ``shape``. ``seen`` records the first width and
    channel count, as (value, file), for the checks across entries, which
    name that first file.
    """
    where = entry.image_id
    for slot, reader in _READERS.items():
        file = getattr(entry, slot)
        if slot not in slots or file is None:
            continue
        try:
            tensor = read[slot] = getattr(tensor_io, reader)(manifest.path(file))
        except (TensorFormatError, InvalidTensorError) as exc:
            yield file, "format", exc
            continue
        logits = read.get("logits")
        if slot == "logits" and tensor.classes != manifest.classes:
            yield file, "classes", ManifestError(
                f"{where}: logits carry {tensor.classes} classes, manifest says {manifest.classes}")
        if slot in ("labels", "image") and logits is not None:
            yield from _failures(file, "shape", check_same_shape, logits, tensor, f"{where}: logits vs {slot}")
        if slot == "labels":
            yield from _failures(file, "values", validate_labels, tensor, manifest.classes, manifest.ignore_value)
        if slot in ("feature", "image"):
            field, value, what = (("width", tensor.shape[0], "feature dimensions") if slot == "feature"
                                  else ("channels", tensor.channels, "image channel counts"))
            first = seen.setdefault(field, (value, file))
            if value != first[0]:
                yield first[1], field, ManifestError(
                    f"{what} disagree across entries: {first[0]} in {first[1]}, {value} in {file}")
        if slot == "ood_mask" and logits is not None and tensor.shape != (logits.height, logits.width):
            yield file, "shape", ManifestError(f"{where}: ood mask shape {tensor.shape} does not match image")


def _checked_read(manifest: DatasetManifest, entry: ManifestEntry, slots, seen: dict) -> dict:
    """The tensors ``entry`` lists among ``slots``, read by :func:`check_entry`, whose first violation is raised.

    An image or a feature among ``slots`` must be listed: the one wording
    of fit and eval for a missing slot.
    """
    for slot, holds in (("image", "image tensor"), ("feature", "feature vector")):
        if slot in slots and getattr(entry, slot) is None:
            raise CalibrationError(f"{entry.image_id}: entry has no {holds}")
    read: dict = {}
    for _, _, error in check_entry(manifest, entry, read, seen, slots):
        raise error
    return read


def load_entry(manifest: DatasetManifest, entry: ManifestEntry, *,
               pixels_per_image: int | None, seed: int,
               image: bool = False, feature: bool = False, mask: bool = False,
               seen: dict | None = None) -> LoadedEntry:
    """Read and check one entry's logits and labels and draw its pixels: one step of :func:`load_batches`.

    The first violation :func:`check_entry` yields is raised; ``seen`` is
    its cross-entry record, kept by the caller from entry to entry. The
    draw uses the ``(seed, image_id)`` stream of record extraction, so
    fitting and evaluation see identical pixels. The image and the feature
    are read only when asked for, and the entry must then list them; the
    OOD mask is read when asked for and listed.
    """
    slots = {"logits", "labels"} | {slot for slot, asked in (("feature", feature), ("image", image),
                                                             ("ood_mask", mask)) if asked}
    read = _checked_read(manifest, entry, slots, {} if seen is None else seen)
    labels = read["labels"]
    valid = np.flatnonzero(labels.data.reshape(-1) != manifest.ignore_value)
    rows = valid[subsample_indices(valid.size, pixels_per_image, seed, f"pixels:{entry.image_id}")]
    return LoadedEntry(entry, read["logits"], labels, valid, rows,
                       read.get("image"), read.get("feature"), read.get("ood_mask"))


def load_features(manifest: DatasetManifest, entries: list[ManifestEntry]) -> tuple[list[str], np.ndarray]:
    """Load per-image feature vectors for ``entries`` into one (n, D) matrix.

    Each entry must list a feature, read and checked by :func:`check_entry`
    with one cross-entry record, so a dimension that differs from the
    first entry's raises.
    """
    seen: dict = {}
    vectors = [_checked_read(manifest, entry, {"feature"}, seen)["feature"] for entry in entries]
    return [entry.image_id for entry in entries], np.stack(vectors).astype(np.float64)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack(arrays)``; a single array becomes a view with a leading axis of 1, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


@dataclass(frozen=True)
class EntryBatch:
    """Consecutive loaded entries of one (H, W) grid, their tensors stacked on first use.

    ``logits`` is (B, H, W, K) float32 and ``labels`` (B, H, W) uint16.
    ``rows`` holds every entry's drawn pixels, entry by entry and each in
    pixel order, as flat indices into the batch's B * H * W pixels; entry
    i's are ``rows[bounds[i]:bounds[i + 1]]``.
    """

    loaded: tuple[LoadedEntry, ...]

    @cached_property
    def logits(self) -> np.ndarray:
        return _stack([one.logits.data for one in self.loaded])

    @cached_property
    def labels(self) -> np.ndarray:
        return _stack([one.labels.data for one in self.loaded])

    @cached_property
    def rows(self) -> np.ndarray:
        pixels = self.loaded[0].labels.data.size
        return np.concatenate([one.rows + i * pixels for i, one in enumerate(self.loaded)])

    @cached_property
    def bounds(self) -> np.ndarray:
        return np.cumsum([0] + [one.rows.size for one in self.loaded])

    def drawn(self, per_pixel: np.ndarray) -> np.ndarray:
        """The drawn pixels of a (B, H, W) or (B, H, W, C) array, entry by entry."""
        return per_pixel.reshape(-1, *per_pixel.shape[3:])[self.rows]


def load_batches(manifest: DatasetManifest, entries: list[ManifestEntry], *,
                 pixels_per_image: int | None, seed: int,
                 image: bool = False, feature: bool = False, mask: bool = False) -> Iterator[EntryBatch]:
    """The entries, each loaded by :func:`load_entry` in order, as batches for fit and eval.

    A batch is a run of consecutive entries of one (H, W) grid holding at
    most :data:`BATCH_PIXELS` pixels, or a single larger entry. Entries are
    read as the batches are taken, so the reader holds one batch and the
    entry that starts the next; it keeps no reference to a batch it has
    yielded. All entries share one cross-entry record.
    """
    run: list[LoadedEntry] = []
    seen: dict = {}
    for entry in entries:
        one = load_entry(manifest, entry, pixels_per_image=pixels_per_image, seed=seed,
                         image=image, feature=feature, mask=mask, seen=seen)
        if run and (one.labels.data.shape != run[0].labels.data.shape
                    or (len(run) + 1) * one.labels.data.size > BATCH_PIXELS):
            yield EntryBatch(_drain(run))
        run.append(one)
    if run:
        del one  # the batch's last entry
        yield EntryBatch(_drain(run))


def _drain(run: list) -> tuple:
    """The items of ``run`` as a tuple, leaving ``run`` empty: the caller then holds them alone."""
    items = tuple(run)
    run.clear()
    return items
