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
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor_io
from .errors import CalibrationError, ManifestError, read_json_object

SPLITS = ("calibration", "test")
_REQUIRED_FIELDS = ("image_id", "split", "domain", "logits", "labels")
DEFAULT_IGNORE = 255


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
_PATH_FIELDS = ("logits", "labels", "feature", "image", "ood_mask")


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
            for rel in (getattr(entry, key) for key in _PATH_FIELDS) if rel is not None
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
        for key in _PATH_FIELDS:
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


# The cross-entry checks by validate field: each entry's value must equal the first entry's.
_DISAGREEMENTS = {"width": "feature dimensions disagree across entries",
                  "channels": "image channel counts disagree across entries"}


def check_agreement(field: str, first: tuple[int, str], value: int, file: str) -> None:
    """Raise unless ``file``'s ``value`` of ``field`` equals the first entry's, ``first`` = (value, file)."""
    if value != first[0]:
        raise ManifestError(f"{_DISAGREEMENTS[field]}: {first[0]} in {first[1]}, {value} in {file}")


# The optional slots a fit or eval may require, by what their file holds.
_SLOT_NAMES = {"feature": "feature vector", "image": "image tensor"}


def require_slot(entry: ManifestEntry, slot: str) -> None:
    """Raise unless ``entry`` lists a file in ``slot`` (``feature`` or ``image``): the one wording of fit and eval."""
    if getattr(entry, slot) is None:
        raise CalibrationError(f"{entry.image_id}: entry has no {_SLOT_NAMES[slot]}")


def load_features(manifest: DatasetManifest, entries: list[ManifestEntry]) -> tuple[list[str], np.ndarray]:
    """Load per-image feature vectors for ``entries`` into one (n, D) matrix.

    Raises when an entry lacks a feature (:func:`require_slot`) or when its
    dimension differs from the first entry's.
    """
    ids, vectors = [], []
    for entry in entries:
        require_slot(entry, "feature")
        vectors.append(tensor_io.read_feature(manifest.path(entry.feature)))
        ids.append(entry.image_id)
        check_agreement("width", (vectors[0].shape[0], entries[0].feature), vectors[-1].shape[0], entry.feature)
    return ids, np.stack(vectors).astype(np.float64)
