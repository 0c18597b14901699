"""Manifest loading, validation, selection, and persistence."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relikit.errors import CalibrationError, ManifestError, TensorFormatError
from relikit.manifest import (
    SPLITS,
    DatasetManifest,
    ManifestEntry,
    load_features,
    load_manifest,
    save_manifest,
)
from relikit.tensor_io import read_logits, write_feature, write_labels, write_logits
from relikit.tensors import LabelMap, LogitTensor


def _write_pair(root, stem, classes=3, shape=(2, 2)):
    rng = np.random.default_rng(abs(hash(stem)) % (2**32))
    logits = LogitTensor(rng.normal(size=(*shape, classes)).astype(np.float32))
    labels = LabelMap(rng.integers(0, classes, size=shape).astype(np.uint16))
    write_logits(root / f"{stem}.logits.bin", logits)
    write_labels(root / f"{stem}.labels.bin", labels, classes)
    return {"logits": f"{stem}.logits.bin", "labels": f"{stem}.labels.bin"}


def _entry(root, image_id, split="test", domain="id", **extra):
    files = _write_pair(root, image_id)
    files.update({"image_id": image_id, "split": split, "domain": domain})
    files.update(extra)
    return files


def _write_manifest(root, payload):
    path = root / "manifest.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadManifest:
    def test_loads_and_sorts_entries(self, tmp_path):
        payload = {
            "classes": 3,
            "ignore_value": 255,
            "entries": [
                _entry(tmp_path, "b-test-000"),
                _entry(tmp_path, "a-test-000", split="calibration"),
            ],
        }
        manifest = load_manifest(_write_manifest(tmp_path, payload))
        assert manifest.classes == 3
        assert manifest.ignore_value == 255
        assert [e.image_id for e in manifest.entries] == ["a-test-000", "b-test-000"]
        assert manifest.root == tmp_path

    def test_resolve_relative_and_absolute(self, tmp_path):
        payload = {"classes": 2, "ignore_value": 255, "entries": [_entry(tmp_path, "x")]}
        manifest = load_manifest(_write_manifest(tmp_path, payload))
        assert manifest.resolve("x.logits.bin") == tmp_path / "x.logits.bin"
        absolute = tmp_path / "x.labels.bin"
        assert manifest.resolve(str(absolute)) == absolute

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["a", "b.bin", ".", "..", "", "~"]), min_size=1, max_size=5),
           st.sampled_from([".", "/", "//", "d", "d/e", "/d/e", "../d"]))
    def test_path_text_is_the_resolved_path_text(self, parts, root):
        # path() joins strings without a Path; pathlib drops "." parts, doubled and trailing slashes
        for rel in ("/".join(parts), "/" + "/".join(parts)):
            if rel:
                entry = ManifestEntry("x", "test", "id", rel, "m")
                manifest = DatasetManifest(classes=2, ignore_value=255, entries=(entry,), root=Path(root))
                assert manifest.path(rel) == str(Path(root) / rel) == str(manifest.resolve(rel))

    def test_read_errors_name_the_resolved_path(self, tmp_path, monkeypatch):
        # a manifest in the working directory names its files relative to it, one elsewhere by its directory
        (tmp_path / "sub").mkdir()
        payload = {"classes": 3, "ignore_value": 255,
                   "entries": [_entry(tmp_path, "x"), _entry(tmp_path, "y", labels=str(tmp_path / "y.labels.bin"))]}
        _write_manifest(tmp_path, payload)
        (tmp_path / "x.logits.bin").write_bytes(b"RELI")
        monkeypatch.chdir(tmp_path)
        for where, prefix in (("manifest.json", ""), (str(tmp_path / "manifest.json"), f"{tmp_path}/"),
                              ("./manifest.json", ""), ("sub/../manifest.json", "sub/../")):
            manifest = load_manifest(where)
            x, y = manifest.entries
            assert (manifest.path(x.logits), manifest.path(y.labels)) == (f"{prefix}x.logits.bin", f"{tmp_path}/y.labels.bin")
            with pytest.raises(TensorFormatError, match=f"^{re.escape(prefix)}x.logits.bin: file too short"):
                read_logits(manifest.path(x.logits))

    def test_select_by_split_and_domain(self, tmp_path):
        payload = {
            "classes": 2,
            "ignore_value": 255,
            "entries": [
                _entry(tmp_path, "a", split="calibration", domain="id"),
                _entry(tmp_path, "b", split="test", domain="id"),
                _entry(tmp_path, "c", split="test", domain="shift"),
            ],
        }
        manifest = load_manifest(_write_manifest(tmp_path, payload))
        assert [e.image_id for e in manifest.select(split="test")] == ["b", "c"]
        assert [e.image_id for e in manifest.select(domain="shift")] == ["c"]
        assert [e.image_id for e in manifest.select(split="test", domain="id")] == ["b"]
        assert manifest.domains() == ["id", "shift"]

    def test_missing_referenced_file(self, tmp_path):
        entry = _entry(tmp_path, "a")
        entry["logits"] = "nope.bin"
        payload = {"classes": 2, "ignore_value": 255, "entries": [entry]}
        with pytest.raises(ManifestError, match="missing logits file"):
            load_manifest(_write_manifest(tmp_path, payload))

    def test_duplicate_image_id(self, tmp_path):
        payload = {
            "classes": 2,
            "ignore_value": 255,
            "entries": [_entry(tmp_path, "a"), _entry(tmp_path, "a")],
        }
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(_write_manifest(tmp_path, payload))

    def test_bad_split(self, tmp_path):
        payload = {"classes": 2, "ignore_value": 255, "entries": [_entry(tmp_path, "a", split="train")]}
        with pytest.raises(ManifestError, match="split"):
            load_manifest(_write_manifest(tmp_path, payload))

    def test_unknown_entry_field(self, tmp_path):
        payload = {"classes": 2, "ignore_value": 255, "entries": [_entry(tmp_path, "a", extra_field="x")]}
        with pytest.raises(ManifestError, match="unknown fields"):
            load_manifest(_write_manifest(tmp_path, payload))

    def test_missing_required_entry_field(self, tmp_path):
        entry = _entry(tmp_path, "a")
        del entry["labels"]
        payload = {"classes": 2, "ignore_value": 255, "entries": [entry]}
        with pytest.raises(ManifestError, match="labels"):
            load_manifest(_write_manifest(tmp_path, payload))

    @pytest.mark.parametrize("classes", [1, 0, -2, 2.5, "3", True])
    def test_bad_classes(self, tmp_path, classes):
        payload = {"classes": classes, "ignore_value": 255, "entries": [_entry(tmp_path, "a")]}
        with pytest.raises(ManifestError):
            load_manifest(_write_manifest(tmp_path, payload))

    def test_ignore_value_must_not_collide_with_classes(self, tmp_path):
        payload = {"classes": 5, "ignore_value": 4, "entries": [_entry(tmp_path, "a")]}
        with pytest.raises(ManifestError, match="collides"):
            load_manifest(_write_manifest(tmp_path, payload))

    def test_ignore_value_must_fit_uint16(self, tmp_path):
        payload = {"classes": 2, "ignore_value": 70000, "entries": [_entry(tmp_path, "a")]}
        with pytest.raises(ManifestError, match="uint16"):
            load_manifest(_write_manifest(tmp_path, payload))

    def test_empty_entries(self, tmp_path):
        payload = {"classes": 2, "ignore_value": 255, "entries": []}
        with pytest.raises(ManifestError, match="non-empty"):
            load_manifest(_write_manifest(tmp_path, payload))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        # broken syntax, and arrays nested too deep for the parser's recursion
        for text in ("{broken", "[" * 200_000):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ManifestError, match="not valid JSON"):
                load_manifest(path)

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(tmp_path / "absent.json")


class TestSaveManifest:
    def test_round_trip(self, tmp_path):
        payload = {
            "classes": 4,
            "ignore_value": 200,
            "entries": [_entry(tmp_path, "a", split="calibration"), _entry(tmp_path, "b")],
        }
        original = load_manifest(_write_manifest(tmp_path, payload))
        out = save_manifest(original, tmp_path / "copy.json")
        reloaded = load_manifest(out)
        assert reloaded.classes == original.classes
        assert reloaded.ignore_value == original.ignore_value
        assert reloaded.entries == original.entries

    def test_optional_fields_omitted(self, tmp_path):
        entry = ManifestEntry(image_id="a", split="test", domain="id", logits="l", labels="m")
        manifest = DatasetManifest(classes=2, ignore_value=255, entries=(entry,), root=tmp_path)
        save_manifest(manifest, tmp_path / "m.json")
        raw = json.loads((tmp_path / "m.json").read_text())
        assert "feature" not in raw["entries"][0]
        assert "ood_mask" not in raw["entries"][0]

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_save_then_load_returns_the_entries(self, tmp_path, data):
        files = ("a.bin", "sub/b.bin", "c d.bin")
        for name in files:
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(b"")
        text = st.text(min_size=1, max_size=6)
        path = st.sampled_from(files)
        ids = data.draw(st.lists(text, min_size=1, max_size=5, unique=True))
        entries = tuple(sorted((
            ManifestEntry(
                image_id=image_id, split=data.draw(st.sampled_from(SPLITS)), domain=data.draw(text),
                logits=data.draw(path), labels=data.draw(path),
                # each optional slot is present or absent on its own
                feature=data.draw(st.none() | path), image=data.draw(st.none() | path),
                ood_mask=data.draw(st.none() | path),
            ) for image_id in ids), key=lambda e: e.image_id))
        manifest = DatasetManifest(classes=3, ignore_value=255, entries=entries, root=tmp_path)
        assert load_manifest(save_manifest(manifest, tmp_path / "m.json")).entries == entries


class TestLoadFeatures:
    def _manifest_with_features(self, tmp_path, dims):
        entries = []
        for i, dim in enumerate(dims):
            stem = f"img-{i}"
            files = _entry(tmp_path, stem)
            write_feature(tmp_path / f"{stem}.feature.bin", np.arange(dim, dtype=np.float32) + i)
            files["feature"] = f"{stem}.feature.bin"
            entries.append(files)
        payload = {"classes": 3, "ignore_value": 255, "entries": entries}
        return load_manifest(_write_manifest(tmp_path, payload))

    def test_stacks_vectors_in_entry_order(self, tmp_path):
        manifest = self._manifest_with_features(tmp_path, [3, 3])
        ids, matrix = load_features(manifest, list(manifest.entries))
        assert ids == ["img-0", "img-1"]
        assert matrix.shape == (2, 3)
        assert matrix.dtype == np.float64
        np.testing.assert_array_equal(matrix[1], [1.0, 2.0, 3.0])

    def test_dimension_mismatch(self, tmp_path):
        manifest = self._manifest_with_features(tmp_path, [3, 4])
        with pytest.raises(ManifestError, match="dimensions disagree"):
            load_features(manifest, list(manifest.entries))

    def test_missing_feature_slot(self, tmp_path):
        payload = {"classes": 2, "ignore_value": 255, "entries": [_entry(tmp_path, "a")]}
        manifest = load_manifest(_write_manifest(tmp_path, payload))
        # the wording and class of load_entry's check, which eval reaches
        with pytest.raises(CalibrationError, match="^a: entry has no feature vector$"):
            load_features(manifest, list(manifest.entries))
