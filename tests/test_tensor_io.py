"""Binary tensor container: header parsing, role readers, round trips."""

import json

import numpy as np
import pytest

from relikit.errors import InvalidTensorError, TensorFormatError
from relikit.tensor_io import (
    MAGIC,
    read_feature,
    read_image,
    read_labels,
    read_logits,
    read_mask,
    write_feature,
    write_image,
    write_labels,
    write_logits,
    write_mask,
)
from relikit.tensors import ImageTensor, LabelMap, LogitTensor


def _blob(header: dict, payload: bytes) -> bytes:
    body = json.dumps(header).encode("utf-8")
    return MAGIC + len(body).to_bytes(4, "little") + body + payload


def _valid_header(**overrides) -> dict:
    header = {"dtype": "u16", "layout": "HW", "height": 1, "width": 2, "classes": 2}
    header.update(overrides)
    return header


class TestHeaderParsing:
    """Every reader parses its header the same way; labels and logits stand for them all."""

    def test_parses_minimal_file(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(_blob(_valid_header(), b"\x00\x00\x01\x00"))
        labels = read_labels(path)
        assert labels.data.dtype == np.uint16
        assert labels.data.tolist() == [[0, 1]]

    def test_hwc_value_count_includes_classes(self, tmp_path):
        path = tmp_path / "t.bin"
        header = _valid_header(dtype="f32", layout="HWC", height=2, width=3, classes=4)
        path.write_bytes(_blob(header, bytes(4 * 2 * 3 * 4)))
        assert read_logits(path).data.shape == (2, 3, 4)
        path.write_bytes(_blob(header, bytes(4 * 2 * 3)))  # the HW value count is too short
        with pytest.raises(TensorFormatError):
            read_logits(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TensorFormatError):
            read_labels(tmp_path / "absent.bin")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        blob = _blob(_valid_header(), b"\x00\x00\x01\x00")
        path.write_bytes(b"NOTMAGIC" + blob[8:])
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_too_short_for_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"RELITN")
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.bin"
        blob = _blob(_valid_header(), b"\x00\x00\x01\x00")
        path.write_bytes(blob[: len(MAGIC) + 4 + 5])
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_oversized_header_length(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(MAGIC + ((1 << 20) + 1).to_bytes(4, "little") + b"{}")
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "t.bin"
        body = b"not json at all"
        path.write_bytes(MAGIC + len(body).to_bytes(4, "little") + body)
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_header_not_object(self, tmp_path):
        path = tmp_path / "t.bin"
        body = b"[1, 2]"
        path.write_bytes(MAGIC + len(body).to_bytes(4, "little") + body)
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "t.bin"
        header = _valid_header()
        del header["classes"]
        path.write_bytes(_blob(header, b"\x00\x00\x01\x00"))
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(_blob(_valid_header(comment="hi"), b"\x00\x00\x01\x00"))
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_unknown_dtype(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(_blob(_valid_header(dtype="f64"), b"\x00" * 16))
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_unknown_layout(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(_blob(_valid_header(layout="CHW"), b"\x00\x00\x01\x00"))
        with pytest.raises(TensorFormatError):
            read_labels(path)

    @pytest.mark.parametrize("bad", [0, -3, 2.0, "2", True, None])
    def test_non_positive_or_non_int_dims(self, tmp_path, bad):
        path = tmp_path / "t.bin"
        path.write_bytes(_blob(_valid_header(width=bad), b"\x00\x00\x01\x00"))
        with pytest.raises(TensorFormatError):
            read_labels(path)

    def test_payload_size_must_match_exactly(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(_blob(_valid_header(), b"\x00\x00\x01"))
        with pytest.raises(TensorFormatError):
            read_labels(path)
        path.write_bytes(_blob(_valid_header(), b"\x00\x00\x01\x00\x00"))
        with pytest.raises(TensorFormatError):
            read_labels(path)


class TestRoundTrips:
    def test_logits_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "logits.bin"
        for _ in range(10):
            h, w, k = (int(rng.integers(1, 9)) for _ in range(3))
            k = max(k, 2)
            original = LogitTensor(rng.normal(size=(h, w, k)).astype(np.float32))
            write_logits(path, original)
            loaded = read_logits(path)
            np.testing.assert_array_equal(loaded.data, original.data)
            assert loaded.data.dtype == np.float32

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.bin"
        labels = LabelMap(np.array([[0, 1, 255], [4, 4, 0]], dtype=np.uint16))
        write_labels(path, labels, classes=5)
        loaded = read_labels(path)
        np.testing.assert_array_equal(loaded.data, labels.data)

    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "image.bin"
        image = ImageTensor(rng.normal(size=(5, 4, 6)).astype(np.float32))
        write_image(path, image)
        np.testing.assert_array_equal(read_image(path).data, image.data)

    def test_feature_round_trip(self, tmp_path):
        path = tmp_path / "feature.bin"
        vec = np.array([0.25, -7.5, 3.0], dtype=np.float32)
        write_feature(path, vec)
        np.testing.assert_array_equal(read_feature(path), vec)

    def test_mask_round_trip(self, tmp_path):
        path = tmp_path / "mask.bin"
        mask = np.array([[True, False], [False, True]])
        write_mask(path, mask)
        loaded = read_mask(path)
        assert loaded.dtype == bool
        np.testing.assert_array_equal(loaded, mask)

    def test_rewrite_reproduces_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        write_logits(first, LogitTensor(rng.normal(size=(3, 4, 5)).astype(np.float32)))
        write_logits(second, read_logits(first))
        assert first.read_bytes() == second.read_bytes()


class TestRoleReaders:
    def test_logits_reader_rejects_label_file(self, tmp_path):
        path = tmp_path / "labels.bin"
        write_labels(path, LabelMap(np.zeros((2, 2), dtype=np.uint16)), classes=3)
        with pytest.raises(TensorFormatError):
            read_logits(path)

    def test_logits_reader_rejects_single_class_payload(self, tmp_path):
        path = tmp_path / "t.bin"
        payload = bytes(2 * 2 * 1 * 4)
        path.write_bytes(_blob(_valid_header(dtype="f32", layout="HWC", height=2, width=2, classes=1), payload))
        with pytest.raises(TensorFormatError):
            read_logits(path)

    def test_logits_reader_rejects_non_finite_payload(self, tmp_path):
        path = tmp_path / "t.bin"
        arr = np.full((1, 1, 2), np.nan, dtype="<f4")
        path.write_bytes(_blob(_valid_header(dtype="f32", layout="HWC", height=1, width=1, classes=2), arr.tobytes()))
        with pytest.raises(TensorFormatError):
            read_logits(path)

    def test_feature_requires_single_row(self, tmp_path):
        path = tmp_path / "t.bin"
        arr = np.zeros((2, 3), dtype="<f4")
        path.write_bytes(_blob(_valid_header(dtype="f32", layout="HW", height=2, width=3, classes=1), arr.tobytes()))
        with pytest.raises(TensorFormatError):
            read_feature(path)

    def test_feature_rejects_u16(self, tmp_path):
        path = tmp_path / "labels.bin"
        write_labels(path, LabelMap(np.zeros((1, 3), dtype=np.uint16)), classes=2)
        with pytest.raises(TensorFormatError):
            read_feature(path)

    def test_mask_rejects_values_above_one(self, tmp_path):
        path = tmp_path / "t.bin"
        arr = np.array([[0, 2]], dtype="<u2")
        path.write_bytes(_blob(_valid_header(dtype="u16", layout="HW", height=1, width=2, classes=2), arr.tobytes()))
        with pytest.raises(TensorFormatError):
            read_mask(path)

    def test_write_feature_rejects_matrix(self, tmp_path):
        with pytest.raises(InvalidTensorError):
            write_feature(tmp_path / "f.bin", np.zeros((2, 2), dtype=np.float32))

    def test_write_mask_rejects_vector(self, tmp_path):
        with pytest.raises(InvalidTensorError):
            write_mask(tmp_path / "m.bin", np.zeros(4, dtype=np.uint16))


def _source_arrays():
    """(name, array) pairs in every memory layout and byte order a writer may be handed."""
    rng = np.random.default_rng(26)
    hwc = rng.normal(size=(3, 4, 5)).astype(np.float32)
    hw = rng.integers(0, 300, size=(3, 4)).astype(np.uint16)
    return [
        ("hwc C order", hwc),
        ("hwc Fortran order", np.asfortranarray(hwc)),
        ("hwc transposed view", np.ascontiguousarray(hwc.transpose(2, 1, 0)).transpose(2, 1, 0)),
        ("hwc strided slice", np.concatenate([hwc, hwc], axis=1)[:, ::2]),
        ("hwc big-endian", hwc.astype(">f4")),
        ("hwc float64", hwc.astype(np.float64)),
        ("hw C order", hw),
        ("hw Fortran order", np.asfortranarray(hw)),
        ("hw big-endian", hw.astype(">u2")),
        ("hw int64", hw.astype(np.int64)),
        ("hw bool", hw > 150),
        ("hw strided slice", np.concatenate([hw, hw], axis=1)[:, ::2]),
    ]


class TestWritePayload:
    """A writer writes the header and then the array's own buffer: the bytes of ``tobytes()``, for every
    dtype, layout, memory order and source dtype."""

    @pytest.mark.parametrize("dtype", ["f32", "u16"])
    @pytest.mark.parametrize("name, arr", _source_arrays(), ids=[name for name, _ in _source_arrays()])
    def test_bytes_are_header_then_tobytes(self, tmp_path, dtype, name, arr):
        from relikit.tensor_io import _write_raw

        layout = "HWC" if arr.ndim == 3 else "HW"
        path = tmp_path / "t.bin"
        _write_raw(path, arr, dtype, layout, 7)
        header = {"classes": 7, "dtype": dtype, "height": arr.shape[0], "layout": layout, "width": arr.shape[1]}
        payload = arr.astype("<f4" if dtype == "f32" else "<u2").tobytes()
        assert path.read_bytes() == _blob(header, payload)

    def test_role_writers_write_tobytes(self, tmp_path):
        rng = np.random.default_rng(27)
        logits = np.asfortranarray(rng.normal(size=(4, 3, 2)).astype(np.float32))
        labels = rng.integers(0, 2, size=(4, 3)).astype(np.uint16)
        image = rng.normal(size=(4, 3, 5)).astype(">f4")
        feature = rng.normal(size=6)
        mask = labels == 1
        cases = [
            (write_logits, (LogitTensor(logits),), "f32", "HWC", 2, logits),
            (write_labels, (LabelMap(labels), 2), "u16", "HW", 2, labels),
            (write_image, (ImageTensor(image),), "f32", "HWC", 5, image),
            (write_feature, (feature,), "f32", "HW", 1, feature.reshape(1, -1)),
            (write_mask, (mask,), "u16", "HW", 2, mask),
        ]
        for write, args, dtype, layout, classes, arr in cases:
            path = tmp_path / f"{write.__name__}.bin"
            write(path, *args)
            header = {"classes": classes, "dtype": dtype, "height": arr.shape[0], "layout": layout,
                      "width": arr.shape[1]}
            payload = arr.astype("<f4" if dtype == "f32" else "<u2").tobytes()
            assert path.read_bytes() == _blob(header, payload), write.__name__
