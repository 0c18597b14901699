"""Construction-time validation of the core tensor wrappers."""

import numpy as np
import pytest

from relikit.errors import InvalidTensorError
from relikit.tensors import (
    ImageTensor,
    LabelMap,
    LogitTensor,
    ProbTensor,
    check_same_shape,
    validate_labels,
)


class TestLogitTensor:
    def test_accepts_well_formed_input(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(4, 6, 3)).astype(np.float32)
        t = LogitTensor(arr)
        assert t.height == 4 and t.width == 6 and t.classes == 3
        assert t.data.dtype == np.float32
        np.testing.assert_array_equal(t.data, arr)

    def test_upcasts_float64_input(self):
        t = LogitTensor(np.zeros((2, 2, 2), dtype=np.float64))
        assert t.data.dtype == np.float32

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidTensorError):
            LogitTensor(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(InvalidTensorError):
            LogitTensor(np.zeros((2, 2, 2, 2), dtype=np.float32))

    def test_rejects_single_class(self):
        with pytest.raises(InvalidTensorError):
            LogitTensor(np.zeros((3, 3, 1), dtype=np.float32))

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidTensorError):
            LogitTensor(np.zeros((0, 3, 2), dtype=np.float32))

    def test_rejects_non_finite(self):
        arr = np.zeros((2, 2, 2), dtype=np.float32)
        arr[1, 1, 0] = np.nan
        with pytest.raises(InvalidTensorError):
            LogitTensor(arr)
        arr[1, 1, 0] = np.inf
        with pytest.raises(InvalidTensorError):
            LogitTensor(arr)


class TestProbTensor:
    def test_accepts_normalized_rows(self):
        rng = np.random.default_rng(1)
        raw = rng.random((3, 5, 4))
        probs = raw / raw.sum(axis=2, keepdims=True)
        t = ProbTensor(probs)
        assert t.data.dtype == np.float64
        assert t.classes == 4

    def test_rejects_rows_off_by_more_than_tolerance(self):
        probs = np.full((2, 2, 2), 0.5)
        probs[0, 0] = [0.5, 0.5 + 2e-6]
        with pytest.raises(InvalidTensorError):
            ProbTensor(probs)

    def test_accepts_rows_within_tolerance(self):
        probs = np.full((2, 2, 2), 0.5)
        probs[0, 0] = [0.5, 0.5 + 5e-7]
        ProbTensor(probs)

    def test_rejects_negative_entries(self):
        probs = np.array([[[1.2, -0.2]]])
        with pytest.raises(InvalidTensorError):
            ProbTensor(probs)


class TestLabelMap:
    def test_accepts_uint16(self):
        t = LabelMap(np.array([[0, 1], [255, 3]], dtype=np.uint16))
        assert t.height == 2 and t.width == 2

    def test_accepts_exact_range_integers(self):
        t = LabelMap(np.array([[0, 65535]], dtype=np.int64))
        assert t.data.dtype == np.uint16

    def test_rejects_narrowing(self):
        with pytest.raises(InvalidTensorError):
            LabelMap(np.array([[0, 70000]], dtype=np.int64))
        with pytest.raises(InvalidTensorError):
            LabelMap(np.array([[-1, 0]], dtype=np.int64))

    def test_rejects_float_input(self):
        with pytest.raises(InvalidTensorError):
            LabelMap(np.array([[0.0, 1.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidTensorError):
            LabelMap(np.zeros((2, 2, 2), dtype=np.uint16))


class TestImageTensor:
    def test_accepts_single_channel(self):
        t = ImageTensor(np.zeros((2, 3, 1), dtype=np.float32))
        assert t.channels == 1

    def test_rejects_non_finite(self):
        arr = np.zeros((2, 2, 3), dtype=np.float32)
        arr[0, 0, 2] = -np.inf
        with pytest.raises(InvalidTensorError):
            ImageTensor(arr)


class TestValidateLabels:
    def test_ignore_sentinel_is_exempt(self):
        labels = LabelMap(np.array([[0, 4, 255]], dtype=np.uint16))
        validate_labels(labels, classes=5, ignore_value=255)

    def test_out_of_range_label_raises(self):
        labels = LabelMap(np.array([[0, 5]], dtype=np.uint16))
        with pytest.raises(InvalidTensorError):
            validate_labels(labels, classes=5, ignore_value=255)

    def test_randomized_in_range_maps_pass(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            classes = int(rng.integers(2, 12))
            labels = rng.integers(0, classes, size=(8, 8)).astype(np.uint16)
            labels[rng.random((8, 8)) < 0.1] = 255
            validate_labels(LabelMap(labels), classes=classes, ignore_value=255)


class TestCheckSameShape:
    def test_matching_grids_pass(self):
        a = LogitTensor(np.zeros((3, 4, 2), dtype=np.float32))
        b = LabelMap(np.zeros((3, 4), dtype=np.uint16))
        check_same_shape(a, b, "logits vs labels")

    def test_mismatch_raises(self):
        a = LogitTensor(np.zeros((3, 4, 2), dtype=np.float32))
        b = LabelMap(np.zeros((4, 3), dtype=np.uint16))
        with pytest.raises(InvalidTensorError):
            check_same_shape(a, b, "logits vs labels")
