"""Softmax, confidence maps, and record extraction."""

import numpy as np
import pytest

from relikit.calibration import apply_temperature
from relikit.confidence import (
    ConfidenceScore,
    RecordSet,
    confidence_map,
    extract_records,
)
from relikit.errors import InvalidTensorError, MetricError
from relikit.rng import subsample_indices
from relikit.tensors import LabelMap, LogitTensor, ProbTensor


class TestSoftmax:
    def test_two_class_closed_form(self):
        # softmax([1, 0]) = (e / (e + 1), 1 / (e + 1))
        logits = LogitTensor(np.array([[[1.0, 0.0]]], dtype=np.float32))
        p = apply_temperature(logits, 1.0).data[0, 0]
        e = np.exp(1.0)
        assert abs(p[0] - e / (e + 1.0)) < 1e-12
        assert abs(p[1] - 1.0 / (e + 1.0)) < 1e-12

    def test_equal_logits_are_uniform(self):
        logits = LogitTensor(np.full((2, 2, 4), 3.5, dtype=np.float32))
        np.testing.assert_allclose(apply_temperature(logits, 1.0).data, 0.25, atol=1e-15)

    def test_shift_invariance(self):
        # quarter-integer logits so the float32 shift is exact
        rng = np.random.default_rng(10)
        raw = (rng.integers(-32, 33, size=(3, 3, 5)) / 4.0).astype(np.float32)
        shifted = raw + np.float32(7.25)
        np.testing.assert_allclose(
            apply_temperature(LogitTensor(raw), 1.0).data, apply_temperature(LogitTensor(shifted), 1.0).data, atol=1e-12
        )

    def test_large_logits_do_not_overflow(self):
        logits = LogitTensor(np.array([[[500.0, -500.0]]], dtype=np.float32))
        p = apply_temperature(logits, 1.0).data[0, 0]
        assert p[0] == pytest.approx(1.0)
        assert np.isfinite(p).all()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            logits = LogitTensor(rng.normal(scale=4.0, size=(4, 4, k)).astype(np.float32))
            sums = apply_temperature(logits, 1.0).data.sum(axis=2)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestConfidenceMap:
    def test_max_prob_values(self):
        probs = ProbTensor(np.array([[[0.7, 0.2, 0.1], [0.2, 0.5, 0.3]]]))
        conf, pred = confidence_map(probs, ConfidenceScore.MAX_PROB)
        np.testing.assert_allclose(conf[0], [0.7, 0.5])
        np.testing.assert_array_equal(pred[0], [0, 1])

    def test_neg_entropy_uniform_binary(self):
        probs = ProbTensor(np.array([[[0.5, 0.5]]]))
        conf, _ = confidence_map(probs, ConfidenceScore.NEG_ENTROPY)
        assert conf[0, 0] == pytest.approx(-np.log(2.0), abs=1e-15)

    def test_neg_entropy_one_hot_is_zero(self):
        probs = ProbTensor(np.array([[[1.0, 0.0, 0.0]]]))
        conf, pred = confidence_map(probs, ConfidenceScore.NEG_ENTROPY)
        assert conf[0, 0] == 0.0
        assert pred[0, 0] == 0

    def test_argmax_tie_breaks_to_lowest_index(self):
        probs = ProbTensor(np.array([[[0.4, 0.4, 0.2]]]))
        for score in ConfidenceScore:
            _, pred = confidence_map(probs, score)
            assert pred[0, 0] == 0

    def test_predictions_agree_across_scores(self):
        rng = np.random.default_rng(12)
        raw = rng.random((6, 6, 5))
        probs = ProbTensor(raw / raw.sum(axis=2, keepdims=True))
        _, pred_mp = confidence_map(probs, ConfidenceScore.MAX_PROB)
        _, pred_ne = confidence_map(probs, ConfidenceScore.NEG_ENTROPY)
        np.testing.assert_array_equal(pred_mp, pred_ne)

    def test_accepts_plain_string_score(self):
        probs = ProbTensor(np.array([[[0.9, 0.1]]]))
        conf, _ = confidence_map(probs, "max_prob")
        assert conf[0, 0] == pytest.approx(0.9)


class TestRecordSet:
    def _records(self, n=5):
        rng = np.random.default_rng(13)
        return RecordSet(rng.random(n), rng.integers(0, 3, n), rng.integers(0, 3, n))

    def test_correct_mask(self):
        rs = RecordSet(np.array([0.5, 0.6, 0.7]), np.array([0, 1, 2]), np.array([0, 2, 2]))
        np.testing.assert_array_equal(rs.correct, [True, False, True])

    def test_len(self):
        assert len(self._records(3)) == 3
        assert len(self._records(6)) == 6

    def test_concat_preserves_order(self):
        a, b = self._records(3), self._records(4)
        merged = RecordSet.concat([a, b])
        assert len(merged) == 7
        np.testing.assert_array_equal(merged.confidence[:3], a.confidence)
        np.testing.assert_array_equal(merged.confidence[3:], b.confidence)

    def test_concat_empty_list_raises(self):
        with pytest.raises(MetricError):
            RecordSet.concat([])

    def test_empty(self):
        rs = RecordSet(np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64))
        assert len(rs) == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(InvalidTensorError):
            RecordSet(np.zeros(3), np.zeros(2, np.int64), np.zeros(3, np.int64))

    def test_non_finite_confidence_raises(self):
        with pytest.raises(InvalidTensorError):
            RecordSet(np.array([0.5, np.nan]), np.zeros(2, np.int64), np.zeros(2, np.int64))


class TestExtractRecords:
    def _probs_labels(self, seed=14, shape=(6, 7), classes=4):
        rng = np.random.default_rng(seed)
        raw = rng.random((*shape, classes))
        probs = ProbTensor(raw / raw.sum(axis=2, keepdims=True))
        labels = LabelMap(rng.integers(0, classes, size=shape).astype(np.uint16))
        return probs, labels

    def test_full_extraction_matches_maps(self):
        probs, labels = self._probs_labels()
        rs = extract_records(probs, labels, "img-0")
        conf, pred = confidence_map(probs, ConfidenceScore.MAX_PROB)
        assert len(rs) == probs.height * probs.width
        np.testing.assert_array_equal(rs.confidence, conf.reshape(-1))
        np.testing.assert_array_equal(rs.predicted, pred.reshape(-1))
        np.testing.assert_array_equal(rs.actual, labels.data.reshape(-1).astype(np.int64))

    def test_ignored_pixels_dropped(self):
        probs, labels = self._probs_labels()
        data = labels.data.copy()
        data[0, :3] = 255
        rs = extract_records(probs, LabelMap(data), "img-0", ignore_value=255)
        assert len(rs) == probs.height * probs.width - 3
        assert not np.any(rs.actual == 255)

    def test_subsample_is_deterministic_and_sorted(self):
        probs, labels = self._probs_labels()
        a = extract_records(probs, labels, "img-0", pixels_per_image=10, seed=3)
        b = extract_records(probs, labels, "img-0", pixels_per_image=10, seed=3)
        assert len(a) == 10
        np.testing.assert_array_equal(a.confidence, b.confidence)
        np.testing.assert_array_equal(a.actual, b.actual)

    def test_subsample_stream_depends_on_image_id(self):
        probs, labels = self._probs_labels()
        a = extract_records(probs, labels, "img-0", pixels_per_image=10, seed=3)
        b = extract_records(probs, labels, "img-1", pixels_per_image=10, seed=3)
        assert not np.array_equal(a.confidence, b.confidence)

    def test_subsample_matches_shared_stream(self):
        # the subsample must come from the (seed, "pixels:<id>") stream over
        # valid-pixel positions so other consumers can reproduce it
        probs, labels = self._probs_labels()
        rs = extract_records(probs, labels, "img-7", pixels_per_image=9, seed=5)
        valid = np.flatnonzero(labels.data.reshape(-1) != 255)
        keep = subsample_indices(valid.shape[0], 9, 5, "pixels:img-7")
        conf, _ = confidence_map(probs, ConfidenceScore.MAX_PROB)
        np.testing.assert_array_equal(rs.confidence, conf.reshape(-1)[valid[keep]])

    def test_subsample_count_covering_all_pixels(self):
        probs, labels = self._probs_labels(shape=(3, 3))
        rs = extract_records(probs, labels, "img-0", pixels_per_image=100, seed=0)
        assert len(rs) == 9

    def test_subsample_without_seed_raises(self):
        probs, labels = self._probs_labels()
        with pytest.raises(MetricError):
            extract_records(probs, labels, "img-0", pixels_per_image=10)

    def test_shape_mismatch_raises(self):
        probs, _ = self._probs_labels(shape=(4, 4))
        _, labels = self._probs_labels(shape=(5, 5))
        with pytest.raises(InvalidTensorError):
            extract_records(probs, labels, "img-0")

    def test_out_of_range_label_raises(self):
        probs, labels = self._probs_labels(classes=4)
        data = labels.data.copy()
        data[0, 0] = 4
        with pytest.raises(InvalidTensorError):
            extract_records(probs, LabelMap(data), "img-0")
