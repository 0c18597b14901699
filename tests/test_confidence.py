"""Softmax, the confidence kernel, and per-image record extraction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relikit.calibration import TemperatureMap, apply_temperature
from relikit.confidence import ConfidenceScore, RecordSet, _confidence_pass, _stable_argsort, confidence_map
from relikit.errors import InvalidTensorError, MetricError
from relikit.evaluate import EvalConfig, evaluate_manifest
from relikit.manifest import load_entry
from relikit.rng import subsample_indices
from relikit.tensor_io import read_labels, write_labels
from relikit.tensors import LabelMap, LogitTensor


class TestSoftmax:
    def test_two_class_closed_form(self):
        # softmax([1, 0]) = (e / (e + 1), 1 / (e + 1))
        logits = LogitTensor(np.array([[[1.0, 0.0]]], dtype=np.float32))
        p = apply_temperature(logits, 1.0)[0, 0]
        e = np.exp(1.0)
        assert abs(p[0] - e / (e + 1.0)) < 1e-12
        assert abs(p[1] - 1.0 / (e + 1.0)) < 1e-12

    def test_equal_logits_are_uniform(self):
        logits = LogitTensor(np.full((2, 2, 4), 3.5, dtype=np.float32))
        np.testing.assert_allclose(apply_temperature(logits, 1.0), 0.25, atol=1e-15)

    def test_shift_invariance(self):
        # quarter-integer logits so the float32 shift is exact
        rng = np.random.default_rng(10)
        raw = (rng.integers(-32, 33, size=(3, 3, 5)) / 4.0).astype(np.float32)
        shifted = raw + np.float32(7.25)
        np.testing.assert_allclose(
            apply_temperature(LogitTensor(raw), 1.0), apply_temperature(LogitTensor(shifted), 1.0), atol=1e-12
        )

    def test_large_logits_do_not_overflow(self):
        logits = LogitTensor(np.array([[[500.0, -500.0]]], dtype=np.float32))
        p = apply_temperature(logits, 1.0)[0, 0]
        assert p[0] == pytest.approx(1.0)
        assert np.isfinite(p).all()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            logits = LogitTensor(rng.normal(scale=4.0, size=(4, 4, k)).astype(np.float32))
            sums = apply_temperature(logits, 1.0).sum(axis=2)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def _logits(rows) -> LogitTensor:
    return LogitTensor(np.array(rows, dtype=np.float32))


def _reduce_probabilities(p, score):
    """The reduction of a probability tensor that eval ran before the kernel."""
    if score is ConfidenceScore.MAX_PROB:
        return p.max(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=2)


@st.composite
def _kernel_cases(draw):
    """Random f32 logits, some pixels fully tied, and a scalar T or a TemperatureMap."""
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    classes = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.01, 1.0, 8.0, 60.0]))
    data = rng.normal(scale=scale, size=(height, width, classes)).astype(np.float32)
    tied = rng.random((height, width)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    data[tied] = data[tied][:, :1]
    kind = draw(st.sampled_from(["bound", "scalar", "map"]))
    if kind == "bound":
        temperature = draw(st.sampled_from([0.05, 1.0, 20.0]))
    elif kind == "scalar":
        temperature = draw(st.floats(0.05, 20.0))
    else:
        temperature = TemperatureMap(np.exp(rng.uniform(np.log(0.05), np.log(20.0), (height, width))))
    return LogitTensor(data), temperature


class TestConfidenceMap:
    def test_max_prob_values(self):
        logits = _logits(np.log([[[0.7, 0.2, 0.1], [0.2, 0.5, 0.3]]]))
        conf, pred = confidence_map(logits, 1.0, ConfidenceScore.MAX_PROB)
        np.testing.assert_allclose(conf[0], [0.7, 0.5], rtol=1e-6)
        np.testing.assert_array_equal(pred[0], [0, 1])

    def test_neg_entropy_uniform_binary(self):
        conf, _ = confidence_map(_logits([[[0.5, 0.5]]]), 1.0, ConfidenceScore.NEG_ENTROPY)
        assert conf[0, 0] == pytest.approx(-np.log(2.0), abs=1e-15)

    def test_neg_entropy_one_hot_is_zero(self):
        # exp(-1000) underflows to 0, so the distribution is exactly one-hot
        conf, pred = confidence_map(_logits([[[0.0, -1000.0, -1000.0]]]), 1.0, ConfidenceScore.NEG_ENTROPY)
        assert conf[0, 0] == 0.0
        assert pred[0, 0] == 0

    def test_argmax_tie_breaks_to_lowest_index(self):
        for score in ConfidenceScore:
            _, pred = confidence_map(_logits([[[1.5, 1.5, 0.2]]]), 3.0, score)
            assert pred[0, 0] == 0

    def test_predictions_agree_across_scores(self):
        rng = np.random.default_rng(12)
        logits = LogitTensor(rng.normal(size=(6, 6, 5)).astype(np.float32))
        _, pred_mp = confidence_map(logits, 0.7, ConfidenceScore.MAX_PROB)
        _, pred_ne = confidence_map(logits, 0.7, ConfidenceScore.NEG_ENTROPY)
        np.testing.assert_array_equal(pred_mp, pred_ne)
        np.testing.assert_array_equal(pred_mp, logits.data.argmax(axis=2))

    def test_accepts_plain_string_score(self):
        conf, _ = confidence_map(_logits(np.log([[[0.9, 0.1]]])), 1.0, "max_prob")
        assert conf[0, 0] == pytest.approx(0.9)

    def test_prediction_is_the_raw_logit_argmax(self):
        # softmax rounds [0, 1e-30] to two equal probabilities, whose argmax is class 0
        logits = _logits([[[0.0, 1e-30]]])
        assert apply_temperature(logits, 1.0).argmax(axis=2)[0, 0] == 0
        for score in ConfidenceScore:
            _, pred = confidence_map(logits, 1.0, score)
            assert pred[0, 0] == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_kernel_cases(), st.sampled_from(list(ConfidenceScore)))
    @example((_logits(np.full((2, 3, 4), 2.5)), 0.05), ConfidenceScore.MAX_PROB)
    @example((_logits(np.full((2, 3, 4), 2.5)), 20.0), ConfidenceScore.NEG_ENTROPY)
    @example((_logits([[[0.0, 1e-30]]]), 1.0), ConfidenceScore.NEG_ENTROPY)
    def test_matches_reduced_probabilities_bit_for_bit(self, case, score):
        logits, temperature = case
        conf, pred = confidence_map(logits, temperature, score)
        expected = _reduce_probabilities(apply_temperature(logits, temperature), score)
        np.testing.assert_array_equal(conf, expected)
        assert conf.dtype == np.float64 and pred.dtype == np.int64
        np.testing.assert_array_equal(pred, logits.data.argmax(axis=2))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_kernel_cases())
    @example((_logits(np.full((2, 3, 4), 2.5)), 0.05))
    @example((_logits(np.full((2, 3, 4), 2.5)), 20.0))
    @example((_logits([[[0.0, 1e-30], [3.0, -900.0]]]), 0.05))
    def test_one_pass_gives_both_scores_bit_for_bit(self, case):
        # eval's neg_entropy path takes both scores from a single exp pass
        logits, temperature = case
        max_prob, neg_entropy, pred = _confidence_pass(logits, temperature, entropy=True)
        expected_mp, pred_mp = confidence_map(logits, temperature, ConfidenceScore.MAX_PROB)
        expected_ne, pred_ne = confidence_map(logits, temperature, ConfidenceScore.NEG_ENTROPY)
        np.testing.assert_array_equal(max_prob, expected_mp)
        np.testing.assert_array_equal(neg_entropy, expected_ne)
        np.testing.assert_array_equal(pred, pred_mp)
        np.testing.assert_array_equal(pred, pred_ne)
        probs = apply_temperature(logits, temperature)
        np.testing.assert_array_equal(max_prob, _reduce_probabilities(probs, ConfidenceScore.MAX_PROB))
        np.testing.assert_array_equal(neg_entropy, _reduce_probabilities(probs, ConfidenceScore.NEG_ENTROPY))


class TestRecordSet:
    def _records(self, n=5):
        rng = np.random.default_rng(13)
        return RecordSet(rng.random(n), rng.integers(0, 3, n) == rng.integers(0, 3, n))

    def test_correct_mask(self):
        rs = RecordSet(np.array([0.5, 0.6, 0.7]), np.array([0, 1, 2]) == np.array([0, 2, 2]))
        np.testing.assert_array_equal(rs.correct, [True, False, True])
        assert rs.correct.dtype == np.bool_
        # the set holds two per-record arrays, 9 bytes a record
        assert [f.name for f in dataclasses.fields(rs)] == ["confidence", "correct"]
        assert rs.confidence.nbytes + rs.correct.nbytes == 9 * len(rs)

    def test_len(self):
        assert len(self._records(3)) == 3
        assert len(self._records(6)) == 6

    def test_concat_preserves_order(self):
        a, b = self._records(3), self._records(4)
        merged = RecordSet.concat([a, b])
        assert len(merged) == 7
        np.testing.assert_array_equal(merged.confidence[:3], a.confidence)
        np.testing.assert_array_equal(merged.confidence[3:], b.confidence)
        np.testing.assert_array_equal(merged.correct, np.concatenate([a.correct, b.correct]))

    def test_concat_empty_list_raises(self):
        with pytest.raises(MetricError):
            RecordSet.concat([])

    def test_empty(self):
        rs = RecordSet(np.empty(0), np.empty(0, bool))
        assert len(rs) == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(InvalidTensorError, match="1-D shape"):
            RecordSet(np.zeros(3), np.zeros(2, bool))
        with pytest.raises(InvalidTensorError, match="1-D shape"):
            RecordSet(np.zeros((2, 2)), np.zeros((2, 2), bool))

    def test_non_finite_confidence_raises(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidTensorError, match="non-finite"):
                RecordSet(np.array([0.5, bad]), np.zeros(2, bool))

    @pytest.mark.parametrize("correct", [np.zeros(2, np.int64), np.ones(2, np.uint8), np.array([0.0, 1.0]),
                                         [1, 0], np.array(["a", "b"])])
    def test_non_bool_correct_raises(self, correct):
        # a class index or 0/1 count is not a correctness flag: no silent cast
        with pytest.raises(InvalidTensorError, match="must be a bool array"):
            RecordSet(np.array([0.5, 0.6]), correct)

    def test_order_is_the_stable_argsort(self):
        conf = np.array([0.5, 0.25, 0.5, -0.0, 1.0, 0.0, 0.25, 0.5])
        rs = RecordSet(conf, np.ones(8, bool))
        np.testing.assert_array_equal(rs.order, [3, 5, 1, 6, 0, 2, 7, 4])


@st.composite
def _tied_values(draw, elements, specials, dtype):
    """An array drawn from a pool of at most five values, so most entries tie."""
    pool = draw(st.lists(st.one_of(st.sampled_from(specials), elements), min_size=1, max_size=5))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=200)), dtype=dtype)


class TestStableArgsort:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tied_values(st.floats(allow_nan=False), (1.0, 0.0, -0.0), np.float64))
    @example(np.array([], dtype=np.float64))
    @example(np.array([1.0]))
    @example(np.array([0.0, -0.0]))
    @example(np.array([-0.0, 0.0]))
    @example(np.array([1.0, 0.0]))
    def test_float64_matches_numpy_stable_argsort(self, values):
        np.testing.assert_array_equal(_stable_argsort(values), np.argsort(values, kind="stable"), strict=True)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tied_values(st.integers(-2**63, 2**63 - 1), (1, 0, -1), np.int64))
    @example(np.array([], dtype=np.int64))
    @example(np.array([7], dtype=np.int64))
    @example(np.array([3, 3], dtype=np.int64))
    @example(np.array([3, -3], dtype=np.int64))
    def test_int64_matches_numpy_stable_argsort(self, values):
        np.testing.assert_array_equal(_stable_argsort(values), np.argsort(values, kind="stable"), strict=True)


class TestExtractRecords:
    """Per-image records as eval takes them: load_entry draws the pixels, confidence_map scores them."""

    @staticmethod
    def _entry(manifest, index=0):
        return manifest.select(split="test")[index]

    @staticmethod
    def _eval_one(manifest, entry, **config):
        report = evaluate_manifest(dataclasses.replace(manifest, entries=(entry,)), None,
                                   EvalConfig(metrics=("ece",), **config))
        return report.domains[entry.domain]

    def test_full_extraction_matches_maps(self, holdout_manifest):
        entry = self._entry(holdout_manifest)
        loaded = load_entry(holdout_manifest, entry, pixels_per_image=None, seed=0)
        np.testing.assert_array_equal(loaded.rows, loaded.valid)
        conf, pred = confidence_map(loaded.logits)
        labels = loaded.labels.data.reshape(-1)[loaded.valid]
        np.testing.assert_array_equal(loaded.drawn(conf), conf.reshape(-1)[loaded.valid])
        stats = self._eval_one(holdout_manifest, entry, pixels_per_image=None)
        assert stats["n_records"] == loaded.valid.size
        assert stats["accuracy"] == float((pred.reshape(-1)[loaded.valid] == labels).mean())
        assert stats["mean_confidence"] == float(conf.reshape(-1)[loaded.valid].mean())

    def test_ignored_pixels_dropped(self, holdout_manifest):
        entry = next(e for e in holdout_manifest.select(split="test")
                     if np.any(read_labels(holdout_manifest.resolve(e.labels)).data == 255))
        loaded = load_entry(holdout_manifest, entry, pixels_per_image=None, seed=0)
        flat = loaded.labels.data.reshape(-1)
        np.testing.assert_array_equal(loaded.valid, np.flatnonzero(flat != 255))
        assert loaded.valid.size < flat.size
        assert not np.any(loaded.drawn(loaded.labels.data) == 255)
        assert self._eval_one(holdout_manifest, entry, pixels_per_image=None)["n_records"] == loaded.valid.size

    def test_subsample_is_deterministic_and_sorted(self, holdout_manifest):
        entry = self._entry(holdout_manifest)
        a = load_entry(holdout_manifest, entry, pixels_per_image=10, seed=3)
        b = load_entry(holdout_manifest, entry, pixels_per_image=10, seed=3)
        assert a.rows.shape == (10,)
        assert np.all(np.diff(a.rows) > 0)
        np.testing.assert_array_equal(a.rows, b.rows)
        assert self._eval_one(holdout_manifest, entry, pixels_per_image=10, seed=3)["n_records"] == 10

    def test_subsample_stream_depends_on_image_id(self, holdout_manifest):
        entry = self._entry(holdout_manifest)
        renamed = dataclasses.replace(entry, image_id=entry.image_id + "-copy")
        a = load_entry(holdout_manifest, entry, pixels_per_image=10, seed=3)
        b = load_entry(holdout_manifest, renamed, pixels_per_image=10, seed=3)
        assert not np.array_equal(a.rows, b.rows)

    def test_subsample_matches_shared_stream(self, holdout_manifest):
        # the subsample must come from the (seed, "pixels:<id>") stream over
        # valid-pixel positions so other consumers can reproduce it
        entry = self._entry(holdout_manifest)
        loaded = load_entry(holdout_manifest, entry, pixels_per_image=9, seed=5)
        keep = subsample_indices(loaded.valid.size, 9, 5, f"pixels:{entry.image_id}")
        np.testing.assert_array_equal(loaded.rows, loaded.valid[keep])
        _, pred = confidence_map(loaded.logits)
        hits = pred.reshape(-1)[loaded.rows] == loaded.labels.data.reshape(-1)[loaded.rows]
        stats = self._eval_one(holdout_manifest, entry, pixels_per_image=9, seed=5)
        assert stats["n_records"] == 9 and stats["accuracy"] == float(hits.mean())

    def test_subsample_count_covering_all_pixels(self, holdout_manifest):
        entry = self._entry(holdout_manifest)
        loaded = load_entry(holdout_manifest, entry, pixels_per_image=10**6, seed=0)
        np.testing.assert_array_equal(loaded.rows, loaded.valid)

    def test_shape_mismatch_raises(self, holdout_manifest, tmp_path):
        path = tmp_path / "small.labels.bin"
        write_labels(path, LabelMap(np.zeros((5, 5), np.uint16)), holdout_manifest.classes)
        entry = dataclasses.replace(self._entry(holdout_manifest), labels=str(path))
        with pytest.raises(InvalidTensorError):
            load_entry(holdout_manifest, entry, pixels_per_image=None, seed=0)
        with pytest.raises(InvalidTensorError):
            self._eval_one(holdout_manifest, entry)

    def test_out_of_range_label_raises(self, holdout_manifest, tmp_path):
        entry = self._entry(holdout_manifest)
        data = read_labels(holdout_manifest.resolve(entry.labels)).data.copy()
        data[0, 0] = holdout_manifest.classes
        path = tmp_path / "bad.labels.bin"
        write_labels(path, LabelMap(data), holdout_manifest.classes)
        entry = dataclasses.replace(entry, labels=str(path))
        with pytest.raises(InvalidTensorError):
            load_entry(holdout_manifest, entry, pixels_per_image=None, seed=0)
        with pytest.raises(InvalidTensorError):
            self._eval_one(holdout_manifest, entry)


class TestRunningCorrect:
    def test_prr_reads_no_confidence_sums(self):
        from relikit.metrics import prr, rejection_curve

        rng = np.random.default_rng(21)
        records = RecordSet(np.round(rng.random(500), 2), rng.integers(0, 3, 500) == rng.integers(0, 3, 500))
        value = prr(records)
        rejection_curve(records)
        assert "running" not in vars(records)  # no gather of the confidences, no sum of them
        fresh = RecordSet(records.confidence, records.correct)
        ordered, cum_conf, cum_correct = fresh.running
        assert cum_correct is fresh.running_correct
        np.testing.assert_array_equal(cum_correct, records.running_correct)
        np.testing.assert_array_equal(cum_correct[1:], np.cumsum(records.correct[records.order]))
        np.testing.assert_array_equal(ordered, np.sort(records.confidence))
        assert prr(fresh) == value

    def test_prr_on_a_fresh_set_drops_the_cached_order(self):
        from relikit.metrics import prr

        rng = np.random.default_rng(23)
        conf, correct = np.round(rng.random(500), 2), rng.integers(0, 3, 500) == rng.integers(0, 3, 500)
        records = RecordSet(conf, correct)
        value = prr(records)
        assert "order" not in vars(records) and "running" not in vars(records)
        assert prr(records) == value  # running_correct stays cached
        np.testing.assert_array_equal(records.order, np.argsort(conf, kind="stable"))  # recomputed if read

    @pytest.mark.parametrize("names", [("ada_ece", "ks_error", "prr"), ("prr", "ks_error", "ada_ece")])
    def test_running_drops_the_cached_order(self, names):
        from relikit import metrics

        rng = np.random.default_rng(22)
        conf, correct = np.round(rng.random(500), 2), rng.integers(0, 3, 500) == rng.integers(0, 3, 500)
        records = RecordSet(conf, correct)
        values = [getattr(metrics, name)(records) for name in names]
        assert "order" not in records.__dict__ and "running" in records.__dict__
        # each metric alone on a set of its own gives the same value
        assert values == [getattr(metrics, name)(RecordSet(conf, correct)) for name in names]
        np.testing.assert_array_equal(records.order, np.argsort(conf, kind="stable"))
