"""Reliability metrics against brute-force oracles and frozen hand values.

Each metric has an independent naive implementation here (per-bin loops,
O(n^2) pair counting, full curve enumeration, per-class set arithmetic)
used both on frozen examples worked out by hand and in seeded randomized
sweeps.
"""

import dataclasses
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relikit.confidence import ConfidenceScore, RecordSet
from relikit.errors import ManifestError, MetricError
from relikit.evaluate import EvalConfig, evaluate_manifest
from relikit.metrics import (
    DEFAULT_BINS,
    BinStrategy,
    auroc,
    bin_partition,
    confusion_matrix,
    ece,
    ada_ece,
    iou_from_confusion,
    ks_error,
    prr,
    rejection_curve,
)
from relikit.tensor_io import read_labels, read_logits, read_mask, write_labels, write_mask
from relikit.tensors import LabelMap


def _rs(conf, correct):
    return RecordSet(np.asarray(conf, dtype=np.float64), np.asarray(correct, dtype=bool))


def _normalize(conf):
    lo, hi = min(conf), max(conf)
    if lo >= 0.0 and hi <= 1.0:
        return list(conf)
    if hi == lo:
        return [0.5] * len(conf)
    return [(c - lo) / (hi - lo) for c in conf]


def oracle_ece_equal_width(conf, correct, bins):
    conf = _normalize(conf)
    n = len(conf)
    total = 0.0
    for b in range(bins):
        members = [i for i in range(n) if min(math.floor(conf[i] * bins), bins - 1) == b]
        if not members:
            continue
        acc = sum(1.0 for i in members if correct[i]) / len(members)
        avg = sum(conf[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - avg)
    return total


def oracle_ece_equal_population(conf, correct, bins):
    conf = _normalize(conf)
    n = len(conf)
    order = sorted(range(n), key=lambda i: conf[i])  # stable, like the implementation
    start = 0
    total = 0.0
    for b in range(bins):
        size = n // bins + (1 if b < n % bins else 0)
        members = order[start : start + size]
        start += size
        if not members:
            continue
        acc = sum(1.0 for i in members if correct[i]) / size
        avg = sum(conf[i] for i in members) / size
        total += size / n * abs(acc - avg)
    return total


def oracle_ks(conf, correct):
    n = len(conf)
    order = sorted(range(n), key=lambda i: conf[i])
    run_conf = run_correct = 0.0
    worst = 0.0
    for i in order:
        run_conf += conf[i]
        run_correct += 1.0 if correct[i] else 0.0
        worst = max(worst, abs(run_conf - run_correct))
    return worst / n


def oracle_auroc(positive, negative):
    wins = 0.0
    for a in positive:
        for b in negative:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(positive) * len(negative))


def oracle_auroc_pairs(positive, negative):
    """:func:`oracle_auroc`'s O(n m) pair count, vectorised for pooled pixels."""
    pos = np.asarray(positive)[:, None]
    neg = np.asarray(negative)[None, :]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return wins / (pos.size * neg.size)


def _oracle_area(ys):
    # trapezoid area of an integer-valued curve on a 1/n grid, times 2 n^2
    return ys[0] + ys[-1] + 2 * sum(ys[1:-1])


def oracle_prr(conf, correct):
    n = len(conf)
    total_errors = sum(1 for c in correct if not c)
    # walk the rejection order one record at a time, least confident first,
    # recording how many errors are still unhandled
    ascending = sorted(range(n), key=lambda i: conf[i])
    remaining = total_errors
    model = [remaining]  # model[k] = errors unhandled after k rejections
    for i in ascending:
        if not correct[i]:
            remaining -= 1
        model.append(remaining)
    oracle = [max(0, total_errors - k) for k in range(n + 1)]
    numerator = total_errors * n - _oracle_area(model)
    denominator = total_errors * n - _oracle_area(oracle)
    return 100.0 * (numerator / denominator)


def trapezoid_prr(conf, correct):
    """prr as it was computed before its closed form: the three curves as int64 arrays, whose
    trapezoid areas times 2 n^2 are summed element by element."""
    n = conf.shape[0]
    running = np.concatenate([[0], np.cumsum(correct[np.argsort(conf, kind="stable")])])
    rejected = np.arange(n + 1) - running
    model = rejected[-1] - rejected
    total_errors = int(model[0])
    oracle = np.maximum(0, total_errors - np.arange(n + 1, dtype=np.int64))
    model_area = int(model[0] + model[-1] + 2 * model[1:-1].sum())
    oracle_area = int(oracle[0] + oracle[-1] + 2 * oracle[1:-1].sum())
    random_area = total_errors * n
    return float(100.0 * ((random_area - model_area) / (random_area - oracle_area)))


@st.composite
def tied_records(draw):
    """(confidence, correct) with confidences from a pool of at most five multiples of 2^-8, -0.0 among
    them, so most records tie; the flags are as often all equal as not."""
    grid = st.integers(-256, 512).map(lambda k: k / 256)
    pool = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), grid), min_size=1, max_size=5))
    conf = np.array(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=300)))
    flags = st.booleans() if draw(st.booleans()) else st.just(draw(st.booleans()))
    correct = np.array(draw(st.lists(flags, min_size=conf.size, max_size=conf.size)), dtype=bool)
    return conf, correct


def oracle_miou(predictions, labels, classes, ignore_value):
    per_class = []
    for c in range(classes):
        tp = fp = fn = 0
        for pred, lab in zip(predictions, labels):
            for p, a in zip(np.asarray(pred).ravel(), lab.data.ravel()):
                if a == ignore_value:
                    continue
                if p == c and a == c:
                    tp += 1
                elif p == c:
                    fp += 1
                elif a == c:
                    fn += 1
        union = tp + fp + fn
        per_class.append(tp / union if union else float("nan"))
    present = [v for v in per_class if not math.isnan(v)]
    return sum(present) / len(present), per_class


class TestEceFrozen:
    def test_equal_width_hand_value(self):
        # bins of width 1/4 each hold one record:
        # |0-0.1|/4 + |1-0.4|/4 + |0-0.6|/4 + |1-0.9|/4 = 0.35
        rs = _rs([0.1, 0.4, 0.6, 0.9], [False, True, False, True])
        assert ece(rs, bins=4) == pytest.approx(0.35, abs=1e-15)

    def test_equal_population_hand_value(self):
        # sizes (3, 2): 3/5*|1/3-0.2| + 2/5*|1-0.85| = 0.08 + 0.06 = 0.14
        rs = _rs([0.1, 0.2, 0.3, 0.8, 0.9], [False, True, False, True, True])
        assert ada_ece(rs, bins=2) == pytest.approx(0.14, abs=1e-15)

    def test_perfect_calibration_single_bin(self):
        rs = _rs([0.5, 0.5, 0.5, 0.5], [True, True, False, False])
        assert ece(rs, bins=1) == pytest.approx(0.0, abs=1e-15)

    def test_confidence_one_lands_in_last_bin(self):
        rs = _rs([1.0], [True])
        part = bin_partition(rs, bins=10)
        assert part.count[-1] == 1
        assert part.count[:-1].sum() == 0

    def test_empty_bins_contribute_zero(self):
        rs = _rs([0.05, 0.95], [False, True])
        # middle 13 bins are empty; only the two filled bins contribute
        assert ece(rs, bins=15) == pytest.approx((0.05 + 0.05) / 2, abs=1e-15)

    def test_default_bin_count(self):
        assert DEFAULT_BINS == 15

    def test_constant_out_of_range_score_maps_to_half(self):
        rs = _rs([-2.0, -2.0, -2.0], [True, False, True])
        # constant score normalizes to 0.5; single filled bin, acc 2/3
        assert ece(rs, bins=2) == pytest.approx(abs(2.0 / 3.0 - 0.5), abs=1e-15)

    def test_out_of_range_scores_are_min_max_normalized(self):
        raw = [-3.0, -1.0, 0.0]
        correct = [False, True, True]
        rs = _rs(raw, correct)
        rescaled = _rs([0.0, 2.0 / 3.0, 1.0], correct)
        assert ece(rs, bins=4) == pytest.approx(ece(rescaled, bins=4), abs=1e-15)


class TestBinPartition:
    def test_equal_width_edges(self):
        part = bin_partition(_rs([0.1, 0.9], [True, False]), bins=4)
        np.testing.assert_allclose(part.lower, [0.0, 0.25, 0.5, 0.75])
        np.testing.assert_allclose(part.upper, [0.25, 0.5, 0.75, 1.0])
        assert part.bins == 4
        assert part.total == 2

    def test_equal_population_observed_ranges(self):
        part = bin_partition(
            _rs([0.1, 0.2, 0.3, 0.8, 0.9], [False, True, False, True, True]),
            bins=2,
            strategy=BinStrategy.EQUAL_POPULATION,
        )
        np.testing.assert_array_equal(part.count, [3, 2])
        np.testing.assert_allclose(part.lower, [0.1, 0.8])
        np.testing.assert_allclose(part.upper, [0.3, 0.9])

    def test_empty_bin_statistics_are_nan(self):
        part = bin_partition(_rs([0.95], [True]), bins=10)
        assert np.isnan(part.mean_confidence[0])
        assert np.isnan(part.accuracy[0])
        assert part.count[0] == 0

    def test_more_bins_than_records(self):
        part = bin_partition(
            _rs([0.2, 0.7], [True, False]), bins=5, strategy=BinStrategy.EQUAL_POPULATION
        )
        assert part.count.sum() == 2
        assert ece(_rs([0.2, 0.7], [True, False]), bins=5, strategy=BinStrategy.EQUAL_POPULATION) >= 0

    def test_rejects_empty_records(self):
        with pytest.raises(MetricError):
            bin_partition(_rs([], []), bins=4)

    def test_rejects_non_positive_bins(self):
        with pytest.raises(MetricError):
            bin_partition(_rs([0.5], [True]), bins=0)

    def test_accepts_plain_string_strategy(self):
        part = bin_partition(_rs([0.5], [True]), bins=2, strategy="equal_population")
        assert part.strategy is BinStrategy.EQUAL_POPULATION


class TestEceRandomized:
    def test_equal_width_matches_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            n = int(rng.integers(1, 300))
            bins = int(rng.integers(1, 25))
            conf = rng.random(n)
            correct = rng.random(n) < rng.random()
            got = ece(_rs(conf, correct), bins=bins)
            want = oracle_ece_equal_width(list(conf), list(correct), bins)
            assert abs(got - want) < 1e-12

    def test_equal_population_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(1, 300))
            bins = int(rng.integers(1, 25))
            conf = rng.random(n)
            correct = rng.random(n) < rng.random()
            got = ada_ece(_rs(conf, correct), bins=bins)
            want = oracle_ece_equal_population(list(conf), list(correct), bins)
            assert abs(got - want) < 1e-12

    def test_equal_population_with_ties_matches_oracle(self):
        # quantized confidences force ties; stable ordering must agree
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(2, 200))
            bins = int(rng.integers(1, 12))
            conf = np.round(rng.random(n), 1)
            correct = rng.random(n) < 0.6
            got = ada_ece(_rs(conf, correct), bins=bins)
            want = oracle_ece_equal_population(list(conf), list(correct), bins)
            assert abs(got - want) < 1e-12

    def test_normalization_ties_are_ordered_by_record(self):
        # distinct raw scores that min-max scaling merges into one tie at 0, across the
        # bin boundary: ties take record order, not the order of the raw scores
        conf = [4e-300, 3e-300, 2e-300, 1e-300, 5e299, 1e300]
        correct = [True, False, False, False, False, False]
        scaled = _normalize(conf)
        assert len(set(conf)) == 6 and scaled[:4] == [0.0] * 4
        got = ada_ece(_rs(conf, correct), bins=2)
        want = oracle_ece_equal_population(conf, correct, 2)
        assert want == pytest.approx(5 / 12) and abs(got - want) < 1e-12

    def test_normalized_scores_match_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            conf = rng.normal(scale=3.0, size=n)  # far outside [0, 1]
            correct = rng.random(n) < 0.5
            got = ece(_rs(conf, correct), bins=10)
            want = oracle_ece_equal_width(list(conf), list(correct), 10)
            assert abs(got - want) < 1e-12


class TestKsError:
    def test_hand_value(self):
        # cum diffs: |0.6-0| = 0.6, |1.5-1| = 0.5; max/2 = 0.3
        rs = _rs([0.6, 0.9], [False, True])
        assert ks_error(rs) == pytest.approx(0.3, abs=1e-15)

    def test_matches_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            n = int(rng.integers(1, 400))
            conf = rng.random(n)
            correct = rng.random(n) < rng.random()
            got = ks_error(_rs(conf, correct))
            want = oracle_ks(list(conf), list(correct))
            assert abs(got - want) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(MetricError):
            ks_error(_rs([], []))


class TestAuroc:
    def test_hand_value(self):
        assert auroc([0.9, 0.4], [0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_perfect_separation(self):
        assert auroc([0.8, 0.9], [0.1, 0.2]) == 1.0
        assert auroc([0.1, 0.2], [0.8, 0.9]) == 0.0

    def test_all_tied_is_half(self):
        assert auroc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_matches_pairwise_oracle(self):
        # the U count is exact, so the ratio equals the oracle's to the last bit
        rng = np.random.default_rng(25)
        for case in range(120):
            big = int(rng.integers(2, 120))
            small = int(rng.integers(1, big))
            # the even cases have more positives, the odd ones more negatives
            npos, nneg = (big, small) if case % 2 == 0 else (small, big)
            # quantize so ties actually occur
            pos = np.round(rng.random(npos), 1)
            neg = np.round(rng.random(nneg), 1)
            got = auroc(pos, neg)
            want = oracle_auroc(list(pos), list(neg))
            assert got == want

    def test_empty_side_raises(self):
        with pytest.raises(MetricError):
            auroc([], [0.5])
        with pytest.raises(MetricError):
            auroc([0.5], [])

    def test_non_finite_raises(self):
        with pytest.raises(MetricError):
            auroc([np.nan], [0.5])

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            pos = rng.normal(size=30)
            neg = rng.normal(size=20)
            base = auroc(pos, neg)
            assert auroc(np.exp(pos), np.exp(neg)) == base
            assert auroc(3.0 * pos + 11.0, 3.0 * neg + 11.0) == base
            assert auroc(pos**3, neg**3) == base


class TestRejectionCurve:
    def test_hand_curve(self):
        rs = _rs([0.9, 0.8, 0.7, 0.6, 0.5], [True, True, False, True, False])
        np.testing.assert_allclose(
            rejection_curve(rs), [0.4, 0.2, 0.2, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_starts_at_error_rate_and_ends_at_zero(self):
        rng = np.random.default_rng(27)
        conf = rng.random(50)
        correct = rng.random(50) < 0.7
        curve = rejection_curve(_rs(conf, correct))
        assert curve[0] == pytest.approx((~correct).sum() / 50)
        assert curve[-1] == 0.0
        assert np.all(np.diff(curve) <= 1e-15)  # never increases


    @pytest.mark.parametrize("correct, curve", [(True, [0.0, 0.0]), (False, [1.0, 0.0])])
    def test_one_record(self, correct, curve):
        assert rejection_curve(_rs([0.4], [correct])).tolist() == curve


class TestPrr:
    def test_hand_value(self):
        rs = _rs([0.9, 0.8, 0.7, 0.6, 0.5], [True, True, False, True, False])
        assert prr(rs) == pytest.approx(200.0 / 3.0, abs=1e-12)

    def test_oracle_ordering_is_exactly_100(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            n = int(rng.integers(4, 200))
            correct = rng.random(n) < 0.7
            if correct.all() or not correct.any():
                continue
            conf = np.where(correct, 0.6 + 0.4 * rng.random(n), 0.4 * rng.random(n))
            assert prr(_rs(conf, correct)) == 100.0

    def test_anti_oracle_ordering_is_negative(self):
        correct = np.array([True] * 5 + [False] * 5)
        conf = np.where(correct, 0.1, 0.9)
        assert prr(_rs(conf, correct)) < 0.0

    def test_matches_curve_enumeration_oracle(self):
        rng = np.random.default_rng(29)
        for trial in range(60):
            n = int(rng.integers(2, 300))
            conf = rng.random(n)
            if trial % 3 == 0:
                conf = np.round(conf, 1)  # force ties
            correct = rng.random(n) < rng.random()
            if correct.all() or not correct.any():
                continue
            got = prr(_rs(conf, correct))
            want = oracle_prr(list(conf), list(correct))
            assert abs(got - want) < 1e-12

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tied_records())
    @example((np.array([0.0, -0.0, 0.0, -0.0]), np.array([True, False, False, True])))
    @example((np.array([-0.0, 0.0, 0.5, 0.5, -0.0]), np.array([False, True, True, False, True])))
    @example((np.array([0.0, -0.0, 0.25]), np.array([True, True, True])))
    @example((np.array([-0.0, 0.0]), np.array([False, False])))
    def test_closed_form_matches_trapezoid_arrays_on_ties(self, case):
        conf, correct = case
        records = _rs(conf, correct)
        if correct.all() or not correct.any():
            with pytest.raises(MetricError, match="all-correct or all-incorrect"):
                prr(records)
        else:
            assert prr(records) == trapezoid_prr(conf, correct)

    def test_degenerate_correctness_raises(self):
        with pytest.raises(MetricError):
            prr(_rs([0.5, 0.6], [True, True]))
        with pytest.raises(MetricError):
            prr(_rs([0.5, 0.6], [False, False]))

    def test_short_input_raises(self):
        with pytest.raises(MetricError):
            prr(_rs([0.5], [True]))

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = 80
            conf = rng.normal(size=n)
            correct = rng.random(n) < 0.6
            if correct.all() or not correct.any():
                continue
            base = prr(_rs(conf, correct))
            assert prr(_rs(np.exp(conf), correct)) == base
            assert prr(_rs(conf**3, correct)) == base
            assert prr(_rs(5.0 * conf - 2.0, correct)) == base


def miou(predictions, labels, classes):
    """Pooled mIoU as evaluate_manifest computes it: one confusion matrix summed over images."""
    return iou_from_confusion(sum(confusion_matrix(p, lab, classes) for p, lab in zip(predictions, labels)))


class TestMiou:
    def test_hand_value(self):
        # class 0: tp 1, fp 1 -> 1/2; class 1: tp 0, fn 1 -> 0; mean 0.25
        labels = LabelMap(np.array([[0, 1]], dtype=np.uint16))
        pred = np.array([[0, 0]])
        result = miou([pred], [labels], classes=2)
        assert result.miou == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(result.per_class, [0.5, 0.0])

    def test_absent_class_is_nan_and_excluded(self):
        labels = LabelMap(np.array([[0, 0]], dtype=np.uint16))
        pred = np.array([[0, 0]])
        result = miou([pred], [labels], classes=3)
        assert result.miou == pytest.approx(1.0)
        assert np.isnan(result.per_class[1]) and np.isnan(result.per_class[2])

    def test_ignored_pixels_are_dropped(self):
        labels = LabelMap(np.array([[0, 255]], dtype=np.uint16))
        pred = np.array([[0, 1]])
        result = miou([pred], [labels], classes=2)
        assert result.miou == pytest.approx(1.0)

    def test_pooled_across_images_not_averaged(self):
        # pooling counts pixels, not per-image IoU means
        labels = [
            LabelMap(np.array([[0, 0, 0, 1]], dtype=np.uint16)),
            LabelMap(np.array([[1, 1, 1, 0]], dtype=np.uint16)),
        ]
        preds = [np.array([[0, 0, 1, 1]]), np.array([[1, 1, 0, 0]])]
        got = miou(preds, labels, classes=2)
        want_mean, want_per_class = oracle_miou(preds, labels, 2, 255)
        assert got.miou == pytest.approx(want_mean, abs=1e-15)
        np.testing.assert_allclose(got.per_class, want_per_class)

    def test_matches_set_arithmetic_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            classes = int(rng.integers(2, 7))
            images = int(rng.integers(1, 4))
            labels, preds = [], []
            for _ in range(images):
                h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
                lab = rng.integers(0, classes, size=(h, w)).astype(np.uint16)
                lab[rng.random((h, w)) < 0.15] = 255
                labels.append(LabelMap(lab))
                preds.append(rng.integers(0, classes, size=(h, w)))
            if all((lab.data == 255).all() for lab in labels):
                continue
            got = miou(preds, labels, classes=classes)
            want_mean, want_per_class = oracle_miou(preds, labels, classes, 255)
            assert abs(got.miou - want_mean) < 1e-12
            np.testing.assert_allclose(got.per_class, want_per_class, atol=1e-12)

    def test_all_ignored_raises(self):
        labels = LabelMap(np.full((2, 2), 255, dtype=np.uint16))
        with pytest.raises(MetricError):
            miou([np.zeros((2, 2), dtype=np.int64)], [labels], classes=2)


class TestConfusionMatrix:
    def test_rows_are_actual_columns_predicted(self):
        labels = LabelMap(np.array([[0, 1, 1]], dtype=np.uint16))
        pred = np.array([[1, 1, 0]])
        cm = confusion_matrix(pred, labels, classes=2)
        np.testing.assert_array_equal(cm, [[0, 1], [1, 1]])

    def test_accepts_label_map_predictions(self):
        labels = LabelMap(np.array([[0, 1]], dtype=np.uint16))
        pred = LabelMap(np.array([[0, 1]], dtype=np.uint16))
        cm = confusion_matrix(pred, labels, classes=2)
        np.testing.assert_array_equal(cm, [[1, 0], [0, 1]])

    @pytest.mark.parametrize("images", [1, 4])
    def test_stack_gives_each_image_its_matrix(self, images):
        rng = np.random.default_rng(images)
        labels = rng.integers(0, 3, size=(images, 5, 7)).astype(np.uint16)
        labels[rng.random(labels.shape) < 0.2] = 255
        labels[-1] = 255  # an all-ignored image counts nothing
        pred = rng.integers(0, 3, size=labels.shape)
        stacked = confusion_matrix(pred, labels, classes=3)
        assert stacked.shape == (images, 3, 3)
        for i in range(images):
            np.testing.assert_array_equal(stacked[i], confusion_matrix(pred[i], LabelMap(labels[i]), classes=3))

    def test_out_of_range_prediction_raises(self):
        labels = LabelMap(np.array([[0]], dtype=np.uint16))
        with pytest.raises(MetricError):
            confusion_matrix(np.array([[5]]), labels, classes=2)

    def test_shape_mismatch_raises(self):
        labels = LabelMap(np.array([[0, 1]], dtype=np.uint16))
        with pytest.raises(MetricError):
            confusion_matrix(np.array([[0]]), labels, classes=2)

    def test_iou_from_confusion_all_ignored_raises(self):
        with pytest.raises(MetricError):
            iou_from_confusion(np.zeros((3, 3), dtype=np.int64))


SCORES = (ConfidenceScore.MAX_PROB, ConfidenceScore.NEG_ENTROPY)


def _oracle_confidence(manifest, entry, score):
    """Per-pixel confidence of one image under the raw softmax, straight from its logits."""
    z = read_logits(manifest.resolve(entry.logits)).data.astype(np.float64)
    p = np.exp(z - z.max(axis=2, keepdims=True))
    p /= p.sum(axis=2, keepdims=True)
    if score is ConfidenceScore.MAX_PROB:
        return p.max(axis=2)
    return np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0).sum(axis=2)


def _oracle_images(manifest, score):
    """Per domain, each test image's (mean over non-ignored pixels, known, unknown) confidences."""
    images = {}
    for entry in manifest.select(split="test"):
        conf = _oracle_confidence(manifest, entry, score)
        valid = read_labels(manifest.resolve(entry.labels)).data != manifest.ignore_value
        mask = read_mask(manifest.resolve(entry.ood_mask))
        mean = sum(conf[valid].tolist()) / int(valid.sum())
        images.setdefault(entry.domain, []).append((mean, conf[~mask], conf[mask]))
    return images


def _copy_manifest(manifest, tmp_path):
    """The same manifest over a private copy of its files, safe to damage."""
    shutil.copytree(manifest.root, tmp_path / "copy")
    return dataclasses.replace(manifest, root=tmp_path / "copy")


class TestImageConfidence:
    """The per-image mean confidence behind ``ood_auroc``, on the path ``eval`` runs."""

    def test_mean_of_max_prob(self, holdout_manifest):
        report = evaluate_manifest(holdout_manifest, None, EvalConfig(metrics=("ood_auroc",)))
        for tag, images in _oracle_images(holdout_manifest, ConfidenceScore.MAX_PROB).items():
            want = sum(mean for mean, _, _ in images) / len(images)
            assert abs(report.domains[tag]["mean_confidence"] - want) < 1e-12

    def test_ignored_pixels_excluded(self, holdout_manifest):
        for score in SCORES:
            report = evaluate_manifest(holdout_manifest, None, EvalConfig(score=score))
            for tag, images in _oracle_images(holdout_manifest, score).items():
                want = sum(mean for mean, _, _ in images) / len(images)
                every_pixel = np.mean([np.concatenate([k, u]).mean() for _, k, u in images])
                assert abs(report.domains[tag]["mean_confidence"] - want) < 1e-12
                assert abs(every_pixel - want) > 1e-3  # the held-out pixels are ignored

    def test_all_ignored_raises(self, holdout_manifest, tmp_path):
        manifest = _copy_manifest(holdout_manifest, tmp_path)
        entry = manifest.select(split="test")[0]
        labels = read_labels(manifest.resolve(entry.labels))
        write_labels(manifest.resolve(entry.labels),
                     LabelMap(np.full_like(labels.data, manifest.ignore_value)), manifest.classes)
        with pytest.raises(MetricError, match="no non-ignored pixels"):
            evaluate_manifest(manifest, None, EvalConfig(metrics=("ood_auroc",)))


class TestOodAuroc:
    """``ood_auroc`` and ``pixel_ood_auroc`` of the report against pair-counting oracles."""

    def test_image_level_perfect_separation(self, holdout_manifest):
        # the shifted domain is sharper (tau 2.5), so every one of its images is
        # more confident than every in-domain one
        report = evaluate_manifest(holdout_manifest, None, EvalConfig(metrics=("ood_auroc",)))
        assert report.ood_auroc == {"strange": 0.0}

    def test_image_level_matches_pairwise_oracle(self, holdout_manifest):
        for score in SCORES:
            report = evaluate_manifest(holdout_manifest, None, EvalConfig(score=score))
            images = _oracle_images(holdout_manifest, score)
            want = oracle_auroc([m for m, _, _ in images["id"]], [m for m, _, _ in images["strange"]])
            assert abs(report.ood_auroc["strange"] - want) < 1e-12
            for tag, parts in images.items():  # the ranked means are the oracle's
                assert abs(report.domains[tag]["mean_confidence"] - np.mean([m for m, _, _ in parts])) < 1e-12

    def test_pixel_level_pools_across_images(self, holdout_manifest):
        for score in SCORES:
            report = evaluate_manifest(holdout_manifest, None, EvalConfig(score=score))
            images = _oracle_images(holdout_manifest, score)
            assert set(report.pixel_ood_auroc) == set(images)
            for tag, parts in images.items():
                known = np.concatenate([k for _, k, _ in parts])
                unknown = np.concatenate([u for _, _, u in parts])
                assert abs(report.pixel_ood_auroc[tag] - oracle_auroc_pairs(known, unknown)) < 1e-12

    def test_pixel_level_mask_shape_mismatch_raises(self, holdout_manifest, tmp_path):
        manifest = _copy_manifest(holdout_manifest, tmp_path)
        entry = manifest.select(split="test")[0]
        write_mask(manifest.resolve(entry.ood_mask), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ManifestError, match="ood mask shape"):
            evaluate_manifest(manifest, None, EvalConfig(metrics=("pixel_ood_auroc",)))

    def test_pixel_level_without_any_ood_pixels_is_omitted(self, holdout_manifest, tmp_path):
        manifest = _copy_manifest(holdout_manifest, tmp_path)
        for entry in manifest.select(split="test", domain="strange"):
            shape = read_mask(manifest.resolve(entry.ood_mask)).shape
            write_mask(manifest.resolve(entry.ood_mask), np.zeros(shape, dtype=bool))
        report = evaluate_manifest(manifest, None, EvalConfig(metrics=("pixel_ood_auroc",)))
        assert set(report.pixel_ood_auroc) == {"id"}

    def test_neg_entropy_score_supported(self, holdout_manifest):
        score = ConfidenceScore.NEG_ENTROPY
        report = evaluate_manifest(holdout_manifest, None, EvalConfig(score=score))
        assert report.meta["score"] == "neg_entropy"
        images = _oracle_images(holdout_manifest, score)
        known = np.concatenate([k for _, k, _ in images["strange"]])
        unknown = np.concatenate([u for _, _, u in images["strange"]])
        assert abs(report.pixel_ood_auroc["strange"] - oracle_auroc_pairs(known, unknown)) < 1e-12
        want = oracle_auroc([m for m, _, _ in images["id"]], [m for m, _, _ in images["strange"]])
        assert abs(report.ood_auroc["strange"] - want) < 1e-12
