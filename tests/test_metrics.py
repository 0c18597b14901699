"""Reliability metrics against brute-force oracles and frozen hand values.

Each metric has an independent naive implementation here (per-bin loops,
O(n^2) pair counting, full curve enumeration, per-class set arithmetic)
used both on frozen examples worked out by hand and in seeded randomized
sweeps.
"""

import math

import numpy as np
import pytest

from relikit.confidence import ConfidenceScore, RecordSet
from relikit.errors import MetricError
from relikit.metrics import (
    DEFAULT_BINS,
    BinStrategy,
    auroc,
    bin_partition,
    confusion_matrix,
    ece,
    ada_ece,
    image_confidence,
    iou_from_confusion,
    ks_error,
    miou,
    ood_image_auroc,
    pixel_ood_auroc,
    prr,
    rejection_curve,
)
from relikit.tensors import LabelMap, ProbTensor


def _rs(conf, correct):
    conf = np.asarray(conf, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    predicted = np.zeros(conf.shape[0], dtype=np.int64)
    actual = np.where(correct, 0, 1)
    return RecordSet(conf, predicted, actual)


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
        rng = np.random.default_rng(25)
        for _ in range(60):
            npos = int(rng.integers(1, 60))
            nneg = int(rng.integers(1, 60))
            # quantize so ties actually occur
            pos = np.round(rng.random(npos), 1)
            neg = np.round(rng.random(nneg), 1)
            got = auroc(pos, neg)
            want = oracle_auroc(list(pos), list(neg))
            assert abs(got - want) < 1e-12

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

    def test_length_mismatch_raises(self):
        with pytest.raises(MetricError):
            miou([], [], classes=2)


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


def _prob_tensor(rng, shape=(4, 4), classes=3, peak=None):
    raw = rng.random((*shape, classes))
    if peak is not None:
        raw[..., 0] += peak  # push mass onto class 0 to raise confidence
    return ProbTensor(raw / raw.sum(axis=2, keepdims=True))


class TestImageConfidence:
    def test_mean_of_max_prob(self):
        probs = ProbTensor(np.array([[[0.8, 0.2], [0.6, 0.4]]]))
        assert image_confidence(probs) == pytest.approx(0.7)

    def test_ignored_pixels_excluded(self):
        probs = ProbTensor(np.array([[[0.8, 0.2], [0.6, 0.4]]]))
        labels = LabelMap(np.array([[0, 255]], dtype=np.uint16))
        assert image_confidence(probs, labels) == pytest.approx(0.8)

    def test_all_ignored_raises(self):
        probs = ProbTensor(np.array([[[0.8, 0.2]]]))
        labels = LabelMap(np.array([[255]], dtype=np.uint16))
        with pytest.raises(MetricError):
            image_confidence(probs, labels)


class TestOodAuroc:
    def test_image_level_perfect_separation(self):
        rng = np.random.default_rng(32)
        id_probs = [_prob_tensor(rng, peak=8.0) for _ in range(3)]
        ood_probs = [_prob_tensor(rng) for _ in range(3)]
        assert ood_image_auroc(id_probs, ood_probs) == 1.0

    def test_image_level_matches_pairwise_oracle(self):
        rng = np.random.default_rng(33)
        id_probs = [_prob_tensor(rng, peak=rng.random() * 2) for _ in range(4)]
        ood_probs = [_prob_tensor(rng, peak=rng.random()) for _ in range(5)]
        got = ood_image_auroc(id_probs, ood_probs)
        want = oracle_auroc(
            [image_confidence(p) for p in id_probs],
            [image_confidence(p) for p in ood_probs],
        )
        assert abs(got - want) < 1e-12

    def test_pixel_level_pools_across_images(self):
        rng = np.random.default_rng(34)
        probs = [_prob_tensor(rng, peak=4.0) for _ in range(2)]
        masks = [rng.random((4, 4)) < 0.3 for _ in range(2)]
        if not any(m.any() for m in masks):
            masks[0][0, 0] = True
        got = pixel_ood_auroc(probs, masks)
        known, unknown = [], []
        for p, m in zip(probs, masks):
            conf = p.data.max(axis=2)
            known.extend(conf[~m].tolist())
            unknown.extend(conf[m].tolist())
        assert abs(got - oracle_auroc(known, unknown)) < 1e-12

    def test_pixel_level_mask_shape_mismatch_raises(self):
        rng = np.random.default_rng(35)
        probs = [_prob_tensor(rng)]
        with pytest.raises(MetricError):
            pixel_ood_auroc(probs, [np.zeros((2, 2), dtype=bool)])

    def test_pixel_level_without_any_ood_pixels_raises(self):
        rng = np.random.default_rng(36)
        probs = [_prob_tensor(rng)]
        with pytest.raises(MetricError):
            pixel_ood_auroc(probs, [np.zeros((4, 4), dtype=bool)])

    def test_pixel_level_empty_lists_raise(self):
        with pytest.raises(MetricError):
            pixel_ood_auroc([], [])

    def test_neg_entropy_score_supported(self):
        rng = np.random.default_rng(37)
        probs = [_prob_tensor(rng, peak=6.0) for _ in range(2)]
        masks = [np.zeros((4, 4), dtype=bool) for _ in range(2)]
        masks[0][0, :] = True
        value = pixel_ood_auroc(probs, masks, score=ConfidenceScore.NEG_ENTROPY)
        assert 0.0 <= value <= 1.0
