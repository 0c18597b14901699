"""End-to-end evaluation over a manifest split."""

import dataclasses

import numpy as np
import pytest

from relikit import confidence
from relikit.calibration import GlobalTemperature
from relikit.confidence import ConfidenceScore
from relikit.errors import ManifestError, UsageError
from relikit.evaluate import ALL_METRICS, EvalConfig, evaluate_manifest
from relikit.manifest import DatasetManifest, ManifestEntry
from relikit.report import to_csv_bytes, to_json_bytes
from relikit.tensor_io import write_labels, write_logits
from relikit.tensors import LabelMap, LogitTensor


@pytest.fixture(scope="module")
def ladder_report(ladder_manifest):
    return evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3))


class TestEvalConfig:
    def test_defaults(self):
        config = EvalConfig()
        assert config.split == "test"
        assert config.metrics == ALL_METRICS

    def test_unknown_metric_rejected(self):
        with pytest.raises(UsageError):
            EvalConfig(metrics=("ece", "f1"))

    def test_invalid_workers_and_bins_rejected(self):
        with pytest.raises(UsageError):
            EvalConfig(workers=0)
        with pytest.raises(UsageError):
            EvalConfig(bins=0)

    def test_score_coerced_from_string(self):
        assert EvalConfig(score="neg_entropy").score is ConfidenceScore.NEG_ENTROPY


class TestEvaluateManifest:
    def test_domains_and_metrics_present(self, ladder_report):
        assert sorted(ladder_report.domains) == ["id", "mild", "strong"]
        for stats in ladder_report.domains.values():
            for key in ("n_images", "n_records", "accuracy", "mean_confidence",
                        "miou", "per_class_iou", "ece", "ada_ece", "ks_error", "prr"):
                assert key in stats

    def test_meta_echoes_settings_without_worker_count(self, ladder_report):
        meta = ladder_report.meta
        assert meta["split"] == "test"
        assert meta["score"] == "max_prob"
        assert meta["bins"] == 15
        assert meta["seed"] == 3
        assert meta["id_domain"] == "id"
        assert meta["classes"] == 5
        assert meta["metrics"] == sorted(ALL_METRICS)
        assert "workers" not in meta

    def test_ladder_degrades_with_shift(self, ladder_report):
        eces = {tag: s["ece"] for tag, s in ladder_report.domains.items()}
        assert eces["id"] < eces["mild"] < eces["strong"]
        assert ladder_report.ood_auroc.keys() == {"mild", "strong"}

    def test_worker_count_does_not_change_bytes(self, ladder_manifest):
        serial = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3, workers=1))
        pooled = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3, workers=4))
        assert to_json_bytes(serial) == to_json_bytes(pooled)
        assert to_csv_bytes(serial) == to_csv_bytes(pooled)

    def test_repeated_runs_are_byte_identical(self, ladder_manifest, ladder_report):
        again = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3))
        assert to_json_bytes(again) == to_json_bytes(ladder_report)

    def test_seed_changes_subsample(self, ladder_manifest):
        a = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3, pixels_per_image=400))
        b = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=4, pixels_per_image=400))
        assert a.domains["strong"]["ece"] != b.domains["strong"]["ece"]

    def test_metric_subsetting(self, ladder_manifest):
        report = evaluate_manifest(ladder_manifest, None,
                                   EvalConfig(metrics=("ece", "ks_error")))
        stats = report.domains["id"]
        assert "ece" in stats and "ks_error" in stats
        assert "miou" not in stats and "prr" not in stats
        assert report.ood_auroc == {} and report.pixel_ood_auroc == {}

    def test_full_pixel_count_when_subsampling_disabled(self, ladder_manifest):
        report = evaluate_manifest(
            ladder_manifest, None,
            EvalConfig(pixels_per_image=None, metrics=("ece",)))
        group = ladder_manifest.select(split="test", domain="id")
        assert report.domains["id"]["n_records"] == 48 * 48 * len(group)

    def test_explicit_id_domain(self, ladder_manifest):
        report = evaluate_manifest(ladder_manifest, None, EvalConfig(id_domain="mild"))
        assert report.meta["id_domain"] == "mild"
        assert report.ood_auroc.keys() == {"id", "strong"}

    def test_missing_id_domain_rejected(self, ladder_manifest):
        with pytest.raises(UsageError):
            evaluate_manifest(ladder_manifest, None, EvalConfig(id_domain="nope"))

    def test_empty_split_rejected(self, ladder_manifest):
        with pytest.raises(ManifestError):
            evaluate_manifest(ladder_manifest, None, EvalConfig(split="nope"))

    def test_calibration_changes_ece_not_predictions(self, ladder_manifest):
        raw = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3))
        cal = evaluate_manifest(ladder_manifest, GlobalTemperature(3.0), EvalConfig(seed=3))
        for tag in raw.domains:
            assert cal.domains[tag]["miou"] == raw.domains[tag]["miou"]
            assert cal.domains[tag]["per_class_iou"] == raw.domains[tag]["per_class_iou"]
            assert cal.domains[tag]["accuracy"] == raw.domains[tag]["accuracy"]
            assert cal.domains[tag]["ece"] != raw.domains[tag]["ece"]

    def test_calibration_improves_miscalibrated_domain(self, ladder_manifest):
        raw = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3))
        cal = evaluate_manifest(ladder_manifest, GlobalTemperature(4.0), EvalConfig(seed=3))
        assert cal.domains["strong"]["ece"] < raw.domains["strong"]["ece"]

    def test_neg_entropy_score_keeps_calibration_metrics(self, ladder_manifest):
        base = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3))
        ranked = evaluate_manifest(ladder_manifest, None,
                                   EvalConfig(seed=3, score=ConfidenceScore.NEG_ENTROPY))
        for tag in base.domains:
            # ECE and friends always read max-probability confidence
            assert ranked.domains[tag]["ece"] == base.domains[tag]["ece"]
            assert ranked.domains[tag]["ks_error"] == base.domains[tag]["ks_error"]
        assert ranked.meta["score"] == "neg_entropy"

    def test_neg_entropy_scales_each_image_once(self, ladder_manifest, monkeypatch):
        # both scores come from one divide-and-exp pass over each image's logits
        calls = []
        real = confidence.scaled_logits
        monkeypatch.setattr(confidence, "scaled_logits", lambda *args: calls.append(1) or real(*args))
        evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3, score=ConfidenceScore.NEG_ENTROPY))
        assert len(calls) == len(ladder_manifest.select(split="test"))

    def test_prediction_is_the_raw_logit_argmax(self, tmp_path):
        # softmax rounds [0, 1e-30] to two equal probabilities, whose argmax is class 0;
        # the confusion matrix must count the logit argmax, class 1, as eval's prediction
        write_logits(tmp_path / "a.logits.bin", LogitTensor(np.array([[[0.0, 1e-30]]], np.float32)))
        write_labels(tmp_path / "a.labels.bin", LabelMap(np.array([[1]], np.uint16)), 2)
        entry = ManifestEntry("a", "test", "id", "a.logits.bin", "a.labels.bin")
        manifest = DatasetManifest(classes=2, ignore_value=255, entries=(entry,), root=tmp_path)
        for calibrator in (None, GlobalTemperature(20.0)):
            stats = evaluate_manifest(manifest, calibrator, EvalConfig(metrics=("miou",))).domains["id"]
            assert stats["per_class_iou"] == [None, 1.0] and stats["accuracy"] == 1.0

    def test_pixel_ood_requires_masks(self, ladder_report, holdout_manifest):
        assert ladder_report.pixel_ood_auroc == {}
        report = evaluate_manifest(holdout_manifest, None, EvalConfig(seed=1))
        assert set(report.pixel_ood_auroc) == {"id", "strange"}
        for value in report.pixel_ood_auroc.values():
            assert 0.0 <= value <= 1.0

    def test_masks_read_only_for_pixel_ood(self, holdout_manifest, monkeypatch):
        from relikit import tensor_io

        masks = []
        original = tensor_io.read_mask
        monkeypatch.setattr(tensor_io, "read_mask", lambda path: masks.append(path) or original(path))
        evaluate_manifest(holdout_manifest, None, EvalConfig(metrics=("ece", "prr", "ood_auroc")))
        assert masks == []
        evaluate_manifest(holdout_manifest, None, EvalConfig(metrics=("pixel_ood_auroc",)))
        assert len(masks) == len(holdout_manifest.select(split="test"))

    def test_ood_auroc_separates_strong_shift(self, ladder_report):
        # sharpened logits make shifted domains overconfident, so in-domain
        # images rank below them: far from the 0.5 chance level, direction down
        assert ladder_report.ood_auroc["strong"] < 0.1


class TestBinTables:
    def test_structure_and_counts(self, ladder_manifest):
        config = EvalConfig(seed=3, bins=10)
        report = evaluate_manifest(ladder_manifest, None, config)
        tables = report.bins
        assert sorted(tables) == ["id", "mild", "strong"]
        for tag, table in tables.items():
            for key in ("lower", "upper", "count", "mean_confidence", "accuracy"):
                assert len(table[key]) == 10
            assert sum(table["count"]) == report.domains[tag]["n_records"]
            for count, conf in zip(table["count"], table["mean_confidence"]):
                assert (conf is None) == (count == 0)

    def test_empty_split_rejected(self, ladder_manifest):
        with pytest.raises(ManifestError):
            evaluate_manifest(ladder_manifest, None, EvalConfig(split="nope")).bins

    def test_ece_recomputed_from_table_matches_report(self, ladder_manifest):
        report = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3))
        for tag, table in report.bins.items():
            n = sum(table["count"])
            ece = 0.0
            for count, conf, acc in zip(table["count"], table["mean_confidence"], table["accuracy"]):
                if count:
                    ece += count / n * abs(acc - conf)
            assert ece == pytest.approx(report.domains[tag]["ece"], rel=1e-12, abs=1e-15)

    def test_tables_do_not_depend_on_metrics_or_workers(self, ladder_manifest):
        full = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3))
        narrow = evaluate_manifest(ladder_manifest, None,
                                   EvalConfig(seed=3, metrics=("miou",), workers=2))
        assert narrow.bins == full.bins

    def test_tables_are_not_serialized(self, ladder_manifest):
        report = evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3))
        assert report.bins
        assert b"lower" not in to_json_bytes(report)
        assert dataclasses.replace(report, bins={}) == report
