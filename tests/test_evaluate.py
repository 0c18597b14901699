"""End-to-end evaluation over a manifest split."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from relikit import calibration, confidence, evaluate
from relikit import metrics as met
from relikit.calibration import (
    ClusterTemperatureModel,
    GlobalTemperature,
    LtsHyper,
    calibrator_temperature,
    fit_cluster_ts,
    fit_lts,
    gather_pixel_batches,
    needs_image,
    save_calibrator,
)
from relikit.cli import main
from relikit.confidence import ConfidenceScore, RecordSet, confidence_map
from relikit.errors import ManifestError, MetricError, TensorFormatError, UsageError
from relikit.evaluate import ALL_METRICS, EvalConfig, evaluate_manifest
from relikit.manifest import (BATCH_PIXELS, DatasetManifest, ManifestEntry, load_batches, load_entry, load_manifest,
                              save_manifest)
from relikit.report import ReliabilityReport, to_bins_bytes, to_csv_bytes, to_json_bytes
from relikit.tensor_io import read_logits, write_feature, write_image, write_labels, write_logits, write_mask
from relikit.tensors import ImageTensor, LabelMap, LogitTensor


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

    def test_bins_have_an_upper_bound(self):
        from relikit.evaluate import MAX_BINS

        assert EvalConfig(bins=MAX_BINS).bins == MAX_BINS
        for bins in (MAX_BINS + 1, 4_000_000):
            with pytest.raises(UsageError, match=rf"^bins must be <= {MAX_BINS}, got {bins}$"):
                EvalConfig(bins=bins)
        with pytest.raises(UsageError, match=r"^bins must be >= 1, got 0$"):
            EvalConfig(bins=0)


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

    def test_neg_entropy_scales_each_pixel_once(self, ladder_manifest, monkeypatch):
        # both scores come from one divide-and-exp pass over the split's logits, batch by batch
        pixels = []
        real = confidence.scaled_logits

        def counted(logits, temperature):
            pixels.append(logits.size // logits.shape[-1])
            return real(logits, temperature)

        monkeypatch.setattr(confidence, "scaled_logits", counted)
        evaluate_manifest(ladder_manifest, None, EvalConfig(seed=3, score=ConfidenceScore.NEG_ENTROPY))
        assert sum(pixels) == 48 * 48 * len(ladder_manifest.select(split="test"))

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


def _write_mixed(root, faults=None):
    """A manifest whose entries change (H, W) grid along image_id order, with several domains per run.

    (6, 8) and (8, 6) grids have one pixel count. ``faults`` maps an
    image_id to a function that rewrites one of its files.
    """
    rng = np.random.default_rng(7)
    grids = {"calibration": [(8, 8)] * 3 + [(6, 8), (8, 6), (8, 6), (4, 12)] + [(8, 8)] * 2,
             "test": [(8, 8)] * 5 + [(6, 8), (6, 8), (8, 6), (4, 12), (4, 12)] + [(8, 8)] * 4}
    entries = []
    for split, shapes in grids.items():
        for i, (h, w) in enumerate(shapes):
            image_id = f"{split[:3]}-{i:02d}"
            paths = {key: f"{image_id}.{key}.bin" for key in ("logits", "labels", "feature", "image", "ood_mask")}
            domain = ("id", "near", "far")[i % 3]
            scale = {"id": 3.0, "near": 1.5, "far": 0.7}[domain]
            labels = rng.integers(0, 3, size=(h, w)).astype(np.uint16)
            labels[rng.random((h, w)) < 0.15] = 255
            logits = rng.normal(size=(h, w, 3)) + scale * np.eye(3)[np.minimum(labels, 2)]
            write_logits(root / paths["logits"], LogitTensor(logits.astype(np.float32)))
            write_labels(root / paths["labels"], LabelMap(labels), 3)
            write_feature(root / paths["feature"], np.array([scale, i % 2], np.float32))
            write_image(root / paths["image"], ImageTensor(rng.normal(size=(h, w, 2)).astype(np.float32)))
            write_mask(root / paths["ood_mask"], rng.random((h, w)) < 0.3)
            entries.append(ManifestEntry(image_id=image_id, split=split, domain=domain, **paths))
            if faults and image_id in faults:
                faults[image_id](root, entries[-1])
    return save_manifest(DatasetManifest(classes=3, ignore_value=255, entries=tuple(entries), root=root),
                         root / "manifest.json")


def _oracle_report(manifest, calibrator, config):
    """The report domains and bins of evaluate_manifest, built entry by entry (either score)."""

    def nullable(values):
        return [None if np.isnan(x) else float(x) for x in values]

    by_domain = {}
    for entry in manifest.select(split=config.split):
        one = load_entry(manifest, entry, pixels_per_image=config.pixels_per_image, seed=config.seed,
                         image=needs_image(calibrator), feature=isinstance(calibrator, ClusterTemperatureModel),
                         mask=True)
        temperature = calibrator_temperature(calibrator, one.logits, one.feature, one.image)
        conf, pred = confidence_map(one.logits, temperature)
        rank, _ = confidence_map(one.logits, temperature, config.score)
        flat = rank.reshape(-1)
        by_domain.setdefault(entry.domain, []).append((
            one.drawn(conf), one.drawn(pred), one.drawn(one.labels.data).astype(np.int64),
            met.confusion_matrix(pred, one.labels, manifest.classes, manifest.ignore_value),
            float(flat[one.valid].mean()), flat[~one.ood_mask.reshape(-1)], flat[one.ood_mask.reshape(-1)],
            one.drawn(rank)))
    domains, bins, pixel_ood = {}, {}, {}
    for tag, images in sorted(by_domain.items()):
        records = RecordSet(np.concatenate([image[0] for image in images]),
                            np.concatenate([image[1] == image[2] for image in images]))
        iou = met.iou_from_confusion(sum(image[3] for image in images))
        partition = met.bin_partition(records, config.bins)
        domains[tag] = {
            "n_images": len(images), "n_records": len(records), "accuracy": float(records.correct.mean()),
            "mean_confidence": float(np.mean([image[4] for image in images])),
            "miou": iou.miou, "per_class_iou": nullable(iou.per_class),
            "ece": partition.expected_calibration_error(), "ada_ece": met.ada_ece(records, config.bins),
            "ks_error": met.ks_error(records),
            "prr": met.prr(RecordSet(np.concatenate([image[7] for image in images]), records.correct)),
        }
        bins[tag] = {key: nullable(getattr(partition, key))
                     for key in ("lower", "upper", "mean_confidence", "accuracy")}
        bins[tag]["count"] = partition.count.tolist()
        pixel_ood[tag] = met.auroc(np.concatenate([image[5] for image in images]),
                                   np.concatenate([image[6] for image in images]))
    means = {tag: [image[4] for image in images] for tag, images in by_domain.items()}
    ood = {tag: met.auroc(means["id"], means[tag]) for tag in sorted(means) if tag != "id"}
    return domains, bins, ood, pixel_ood


class TestBatchedEvaluation:
    """Eval and fit score runs of same-grid entries as batches; nothing may depend on the batching."""

    @pytest.fixture(scope="class")
    def mixed(self, tmp_path_factory):
        return load_manifest(_write_mixed(tmp_path_factory.mktemp("mixed")))

    @pytest.fixture(params=[150, BATCH_PIXELS], ids=["small-budget", "default-budget"])
    def budget(self, request, monkeypatch):
        monkeypatch.setattr("relikit.manifest.BATCH_PIXELS", request.param)
        return request.param

    def _calibrators(self, manifest):
        cluster = fit_cluster_ts(manifest, k=2, variant="per_class", pixels_per_image=20, seed=1)
        return [None, GlobalTemperature(1.7),
                fit_cluster_ts(manifest, k=2, pixels_per_image=20, seed=1), cluster,
                fit_lts(manifest, hyper=LtsHyper(epochs=2, batch_pixels=64), pixels_per_image=20, seed=1)[0]]

    def test_batches_cut_where_the_grid_or_budget_changes(self, mixed, budget):
        entries = mixed.select(split="test")
        batches = list(load_batches(mixed, entries, pixels_per_image=None, seed=0))
        assert [one.entry for batch in batches for one in batch.loaded] == entries
        for batch in batches:
            grids = {one.labels.data.shape for one in batch.loaded}
            assert len(grids) == 1 and (len(batch.loaded) == 1 or batch.labels.size <= budget)
            assert batch.logits.shape == (len(batch.loaded), *grids.pop(), 3)
        if budget == 150:  # two 8 x 8 images per batch; (6, 8) and (8, 6) part though they have one pixel count
            assert [len(batch.loaded) for batch in batches] == [2, 2, 1, 2, 1, 2, 2, 2]
        else:
            assert [len(batch.loaded) for batch in batches] == [5, 2, 1, 2, 4]

    def test_reports_match_entry_by_entry_oracle_at_every_worker_count(self, mixed, budget):
        config = EvalConfig(seed=2, pixels_per_image=45, id_domain="id")  # a draw from 8 x 8, all of 48 pixels
        for calibrator in self._calibrators(mixed):
            reports = [evaluate_manifest(mixed, calibrator, dataclasses.replace(config, workers=workers))
                       for workers in (1, 2, 3)]
            for report in reports[1:]:
                assert to_json_bytes(report) == to_json_bytes(reports[0])
                assert to_csv_bytes(report) == to_csv_bytes(reports[0])
                assert report.bins == reports[0].bins
            domains, bins, ood, pixel_ood = _oracle_report(mixed, calibrator, config)
            assert reports[0].domains == domains
            assert reports[0].ood_auroc == ood and reports[0].pixel_ood_auroc == pixel_ood
            assert reports[0].bins == bins

    def test_fit_pixels_match_entry_by_entry_stack(self, mixed, budget):
        entries = mixed.select(split="calibration")
        pixels = gather_pixel_batches(mixed, entries, pixels_per_image=25, seed=4, need_image=True)
        loaded = [load_entry(mixed, e, pixels_per_image=25, seed=4, image=True) for e in entries]
        np.testing.assert_array_equal(pixels.logits, np.concatenate([one.drawn(one.logits.data) for one in loaded]))
        np.testing.assert_array_equal(pixels.labels, np.concatenate([one.drawn(one.labels.data) for one in loaded]))
        np.testing.assert_array_equal(pixels.channels, np.concatenate([one.drawn(one.image.data) for one in loaded]))
        np.testing.assert_array_equal(pixels.entry, np.repeat(np.arange(len(entries)), [one.rows.size for one in loaded]))
        assert pixels.logits.dtype == pixels.channels.dtype == np.float32 and pixels.labels.dtype == np.int64

    @pytest.mark.parametrize("first, pixels_per_image, allocations, cut", [
        (0, 25, 1, False),   # all nine entries draw 25 rows: the first room is exact
        (0, None, 1, True),  # (8, 8) grids first, then smaller ones and ignored pixels: room is left over
        (6, None, 2, False),  # two (8, 8) entries after a 48-pixel one draw more than 48 rows each
    ], ids=["exact", "cut", "grown"])
    def test_fit_stack_grows_and_is_cut_to_the_drawn_rows(self, mixed, budget, monkeypatch, first,
                                                           pixels_per_image, allocations, cut):
        entries = mixed.select(split="calibration")[first:]
        rooms = []
        real = calibration._with_rows

        def counted(array, rows, shape, dtype):
            if dtype == np.float32:
                rooms.append(shape[0])
            return real(array, rows, shape, dtype)

        monkeypatch.setattr(calibration, "_with_rows", counted)
        pixels = gather_pixel_batches(mixed, entries, pixels_per_image=pixels_per_image, seed=4, need_image=True)
        loaded = [load_entry(mixed, e, pixels_per_image=pixels_per_image, seed=4, image=True) for e in entries]
        expected = np.concatenate([np.concatenate([one.drawn(one.logits.data), one.drawn(one.image.data)], axis=1)
                                   for one in loaded])
        np.testing.assert_array_equal(pixels.values, expected)
        np.testing.assert_array_equal(pixels.labels, np.concatenate([one.drawn(one.labels.data) for one in loaded]))
        assert pixels.values.flags.owndata and pixels.labels.flags.owndata  # no room is kept past the rows
        assert len(rooms) == allocations and (rooms[-1] > len(pixels.values)) == cut

    def test_fitted_artifacts_do_not_depend_on_the_budget(self, mixed, tmp_path, monkeypatch):
        saved = {}
        for budget in (BATCH_PIXELS, 150, 1):
            monkeypatch.setattr("relikit.manifest.BATCH_PIXELS", budget)
            # a budget of 1 puts each entry in a batch of its own
            saved[budget] = [save_calibrator(c, tmp_path / f"{budget}-{i}.json").read_bytes()
                             for i, c in enumerate(self._calibrators(mixed)[1:])]
        assert saved[150] == saved[BATCH_PIXELS] == saved[1]

    @staticmethod
    def _replace_logits(data):
        def fault(root, entry):
            write_logits(root / entry.logits, LogitTensor(np.zeros((8, 8, 3), np.float32)))
            raw = bytearray((root / entry.logits).read_bytes())
            raw[-4:] = np.array([data], "<f4").tobytes()
            (root / entry.logits).write_bytes(bytes(raw))
        return fault

    @pytest.mark.parametrize("fault, message", [
        ("non_finite", "{logits}: logits: non-finite values"),
        ("label_range", "labels: value 7 outside [0, 3) and not the ignore sentinel 255"),
        ("dtype", "{labels}: expected u16 HW labels, got f32 HWC"),
        ("shape", "tes-01: logits vs labels: spatial shapes differ, (8, 8) vs (4, 12)"),
        ("all_ignored", "tes-01: image has no non-ignored pixels"),
    ])
    def test_fault_in_the_middle_of_a_batch(self, tmp_path, monkeypatch, capsys, fault, message):
        # test entries 0-2 are one 8 x 8 batch under a 200-pixel budget; entry 1 is broken
        def labels(data):
            return lambda root, entry: write_labels(root / entry.labels, LabelMap(data), 3)

        faults = {
            "non_finite": self._replace_logits(np.inf),
            "label_range": labels(np.full((8, 8), 7, np.uint16)),
            "dtype": lambda root, entry: write_image(root / entry.labels, ImageTensor(np.zeros((8, 8, 1), np.float32))),
            "shape": labels(np.zeros((4, 12), np.uint16)),
            "all_ignored": labels(np.full((8, 8), 255, np.uint16)),
        }
        path = _write_mixed(tmp_path, {"tes-01": faults[fault]})
        monkeypatch.setattr("relikit.manifest.BATCH_PIXELS", 200)
        manifest = load_manifest(path)
        entry = manifest.select(split="test")[1]
        expected = message.format(logits=manifest.path(entry.logits), labels=manifest.path(entry.labels))
        for workers in ("1", "2"):
            code = main(["eval", "--manifest", str(path), "--workers", workers, "--out", str(tmp_path / "r.json")])
            assert (code, capsys.readouterr().err) == (2, f"error: {expected}\n")
        # fit reads the same batches; an all-ignored image only gives it no pixels
        code = main(["fit", "--manifest", str(path), "--split", "test", "--out", str(tmp_path / "a.json")])
        assert (code, capsys.readouterr().err) == ((0, "") if fault == "all_ignored" else (2, f"error: {expected}\n"))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_the_first_failing_batch_names_the_error(self, tmp_path, monkeypatch, workers):
        # one entry per batch; tes-01 and tes-02 both fail, and on a pool both may be in flight at once
        ignored = lambda root, entry: write_labels(root / entry.labels, LabelMap(np.full((8, 8), 255, np.uint16)), 3)
        manifest = load_manifest(_write_mixed(tmp_path, {"tes-01": ignored, "tes-02": ignored}))
        monkeypatch.setattr("relikit.manifest.BATCH_PIXELS", 1)
        monkeypatch.setattr("relikit.evaluate.os.cpu_count", lambda: 4)
        with pytest.raises(MetricError, match="^tes-01: image has no non-ignored pixels$"):
            evaluate_manifest(manifest, None, EvalConfig(workers=workers))


class TestPixelOodWarning:
    def test_masked_domain_without_unknown_pixels_is_named_once(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        entries = []
        for domain, unknown in (("id", 3), ("clean", 0), ("plain", None)):
            write_logits(tmp_path / f"{domain}.logits.bin", LogitTensor(rng.normal(size=(4, 4, 3)).astype(np.float32)))
            write_labels(tmp_path / f"{domain}.labels.bin", LabelMap(rng.integers(0, 3, (4, 4)).astype(np.uint16)), 3)
            mask = None
            if unknown is not None:
                mask = f"{domain}.mask.bin"
                write_mask(tmp_path / mask, np.arange(16).reshape(4, 4) < unknown)
            entries.append(ManifestEntry(domain, "test", domain, f"{domain}.logits.bin", f"{domain}.labels.bin",
                                         ood_mask=mask))
        path = save_manifest(DatasetManifest(classes=3, ignore_value=255, entries=tuple(entries), root=tmp_path),
                             tmp_path / "manifest.json")
        assert main(["eval", "--manifest", str(path), "--out", str(tmp_path / "report.json")]) == 0
        # a domain without masks is not named: pixel OOD does not apply to it
        assert capsys.readouterr().err == (
            "warning: clean: no pixel_ood_auroc, its masks hold 16 known and 0 unknown pixels\n")
        report = evaluate_manifest(load_manifest(path))
        assert set(report.pixel_ood_auroc) == {"id"}
        assert (tmp_path / "report.json").read_bytes() == to_json_bytes(report)
        # without pixel_ood_auroc no mask is read, so nothing is left out
        assert main(["eval", "--manifest", str(path), "--metrics", "prr", "--out", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def records_manifest(tmp_path_factory):
    """Two test-only domains of 40 images of 48 x 48 x 5 each: 184 320 records when every pixel is drawn."""
    from relikit.synth import DomainSpec, SynthConfig, generate_benchmark

    config = SynthConfig(domains=(DomainSpec("id", 1.0, 0.0, (0.0, 0.0)), DomainSpec("mild", 2.0, 0.1, (6.0, 0.0))),
                         calibration_images=0, test_images=40, seed=3)
    return load_manifest(generate_benchmark(config, tmp_path_factory.mktemp("records")))


class TestRecordMemory:
    """Eval keeps a drawn record as its confidence (two under neg_entropy) and one correctness flag."""

    # evaluate_manifest's tracemalloc peak per drawn record on records_manifest, every pixel drawn. Measured
    # on x86-64 with NumPy 2.4: about 32 B under max_prob and 37 B under neg_entropy; about 35 and 43 B
    # while every domain was reduced after the last read, and with an int64 predicted and actual class per
    # record before that, about 65 and 73 B.
    PEAK_PER_RECORD = {ConfidenceScore.MAX_PROB: 45, ConfidenceScore.NEG_ENTROPY: 55}

    @pytest.mark.parametrize("score", list(ConfidenceScore))
    def test_summaries_and_record_sets_hold_no_int64_per_record(self, records_manifest, monkeypatch, score):
        summaries, record_sets = [], []
        summarize = evaluate._summarize_batch

        def spy_summarize(*args, **kwargs):
            out = summarize(*args, **kwargs)
            summaries.extend(out)
            return out

        class SpyRecordSet(RecordSet):
            def __post_init__(self):
                super().__post_init__()
                record_sets.append(self)

        monkeypatch.setattr(evaluate, "_summarize_batch", spy_summarize)
        monkeypatch.setattr(evaluate, "RecordSet", SpyRecordSet)
        evaluate_manifest(records_manifest, None, EvalConfig(pixels_per_image=None, score=score))
        assert len(summaries) == 80
        assert len(record_sets) == (2 if score is ConfidenceScore.MAX_PROB else 4)
        for summary in summaries:
            per_record = {name: value.dtype for name, value in vars(summary).items()
                          if isinstance(value, np.ndarray) and value.ndim == 1}
            assert per_record == {"confidence_cal": np.float64, "confidence_rank": np.float64, "correct": np.bool_}
        for records in record_sets:
            assert {f.name: getattr(records, f.name).dtype for f in dataclasses.fields(records)} == {
                "confidence": np.float64, "correct": np.bool_}

    @pytest.mark.parametrize("score", list(ConfidenceScore))
    def test_peak_per_drawn_record(self, records_manifest, score):
        config = EvalConfig(pixels_per_image=None, score=score)
        evaluate_manifest(records_manifest, None, config)  # first-call allocations are not the records'
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = evaluate_manifest(records_manifest, None, config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        records = sum(stats["n_records"] for stats in report.domains.values())
        assert records == 80 * 48 * 48
        assert peak / records <= self.PEAK_PER_RECORD[score]


class TestRecordSetOrder:
    @pytest.mark.parametrize("score", list(ConfidenceScore))
    def test_each_record_set_is_ordered_once_and_drops_its_order(self, holdout_manifest, monkeypatch, score):
        config = EvalConfig(seed=1, score=score)
        domains, _, ood, pixel_ood = _oracle_report(holdout_manifest, None, config)
        sorts, record_sets = [], []
        real = confidence._stable_argsort

        class SpyRecordSet(RecordSet):
            def __post_init__(self):
                super().__post_init__()
                record_sets.append(self)

        monkeypatch.setattr(confidence, "_stable_argsort", lambda values: sorts.append(values.size) or real(values))
        monkeypatch.setattr(evaluate, "RecordSet", SpyRecordSet)
        report = evaluate_manifest(holdout_manifest, None, config)
        # one calibration set per domain, and under neg_entropy one ranking set, which only prr reads
        sets = 1 if score is ConfidenceScore.MAX_PROB else 2
        assert sorted(sorts) == sorted([stats["n_records"] for stats in report.domains.values()] * sets)
        assert len(record_sets) == sets * len(report.domains)
        assert all("order" not in vars(records) for records in record_sets)
        assert report.domains == domains and report.ood_auroc == ood and report.pixel_ood_auroc == pixel_ood


class TestOneBatchAlivePerRead:
    """Fit and serial eval drop each batch before the next entry is read."""

    @pytest.fixture
    def alive_at_each_read(self, monkeypatch):
        """The number of earlier LoadedEntry objects still alive as each load_entry call begins."""
        from relikit import manifest

        monkeypatch.setattr("relikit.manifest.BATCH_PIXELS", 1)  # a batch of one entry each
        real, loaded, alive = manifest.load_entry, [], []

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in loaded))
            one = real(*args, **kwargs)
            loaded.append(weakref.ref(one))
            return one

        monkeypatch.setattr(manifest, "load_entry", tracked)
        return alive

    def test_gather_pixel_batches(self, ladder_manifest, alive_at_each_read):
        entries = ladder_manifest.select(split="calibration")
        gather_pixel_batches(ladder_manifest, entries, pixels_per_image=50, seed=0, need_image=True)
        # a full batch is yielded before the next entry is read, so no earlier entry is alive at a read
        assert alive_at_each_read == [0] * len(entries)

    @pytest.mark.parametrize("budget", [150 * 48 * 48, 5 * 48 * 48], ids=["one-batch", "batches-of-5"])
    def test_load_batches_keeps_no_yielded_batch(self, ladder_manifest, monkeypatch, budget):
        # the test split's 12 images make one batch, the last, or batches of 5, 5 and 2
        monkeypatch.setattr("relikit.manifest.BATCH_PIXELS", budget)
        batches = load_batches(ladder_manifest, ladder_manifest.select(split="test"), pixels_per_image=10, seed=0)
        for batch in batches:
            entries = [weakref.ref(one) for one in batch.loaded]
            del batch
            assert not any(entry() for entry in entries)

    @pytest.mark.parametrize("score", list(ConfidenceScore))
    def test_serial_evaluation(self, holdout_manifest, alive_at_each_read, score):
        evaluate_manifest(holdout_manifest, GlobalTemperature(1.5), EvalConfig(score=score, workers=1))
        assert alive_at_each_read == [0] * len(holdout_manifest.select(split="test"))


def _write_interleaved(root, domains, confident=(), truncated=None):
    """One 6 x 8 test image per tag of ``domains``, ``img-00`` onward, so sorted ids follow that order.

    An image of a domain in ``confident`` has logits that peak on its
    labels, so each of its pixels is right and the domain's PRR is
    undefined. The logits file of image number ``truncated`` loses its last
    4 bytes.
    """
    rng = np.random.default_rng(11)
    entries = []
    for i, domain in enumerate(domains):
        image_id = f"img-{i:02d}"
        paths = {key: f"{image_id}.{key}.bin" for key in ("logits", "labels", "ood_mask")}
        labels = rng.integers(0, 3, size=(6, 8)).astype(np.uint16)
        labels[rng.random((6, 8)) < 0.1] = 255
        onehot = np.eye(3)[np.minimum(labels, 2)]
        logits = 20.0 * onehot if domain in confident else rng.normal(size=(6, 8, 3)) + 1.5 * onehot
        write_logits(root / paths["logits"], LogitTensor(logits.astype(np.float32)))
        write_labels(root / paths["labels"], LabelMap(labels), 3)
        write_mask(root / paths["ood_mask"], rng.random((6, 8)) < 0.3)
        entries.append(ManifestEntry(image_id=image_id, split="test", domain=domain, **paths))
    if truncated is not None:
        path = root / entries[truncated].logits
        path.write_bytes(path.read_bytes()[:-4])
    return save_manifest(DatasetManifest(classes=3, ignore_value=255, entries=tuple(entries), root=root),
                         root / "manifest.json")


class TestDomainsReducedAtTheirLastEntry:
    """Eval reduces each domain when its last entry is summarized; neither the bytes nor the errors show it."""

    @pytest.mark.parametrize("score", list(ConfidenceScore))
    def test_interleaved_domains_match_the_oracle_bytes(self, tmp_path, score):
        # "shift" ends at img-04, before "id", whose image means its ood_auroc still needs
        manifest = load_manifest(_write_interleaved(tmp_path, ("id", "shift", "shift", "id", "shift", "id")))
        config = EvalConfig(score=score, pixels_per_image=30, seed=1)
        for calibrator in (None, GlobalTemperature(1.7)):
            domains, bins, ood, pixel_ood = _oracle_report(manifest, calibrator, config)
            assert set(ood) == {"shift"} and set(pixel_ood) == {"id", "shift"}
            for workers in (1, 2):
                report = evaluate_manifest(manifest, calibrator, dataclasses.replace(config, workers=workers))
                oracle = ReliabilityReport(report.meta, domains, ood, pixel_ood, bins)
                assert to_json_bytes(report) == to_json_bytes(oracle)
                assert to_csv_bytes(report) == to_csv_bytes(oracle)
                assert to_bins_bytes(report) == to_bins_bytes(oracle)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_read_error_wins_over_an_earlier_domains_metric_error(self, tmp_path, capsys, workers):
        # "calm" ends at img-02 with an undefined prr; the logits of img-04, read later, are truncated
        domains = ("calm", "shift", "calm", "shift", "shift", "shift")
        for truncated in (None, 4):
            root = tmp_path / str(truncated)
            root.mkdir()
            path = _write_interleaved(root, domains, confident={"calm"}, truncated=truncated)
            expected = "calm: prr is undefined for all-correct or all-incorrect records"
            if truncated is not None:
                with pytest.raises(TensorFormatError) as read_error:
                    read_logits(root / f"img-{truncated:02d}.logits.bin")
                expected = str(read_error.value)
            code = main(["eval", "--manifest", str(path), "--workers", workers, "--out", str(root / "r.json")])
            assert (code, capsys.readouterr().err) == (2, f"error: {expected}\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_metric_errors_are_raised_in_sorted_domain_order(self, tmp_path, workers):
        # both domains' prr is undefined; "zeta" ends first, at img-02, but "alpha" sorts first
        manifest = load_manifest(_write_interleaved(tmp_path, ("zeta", "alpha", "zeta", "alpha"),
                                                    confident={"alpha", "zeta"}))
        with pytest.raises(MetricError, match="^alpha: prr is undefined"):
            evaluate_manifest(manifest, None, EvalConfig(workers=workers))
