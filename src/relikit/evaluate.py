"""Dataset-level evaluation.

One pass over a manifest split produces a :class:`ReliabilityReport`:
per-domain segmentation quality (mIoU over a confusion matrix pooled
across the domain's images), calibration (ECE, adaptive ECE, KS error,
always from max-probability confidence), misclassification detection
(PRR, from the configured confidence score), and OOD detection (image-
and pixel-level AUROC against the in-domain reference).

Images are processed independently (optionally by a thread pool) and
reduced in sorted image-id order, so the report bytes do not depend on
the worker count. Calibration metrics use the same per-image subsampling
streams as fitting: a seed identifies one pixel set per image everywhere.

Every per-domain quantity is computed once. The equal-width reliability
bins behind ``ece`` are kept on the report (``bins``, not serialized) for
``eval --bins-out``, so the bin tables need no second pass. Under the
``max_prob`` score one record set serves calibration and PRR alike, and
ADA-ECE, KS and PRR share that set's single stable sort
(:attr:`~relikit.confidence.RecordSet.order`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import metrics as met
from . import tensor_io
from .calibration import Calibrator, apply_calibrator
from .confidence import ConfidenceScore, RecordSet, confidence_map
from .errors import ManifestError, MetricError, UsageError
from .manifest import DatasetManifest, ManifestEntry
from .rng import subsample_indices
from .tensors import check_same_shape, validate_labels

ALL_METRICS = ("miou", "ece", "ada_ece", "ks_error", "prr", "ood_auroc", "pixel_ood_auroc")


@dataclass(frozen=True)
class EvalConfig:
    split: str = "test"
    score: ConfidenceScore = ConfidenceScore.MAX_PROB
    bins: int = 15
    pixels_per_image: int | None = 20_000
    seed: int = 0
    id_domain: str | None = None
    metrics: tuple[str, ...] = ALL_METRICS
    workers: int = 1

    def __post_init__(self):
        unknown = set(self.metrics) - set(ALL_METRICS)
        if unknown:
            raise UsageError(f"unknown metrics {sorted(unknown)}; choose from {ALL_METRICS}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")
        if self.bins < 1:
            raise UsageError(f"bins must be >= 1, got {self.bins}")
        object.__setattr__(self, "score", ConfidenceScore(self.score))


@dataclass
class _ImageSummary:
    image_id: str
    domain: str
    confidence_cal: np.ndarray   # subsampled max-probability confidences
    confidence_rank: np.ndarray  # subsampled configured-score confidences
    predicted: np.ndarray
    actual: np.ndarray
    confusion: np.ndarray
    mean_confidence: float       # configured score, all non-ignored pixels
    known_conf: np.ndarray | None
    unknown_conf: np.ndarray | None


def _summarize_image(manifest: DatasetManifest, entry: ManifestEntry,
                     calibrator: Calibrator | None, config: EvalConfig) -> _ImageSummary:
    logits = tensor_io.read_logits(manifest.resolve(entry.logits))
    labels = tensor_io.read_labels(manifest.resolve(entry.labels))
    check_same_shape(logits, labels, f"{entry.image_id}: logits vs labels")
    if logits.classes != manifest.classes:
        raise ManifestError(
            f"{entry.image_id}: logits carry {logits.classes} classes, manifest says {manifest.classes}"
        )
    validate_labels(labels, manifest.classes, manifest.ignore_value)
    feature = None
    if entry.feature is not None:
        feature = tensor_io.read_feature(manifest.resolve(entry.feature))
    image = None
    if entry.image is not None:
        image = tensor_io.read_image(manifest.resolve(entry.image))
        check_same_shape(logits, image, f"{entry.image_id}: logits vs image")
    probs = apply_calibrator(calibrator, logits, feature=feature, image=image)

    conf_cal, predicted = confidence_map(probs, ConfidenceScore.MAX_PROB)
    if config.score is ConfidenceScore.MAX_PROB:
        conf_rank = conf_cal
    else:
        conf_rank, _ = confidence_map(probs, config.score)

    flat_labels = labels.data.reshape(-1)
    valid = np.flatnonzero(flat_labels != manifest.ignore_value)
    if valid.size == 0:
        raise MetricError(f"{entry.image_id}: image has no non-ignored pixels")
    keep = valid[subsample_indices(valid.size, config.pixels_per_image, config.seed,
                                   f"pixels:{entry.image_id}")]

    confusion = met.confusion_matrix(predicted, labels, manifest.classes, manifest.ignore_value)

    known_conf = unknown_conf = None
    if entry.ood_mask is not None:
        mask = tensor_io.read_mask(manifest.resolve(entry.ood_mask))
        if mask.shape != (logits.height, logits.width):
            raise ManifestError(f"{entry.image_id}: ood mask shape {mask.shape} does not match image")
        flat_mask = mask.reshape(-1)
        flat_rank = conf_rank.reshape(-1)
        known_conf = flat_rank[~flat_mask]
        unknown_conf = flat_rank[flat_mask]

    return _ImageSummary(
        image_id=entry.image_id,
        domain=entry.domain,
        confidence_cal=conf_cal.reshape(-1)[keep],
        confidence_rank=conf_rank.reshape(-1)[keep],
        predicted=predicted.reshape(-1)[keep],
        actual=flat_labels[keep].astype(np.int64),
        confusion=confusion,
        mean_confidence=float(conf_rank.reshape(-1)[valid].mean()),
        known_conf=known_conf,
        unknown_conf=unknown_conf,
    )


def _nullable(values: np.ndarray) -> list:
    """Floats for JSON, with NaN (an empty bin or an absent class) as None."""
    return [None if np.isnan(x) else float(x) for x in values]


def _bin_table(partition: met.BinPartition) -> dict:
    return {
        "lower": _nullable(partition.lower),
        "upper": _nullable(partition.upper),
        "count": partition.count.tolist(),
        "mean_confidence": _nullable(partition.mean_confidence),
        "accuracy": _nullable(partition.accuracy),
    }


def _record_set(summaries: list[_ImageSummary], rank: bool) -> RecordSet:
    parts = []
    for s in summaries:
        ids = np.empty(s.predicted.shape[0], dtype=object)
        ids[:] = s.image_id
        conf = s.confidence_rank if rank else s.confidence_cal
        parts.append(RecordSet(conf, s.predicted, s.actual, ids))
    return RecordSet.concat(parts)


def evaluate_manifest(manifest: DatasetManifest, calibrator: Calibrator | None = None,
                      config: EvalConfig = EvalConfig()):
    """Evaluate one split, returning a :class:`~relikit.report.ReliabilityReport`."""
    from .report import ReliabilityReport

    entries = manifest.select(split=config.split)
    if not entries:
        raise ManifestError(f"manifest has no entries in split {config.split!r}")
    if config.workers == 1:
        summaries = [_summarize_image(manifest, e, calibrator, config) for e in entries]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_summarize_image, manifest, e, calibrator, config)
                       for e in entries]
            results = {}
            for future in futures:
                summary = future.result()
                results[summary.image_id] = summary
        summaries = [results[e.image_id] for e in entries]

    by_domain: dict[str, list[_ImageSummary]] = {}
    for summary in summaries:  # entries are sorted by image_id, so groups are too
        by_domain.setdefault(summary.domain, []).append(summary)

    wanted = set(config.metrics)
    domains = {}
    bins = {}
    for tag in sorted(by_domain):
        group = by_domain[tag]
        cal_records = _record_set(group, rank=False)
        stats = {
            "n_images": len(group),
            "n_records": len(cal_records),
            "accuracy": float(cal_records.correct.mean()),
            "mean_confidence": float(np.mean([s.mean_confidence for s in group])),
        }
        if "miou" in wanted:
            pooled = np.zeros((manifest.classes, manifest.classes), dtype=np.int64)
            for s in group:
                pooled += s.confusion
            result = met.iou_from_confusion(pooled)
            stats["miou"] = result.miou
            stats["per_class_iou"] = _nullable(result.per_class)
        partition = met.bin_partition(cal_records, config.bins)
        bins[tag] = _bin_table(partition)
        if "ece" in wanted:
            stats["ece"] = partition.expected_calibration_error()
        if "ada_ece" in wanted:
            stats["ada_ece"] = met.ada_ece(cal_records, config.bins)
        if "ks_error" in wanted:
            stats["ks_error"] = met.ks_error(cal_records)
        if "prr" in wanted:
            rank_records = (cal_records if config.score is ConfidenceScore.MAX_PROB
                            else _record_set(group, rank=True))
            stats["prr"] = met.prr(rank_records)
        domains[tag] = stats

    id_domain = config.id_domain
    if id_domain is None and "id" in by_domain:
        id_domain = "id"
    if id_domain is not None and id_domain not in by_domain:
        raise UsageError(f"in-domain tag {id_domain!r} has no images in split {config.split!r}")

    ood_auroc = {}
    if "ood_auroc" in wanted and id_domain is not None:
        id_means = [s.mean_confidence for s in by_domain[id_domain]]
        for tag in sorted(by_domain):
            if tag == id_domain:
                continue
            ood_auroc[tag] = met.auroc(id_means, [s.mean_confidence for s in by_domain[tag]])

    pixel_ood = {}
    if "pixel_ood_auroc" in wanted:
        for tag in sorted(by_domain):
            known = [s.known_conf for s in by_domain[tag] if s.known_conf is not None]
            unknown = [s.unknown_conf for s in by_domain[tag] if s.unknown_conf is not None]
            if not known:
                continue
            known_all = np.concatenate(known)
            unknown_all = np.concatenate(unknown)
            if known_all.size and unknown_all.size:
                pixel_ood[tag] = met.auroc(known_all, unknown_all)

    meta = {
        "split": config.split,
        "score": config.score.value,
        "bins": config.bins,
        "pixels_per_image": config.pixels_per_image,
        "seed": config.seed,
        "id_domain": id_domain,
        "classes": manifest.classes,
        "ignore_value": manifest.ignore_value,
        "metrics": sorted(wanted),
    }
    return ReliabilityReport(meta=meta, domains=domains,
                             ood_auroc=ood_auroc, pixel_ood_auroc=pixel_ood, bins=bins)

