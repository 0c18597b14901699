"""Dataset-level evaluation.

One pass over a manifest split produces a :class:`ReliabilityReport`:
per-domain segmentation quality (mIoU over a confusion matrix pooled
across the domain's images), calibration (ECE, adaptive ECE, KS error,
always from max-probability confidence), misclassification detection
(PRR, from the configured confidence score), and OOD detection (image-
and pixel-level AUROC against the in-domain reference).

Images are processed independently (optionally by a thread pool) and
reduced in sorted image-id order, so the report bytes do not depend on
the worker count. Each image is loaded through
:func:`~relikit.calibration.load_entry`, as in fitting, so a seed
identifies one pixel set per image everywhere. Besides the logits and
labels it reads only what is used: the image for an LTS calibrator that
takes image channels, the feature vector for a cluster calibrator, and
the OOD mask when ``pixel_ood_auroc`` is requested. The calibrator
gives the image one temperature, a scalar or a per-pixel map
(:func:`~relikit.calibration.calibrator_temperature`), and
:func:`~relikit.confidence.confidence_map` reduces the scaled logits
straight to confidences, without a probability tensor; the predicted
class is the raw-logit argmax. Under ``neg_entropy`` one exp pass gives
both the max-probability confidence (for the calibration metrics) and the
entropy score (for ranking).

Every per-domain quantity is computed once. The equal-width reliability
bins behind ``ece`` are kept on the report (``bins``, not serialized) for
``eval --bins-out``, so the bin tables need no second pass. Under the
``max_prob`` score one record set serves calibration and PRR alike, and
ADA-ECE, KS and PRR share that set's one stable order
(:attr:`~relikit.confidence.RecordSet.order`), which is built from
NumPy's unstable default sort; no metric runs a stable sort.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import metrics as met
from .calibration import (
    DEFAULT_PIXELS_PER_IMAGE,
    Calibrator,
    ClusterTemperatureModel,
    calibrator_temperature,
    load_entry,
    needs_image,
)
from .confidence import ConfidenceScore, RecordSet, _confidence_pass, confidence_map
from .errors import ManifestError, MetricError, UsageError
from .manifest import DatasetManifest, ManifestEntry
# Unused here; the benchmark tracer's smoke test looks these bindings up.
from .calibration import apply_calibrator  # noqa: F401
from .rng import subsample_indices  # noqa: F401
from .tensors import validate_labels  # noqa: F401

ALL_METRICS = ("miou", "ece", "ada_ece", "ks_error", "prr", "ood_auroc", "pixel_ood_auroc")


@dataclass(frozen=True)
class EvalConfig:
    split: str = "test"
    score: ConfidenceScore = ConfidenceScore.MAX_PROB
    bins: int = met.DEFAULT_BINS
    pixels_per_image: int | None = DEFAULT_PIXELS_PER_IMAGE
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
    loaded = load_entry(manifest, entry, pixels_per_image=config.pixels_per_image, seed=config.seed,
                        image=needs_image(calibrator),
                        feature=isinstance(calibrator, ClusterTemperatureModel),
                        mask="pixel_ood_auroc" in config.metrics)
    if loaded.valid.size == 0:
        raise MetricError(f"{entry.image_id}: image has no non-ignored pixels")
    temperature = calibrator_temperature(calibrator, loaded.logits, feature=loaded.feature, image=loaded.image)

    if config.score is ConfidenceScore.MAX_PROB:
        conf_cal, predicted = confidence_map(loaded.logits, temperature)
        conf_rank = conf_cal
    else:
        conf_cal, conf_rank, predicted = _confidence_pass(loaded.logits, temperature, entropy=True)
    flat_rank = conf_rank.reshape(-1)

    known_conf = unknown_conf = None
    if loaded.ood_mask is not None:
        flat_mask = loaded.ood_mask.reshape(-1)
        known_conf = flat_rank[~flat_mask]
        unknown_conf = flat_rank[flat_mask]

    return _ImageSummary(
        domain=entry.domain,
        confidence_cal=loaded.drawn(conf_cal),
        confidence_rank=loaded.drawn(conf_rank),
        predicted=loaded.drawn(predicted),
        actual=loaded.drawn(loaded.labels.data).astype(np.int64),
        confusion=met.confusion_matrix(predicted, loaded.labels, manifest.classes, manifest.ignore_value),
        mean_confidence=float(flat_rank[loaded.valid].mean()),
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
    return RecordSet(
        np.concatenate([s.confidence_rank if rank else s.confidence_cal for s in summaries]),
        np.concatenate([s.predicted for s in summaries]),
        np.concatenate([s.actual for s in summaries]),
    )


def evaluate_manifest(manifest: DatasetManifest, calibrator: Calibrator | None = None,
                      config: EvalConfig = EvalConfig()):
    """Evaluate one split, returning a :class:`~relikit.report.ReliabilityReport`."""
    from .report import ReliabilityReport

    entries = manifest.select(split=config.split)
    if not entries:
        raise ManifestError(f"manifest has no entries in split {config.split!r}")
    summarize = partial(_summarize_image, manifest, calibrator=calibrator, config=config)
    if config.workers == 1:
        summaries = [summarize(e) for e in entries]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            summaries = list(pool.map(summarize, entries))

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

