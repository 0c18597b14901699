"""Dataset-level evaluation.

One pass over a manifest split produces a :class:`ReliabilityReport`:
per-domain segmentation quality (mIoU over a confusion matrix pooled
across the domain's images), calibration (ECE, adaptive ECE, KS error,
always from max-probability confidence), misclassification detection
(PRR, from the configured confidence score), and OOD detection (image-
and pixel-level AUROC against the in-domain reference).

The split is scored in batches: runs of consecutive entries of one
(H, W) grid holding at most :data:`~relikit.manifest.BATCH_PIXELS`
pixels, or one larger image, read by
:func:`~relikit.manifest.load_batches` as in fitting, so a seed
identifies one pixel set per image everywhere. Besides the logits and
labels it reads only what is used: the image for an LTS calibrator that
takes image channels, the feature vector for a cluster calibrator, and
the OOD mask when ``pixel_ood_auroc`` is requested. The calibrator gives
each image one temperature, a scalar or a per-pixel map
(:func:`~relikit.calibration.calibrator_temperature`), stacked for the
batch, and one confidence pass, which checks that temperature once,
reduces the batch's scaled logits straight to confidences without a
probability tensor; the predicted class is the raw-logit argmax. Under
``neg_entropy`` the same exp pass gives both the max-probability
confidence (for the calibration metrics) and the entropy score (for
ranking). One ``bincount`` gives every image's confusion matrix; each
image's drawn records, mean confidence and OOD split are slices of the
batch's arrays; a drawn record is kept as its confidence (and its
ranking score under ``neg_entropy``) and one correctness flag.

With one worker each batch is dropped once it is scored, before the next
one is read, so the reader holds at most one earlier entry. With
``workers`` > 1 the calling thread reads the batches and a thread
pool of that many workers, at most ``os.cpu_count()``, scores them, one
batch per task, so a worker holds at most max(one image, ``BATCH_PIXELS``
pixels) of tensors at a time and the reader a few batches ahead of it.
Every per-pixel value is computed by the same operations whatever the
batch, and images are reduced in sorted image-id order, so the report
bytes do not depend on the worker count.

An unknown ``id_domain`` fails before any tensor is read. The split's
entries, and so each domain's last entry, are known before any read:
each domain is reduced once, when its last entry is summarized, and its
records and pixel-OOD confidences are then dropped, so the per-domain
state held is that of the domains still being read (one domain when
they do not interleave), plus one mean confidence per image for the
image-level OOD AUROC, taken once every domain is reduced. Errors keep
one precedence: a read or summary error ends the pass at once, and a
metric error waits until every entry is read and is then raised for the
first failing domain in sorted order, named after it. The equal-width
reliability bins behind ``ece`` are kept on the report (``bins``, not
serialized) for ``eval --bins-out``, and so is one warning
(``warnings``) per masked domain that gets no ``pixel_ood_auroc`` for
want of a known or an unknown pixel. Under the ``max_prob`` score one
record set serves calibration and PRR alike, and ADA-ECE, KS and PRR
share that set's one stable order and running sums
(:attr:`~relikit.confidence.RecordSet.running`), built from NumPy's
unstable default sort; no metric runs a stable sort. Under
``neg_entropy`` the ranking set serves PRR alone, which reads only its
running correct count.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import nullcontext
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import metrics as met
from .calibration import (
    DEFAULT_PIXELS_PER_IMAGE,
    Calibrator,
    ClusterTemperatureModel,
    batch_temperature,
    needs_image,
)
from .confidence import ConfidenceScore, RecordSet, _confidence_pass
from .errors import ManifestError, MetricError, RelikitError, UsageError
from .manifest import DatasetManifest, EntryBatch, load_batches
# Unused here; the benchmark tracer's smoke test looks these bindings up.
from .calibration import apply_calibrator  # noqa: F401
from .confidence import confidence_map  # noqa: F401
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
    correct: np.ndarray          # subsampled predicted == actual, bool
    confusion: np.ndarray
    mean_confidence: float       # configured score, all non-ignored pixels
    known_conf: np.ndarray | None
    unknown_conf: np.ndarray | None


def _summarize_batch(batch: EntryBatch, manifest: DatasetManifest,
                     calibrator: Calibrator | None, config: EvalConfig) -> list[_ImageSummary]:
    """The summaries of one batch's entries, from one confidence pass and one confusion count."""
    for one in batch.loaded:
        if one.valid.size == 0:
            raise MetricError(f"{one.entry.image_id}: image has no non-ignored pixels")
    conf_cal, neg_entropy, predicted = _confidence_pass(batch.logits, batch_temperature(calibrator, batch),
                                                        entropy=config.score is ConfidenceScore.NEG_ENTROPY)
    conf_rank = conf_cal if neg_entropy is None else neg_entropy
    confusion = met.confusion_matrix(predicted, batch.labels, manifest.classes, manifest.ignore_value)

    def per_entry(drawn):  # each entry's part, as views of one gather over the batch
        return np.split(drawn, batch.bounds[1:-1])

    drawn_cal = per_entry(batch.drawn(conf_cal))
    drawn_rank = drawn_cal if conf_rank is conf_cal else per_entry(batch.drawn(conf_rank))
    drawn_correct = per_entry(batch.drawn(predicted) == batch.drawn(batch.labels))
    ranks = conf_rank.reshape(len(batch.loaded), -1)
    summaries = []
    for i, one in enumerate(batch.loaded):
        known_conf = unknown_conf = None
        if one.ood_mask is not None:
            flat_mask = one.ood_mask.reshape(-1)
            known_conf = ranks[i][~flat_mask]
            unknown_conf = ranks[i][flat_mask]
        summaries.append(_ImageSummary(
            domain=one.entry.domain,
            confidence_cal=drawn_cal[i],
            confidence_rank=drawn_rank[i],
            correct=drawn_correct[i],
            confusion=confusion[i],
            mean_confidence=float(ranks[i][one.valid].mean()),
            known_conf=known_conf,
            unknown_conf=unknown_conf,
        ))
    return summaries


def _ordered_map(pool: ThreadPoolExecutor, fn, items, ahead: int):
    """``fn`` of each item, in order, run by ``pool`` while the caller takes the next items.

    At most ``ahead + 1`` items are in the pool and not yet returned, so a
    worker that finishes finds the next item waiting. When taking an item
    fails, the results before it are read first, so an earlier item's
    error wins.
    """
    pending: deque = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > ahead:
                yield pending.popleft().result()
    except Exception:
        for future in pending:
            future.result()
        raise
    for future in pending:
        yield future.result()


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


def _reduce_domain(group: list[_ImageSummary], config: EvalConfig) -> tuple[dict, dict, float | None, str | None]:
    """One domain's stats, bin table, pixel-level OOD AUROC (or None) and warning (or None) from its summaries."""
    wanted = set(config.metrics)
    records = RecordSet(np.concatenate([s.confidence_cal for s in group]),
                        np.concatenate([s.correct for s in group]))
    stats = {
        "n_images": len(group),
        "n_records": len(records),
        "accuracy": float(records.correct.mean()),
        "mean_confidence": float(np.mean([s.mean_confidence for s in group])),
    }
    if "miou" in wanted:
        result = met.iou_from_confusion(sum(s.confusion for s in group))
        stats["miou"] = result.miou
        stats["per_class_iou"] = _nullable(result.per_class)
    partition = met.bin_partition(records, config.bins)
    if "ece" in wanted:
        stats["ece"] = partition.expected_calibration_error()
    if "ada_ece" in wanted:
        stats["ada_ece"] = met.ada_ece(records, config.bins)
    if "ks_error" in wanted:
        stats["ks_error"] = met.ks_error(records)
    if "prr" in wanted:
        if config.score is not ConfidenceScore.MAX_PROB:  # rebinding drops the calibration set's view
            records = RecordSet(np.concatenate([s.confidence_rank for s in group]), records.correct)
        stats["prr"] = met.prr(records)
    masked = [s for s in group if s.known_conf is not None]
    # masks are read only for pixel_ood_auroc; a masked domain with no known or no unknown pixel
    # gets no entry, and a warning
    known = sum(s.known_conf.size for s in masked)
    unknown = sum(s.unknown_conf.size for s in masked)
    pixel_ood = warning = None
    if known and unknown:
        pixel_ood = met.auroc(np.concatenate([s.known_conf for s in masked]),
                              np.concatenate([s.unknown_conf for s in masked]))
    elif masked:
        warning = f"{group[0].domain}: no pixel_ood_auroc, its masks hold {known} known and {unknown} unknown pixels"
    return stats, _bin_table(partition), pixel_ood, warning


def evaluate_manifest(manifest: DatasetManifest, calibrator: Calibrator | None = None,
                      config: EvalConfig = EvalConfig()):
    """Evaluate one split, returning a :class:`~relikit.report.ReliabilityReport`."""
    from .report import ReliabilityReport

    entries = manifest.select(split=config.split)
    if not entries:
        raise ManifestError(f"manifest has no entries in split {config.split!r}")
    id_domain = config.id_domain
    present = {entry.domain for entry in entries}
    if id_domain is None and "id" in present:
        id_domain = "id"
    if id_domain is not None and id_domain not in present:
        raise UsageError(f"in-domain tag {id_domain!r} has no images in split {config.split!r}")
    last = {entry.domain: index for index, entry in enumerate(entries)}  # each domain's last entry
    batches = load_batches(manifest, entries, pixels_per_image=config.pixels_per_image, seed=config.seed,
                           image=needs_image(calibrator),
                           feature=isinstance(calibrator, ClusterTemperatureModel),
                           mask="pixel_ood_auroc" in config.metrics)
    summarize = partial(_summarize_batch, manifest=manifest, calibrator=calibrator, config=config)
    workers = min(config.workers, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # map drops each batch once it is summarized, before it reads the next
        parts = map(summarize, batches) if pool is None else _ordered_map(pool, summarize, batches, workers)
        groups: dict[str, list[_ImageSummary]] = {}
        means: dict[str, list[float]] = {}
        reduced: dict[str, tuple | RelikitError] = {}
        for index, summary in enumerate(summary for part in parts for summary in part):
            tag = summary.domain
            groups.setdefault(tag, []).append(summary)
            means.setdefault(tag, []).append(summary.mean_confidence)
            if index == last[tag]:  # reduce the domain and drop its summaries
                try:
                    reduced[tag] = _reduce_domain(groups.pop(tag), config)
                except RelikitError as exc:  # raised once every entry is read, in sorted domain order
                    reduced[tag] = exc.with_traceback(None)  # its frames would keep the summaries

    domains, bins, ood_auroc, pixel_ood, warnings = {}, {}, {}, {}, []
    for tag in sorted(reduced):
        try:
            if isinstance(reduced[tag], RelikitError):
                raise reduced[tag]
            domains[tag], bins[tag], auroc, warning = reduced[tag]
            if "ood_auroc" in config.metrics and id_domain not in (None, tag):
                ood_auroc[tag] = met.auroc(means[id_domain], means[tag])
        except MetricError as exc:  # name the domain whose records the metric refused
            raise MetricError(f"{tag}: {exc}") from exc
        if auroc is not None:
            pixel_ood[tag] = auroc
        if warning is not None:
            warnings.append(warning)

    meta = {
        "split": config.split,
        "score": config.score.value,
        "bins": config.bins,
        "pixels_per_image": config.pixels_per_image,
        "seed": config.seed,
        "id_domain": id_domain,
        "classes": manifest.classes,
        "ignore_value": manifest.ignore_value,
        "metrics": sorted(set(config.metrics)),
    }
    return ReliabilityReport(meta=meta, domains=domains, ood_auroc=ood_auroc, pixel_ood_auroc=pixel_ood,
                             bins=bins, warnings=tuple(warnings))
