"""Dataset-level evaluation.

One pass over a manifest split produces a :class:`ReliabilityReport`:
per-domain segmentation quality (mIoU over a confusion matrix pooled
across the domain's images), calibration (ECE, adaptive ECE, KS error,
always from max-probability confidence), misclassification detection
(PRR, from the configured confidence score), and OOD detection (image-
and pixel-level AUROC against the in-domain reference).

The split is scored in batches: runs of consecutive entries of one
(H, W) grid holding at most :data:`BATCH_PIXELS` pixels, or one larger
image, cut by :func:`load_batches` from the entries
:func:`~relikit.manifest.load_entries` reads, which draws each image's
pixels as fitting does, so a seed identifies one pixel set per image.
A batch is the tuple of its entries. Besides the logits and labels it
reads only what is used: the image for an LTS calibrator that takes
image channels, the feature vector for a cluster calibrator, and the OOD
mask when ``pixel_ood_auroc`` is requested. The calibrator gives each
image one temperature, a scalar or a per-pixel map, stacked for the
batch, and one confidence pass over the stacked logits, which checks
that temperature once, reduces them straight to confidences without a
probability tensor; the predicted class is the raw-logit argmax. Under
``neg_entropy`` the same exp pass gives both the max-probability
confidence (for the calibration metrics) and the entropy score (for
ranking). One ``bincount`` gives every image's confusion matrix, added
to its domain's running sum as the image's summary arrives, so no image
keeps its K x K counts. Each image's drawn records
(:meth:`~relikit.manifest.LoadedEntry.drawn`), mean confidence and OOD
split come from its slice of the batch's arrays; a drawn record is kept
as its confidence (and its ranking score under ``neg_entropy``) and one
correctness flag.

With one worker each batch is dropped once it is scored, before the next
one is read, so the reader holds at most the batch it is filling. With
``workers`` > 1 the calling thread reads the batches and a thread pool of
that many workers, at most ``os.cpu_count()``, scores them, one batch per
task, so a worker holds at most max(one image, ``BATCH_PIXELS`` pixels)
of tensors at a time and the reader a few batches ahead of it.
Every per-pixel value is computed by the same operations whatever the
batch, and images are reduced in sorted image-id order, so the report
bytes do not depend on the worker count.

An unknown ``id_domain`` fails before any tensor is read. The split's
entries, and so each domain's last entry, are known before any read:
each domain is reduced once, when its last entry is summarized, and its
records, pixel-OOD confidences and confusion sum are then dropped, so
the per-domain state held is that of the domains still being read (one
domain when they do not interleave), plus one mean confidence per image
for the image-level OOD AUROC, taken once every domain is reduced. Errors
keep one precedence: a read or summary error ends the pass at once, and a
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
from collections.abc import Iterator
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
    calibrator_temperature,
    needs_image,
)
from .confidence import ConfidenceScore, RecordSet, _confidence_pass
from .errors import ManifestError, MetricError, RelikitError, UsageError
from .manifest import DatasetManifest, LoadedEntry, ManifestEntry, _ordered_map, load_entries
from .tensors import TemperatureMap
# Unused here; the benchmark tracer's smoke test looks these bindings up.
from .calibration import apply_calibrator  # noqa: F401
from .confidence import confidence_map  # noqa: F401
from .rng import subsample_indices  # noqa: F401
from .tensors import validate_labels  # noqa: F401

ALL_METRICS = ("miou", "ece", "ada_ece", "ks_error", "prr", "ood_auroc", "pixel_ood_auroc")
MAX_BINS = 10_000
# Pixels per batch of same-grid entries: a 128 x 256 image fills one on its own.
BATCH_PIXELS = 1 << 15


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
        if self.bins > MAX_BINS:  # each bin costs a few table rows; a typo must not exhaust memory
            raise UsageError(f"bins must be <= {MAX_BINS}, got {self.bins}")
        object.__setattr__(self, "score", ConfidenceScore(self.score))


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack(arrays)``; a single array becomes a view with a leading axis of 1, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def load_batches(manifest: DatasetManifest, entries: list[ManifestEntry],
                 **options) -> Iterator[tuple[LoadedEntry, ...]]:
    """The entries :func:`load_entries` loads with its keyword ``options``, as eval's batches.

    A batch is the tuple of a run of consecutive entries of one (H, W)
    grid holding at most :data:`BATCH_PIXELS` pixels, or of a single larger
    entry. Entries are read as the batches are taken. A batch that no
    further entry of its grid would fit in is yielded before the next entry
    is read; any other is held while the next entry is read, to learn
    whether that entry joins it. The reader keeps no reference to a batch it has yielded.
    """
    run: list[LoadedEntry] = []
    for one in load_entries(manifest, entries, **options):
        if run and one.labels.data.shape != run[0].labels.data.shape:
            yield _drain(run)
        run.append(one)
        if (len(run) + 1) * one.labels.data.size > BATCH_PIXELS:  # full
            del one
            yield _drain(run)
    if run:
        del one  # the batch's last entry
        yield _drain(run)


def _drain(run: list) -> tuple:
    """The items of ``run`` as a tuple, leaving ``run`` empty: the caller then holds them alone."""
    items = tuple(run)
    run.clear()
    return items


@dataclass
class _ImageSummary:
    domain: str
    confidence_cal: np.ndarray   # subsampled max-probability confidences
    confidence_rank: np.ndarray  # subsampled configured-score confidences
    correct: np.ndarray          # subsampled predicted == actual, bool
    mean_confidence: float       # configured score, all non-ignored pixels
    known_conf: np.ndarray | None
    unknown_conf: np.ndarray | None


def _summarize_batch(batch: tuple[LoadedEntry, ...], manifest: DatasetManifest, calibrator: Calibrator | None,
                     config: EvalConfig) -> list[tuple[_ImageSummary, np.ndarray]]:
    """Each entry's summary and confusion matrix, from one confidence pass and one confusion count."""
    for one in batch:
        if one.valid.size == 0:
            raise MetricError(f"{one.entry.image_id}: image has no non-ignored pixels")
    temperatures = [calibrator_temperature(calibrator, one.logits, one.feature, one.image) for one in batch]
    if isinstance(temperatures[0], TemperatureMap):
        temperature = TemperatureMap(_stack([t.values for t in temperatures]))
    else:
        temperature = np.array(temperatures, dtype=np.float64)
    conf_cal, neg_entropy, predicted = _confidence_pass(_stack([one.logits.data for one in batch]), temperature,
                                                        entropy=config.score is ConfidenceScore.NEG_ENTROPY)
    conf_rank = conf_cal if neg_entropy is None else neg_entropy
    labels = _stack([one.labels.data for one in batch])
    confusion = met.confusion_matrix(predicted, labels, manifest.classes, manifest.ignore_value)
    summaries = []
    for one, cal, rank, pred, actual, counts in zip(batch, conf_cal, conf_rank, predicted, labels, confusion):
        flat = rank.reshape(-1)
        known_conf = unknown_conf = None
        if one.ood_mask is not None:
            flat_mask = one.ood_mask.reshape(-1)
            known_conf = flat[~flat_mask]
            unknown_conf = flat[flat_mask]
        drawn_cal = one.drawn(cal)
        summaries.append((_ImageSummary(
            domain=one.entry.domain,
            confidence_cal=drawn_cal,
            confidence_rank=drawn_cal if neg_entropy is None else one.drawn(rank),
            correct=one.drawn(pred) == one.drawn(actual),
            mean_confidence=float(flat[one.valid].mean()),
            known_conf=known_conf,
            unknown_conf=unknown_conf,
        ), counts))
    return summaries


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


def _reduce_domain(group: list[_ImageSummary], confusion: np.ndarray,
                   config: EvalConfig) -> tuple[dict, dict, float | None, str | None]:
    """One domain's stats, bin table, pixel-level OOD AUROC (or None) and warning (or None).

    ``group`` holds its summaries and ``confusion`` the sum of its images' confusion matrices.
    """
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
        result = met.iou_from_confusion(confusion)
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
        confusion: dict[str, np.ndarray] = {}  # each domain's running sum
        means: dict[str, list[float]] = {}
        reduced: dict[str, tuple | RelikitError] = {}
        for index, (summary, counts) in enumerate(pair for part in parts for pair in part):
            tag = summary.domain
            groups.setdefault(tag, []).append(summary)
            confusion[tag] = confusion.get(tag, 0) + counts
            means.setdefault(tag, []).append(summary.mean_confidence)
            if index == last[tag]:  # reduce the domain and drop its summaries
                try:
                    reduced[tag] = _reduce_domain(groups.pop(tag), confusion.pop(tag), config)
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
