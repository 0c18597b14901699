"""Reliability reports and their serializations.

A report is a plain nested structure: per-domain metrics, image-level OOD
AUROC per shifted domain, pixel-level OOD AUROC where unknown-class masks
exist, and a metadata echo of the evaluation settings. ``eval`` writes
:func:`to_json_bytes`, :func:`to_csv_bytes` and :func:`to_bins_bytes`,
each deterministic byte for byte: JSON uses sorted keys and Python's
float repr (which round-trips exactly), NaN is never emitted (absent
classes serialize as null), and CSV rows follow a fixed order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .errors import MetricError, parse_json_object

DOMAIN_METRIC_ORDER = (
    "n_images", "n_records", "accuracy", "mean_confidence",
    "miou", "ece", "ada_ece", "ks_error", "prr",
)


@dataclass(frozen=True)
class ReliabilityReport:
    """One evaluation's results.

    ``bins`` holds each domain's equal-width reliability-bin table (bin
    edges, counts, mean confidence and accuracy) from the same pass as the
    metrics. It is what ``eval --bins-out`` writes. ``warnings`` holds one
    line per thing the evaluation left out, which ``eval`` prints on
    stderr. The JSON and CSV reports carry neither, and neither takes part
    in equality.
    """

    meta: dict
    domains: dict[str, dict]
    ood_auroc: dict[str, float] = field(default_factory=dict)
    pixel_ood_auroc: dict[str, float] = field(default_factory=dict)
    bins: dict[str, dict] = field(default_factory=dict, compare=False, repr=False)
    warnings: tuple[str, ...] = field(default=(), compare=False, repr=False)


def to_json_bytes(report: ReliabilityReport) -> bytes:
    payload = {
        "meta": report.meta,
        "domains": report.domains,
        "ood_auroc": report.ood_auroc,
        "pixel_ood_auroc": report.pixel_ood_auroc,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode("utf-8")


def to_bins_bytes(report: ReliabilityReport) -> bytes:
    """Each domain's reliability-bin table (``report.bins``) as sorted-key JSON."""
    return (json.dumps(report.bins, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def from_json_bytes(data: bytes) -> ReliabilityReport:
    try:
        payload = parse_json_object(data.decode("utf-8"), MetricError, "report")
    except UnicodeDecodeError as exc:
        raise MetricError(f"report is not valid JSON ({exc})") from exc
    for key in ("meta", "domains", "ood_auroc", "pixel_ood_auroc"):
        if key not in payload and key in ("meta", "domains"):
            raise MetricError(f"report is missing the {key!r} section")
        if not isinstance(payload.setdefault(key, {}), dict):
            raise MetricError(f"report section {key!r} must be a JSON object")
    return ReliabilityReport(payload["meta"], payload["domains"], payload["ood_auroc"], payload["pixel_ood_auroc"])


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv_bytes(report: ReliabilityReport) -> bytes:
    """Flat (domain, metric, value) rows; per-class IoU as iou_class_<c>."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["domain", "metric", "value"])
    for domain in sorted(report.domains):
        stats = report.domains[domain]
        for metric in DOMAIN_METRIC_ORDER:
            if metric in stats:
                writer.writerow([domain, metric, _format(stats[metric])])
        for c, value in enumerate(stats.get("per_class_iou", [])):
            writer.writerow([domain, f"iou_class_{c}", _format(value)])
    for domain in sorted(report.ood_auroc):
        writer.writerow([domain, "ood_auroc", _format(report.ood_auroc[domain])])
    for domain in sorted(report.pixel_ood_auroc):
        writer.writerow([domain, "pixel_ood_auroc", _format(report.pixel_ood_auroc[domain])])
    return buffer.getvalue().encode("utf-8")
