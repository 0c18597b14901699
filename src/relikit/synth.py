"""Synthetic pixel-wise benchmarks with known calibration properties.

Each image is built from a smoothed random field of per-pixel class
distributions p: labels are sampled from p, and the model's logits are
``tau_d * ln p`` plus optional Gaussian noise. At tau_d = 1 and zero noise
the softmax recovers p exactly, so the max-probability confidence equals
the true probability of the predicted class and the data is perfectly
calibrated in expectation. Larger tau_d sharpens the softmax into
overconfidence, and the NLL-optimal global temperature for the domain is
tau_d by construction, which makes fitted temperatures directly checkable.

Every image also carries a per-pixel channel tensor (noisy domain
indicator, a shift-strength channel carrying ln tau_d, and clipped ln p
evidence channels), a per-image feature vector (domain offset plus
jitter), and optionally an unknown-class pixel mask: labels drawn from
held-out classes are re-labelled as ignore, flagged in the mask, and get
their logits damped so the model is visibly less confident there.

All randomness is drawn from one stream per (seed, image_id), so any
image is reproducible in isolation. An image is built in place and in
blocks of image rows of about :data:`~relikit.confidence.BLOCK_VALUES`
values, each draw taken block by block in stream order: generating it
holds its outputs and a few blocks, and gives the bits of whole-image
arrays. :func:`generate_benchmark` runs one scene per task on at most two
threads, so it holds at most two scenes; its bytes do not depend on the
thread count.

A benchmark config (``relikit synth --config``) is a JSON object whose keys
are the fields of :class:`SynthConfig`; ``domains`` is a list of objects
whose keys are the fields of :class:`DomainSpec`. :func:`config_to_json`
writes every field and leaves out a domain's unset image counts;
:func:`config_from_json` gives an absent key its field's default.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor_io
from .confidence import _block_rows
from .errors import UsageError, convert_option, parse_json_object
from .manifest import DatasetManifest, ManifestEntry, _ordered_map, save_manifest
from .rng import derive_stream
from .tensors import ImageTensor, LabelMap, LogitTensor

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class DomainSpec:
    """One shift condition: sharper logits (tau > 1) mean overconfidence."""

    tag: str
    true_temperature: float = 1.0
    logit_noise: float = 0.0
    feature_offset: tuple[float, ...] = (0.0, 0.0)
    calibration_images: int | None = None  # None: use the config default
    test_images: int | None = None


@dataclass(frozen=True)
class SynthConfig:
    classes: int = 5
    height: int = 48
    width: int = 48
    domains: tuple[DomainSpec, ...] = (
        DomainSpec("id", 1.0, 0.0, (0.0, 0.0, 0.0, 0.0)),
        DomainSpec("mild", 2.0, 0.1, (6.0, 0.0, 0.0, 0.0)),
        DomainSpec("strong", 4.0, 0.25, (0.0, 6.0, 0.0, 0.0)),
    )
    concentration: float = 0.6
    smoothing_radius: int = 2
    sharpness: float = 3.0
    seed: int = 7
    feature_jitter: float = 0.1
    calibration_images: int = 4
    test_images: int = 4
    ignore_value: int = 255
    holdout_classes: tuple[int, ...] = ()
    holdout_logit_damp: float = 0.35
    channel_noise: float = 0.05
    evidence_floor: float = -6.0


@dataclass(frozen=True)
class Scene:
    """One generated image with its ground truth."""

    logits: LogitTensor
    labels: LabelMap
    image: ImageTensor
    feature: np.ndarray
    ood_mask: np.ndarray | None
    true_probs: np.ndarray  # (H, W, K) float64, the sampling distribution


def validate_config(config: SynthConfig) -> None:
    if config.classes < 2:
        raise UsageError(f"need at least 2 classes, got {config.classes}")
    if config.height < 1 or config.width < 1:
        raise UsageError("image extent must be positive")
    if not config.domains:
        raise UsageError("need at least one domain")
    tags = [d.tag for d in config.domains]
    if len(set(tags)) != len(tags):
        raise UsageError(f"duplicate domain tags: {tags}")
    dims = {len(d.feature_offset) for d in config.domains}
    if len(dims) != 1 or 0 in dims:
        raise UsageError("feature offsets must share one non-zero dimension")
    for d in config.domains:
        if not np.isfinite(d.true_temperature) or d.true_temperature <= 0:
            raise UsageError(f"domain {d.tag!r}: true temperature must be positive")
        if d.logit_noise < 0:
            raise UsageError(f"domain {d.tag!r}: logit noise must be non-negative")
        for count in (d.calibration_images, d.test_images):
            if count is not None and count < 0:
                raise UsageError(f"domain {d.tag!r}: image counts must be non-negative")
    if config.concentration <= 0:
        raise UsageError("concentration must be positive")
    if config.smoothing_radius < 0:
        raise UsageError("smoothing radius must be non-negative")
    if config.sharpness <= 0:
        raise UsageError("sharpness must be positive")
    if config.calibration_images < 0 or config.test_images < 0:
        raise UsageError("image counts must be non-negative")
    if config.ignore_value < config.classes or config.ignore_value > np.iinfo(np.uint16).max:
        raise UsageError(f"ignore_value must be in [{config.classes}, 65535]")
    bad = [c for c in config.holdout_classes if not 0 <= c < config.classes]
    if bad:
        raise UsageError(f"holdout classes outside [0, {config.classes}): {bad}")
    if len(set(config.holdout_classes)) >= config.classes:
        raise UsageError("cannot hold out every class")
    if not 0 < config.holdout_logit_damp <= 1:
        raise UsageError("holdout_logit_damp must be in (0, 1]")


def _smooth_in_place(field: np.ndarray, radius: int, step: int) -> np.ndarray:
    """:func:`box_smooth` of a float64 (h, w, k) field written over it, ``step`` image rows at a time.

    Each axis takes window sums as differences of running sums from 0,
    np.cumsum's sequential bits. Down the rows the running sums are carried
    from block to block in a buffer of ``step + 2 * radius + 1`` rows; a
    block's rows are written once the running sums reach ``radius`` rows
    past it, so every row they still need is unread. Across the columns
    each block is summed on its own.
    """
    h, w = field.shape[:2]
    index = np.arange(h)
    lo = np.maximum(index - radius, 0)
    hi = np.minimum(index + radius + 1, h)
    across = np.arange(w)
    left = np.maximum(across - radius, 0)
    right = np.minimum(across + radius + 1, w)
    width = (right - left).reshape(w, 1)
    sums = np.zeros((min(step, h) + 2 * radius + 1, *field.shape[1:]))  # running sums of rows first..top
    row_sums = np.zeros((min(step, h), w + 1, *field.shape[2:]))
    first = top = 0
    for start in range(0, h, step):
        rows = field[start:start + step]
        need_lo, need_hi = lo[start], hi[start + rows.shape[0] - 1]
        sums[:top - need_lo + 1] = sums[need_lo - first:top - first + 1]
        first = need_lo
        fresh = sums[top - first:need_hi - first + 1]
        fresh[1:] = field[top:need_hi]
        run = fresh[1:] if top == 0 else fresh  # the first running sum is the first row itself, as in np.cumsum
        np.cumsum(run, axis=0, out=run)
        top = need_hi
        span = slice(start, start + rows.shape[0])
        np.subtract(sums[hi[span] - first], sums[lo[span] - first], out=rows)
        rows /= (hi[span] - lo[span]).reshape(-1, 1, 1)
        summed = row_sums[:rows.shape[0]]
        np.cumsum(rows, axis=1, out=summed[:, 1:])
        np.subtract(summed[:, right], summed[:, left], out=rows)
        rows /= width
    return field


def box_smooth(field: np.ndarray, radius: int) -> np.ndarray:
    """Mean filter over a (2r+1)^2 window, clamped at the borders: down the rows, then across.

    Returns a new float64 array of the (h, w, k) field, or the field
    itself at radius 0.
    """
    if radius <= 0:
        return field
    return _smooth_in_place(np.array(field, dtype=np.float64), radius, field.shape[0])


def _domain(config: SynthConfig, tag: str) -> tuple[int, DomainSpec]:
    for index, spec in enumerate(config.domains):
        if spec.tag == tag:
            return index, spec
    raise UsageError(f"unknown domain tag {tag!r}")


def _scene_arrays(config: SynthConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One scene's unfilled float64 probabilities, float32 logits and float32 image channels."""
    h, w, k = config.height, config.width, config.classes
    return (np.empty((h, w, k)), np.empty((h, w, k), dtype=np.float32),
            np.empty((h, w, len(config.domains) + 1 + k), dtype=np.float32))


def generate_scene(config: SynthConfig, domain_tag: str, image_id: str, *, _arrays=None) -> Scene:
    """Generate one image; deterministic in (config.seed, image_id).

    The (h, w, k) random field is smoothed and normalized in place into
    the returned probabilities, and every other per-pixel quantity is made
    in blocks of image rows holding about :data:`~relikit.confidence.BLOCK_VALUES`
    values, each random draw taken block by block in stream order. So an
    image holds its outputs and a few blocks, and the bits are those of
    whole-image passes.
    """
    if _arrays is None:  # generate_benchmark passes a validated config and the arrays to fill
        validate_config(config)
        _arrays = _scene_arrays(config)
    probs, logits, image = _arrays
    domain_index, domain = _domain(config, domain_tag)
    h, w, k = config.height, config.width, config.classes
    rng = derive_stream(config.seed, f"scene:{image_id}")
    step = max(1, _block_rows(k) // w)
    blocks = [slice(start, start + step) for start in range(0, h, step)]

    rng.standard_gamma(config.concentration, out=probs)  # the bits of rng.gamma(concentration, 1.0)
    if config.smoothing_radius > 0:
        _smooth_in_place(probs, config.smoothing_radius, step)
    draw = rng.random((h, w))
    labels = np.empty((h, w), dtype=np.int64)
    for rows in blocks:
        block = probs[rows]
        # smoothing flattens the field; the sharpness exponent restores
        # confident regions while keeping spatial coherence
        np.maximum(block, PROB_FLOOR, out=block)
        block **= config.sharpness
        block /= block.sum(axis=2, keepdims=True)
        np.sum(draw[rows][:, :, None] > np.cumsum(block, axis=2), axis=2, out=labels[rows])
    np.minimum(labels, k - 1, out=labels)
    mask = np.isin(labels, np.asarray(config.holdout_classes)) if config.holdout_classes else None

    for rows in blocks:
        block = np.log(probs[rows])
        block *= domain.true_temperature
        block += rng.normal(0.0, 1.0, size=block.shape) * domain.logit_noise
        if mask is not None:
            block[mask[rows]] *= config.holdout_logit_damp
        logits[rows] = block

    domains = len(config.domains)
    for rows in blocks:
        one_hot = rng.normal(0.0, 1.0, size=(*draw[rows].shape, domains)) * config.channel_noise
        one_hot[:, :, domain_index] += 1.0
        image[rows, :, :domains] = one_hot
    log_temperature = np.log(domain.true_temperature)
    for rows in blocks:
        shift = rng.normal(0.0, 1.0, size=(*draw[rows].shape, 1)) * config.channel_noise
        shift += log_temperature
        image[rows, :, domains:domains + 1] = shift
    for rows in blocks:
        evidence = np.maximum(np.log(probs[rows]), config.evidence_floor)
        evidence += rng.normal(0.0, 1.0, size=evidence.shape) * config.channel_noise
        image[rows, :, domains + 1:] = evidence

    offset = np.asarray(domain.feature_offset, dtype=np.float64)
    feature = offset + rng.normal(0.0, 1.0, size=offset.shape[0]) * config.feature_jitter

    out_labels = labels.astype(np.uint16)
    if mask is not None:
        out_labels[mask] = config.ignore_value

    return Scene(
        logits=LogitTensor(logits),
        labels=LabelMap(out_labels),
        image=ImageTensor(image),
        feature=feature.astype(np.float32),
        ood_mask=mask,
        true_probs=probs,
    )


def image_counts(config: SynthConfig, domain: DomainSpec) -> tuple[int, int]:
    """The domain's (calibration, test) image counts: its own where set, else the config's."""
    cal = config.calibration_images if domain.calibration_images is None else domain.calibration_images
    test = config.test_images if domain.test_images is None else domain.test_images
    return cal, test


def _write_scene(config: SynthConfig, out: Path, job) -> ManifestEntry:
    """Fill one scene's arrays, write its files under ``out`` and return its entry."""
    split, domain, image_id, arrays = job
    scene = generate_scene(config, domain.tag, image_id, _arrays=arrays)
    path = f"data/{image_id}.{{}}.bin".format
    tensor_io.write_logits(out / path("logits"), scene.logits)
    tensor_io.write_labels(out / path("labels"), scene.labels, config.classes)
    tensor_io.write_image(out / path("image"), scene.image)
    tensor_io.write_feature(out / path("feature"), scene.feature)
    if scene.ood_mask is not None:
        tensor_io.write_mask(out / path("mask"), scene.ood_mask)
    return ManifestEntry(image_id=image_id, split=split, domain=domain.tag, logits=path("logits"),
                         labels=path("labels"), feature=path("feature"), image=path("image"),
                         ood_mask=None if scene.ood_mask is None else path("mask"))


def generate_benchmark(config: SynthConfig, out_dir) -> Path:
    """Write a full benchmark (tensors plus manifest); returns the manifest path.

    Each scene is one task on min(2, ``os.cpu_count()``) threads and fills one of as many sets of arrays as
    tasks may be in flight. This thread allocates the sets once and frees them once the pool has stopped, so
    no worker frees them, at a moment that would leave the heap of later work in a layout that differs from
    run to run.
    """
    validate_config(config)
    out = Path(out_dir)
    (out / "data").mkdir(parents=True, exist_ok=True)
    threads = min(2, os.cpu_count() or 1)
    arrays = [_scene_arrays(config) for _ in range(threads)]
    scenes = [(split, domain, f"{domain.tag}-{short}-{i:03d}") for domain in config.domains
              for (split, short), count in zip((("calibration", "cal"), ("test", "test")), image_counts(config, domain))
              for i in range(count)]
    # _ordered_map takes scene n once it has returned scene n - threads, the last to fill the same set
    jobs = ((*scene, arrays[n % threads]) for n, scene in enumerate(scenes))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        entries = list(_ordered_map(pool, lambda job: _write_scene(config, out, job), jobs, threads - 1))
    manifest = DatasetManifest(
        classes=config.classes,
        ignore_value=config.ignore_value,
        entries=tuple(sorted(entries, key=lambda e: e.image_id)),
        root=out,
    )
    return save_manifest(manifest, out / "manifest.json")


def default_ladder(seed: int = 7, shift: float = 1.0) -> SynthConfig:
    """The stock three-domain benchmark: calibrated, mildly and strongly shifted.

    ``shift`` scales how far the shifted domains drift: their oracle
    temperatures are 1 + shift and 1 + 3 * shift.
    """
    if shift < 0:
        raise UsageError("shift must be non-negative")
    return SynthConfig(
        domains=(
            DomainSpec("id", 1.0, 0.0, (0.0, 0.0, 0.0, 0.0)),
            DomainSpec("mild", 1.0 + shift, 0.1 * shift, (6.0, 0.0, 0.0, 0.0)),
            DomainSpec("strong", 1.0 + 3.0 * shift, 0.25 * shift, (0.0, 6.0, 0.0, 0.0)),
        ),
        seed=seed,
    )


def config_to_json(config: SynthConfig) -> str:
    payload = asdict(config)
    payload["domains"] = [{key: value for key, value in domain.items() if value is not None}
                          for domain in payload["domains"]]
    return json.dumps(payload, indent=2, sort_keys=True)


def _cast_scalars(cls, source: dict) -> dict:
    """Each int or float field of ``cls`` from ``source``, cast strictly by its default's type."""
    return {f.name: convert_option(f.name, source.get(f.name, f.default), type(f.default))
            for f in fields(cls) if type(f.default) in (int, float)}


def _json_list(name: str, value) -> list:
    """A config value that must be a JSON list; a string is not iterated character by character."""
    if not isinstance(value, list):
        raise UsageError(f"{name.replace('_', '-')} must be a list, got {value!r}")
    return value


def config_from_json(source: str | dict) -> SynthConfig:
    """Build a config from JSON text or an already-parsed JSON object.

    The keys are the fields of :class:`SynthConfig` and, per domain, of
    :class:`DomainSpec`; an absent key takes the field's default. Unknown
    keys and values that do not cast to their field's type are usage
    errors. Values are cast as ``fit`` and ``eval`` options are
    (:func:`~relikit.errors.convert_option`): a bool is no number and a
    float no integer. ``domains``, ``holdout_classes`` and a domain's
    ``feature_offset`` must be JSON lists, and ``"domains": []`` lists no
    domain at all, which :func:`validate_config` rejects.
    """
    payload = parse_json_object(source, UsageError, "benchmark config") if isinstance(source, str) else source
    if not isinstance(payload, dict):
        raise UsageError("benchmark config must be a JSON object")
    unknown = payload.keys() - {f.name for f in fields(SynthConfig)}
    if unknown:
        raise UsageError(f"unknown benchmark config keys: {sorted(unknown)}")
    try:
        domains = []
        for i, raw in enumerate(_json_list("domains", payload.get("domains", []))):
            if not isinstance(raw, dict) or "tag" not in raw:
                raise UsageError(f"domain {i}: must be an object with a tag")
            domain_unknown = raw.keys() - {f.name for f in fields(DomainSpec)}
            if domain_unknown:
                raise UsageError(f"domain {i}: unknown keys {sorted(domain_unknown)}")
            counts = {f.name: None if raw.get(f.name) is None else convert_option(f.name, raw[f.name], int)
                      for f in fields(DomainSpec) if f.default is None}
            if not isinstance(raw["tag"], str) or not raw["tag"]:
                raise UsageError(f"domain {i}: tag must be a non-empty string, got {raw['tag']!r}")
            offset = _json_list("feature_offset", raw.get("feature_offset", list(DomainSpec.feature_offset)))
            domains.append(DomainSpec(
                tag=raw["tag"],
                **_cast_scalars(DomainSpec, raw),
                feature_offset=tuple(convert_option("feature_offset", x, float) for x in offset),
                **counts,
            ))
        holdout = _json_list("holdout_classes", payload.get("holdout_classes", []))
        config = SynthConfig(
            domains=tuple(domains) if "domains" in payload else SynthConfig.domains,
            holdout_classes=tuple(convert_option("holdout_classes", c, int) for c in holdout),
            **_cast_scalars(SynthConfig, payload),
        )
    except (TypeError, ValueError, OverflowError, UsageError) as exc:
        raise UsageError(f"benchmark config has a malformed value ({exc})") from exc
    validate_config(config)
    return config
