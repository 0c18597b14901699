"""Command-line interface.

Five subcommands: ``validate`` checks a manifest and every referenced
tensor, ``fit`` trains a calibrator and writes it as a JSON artifact,
``eval`` renders a reliability report, ``synth`` writes a synthetic
benchmark, and ``theorem`` prints the group-calibration paradox.

Each subcommand reads an optional ``--config`` JSON file whose keys match
the long flag names (with underscores); explicit flags override the file.
Exit codes: 0 success, 1 usage or configuration errors, 2 data errors
(malformed tensors, inconsistent manifests, metric preconditions),
3 numerical failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from enum import Enum
from pathlib import Path

from . import evaluate as ev
from . import report as rep
from . import synth as syn
from . import tensor_io
from .calibration import (
    ClusterVariant,
    FeatureMode,
    LtsHyper,
    fit_cluster_ts,
    fit_global_ts,
    fit_lts,
    load_calibrator,
    save_calibrator,
)
from .confidence import ConfidenceScore
from .counterexample import CounterexampleSpec, build_counterexample, evaluate_counterexample
from .errors import (
    CalibrationError,
    InvalidTensorError,
    ManifestError,
    MetricError,
    NumericalError,
    RelikitError,
    TensorFormatError,
    UsageError,
)
from .manifest import load_manifest
from .tensors import validate_labels

WORKERS_ENV = "RELIKIT_WORKERS"
# fit/eval options that hold a path or a tag; argparse gives strings, a config file may not
_TEXT_OPTIONS = ("manifest", "out", "calibrator", "csv_out", "bins_out", "id_domain", "split")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config_file(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file {path} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return payload


def _resolve_options(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    options = dict(defaults)
    if getattr(args, "config", None):
        config = _load_config_file(args.config)
        unknown = config.keys() - defaults.keys()
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)}; valid: {sorted(defaults)}")
        options.update(config)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    for key in _TEXT_OPTIONS:
        value = options.get(key)
        if value is not None and not isinstance(value, str):
            raise UsageError(f"{key.replace('_', '-')} must be a string, got {value!r}")
    return options


def _require(options: dict, key: str):
    if options.get(key) is None:
        raise UsageError(f"missing required option --{key.replace('_', '-')}")
    return options[key]


def _convert(name: str, value, kind):
    """Cast one option value with ``kind``; a value it rejects is a usage error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(kind, type) and issubclass(kind, Enum):
            expected = "one of " + ", ".join(member.value for member in kind)
        else:
            expected = "an integer" if kind is int else "a number"
        raise UsageError(f"{name.replace('_', '-')} must be {expected}, got {value!r}") from exc


def _resolve_workers(value) -> int:
    if value is None:
        value = os.environ.get(WORKERS_ENV)
    if value is None:
        return 1
    workers = _convert("workers", value, int)
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    return workers


def _pixels(value) -> int | None:
    # 0 means "use every pixel"
    count = _convert("pixels_per_image", value, int)
    if count < 0:
        raise UsageError(f"pixels-per-image must be >= 0, got {count}")
    return None if count == 0 else count


def cmd_validate(args) -> int:
    manifest = load_manifest(args.manifest)
    violations: list[tuple[str, str, str]] = []
    feature_dims: dict[int, str] = {}
    image_channels: dict[int, str] = {}

    for entry in manifest.entries:
        shape = None
        try:
            logits = tensor_io.read_logits(manifest.resolve(entry.logits))
            shape = (logits.height, logits.width)
            if logits.classes != manifest.classes:
                violations.append((entry.logits, "classes",
                                   f"logits carry {logits.classes} classes, manifest says {manifest.classes}"))
        except (TensorFormatError, InvalidTensorError) as exc:
            violations.append((entry.logits, "format", str(exc)))
        try:
            labels = tensor_io.read_labels(manifest.resolve(entry.labels))
            if shape is not None and (labels.height, labels.width) != shape:
                violations.append((entry.labels, "shape",
                                   f"labels are {(labels.height, labels.width)}, logits are {shape}"))
            try:
                validate_labels(labels, manifest.classes, manifest.ignore_value)
            except InvalidTensorError as exc:
                violations.append((entry.labels, "values", str(exc)))
        except (TensorFormatError, InvalidTensorError) as exc:
            violations.append((entry.labels, "format", str(exc)))
        if entry.feature is not None:
            try:
                vec = tensor_io.read_feature(manifest.resolve(entry.feature))
                feature_dims.setdefault(vec.shape[0], entry.feature)
            except (TensorFormatError, InvalidTensorError) as exc:
                violations.append((entry.feature, "format", str(exc)))
        if entry.image is not None:
            try:
                image = tensor_io.read_image(manifest.resolve(entry.image))
                if shape is not None and (image.height, image.width) != shape:
                    violations.append((entry.image, "shape",
                                       f"image is {(image.height, image.width)}, logits are {shape}"))
                image_channels.setdefault(image.channels, entry.image)
            except (TensorFormatError, InvalidTensorError) as exc:
                violations.append((entry.image, "format", str(exc)))
        if entry.ood_mask is not None:
            try:
                mask = tensor_io.read_mask(manifest.resolve(entry.ood_mask))
                if shape is not None and mask.shape != shape:
                    violations.append((entry.ood_mask, "shape",
                                       f"mask is {mask.shape}, logits are {shape}"))
            except (TensorFormatError, InvalidTensorError) as exc:
                violations.append((entry.ood_mask, "format", str(exc)))

    if len(feature_dims) > 1:
        listing = ", ".join(f"{d} in {f}" for d, f in sorted(feature_dims.items()))
        violations.append((next(iter(feature_dims.values())), "width",
                           f"feature dimensions disagree across entries: {listing}"))
    if len(image_channels) > 1:
        listing = ", ".join(f"{c} in {f}" for c, f in sorted(image_channels.items()))
        violations.append((next(iter(image_channels.values())), "classes",
                           f"image channel counts disagree across entries: {listing}"))

    if violations:
        for file, field, message in violations:
            print(f"FAIL {file} [{field}] {message}")
        print(f"{len(violations)} violation(s) in {len(manifest.entries)} entries")
        return 2
    print(f"OK {len(manifest.entries)} entries, classes={manifest.classes}, "
          f"domains={','.join(manifest.domains())}")
    return 0


_FIT_DEFAULTS = dict(
    manifest=None, out=None, method="ts", split="calibration", seed=0,
    pixels_per_image=20_000, k=16, feature_mode="both", hidden_width=16,
    t_floor=0.05, learning_rate=0.05, epochs=50, batch_pixels=2048,
    domain_weights=None,
)


def _parse_domain_weights(value) -> dict[str, float] | None:
    if value is None:
        return None
    if isinstance(value, dict):
        return {str(tag): _convert(f"domain weight {tag}", w, float) for tag, w in value.items()}
    if not isinstance(value, list):
        raise UsageError(f"domain weights must be a list of tag=number or an object, got {value!r}")
    weights = {}
    for item in value:
        tag, sep, w = str(item).partition("=")
        if not sep or not tag:
            raise UsageError(f"domain weight must look like tag=number, got {item!r}")
        weights[tag] = _convert(f"domain weight {tag}", w, float)
    return weights


def cmd_fit(args) -> int:
    options = _resolve_options(args, _FIT_DEFAULTS)
    manifest = load_manifest(_require(options, "manifest"))
    out = Path(_require(options, "out"))
    method = options["method"]
    seed = _convert("seed", options["seed"], int)
    split = options["split"]
    pixels = _pixels(options["pixels_per_image"])
    if method == "ts":
        calibrator = fit_global_ts(manifest, split=split, pixels_per_image=pixels, seed=seed)
        print(f"temperature: {calibrator.temperature:.6f}")
    elif method in ("cluster_ts", "class_cluster_ts"):
        variant = ClusterVariant.PER_IMAGE if method == "cluster_ts" else ClusterVariant.PER_CLASS
        k = _convert("k", options["k"], int)
        calibrator = fit_cluster_ts(manifest, k=k, variant=variant,
                                    split=split, pixels_per_image=pixels, seed=seed)
        print(f"clusters: {calibrator.clusters}  fallback temperature: "
              f"{calibrator.fallback_temperature:.6f}")
        for j in range(calibrator.clusters):
            if variant is ClusterVariant.PER_IMAGE:
                print(f"cluster {j}: T={float(calibrator.temperatures[j]):.6f}")
            else:
                row = "  ".join(f"{t:.4f}" for t in calibrator.temperatures[j])
                print(f"cluster {j}: T per class: {row}")
    elif method == "lts":
        hyper = LtsHyper(
            hidden_width=_convert("hidden_width", options["hidden_width"], int),
            t_floor=_convert("t_floor", options["t_floor"], float),
            learning_rate=_convert("learning_rate", options["learning_rate"], float),
            epochs=_convert("epochs", options["epochs"], int),
            batch_pixels=_convert("batch_pixels", options["batch_pixels"], int),
            domain_weights=_parse_domain_weights(options["domain_weights"]),
        )
        feature_mode = _convert("feature_mode", options["feature_mode"], FeatureMode)
        calibrator, curve = fit_lts(manifest, feature_mode=feature_mode,
                                    hyper=hyper, split=split, pixels_per_image=pixels, seed=seed)
        print(f"regressor: mode={calibrator.feature_mode.value} input_dim={calibrator.input_dim} "
              f"hidden={calibrator.hidden_width}")
        if curve:
            print(f"training loss: {curve[0]:.6f} -> {curve[-1]:.6f} over {len(curve)} epochs")
    else:
        raise UsageError(f"unknown method {method!r}; choose ts, cluster_ts, class_cluster_ts or lts")
    save_calibrator(calibrator, out)
    print(f"wrote {out}")
    return 0


_EVAL_DEFAULTS = dict(
    manifest=None, calibrator=None, split="test", score="max_prob", bins=15,
    pixels_per_image=20_000, seed=0, id_domain=None, metrics=None, workers=None,
    out=None, csv_out=None, bins_out=None,
)


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def _metrics(value) -> tuple[str, ...]:
    if value is None:
        return ev.ALL_METRICS
    if isinstance(value, str):
        return tuple(m.strip() for m in value.split(",") if m.strip())
    if isinstance(value, list) and all(isinstance(m, str) for m in value):
        return tuple(value)
    raise UsageError(f"metrics must be a comma-separated string or a list of strings, got {value!r}")


def cmd_eval(args) -> int:
    options = _resolve_options(args, _EVAL_DEFAULTS)
    manifest = load_manifest(_require(options, "manifest"))
    config = ev.EvalConfig(
        split=options["split"],
        score=_convert("score", options["score"], ConfidenceScore),
        bins=_convert("bins", options["bins"], int),
        pixels_per_image=_pixels(options["pixels_per_image"]),
        seed=_convert("seed", options["seed"], int),
        id_domain=options["id_domain"],
        metrics=_metrics(options["metrics"]),
        workers=_resolve_workers(options["workers"]),
    )
    calibrator = None
    if options["calibrator"] is not None:
        calibrator = load_calibrator(options["calibrator"])
    result = ev.evaluate_manifest(manifest, calibrator, config)
    json_bytes = rep.to_json_bytes(result)
    wrote_file = False
    if options["out"] is not None:
        Path(options["out"]).write_bytes(json_bytes)
        print(f"wrote {options['out']}")
        wrote_file = True
    if options["csv_out"] is not None:
        Path(options["csv_out"]).write_bytes(rep.to_csv_bytes(result))
        print(f"wrote {options['csv_out']}")
        wrote_file = True
    if options["bins_out"] is not None:
        text = json.dumps(result.bins, indent=2, sort_keys=True, allow_nan=False) + "\n"
        Path(options["bins_out"]).write_text(text, encoding="utf-8")
        print(f"wrote {options['bins_out']}")
        wrote_file = True
    if not wrote_file:
        sys.stdout.write(json_bytes.decode("utf-8"))
        return 0
    for tag in sorted(result.domains):
        stats = result.domains[tag]
        parts = [f"{tag}:"]
        if "miou" in stats:
            parts.append(f"miou {_percent(stats['miou'])}")
        if "ece" in stats:
            parts.append(f"ece {_percent(stats['ece'])}")
        if "ada_ece" in stats:
            parts.append(f"ada_ece {_percent(stats['ada_ece'])}")
        if "ks_error" in stats:
            parts.append(f"ks {_percent(stats['ks_error'])}")
        if "prr" in stats:
            parts.append(f"prr {stats['prr']:.2f}")
        print("  ".join(parts))
    for tag in sorted(result.ood_auroc):
        print(f"ood_auroc[{tag} vs {result.meta['id_domain']}]: {result.ood_auroc[tag]:.4f}")
    for tag in sorted(result.pixel_ood_auroc):
        print(f"pixel_ood_auroc[{tag}]: {result.pixel_ood_auroc[tag]:.4f}")
    return 0


def cmd_synth(args) -> int:
    if args.config is not None:
        if args.shift is not None:
            raise UsageError("--shift shapes the built-in benchmark; it cannot override a config file")
        config = syn.config_from_json(_load_config_file(args.config))
        if args.seed is not None:
            config = replace(config, seed=int(args.seed))
    else:
        config = syn.default_ladder(
            seed=int(args.seed) if args.seed is not None else 7,
            shift=float(args.shift) if args.shift is not None else 1.0,
        )
    if args.out is None:
        raise UsageError("missing required option --out")
    manifest_path = syn.generate_benchmark(config, args.out)
    print(f"wrote {manifest_path}")
    for domain in config.domains:
        cal = domain.calibration_images if domain.calibration_images is not None else config.calibration_images
        test = domain.test_images if domain.test_images is not None else config.test_images
        print(f"{domain.tag}: tau={domain.true_temperature:g} "
              f"({cal} calibration + {test} test images)")
    if config.holdout_classes:
        print(f"holdout classes {list(config.holdout_classes)} masked as unknown pixels")
    return 0


def cmd_theorem(args) -> int:
    spec = CounterexampleSpec(
        bins=args.bins if args.bins is not None else 3,
        residual=args.residual if args.residual is not None else 0.2,
        per_bin=args.per_bin if args.per_bin is not None else 100,
    )
    ce = build_counterexample(spec)
    values = evaluate_counterexample(ce)
    print(f"bins={spec.bins} per_bin={spec.per_bin} residual={spec.residual:+.6f}")
    print("bin confidences: " + "  ".join(f"{v:.4f}" for v in ce.bin_confidence))
    base, group = values["baseline"], values["groupwise"]
    print(f"baseline  ECE:  B={base['b']:.6f}  B'={base['b_prime']:.6f}  union={base['union']:.6f}")
    print(f"groupwise ECE:  B={group['b']:.6f}  B'={group['b_prime']:.6f}  union={group['union']:.6f}")
    print(f"each group improves: {'PASS' if values['groups_improve'] else 'FAIL'}")
    print(f"union regresses:     {'PASS' if values['union_regresses'] else 'FAIL'}")
    if not (values["groups_improve"] and values["union_regresses"]):
        raise NumericalError("the paradox inequalities did not hold")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="relikit",
                     description="Reliability metrics and post-hoc calibration "
                                 "for pixel-wise probabilistic predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a manifest and every referenced tensor")
    p.add_argument("manifest", help="path to manifest.json")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("fit", help="fit a calibrator and write it as a JSON artifact")
    p.add_argument("--config", help="JSON file with any of the long options")
    p.add_argument("--manifest")
    p.add_argument("--out", help="where to write the calibrator artifact")
    p.add_argument("--method", choices=["ts", "cluster_ts", "class_cluster_ts", "lts"])
    p.add_argument("--split", choices=["calibration", "test"])
    p.add_argument("--seed", type=int)
    p.add_argument("--pixels-per-image", dest="pixels_per_image", type=int,
                   help="calibration pixels drawn per image; 0 uses every pixel")
    p.add_argument("--k", type=int, help="cluster count for cluster methods")
    p.add_argument("--feature-mode", dest="feature_mode", choices=["logits", "image", "both"])
    p.add_argument("--hidden-width", dest="hidden_width", type=int)
    p.add_argument("--t-floor", dest="t_floor", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-pixels", dest="batch_pixels", type=int)
    p.add_argument("--domain-weight", dest="domain_weights", action="append", metavar="TAG=W",
                   help="loss weight for one domain (repeatable)")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("eval", help="evaluate a split and render a reliability report")
    p.add_argument("--config", help="JSON file with any of the long options")
    p.add_argument("--manifest")
    p.add_argument("--calibrator", help="calibrator artifact written by fit")
    p.add_argument("--split", choices=["calibration", "test"])
    p.add_argument("--score", choices=["max_prob", "neg_entropy"])
    p.add_argument("--bins", type=int)
    p.add_argument("--pixels-per-image", dest="pixels_per_image", type=int,
                   help="record pixels drawn per image; 0 uses every pixel")
    p.add_argument("--seed", type=int)
    p.add_argument("--id-domain", dest="id_domain", help="in-domain tag for OOD detection")
    p.add_argument("--metrics", help="comma-separated subset of "
                                     "miou,ece,ada_ece,ks_error,prr,ood_auroc,pixel_ood_auroc")
    p.add_argument("--workers", type=int,
                   help=f"parallel image workers (default ${WORKERS_ENV} or 1)")
    p.add_argument("--out", help="write the JSON report here (default: stdout)")
    p.add_argument("--csv-out", dest="csv_out", help="write the CSV report here")
    p.add_argument("--bins-out", dest="bins_out", help="write per-domain reliability bins here")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--config", help="benchmark config JSON (see synth module docs)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--shift", type=float,
                   help="shift strength of the built-in benchmark (incompatible with --config)")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("theorem", help="print the group-calibration paradox")
    p.add_argument("--residual", "-r", type=float, help="per-bin residual of the baseline model")
    p.add_argument("--bins", "-m", type=int)
    p.add_argument("--per-bin", dest="per_bin", type=int, help="records per bin and population")
    p.set_defaults(handler=cmd_theorem)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TensorFormatError, InvalidTensorError, ManifestError, MetricError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RelikitError as exc:  # future error types without a dedicated code
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
