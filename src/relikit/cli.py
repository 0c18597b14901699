"""Command-line interface.

Five subcommands: ``validate`` lists every violation of the tensor checks
(:func:`~relikit.manifest.check_entry`, on the read path of
:mod:`relikit.manifest`) that ``fit`` and ``eval`` stop at, ``fit``
trains a calibrator and writes it as a JSON artifact, ``eval`` renders a
reliability report, ``synth`` writes a synthetic benchmark, and
``theorem`` prints the group-calibration paradox.

``fit`` and ``eval`` read an optional ``--config`` JSON file whose keys
match the long flag names (with underscores); explicit flags override the
file. One entry per option (``_FIT_OPTIONS``, ``_EVAL_OPTIONS``) casts a
flag's text and a config value alike, before any file is read; an option
left unset takes the library's default.
Exit codes: 0 success, 1 usage or configuration errors, 2 data errors
(malformed tensors, inconsistent manifests, metric preconditions),
3 numerical failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

from . import evaluate as ev
from . import report as rep
from . import synth as syn
from . import tensor_io  # noqa: F401  (unused here; tests count tensor reads through cli.tensor_io)
from .calibration import (
    METHODS,
    T_MAX,
    T_MIN,
    ClusterTemperatureModel,
    FeatureMode,
    GlobalTemperature,
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
    NumericalError,
    RelikitError,
    UsageError,
    convert_option,
    read_json_object,
)
from .manifest import SPLITS, check_entry, load_manifest

WORKERS_ENV = "RELIKIT_WORKERS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_options(args, table: dict) -> dict:
    """The options set in the config file or, winning over it, by flags, each cast by its entry in ``table``."""
    given = read_json_object(args.config, UsageError, "config file") if args.config else {}
    unknown = given.keys() - table.keys()
    if unknown:
        raise UsageError(f"unknown config keys {sorted(unknown)}; valid: {sorted(table)}")
    given.update(_given(args, table))
    options = {key: cast(key, given[key]) for key, (cast, _) in table.items() if key in given}
    # a JSON null reaches the cast too: options with no default take it as unset, the others reject it
    options = {key: value for key, value in options.items() if given[key] is not None}
    for key in ("out", "csv_out", "bins_out"):
        # a missing directory is reported before any work; an OS refusal at write time by _write_output
        parent = os.path.dirname(options.get(key) or "") or "."
        if not os.path.isdir(parent):
            raise UsageError(f"cannot write {options[key]} (no directory {parent})")
    return options


def _write_output(path, write):
    """Return ``write(path)``; an OS refusal to write is a usage error naming the path."""
    try:
        return write(path)
    except OSError as exc:
        raise UsageError(f"cannot write {path} ({exc})") from exc


def _given(args, keys) -> dict:
    """The flags among ``keys`` that were passed; the library supplies the others' defaults."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _pick(options: dict, keys) -> dict:
    """The options among ``keys`` that are set; the library supplies the others' defaults."""
    return {key: options[key] for key in keys if key in options}


def _require(options: dict, key: str):
    if key not in options:
        raise UsageError(f"missing required option --{key.replace('_', '-')}")
    return options[key]


_int = partial(convert_option, kind=int)
_float = partial(convert_option, kind=float)


def _text(key, value) -> str | None:
    """A path or a tag; a null leaves it unset."""
    if value is not None and not isinstance(value, str):
        raise UsageError(f"{key.replace('_', '-')} must be a string, got {value!r}")
    if value is not None and "\0" in value:
        raise UsageError(f"{key.replace('_', '-')} must not contain a NUL character, got {value!r}")
    return value


def _split(key, value) -> str:
    if _text(key, value) not in SPLITS:
        raise UsageError(f"split must be one of {', '.join(SPLITS)}, got {value!r}")
    return value


def _method(key, value) -> str:
    if _text(key, value) not in METHODS:
        raise UsageError(f"unknown method {value!r}; choose one of {', '.join(METHODS)}")
    return value


def _pixels(key, value) -> int | None:
    # 0 means "use every pixel"
    count = convert_option(key, value, int)
    if count < 0:
        raise UsageError(f"pixels-per-image must be >= 0, got {count}")
    return None if count == 0 else count


def _workers(key, value) -> int | None:
    # a null leaves workers to $RELIKIT_WORKERS, as an absent key does
    return None if value is None else convert_option(key, value, int)


def _parse_domain_weights(_, value) -> dict[str, float] | None:
    if value is None or isinstance(value, dict):
        return value and {str(tag): convert_option(f"domain weight {tag}", w, float) for tag, w in value.items()}
    if not isinstance(value, list):
        raise UsageError(f"domain weights must be a list of tag=number or an object, got {value!r}")
    weights = {}
    for item in value:
        tag, sep, w = str(item).partition("=")
        if not sep or not tag:
            raise UsageError(f"domain weight must look like tag=number, got {item!r}")
        weights[tag] = convert_option(f"domain weight {tag}", w, float)
    return weights


def _metrics(_, value) -> tuple[str, ...] | None:
    if isinstance(value, str):
        return tuple(m.strip() for m in value.split(",") if m.strip())
    if value is not None and not (isinstance(value, list) and all(isinstance(m, str) for m in value)):
        raise UsageError(f"metrics must be a comma-separated string or a list of strings, got {value!r}")
    return None if value is None else tuple(value)


# Each fit and eval option once, in --help order: key -> (cast, argparse keywords of its flag). A cast
# takes the key and a flag's text or a config value; a "flag" keyword names a flag other than --key.
_FIT_OPTIONS = {
    "manifest": (_text, {}),
    "out": (_text, dict(help="where to write the calibrator artifact")),
    "method": (_method, dict(choices=list(METHODS))),
    "split": (_split, dict(choices=SPLITS)),
    "seed": (_int, {}),
    "pixels_per_image": (_pixels, dict(help="calibration pixels drawn per image; 0 uses every pixel")),
    "k": (_int, dict(help="cluster count for cluster methods")),
    "feature_mode": (partial(convert_option, kind=FeatureMode), dict(choices=["logits", "image", "both"])),
    "hidden_width": (_int, {}),
    "t_floor": (_float, {}),
    "learning_rate": (_float, {}),
    "epochs": (_int, {}),
    "batch_pixels": (_int, {}),
    "domain_weights": (_parse_domain_weights, dict(flag="--domain-weight", action="append", metavar="TAG=W",
                                                   help="loss weight for one domain (repeatable)")),
}
_EVAL_OPTIONS = {
    "manifest": (_text, {}),
    "calibrator": (_text, dict(help="calibrator artifact written by fit")),
    "split": (_split, dict(choices=SPLITS)),
    "score": (partial(convert_option, kind=ConfidenceScore), dict(choices=["max_prob", "neg_entropy"])),
    "bins": (_int, {}),
    "pixels_per_image": (_pixels, dict(help="record pixels drawn per image; 0 uses every pixel")),
    "seed": (_int, {}),
    "id_domain": (_text, dict(help="in-domain tag for OOD detection")),
    "metrics": (_metrics, dict(help="comma-separated subset of "
                                    "miou,ece,ada_ece,ks_error,prr,ood_auroc,pixel_ood_auroc")),
    "workers": (_workers, dict(help="threads scoring batches of images, at most the CPU count "
                                    f"(default ${WORKERS_ENV} or 1)")),
    "out": (_text, dict(help="write the JSON report here (default: stdout)")),
    "csv_out": (_text, dict(help="write the CSV report here")),
    "bins_out": (_text, dict(help="write per-domain reliability bins here")),
}


def cmd_validate(args) -> int:
    manifest = load_manifest(args.manifest)
    seen: dict = {}
    violations = [found for entry in manifest.entries for found in check_entry(manifest, entry, {}, seen)]
    for file, field, error in violations:
        print(f"FAIL {file} [{field}] {error}")
    if violations:
        print(f"{len(violations)} violation(s) in {len(manifest.entries)} entries")
        return 2
    print(f"OK {len(manifest.entries)} entries, classes={manifest.classes}, "
          f"domains={','.join(manifest.domains())}")
    return 0


def _warn_pinned(what: str, temperatures) -> None:
    """One stderr warning when fitted temperatures sit exactly on a bound of [T_MIN, T_MAX]."""
    pinned = sum(t in (T_MIN, T_MAX) for t in temperatures)
    if pinned:
        count = f"{pinned} of {len(temperatures)} {what}s are" if len(temperatures) > 1 else f"the {what} is"
        print(f"warning: {count} pinned to a bound of [{T_MIN:g}, {T_MAX:g}]", file=sys.stderr)


def cmd_fit(args) -> int:
    options = _resolve_options(args, _FIT_OPTIONS)
    out = Path(_require(options, "out"))
    method = METHODS[options.get("method", "ts")]
    manifest = load_manifest(_require(options, "manifest"))
    common = _pick(options, ("split", "pixels_per_image", "seed"))
    if method.build is GlobalTemperature:
        calibrator = fit_global_ts(manifest, **common)
        print(f"temperature: {calibrator.temperature:.6f}")
        _warn_pinned("temperature", [calibrator.temperature])
    elif method.build is ClusterTemperatureModel:
        calibrator = fit_cluster_ts(manifest, variant=method.fixed["variant"], **common, **_pick(options, ("k",)))
        print(f"clusters: {calibrator.clusters}  fallback temperature: "
              f"{calibrator.fallback_temperature:.6f}")
        for j in range(calibrator.clusters):
            if calibrator.temperatures.ndim == 1:
                print(f"cluster {j}: T={float(calibrator.temperatures[j]):.6f}")
            else:
                row = "  ".join(f"{t:.4f}" for t in calibrator.temperatures[j])
                print(f"cluster {j}: T per class: {row}")
        _warn_pinned("fallback temperature", [calibrator.fallback_temperature])
        _warn_pinned("cell temperature", list(calibrator.temperatures.flat))
    else:
        hyper = LtsHyper(**_pick(options, [f.name for f in fields(LtsHyper)]))
        calibrator, curve = fit_lts(manifest, hyper=hyper, **common, **_pick(options, ("feature_mode",)))
        print(f"regressor: mode={calibrator.feature_mode.value} input_dim={calibrator.input_dim} "
              f"hidden={calibrator.hidden_width}")
        if curve:
            print(f"training loss: {curve[0]:.6f} -> {curve[-1]:.6f} over {len(curve)} epochs")
    _write_output(out, partial(save_calibrator, calibrator))
    print(f"wrote {out}")
    return 0


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


# the files eval writes, in this order, and the per-domain summary fields it then prints
_EVAL_OUTPUTS = (("out", rep.to_json_bytes), ("csv_out", rep.to_csv_bytes), ("bins_out", rep.to_bins_bytes))
_EVAL_SUMMARY = (("miou", "miou", _percent), ("ece", "ece", _percent), ("ada_ece", "ada_ece", _percent),
                 ("ks_error", "ks", _percent), ("prr", "prr", "{:.2f}".format))


def cmd_eval(args) -> int:
    options = _resolve_options(args, _EVAL_OPTIONS)
    if "workers" not in options and WORKERS_ENV in os.environ:
        options["workers"] = convert_option("workers", os.environ[WORKERS_ENV], int)
    manifest = load_manifest(_require(options, "manifest"))
    config = ev.EvalConfig(**_pick(options, [f.name for f in fields(ev.EvalConfig)]))
    calibrator = load_calibrator(options["calibrator"]) if "calibrator" in options else None
    result = ev.evaluate_manifest(manifest, calibrator, config)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    outputs = [(options[key], serialize) for key, serialize in _EVAL_OUTPUTS if key in options]
    if not outputs:
        sys.stdout.write(rep.to_json_bytes(result).decode("utf-8"))
        return 0
    for path, serialize in outputs:
        data = serialize(result)
        _write_output(path, lambda target: Path(target).write_bytes(data))
        print(f"wrote {path}")
    for tag, stats in sorted(result.domains.items()):
        print("  ".join([f"{tag}:"] + [f"{label} {show(stats[key])}" for key, label, show in _EVAL_SUMMARY
                                       if key in stats]))
    for tag in sorted(result.ood_auroc):
        print(f"ood_auroc[{tag} vs {result.meta['id_domain']}]: {result.ood_auroc[tag]:.4f}")
    for tag in sorted(result.pixel_ood_auroc):
        print(f"pixel_ood_auroc[{tag}]: {result.pixel_ood_auroc[tag]:.4f}")
    return 0


def cmd_synth(args) -> int:
    if args.config is not None:
        if args.shift is not None:
            raise UsageError("--shift shapes the built-in benchmark; it cannot override a config file")
        config = syn.config_from_json(read_json_object(args.config, UsageError, "config file"))
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    else:
        config = syn.default_ladder(**_given(args, ("seed", "shift")))
    if args.out is None:
        raise UsageError("missing required option --out")
    manifest_path = _write_output(args.out, partial(syn.generate_benchmark, config))
    print(f"wrote {manifest_path}")
    for domain in config.domains:
        cal, test = syn.image_counts(config, domain)
        print(f"{domain.tag}: tau={domain.true_temperature:g} "
              f"({cal} calibration + {test} test images)")
    if config.holdout_classes:
        print(f"holdout classes {list(config.holdout_classes)} masked as unknown pixels")
    return 0


def cmd_theorem(args) -> int:
    spec = CounterexampleSpec(**_given(args, [f.name for f in fields(CounterexampleSpec)]))
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

    for name, handler, table, summary in (
            ("fit", cmd_fit, _FIT_OPTIONS, "fit a calibrator and write it as a JSON artifact"),
            ("eval", cmd_eval, _EVAL_OPTIONS, "evaluate a split and render a reliability report")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON file with any of the long options")
        for key, (_, keywords) in table.items():
            keywords = dict(keywords)
            p.add_argument(keywords.pop("flag", "--" + key.replace("_", "-")), dest=key, **keywords)
        p.set_defaults(handler=handler)

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


def _fix_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 4 MiB for this process; a no-op on any other C library.

    glibc raises both as large arrays are freed (to 7.7 and 15.4 MiB after ``fit --method lts`` on 128 x 256
    images) and keeps that much freed heap resident, so what a later command in the process adds to the peak RSS
    depends on where its arrays land in that heap, which thread timing decides.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr (Windows) or no such name (macOS, musl)
        glibc = False
    if glibc:
        import ctypes  # here, so that importing the CLI does not load it

        mallopt = ctypes.CDLL(None).mallopt
        for parameter in (-3, -1):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD of <malloc.h>
            mallopt(parameter, 4 << 20)


def main(argv=None) -> int:
    _fix_heap_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except RelikitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
