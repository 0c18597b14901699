#!/usr/bin/env python3
"""End-to-end benchmark of relikit, with an optional traced run.

Run from the repository root::

    python3 perfbench/run.py --workload ladder-large --seed 1 --seconds 40 --trace 0

The command generates the workload named in ``perfbench/spec.json`` from
``--seed`` with ``synth.generate_benchmark``, then runs the operation list
(four ``relikit fit`` and four ``relikit eval`` commands) through
``relikit.cli.main`` in this process, one at a time, repeating the list
until ``--seconds`` have passed. It checks every output, prints each
metric with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics instead; the traced repetitions wrap every public
relikit function from outside the program (see ``perfbench/tracer.py``).
Full results, digests of every output and the spans go to
``.perfbench/results/``. The exit code is 0 only when every operation and
every correctness check passed.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))

# Cap the BLAS and OpenMP pools before NumPy loads, so that the two
# threads of `eval --workers 2` plus BLAS stay within two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(SPEC["blas_threads"])

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from tracer import Tracer, concurrency, layer_metrics  # noqa: E402

OUT_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks the images and image counts, for the harness test")
    return parser.parse_args(argv)


def import_relikit():
    """Import relikit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "relikit" / "__init__.py").is_file():
        raise SystemExit(f"error: no relikit sources under {src}; run from a relikit checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import relikit
    import relikit.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(relikit.__file__).resolve().parent != (src / "relikit").resolve():
        raise SystemExit(f"error: imported relikit from {relikit.__file__}, not {src}")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "relikit_workers_env": os.environ.get("RELIKIT_WORKERS"),
        "platform": platform.platform(),
    }


def synth_config(workload: str, seed: int, size: str):
    from relikit import synth

    payload = dict(SPEC["workloads"][workload]["synth"], seed=seed)
    if size == "smoke":
        payload.update(SPEC["smoke_overrides"][workload])
    return payload, synth.config_from_json(json.dumps(payload))


def operations(workload: str, manifest: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(metric, argv) of each command, with the workload's arguments filled in."""
    spec = SPEC["workloads"][workload]
    fill = {"out": str(out), "k": str(spec["k"]), "epochs": str(spec["epochs"])}
    ops = []
    for op in SPEC["operations"]:
        argv = []
        for token in op["argv"]:
            if token in ("{fit_args}", "{eval_args}"):
                argv.extend(spec[token.strip("{}")])
            else:
                argv.append(token.format(**fill))
        ops.append((op["metric"], argv[:1] + ["--manifest", str(manifest)] + argv[1:]))
    return ops


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checks:
    """Counts operations and correctness checks, attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, name: str, ok: bool, rep: int, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append({"check": name, "repetition": rep, "detail": detail})
            print(f"FAIL [{name}] repetition {rep}: {detail}", file=sys.stderr)
        return ok

    def run(self, name: str, rep: int, fn) -> None:
        """Record fn() as one check; an exception counts as a failure."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a malformed output is a failed check, not a crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(name, ok, rep, detail)


class ClusterTruth:
    """Domain and true temperature of each calibration image, for tau recovery."""

    def __init__(self, manifest, config):
        from relikit.manifest import load_features

        entries = manifest.select(split="calibration")
        _, self.features = load_features(manifest, entries)
        self.domains = [e.domain for e in entries]
        self.tau = {d.tag: d.true_temperature for d in config.domains}

    def recovery_errors(self, artifact: dict) -> tuple[float, float]:
        """|ln(T_fit / tau)| of each non-empty cluster, tau that of its majority domain.

        Returns the maximum over clusters and the mean weighted by member images.
        """
        import numpy as np

        centroids = np.asarray(artifact["centroids"], dtype=np.float64)
        d2 = ((self.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignment = d2.argmin(axis=1)
        errors, weights = [], []
        for j, t_fit in enumerate(artifact["temperatures"]):
            members = [self.domains[i] for i in np.flatnonzero(assignment == j)]
            if members:
                majority = max(sorted(set(members)), key=members.count)
                errors.append(abs(math.log(t_fit / self.tau[majority])))
                weights.append(len(members))
        return max(errors), float(np.average(errors, weights=weights))


def check_repetition(checks: Checks, rep: int, out: Path, truth: ClusterTruth,
                     reference: dict | None) -> tuple[dict, tuple[float, float]]:
    """Correctness checks on one repetition's outputs; returns digests and tau errors."""
    digests = {p.name: sha256(p) for p in sorted(out.iterdir())}

    def report(name):
        return json.loads((out / f"eval_{name}.json").read_text(encoding="utf-8"))

    def w2_identical():
        same = all((out / f"eval_ts{s}").read_bytes() == (out / f"eval_ts_w2{s}").read_bytes()
                   for s in (".json", ".csv"))
        return same, "eval --workers 2 bytes differ from --workers 1"

    def argmax_invariant():
        reports = {name: report(name) for name in ("ts", "cluster", "lts")}
        for tag, stats in reports["ts"]["domains"].items():
            for key in ("accuracy", "miou", "per_class_iou"):
                values = {name: r["domains"][tag][key] for name, r in reports.items()}
                if len(set(json.dumps(v) for v in values.values())) != 1:
                    return False, f"{tag} {key} differs across calibrators: {values}"
        return True, ""

    def bin_counts():
        bins = json.loads((out / "bins_cluster.json").read_text(encoding="utf-8"))
        domains = report("cluster")["domains"]
        sums = {tag: sum(table["count"]) for tag, table in bins.items()}
        expected = {tag: stats["n_records"] for tag, stats in domains.items()}
        return sums == expected, f"bin counts {sums} != n_records {expected}"

    tau_err = (float("nan"), float("nan"))

    def tau_finite():
        nonlocal tau_err
        artifact = json.loads((out / "cluster_ts.json").read_text(encoding="utf-8"))
        tau_err = truth.recovery_errors(artifact)
        return all(map(math.isfinite, tau_err)), f"tau recovery errors (max, mean) are {tau_err}"

    checks.run("w2_bytes_identical", rep, w2_identical)
    checks.run("argmax_invariant", rep, argmax_invariant)
    checks.run("bin_counts_sum_to_records", rep, bin_counts)
    checks.run("tau_recovery_finite", rep, tau_finite)
    if reference is not None:
        changed = sorted(k for k in reference.keys() | digests.keys()
                         if reference.get(k) != digests.get(k))
        checks.record("bytes_identical_across_repetitions", not changed, rep,
                      f"outputs differ from the first repetition: {changed}")
    return digests, tau_err


def fitted_temperatures(out: Path) -> dict:
    temps = {}
    for method in ("ts", "cluster_ts", "class_cluster_ts"):
        path = out / f"{method}.json"
        if path.is_file():
            artifact = json.loads(path.read_text(encoding="utf-8"))
            temps[method] = {k: artifact[k] for k in ("temperature", "temperatures",
                                                       "fallback_temperature") if k in artifact}
    return temps


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values), "samples": values}


@dataclass
class Setup:
    times: list[float] = field(default_factory=list)
    manifest_path: Path | None = None
    manifest: object = None
    layers: list[dict] = field(default_factory=list)


def run_setup(config, work: Path, traced: bool, sizes: dict, spans: list) -> Setup:
    """Generate the workload and load its manifest several times; keep the first copy."""
    from relikit import synth
    from relikit.manifest import load_manifest

    setup = Setup()
    for i in range(SPEC["setup_repetitions"]):
        target = work / f"data{i}"
        tracer = Tracer()
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            path = synth.generate_benchmark(config, target)
            manifest = load_manifest(path)
            setup.times.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        if traced:
            setup.layers.append(layer_metrics(tracer.spans, [], sizes))
            spans.extend(tracer.spans)
        if i == 0:
            setup.manifest_path, setup.manifest = path, manifest
        else:
            shutil.rmtree(target)
    return setup


def run_command(argv: list[str], tracer: Tracer, span: str | None) -> tuple[int | None, float]:
    """One relikit command in this process, stdout discarded; returns (exit code, seconds)."""
    import relikit.cli

    gc.collect()  # start every command from the same heap state
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            if span is not None:
                stack.enter_context(tracer.span(span))
            start = time.perf_counter()
            code = relikit.cli.main(argv)
            return code, time.perf_counter() - start
    except Exception:  # a command that crashes is a failed operation
        traceback.print_exc()
        return None, float("nan")


@dataclass
class Repetitions:
    timings: dict[str, dict[bool, list[float]]]
    layers: list[dict] = field(default_factory=list)
    per_op_layers: dict[str, list[dict]] = field(default_factory=lambda: defaultdict(list))
    tau_errors: list[tuple[float, float]] = field(default_factory=list)
    digests: dict | None = None
    temperatures: dict | None = None
    count: int = 0


def run_repetitions(args, manifest_path: Path, work: Path, truth: ClusterTruth, checks: Checks,
                    sizes: dict, spans: list) -> Repetitions:
    """Repeat the operation list until --seconds have passed; in trace mode every other
    repetition is traced."""
    names = [metric for metric, _ in operations(args.workload, manifest_path, work)]
    reps = Repetitions(timings={name: {False: [], True: []} for name in names})
    deadline = time.perf_counter() + args.seconds
    while reps.count < SPEC["min_repetitions"] or time.perf_counter() < deadline:
        rep = reps.count
        traced = bool(args.trace) and rep % 2 == 1
        out = work / f"rep{rep}"
        out.mkdir(parents=True)
        tracer = Tracer()
        op_spans = []
        if traced:
            tracer.install()
        try:
            for metric, argv in operations(args.workload, manifest_path, out):
                first = len(tracer.spans)
                code, elapsed = run_command(argv, tracer, f"op.{metric}" if traced else None)
                if checks.record(f"operation {metric}", code == 0, rep, f"exit code {code}"):
                    reps.timings[metric][traced].append(elapsed)
                op_spans.append(tracer.spans[first:])
        finally:
            tracer.uninstall()
        if traced:
            for metric, op in zip(names, op_spans):
                reps.per_op_layers[metric].append(layer_metrics(op, [op], sizes))
            reps.layers.append(layer_metrics(tracer.spans, op_spans, sizes))
            reps.layers[-1]["evaluate.concurrency"] = concurrency(op_spans[names.index("eval_ts_w2_s")])
            spans.extend(tracer.spans)
        digests, tau_errors = check_repetition(checks, rep, out, truth, reps.digests)
        reps.tau_errors.append(tau_errors)
        if reps.digests is None:
            reps.digests, reps.temperatures = digests, fitted_temperatures(out)
        shutil.rmtree(out)
        reps.count += 1
    return reps


# Ratios are not summed with the set-up phase.
RATIOS = ("tensor_io.reads_per_file", "evaluate.concurrency")


def median_layers(passes: list[dict]) -> dict:
    keys = {key for layers in passes for key in layers}
    out = {}
    for key in keys:
        values = [layers[key] for layers in passes if layers.get(key) is not None]
        if values:
            out[key] = statistics.median(values)
    return out


def per_layer_metrics(setup: Setup, reps: Repetitions) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the tracing overhead per operation."""
    per_layer = median_layers(reps.layers)
    for key, value in median_layers(setup.layers).items():
        if key not in RATIOS:
            per_layer[key] = per_layer.get(key, 0) + value
    medians = {op: {traced: statistics.median(s[traced]) for traced in (False, True) if s[traced]}
               for op, s in reps.timings.items()}
    overhead = {op: m[True] / m[False] - 1 for op, m in medians.items() if len(m) == 2}
    untraced = sum(medians[op][False] for op in overhead)
    traced = sum(medians[op][True] for op in overhead)
    if untraced:
        per_layer["trace.overhead_frac"] = traced / untraced - 1
    if False in medians["eval_ts_s"] and False in medians["eval_ts_w2_s"]:
        per_layer["evaluate.w2_speedup"] = medians["eval_ts_s"][False] / medians["eval_ts_w2_s"][False]
    return per_layer, overhead


def end_to_end_metrics(import_s: float, setup: Setup, reps: Repetitions, checks: Checks) -> dict:
    metrics = {"setup_s": import_s + statistics.median(setup.times)}
    for op, samples in reps.timings.items():
        if samples[False]:
            metrics[op] = statistics.median(samples[False])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["failed_frac"] = len(checks.failures) / checks.attempted
    metrics["tau_recovery_err"] = max(err for err, _ in reps.tau_errors)
    metrics["tau_mean_ratio"] = math.exp(max(mean for _, mean in reps.tau_errors))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_relikit()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    payload, config = synth_config(args.workload, args.seed, args.size)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checks = Checks()
    sizes: dict[str, int] = {}
    spans: list = []
    try:
        setup = run_setup(config, work, bool(args.trace), sizes, spans)
        truth = ClusterTruth(setup.manifest, config)
        reps = run_repetitions(args, setup.manifest_path, work, truth, checks, sizes, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = end_to_end_metrics(import_s, setup, reps, checks)
    units = {name: spec["unit"] for name, spec in SPEC["end_to_end"].items()}
    units.update({name: spec["unit"] for name, spec in SPEC["layers"].items()})
    results = {
        "workload": args.workload,
        "why": SPEC["workloads"][args.workload]["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(),
        "synth_config": payload,
        "operations": [argv for _, argv in operations(args.workload, Path("MANIFEST"), Path("OUT"))],
        "repetitions": reps.count,
        "setup": {"import_s": import_s, "generate_and_load_s": summary(setup.times),
                  "traced": bool(args.trace)},
        "timings": {op: summary(s[False]) for op, s in reps.timings.items() if s[False]},
        "timings_traced": {op: summary(s[True]) for op, s in reps.timings.items() if s[True]},
        "end_to_end": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "tau_recovery_errors_max_mean_per_repetition": reps.tau_errors,
        "fitted_temperatures": reps.temperatures,
        "digests": reps.digests,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }
    reported = metrics
    if args.trace:
        reported, overhead = per_layer_metrics(setup, reps)
        results["per_layer"] = reported
        results["per_operation"] = {op: median_layers(passes)
                                    for op, passes in reps.per_op_layers.items()}
        results["trace_overhead_frac_per_operation"] = overhead
        spans_path = results_dir / f"{stem}-spans.jsonl.gz"
        with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_row()) + "\n")
        results["spans_file"] = str(spans_path.relative_to(ROOT))
    results_path = results_dir / f"{stem}.json"
    results_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    wanted = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    for name in wanted if args.trace else metrics:
        value = reported.get(name)
        extra = ""
        if name in results["timings"] and not args.trace:
            t = results["timings"][name]
            extra = f"  (median of {t['n']}, min {t['min']:.4g}, max {t['max']:.4g})"
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>12s} {units[name]}{extra}")
    print(f"results: {results_path.relative_to(ROOT)}")

    failed = len(checks.failures)
    measured = {name: reported[name] for name in wanted
                if reported.get(name) is not None and math.isfinite(reported[name])}
    if len(measured) < len(wanted):
        print(f"error: metrics not measured: {sorted(set(wanted) - set(measured))}", file=sys.stderr)
        failed += 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in measured.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
