"""Span tracing of relikit from outside the program.

:class:`Tracer` replaces every public function of every ``relikit``
module, at every module attribute that refers to it, with a wrapper that
records a span (id, parent id, name, start, end, thread) in memory.
``from x import f`` copies the binding, so a function is looked up
through several modules; each of those bindings is patched and restored.

A thread with no open span parents its spans to :attr:`Tracer.root`, the
harness's span around the current command, so the spans of ``--workers 2``
pool threads hang off the command that started them.

:func:`layer_metrics` reduces a list of spans to the per-layer metrics
named in ``spec.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = (
    "cli", "tensor_io", "manifest", "tensors", "rng", "calibration", "kmeans", "mlp",
    "confidence", "metrics", "evaluate", "report", "synth",
)
# Private functions that mark a unit of work worth a span of its own.
EXTRA = {"evaluate": ("_summarize_image",)}

READS = ("read_tensor", "read_header", "read_logits", "read_labels", "read_image",
         "read_feature", "read_mask")
WRITES = ("write_logits", "write_labels", "write_image", "write_feature", "write_mask")
RECORD_METRICS = ("ece", "ada_ece", "ks_error", "prr", "bin_partition")
READ_NAMES = frozenset(f"tensor_io.{name}" for name in READS)
WRITE_NAMES = frozenset(f"tensor_io.{name}" for name in WRITES)


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs.get(key)


def _record_count(args, kwargs, result):
    return len(_first_arg(args, kwargs, "records"))


def _auroc_items(args, kwargs, result):
    pos = args[0] if args else kwargs["positive"]
    neg = args[1] if len(args) > 1 else kwargs["negative"]
    return len(pos) + len(neg)


def _nll_rows(args, kwargs, result):
    return len(_first_arg(args, kwargs, "logits"))


# Per-call quantities kept on the span, keyed by the traced name.
INFO = {
    "calibration.scaled_nll": _nll_rows,
    "kmeans.kmeans": lambda args, kwargs, result: result.iterations,
    "metrics.auroc": _auroc_items,
    **{f"metrics.{name}": _record_count for name in RECORD_METRICS},
    **{f"tensor_io.{name}": (lambda args, kwargs, result: str(_first_arg(args, kwargs, "path")))
       for name in READS + WRITES},
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.thread, self.info]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    root: int | None = None
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _patches: list = field(default_factory=list)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span; used for the harness's command spans."""
        return _SpanContext(self, name)

    def _wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = info(args, kwargs, result) if info is not None else None
            self.spans.append(Span(span_id, parent, name, start, end, threading.get_ident(), value))
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every public relikit function."""
        import relikit

        modules = {"relikit": relikit}
        for info in pkgutil.iter_modules(relikit.__path__):
            modules[info.name] = importlib.import_module(f"relikit.{info.name}")
        wrappers = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, fn in vars(module).items():
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if public and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr.lstrip('_')}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(tracer._ids)
        stack.append(self.id)
        tracer.root = self.id
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.root = None
        tracer.spans.append(Span(self.id, self.parent, self.name, self.start, end,
                                 threading.get_ident()))
        return False


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: span time minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = defaultdict(float)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[layer] += s.duration - _covered([(a, b) for a, b in clipped if b > a])
    return out


def _file_mb(paths, sizes: dict[str, int]) -> float:
    total = 0
    for path in paths:
        if path not in sizes:
            sizes[path] = os.path.getsize(path)
        total += sizes[path]
    return total / 1e6


def layer_metrics(spans: list[Span], op_spans: list[list[Span]], sizes: dict[str, int]) -> dict:
    """Per-layer metrics of one traced pass (one setup or one repetition).

    ``op_spans`` holds each command's own spans, for reads per file.
    ``sizes`` caches file sizes by path.
    """
    by_id = {s.id: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def outermost(name, skip_parents=()):
        # spans of name with no ancestor of the same name or in skip_parents
        blocked = (name,) + skip_parents
        out = []
        for s in named[name]:
            parent = by_id.get(s.parent)
            while parent is not None and parent.name not in blocked:
                parent = by_id.get(parent.parent)
            if parent is None:
                out.append(s)
        return out

    def calls(name):
        return len(named[name])

    def seconds(name, skip_parents=()):
        return sum(s.duration for s in outermost(name, skip_parents))

    def info_sum(name):
        return sum(s.info for s in named[name])

    reads = [s for name in READ_NAMES for s in named[name]]
    writes = [s for name in WRITE_NAMES for s in named[name]]
    record_metrics = tuple(f"metrics.{name}" for name in RECORD_METRICS)
    out = {
        "tensor_io.read_calls": len(reads),
        "tensor_io.read_s": sum(s.duration for s in reads),
        "tensor_io.read_mb": _file_mb((s.info for s in reads), sizes),
        "tensor_io.write_s": sum(s.duration for s in writes),
        "tensor_io.write_mb": _file_mb((s.info for s in writes), sizes),
        "manifest.load_s": seconds("manifest.load_manifest"),
        "manifest.load_features_s": seconds("manifest.load_features"),
        "tensors.validate_labels_calls": calls("tensors.validate_labels"),
        "tensors.validate_labels_s": seconds("tensors.validate_labels"),
        "rng.subsample_indices_calls": calls("rng.subsample_indices"),
        "rng.subsample_indices_s": seconds("rng.subsample_indices"),
        "rng.derive_stream_calls": calls("rng.derive_stream"),
        "calibration.fit_temperature_calls": calls("calibration.fit_temperature"),
        "calibration.fit_temperature_s": seconds("calibration.fit_temperature"),
        "calibration.scaled_nll_calls": calls("calibration.scaled_nll"),
        "calibration.scaled_nll_s": seconds("calibration.scaled_nll"),
        "calibration.nll_rows": info_sum("calibration.scaled_nll"),
        "calibration.gather_pixel_batches_s": seconds("calibration.gather_pixel_batches"),
        "calibration.apply_calibrator_s": seconds("calibration.apply_calibrator"),
        "calibration.apply_temperature_s": seconds("calibration.apply_temperature"),
        "calibration.predict_temperature_map_s": seconds("calibration.predict_temperature_map"),
        "kmeans.kmeans_s": seconds("kmeans.kmeans"),
        "kmeans.iterations": info_sum("kmeans.kmeans"),
        "mlp.sgd_train_s": seconds("mlp.sgd_train"),
        "mlp.loss_and_grads_calls": calls("mlp.loss_and_grads"),
        "mlp.loss_and_grads_s": seconds("mlp.loss_and_grads"),
        "confidence.confidence_map_calls": calls("confidence.confidence_map"),
        "confidence.confidence_map_s": seconds("confidence.confidence_map"),
        "metrics.auroc_calls": calls("metrics.auroc"),
        "metrics.auroc_items": info_sum("metrics.auroc"),
        "metrics.auroc_s": seconds("metrics.auroc"),
        "metrics.records": sum(s.info for name in record_metrics
                               for s in outermost(name, record_metrics)),
        "metrics.ece_s": seconds("metrics.ece", ("metrics.ada_ece",)),
        "metrics.ada_ece_s": seconds("metrics.ada_ece"),
        "metrics.ks_error_s": seconds("metrics.ks_error"),
        "metrics.prr_s": seconds("metrics.prr"),
        "metrics.bin_partition_s": seconds("metrics.bin_partition"),
        "metrics.confusion_matrix_s": seconds("metrics.confusion_matrix"),
        "evaluate.evaluate_manifest_s": seconds("evaluate.evaluate_manifest"),
        "evaluate.bin_tables_s": seconds("evaluate.bin_tables"),
        "report.to_json_bytes_s": seconds("report.to_json_bytes"),
        "report.to_csv_bytes_s": seconds("report.to_csv_bytes"),
        "synth.generate_benchmark_s": seconds("synth.generate_benchmark"),
        "synth.generate_scene_s": seconds("synth.generate_scene"),
    }
    totals = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = totals.get(layer, 0.0)
    files = sum(len({s.info for s in op if s.name in READ_NAMES}) for op in op_spans)
    if files:
        out["tensor_io.reads_per_file"] = len(reads) / files
    return out


def concurrency(op: list[Span]) -> float | None:
    """Per-image span time inside evaluate_manifest / evaluate_manifest wall time."""
    outer = [s for s in op if s.name == "evaluate.evaluate_manifest"]
    if not outer:
        return None
    wall = busy = 0.0
    for manifest_span in outer:
        wall += manifest_span.duration
        busy += sum(s.duration for s in op if s.name == "evaluate.summarize_image"
                    and manifest_span.start <= s.start and s.end <= manifest_span.end)
    return busy / wall
