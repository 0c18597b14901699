"""Smoke test of the benchmark harness at a tiny size.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_names_match_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC["workloads"])
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(SPEC["layers"])
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SPEC["workloads"]))
def test_every_named_metric_is_reported(workload, trace):
    proc, line = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        # every end-to-end metric of the spec is printed with its unit, bounded or not
        for name, spec in SPEC["end_to_end"].items():
            assert any(row.split()[:1] == [name] and row.split()[2] == spec["unit"]
                       for row in proc.stdout.splitlines()), name


def test_fails_without_program_sources():
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        for name in ("run.py", "tracer.py", "spec.json"):
            shutil.copyfile(HERE / name, bare / "perfbench" / name)
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ladder-large", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import relikit.cli  # noqa: F401  (loads every module the tracer patches)
        from relikit import calibration, evaluate, metrics
        from tracer import Tracer

        bindings = [
            (evaluate, "apply_calibrator"), (evaluate, "confidence_map"),
            (metrics, "confidence_map"), (calibration, "kmeans"),
            (calibration, "load_features"), (calibration, "subsample_indices"),
            (evaluate, "subsample_indices"), (calibration, "validate_labels"),
            (evaluate, "validate_labels"),
        ]
        originals = [getattr(module, name) for module, name in bindings]
        tracer = Tracer()
        tracer.install()
        try:
            wrapped = [getattr(module, name) for module, name in bindings]
        finally:
            tracer.uninstall()
        for original, wrapper in zip(originals, wrapped):
            assert wrapper is not original and wrapper.__wrapped__ is original
        assert [getattr(module, name) for module, name in bindings] == originals
    finally:
        del sys.path[:2]
