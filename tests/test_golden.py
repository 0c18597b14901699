"""Golden digests: the README's seed-7 benchmark, every calibrator fitted on it and every eval output keep their bytes.

The sha256 of each output is recorded in ``golden.json`` under a platform
key: the NumPy version, the CPU dispatch targets NumPy enabled on this
machine, and NumPy's BLAS. Bytes are promised on one platform, not across
platforms, so on a key the file does not hold the test is skipped, and its
reason is the entry to add.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from relikit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden.json"
FITS = {"ts": [], "cluster_ts": ["--k", "3"], "class_cluster_ts": ["--k", "3"], "lts": ["--epochs", "3"]}


def platform_key() -> str:
    """``numpy <version> | <enabled dispatch targets> | <BLAS name> <BLAS version>``."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.26 only prints its build configuration
        return f"numpy {np.__version__} | dispatch unknown | blas unknown"
    blas = config["Build Dependencies"]["blas"]
    targets = ",".join(config["SIMD Extensions"].get("found") or ["none"])
    return f"numpy {np.__version__} | {targets} | {blas['name']} {blas.get('version', 'unknown')}"


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _outputs(root: Path) -> dict[str, str]:
    """The digest of the benchmark tree and of each fit and eval output, by file name."""
    def run(*argv):
        assert main(list(argv)) == 0, " ".join(argv)

    manifest = "bench/manifest.json"
    run("synth", "--out", "bench", "--seed", "7")
    for method, options in FITS.items():
        run("fit", "--manifest", manifest, "--method", method, *options, "--out", f"{method}.json")
    for calibrator in ("raw", *FITS):
        given = [] if calibrator == "raw" else ["--calibrator", f"{calibrator}.json"]
        for score in ("max_prob", "neg_entropy"):
            stem = f"eval-{calibrator}-{score}"
            run("eval", "--manifest", manifest, *given, "--score", score,
                "--out", f"{stem}.json", "--csv-out", f"{stem}.csv", "--bins-out", f"{stem}.bins.json")
    bench = sorted(path for path in (root / "bench").rglob("*") if path.is_file())
    digests = {"bench": _sha256(*bench)}
    digests.update((path.name, _sha256(path)) for path in sorted(root.glob("*.*")))
    return digests


def test_outputs_keep_their_recorded_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the commands write and read relative paths
    digests = _outputs(tmp_path)
    capsys.readouterr()
    assert len(digests) == 1 + len(FITS) + 3 * 2 * (1 + len(FITS))
    key = platform_key()
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if key not in recorded:
        pytest.skip(f"no digests for this platform; add to {GOLDEN.name}: "
                    + json.dumps({key: digests}, indent=2, sort_keys=True))
    assert digests == recorded[key]
