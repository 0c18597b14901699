"""The command line run as ``python -m relikit.cli`` in processes of its own.

Fitted artifacts and reports have the same bytes on one BLAS thread or
two. BLAS reads its thread count once, when NumPy loads it, so each command
runs in a fresh process with ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
set to the count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relikit
from relikit.synth import default_ladder, generate_benchmark


@pytest.fixture(scope="module")
def readme_bench(tmp_path_factory):
    """The README's seed-7 benchmark."""
    return generate_benchmark(default_ladder(seed=7), tmp_path_factory.mktemp("bench"))


def _outputs(manifest: Path, out: Path, threads: int) -> dict[str, bytes]:
    """Each output of a class_cluster_ts fit, an LTS fit and an eval with the LTS artifact, on ``threads`` BLAS threads."""
    src = str(Path(relikit.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out.mkdir()
    for argv in (["fit", "--method", "class_cluster_ts", "--k", "3", "--out", out / "class_cluster_ts.json"],
                 ["fit", "--method", "lts", "--epochs", "3", "--out", out / "lts.json"],
                 ["eval", "--calibrator", out / "lts.json", "--out", out / "report.json",
                  "--bins-out", out / "bins.json"]):
        subprocess.run([sys.executable, "-m", "relikit.cli", *map(str, argv), "--manifest", str(manifest)],
                       env=env, check=True, capture_output=True)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_outputs_do_not_depend_on_the_blas_thread_count(readme_bench, tmp_path):
    one, two = (_outputs(readme_bench, tmp_path / f"blas-{threads}", threads) for threads in (1, 2))
    assert sorted(one) == ["bins.json", "class_cluster_ts.json", "lts.json", "report.json"]
    assert one == two
