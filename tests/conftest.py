"""Shared benchmark fixtures.

Benchmarks are generated once per session; every test that needs one
receives the same loaded manifest, so the suite stays fast and fully
deterministic.
"""

import os

# One BLAS thread, as in perfbench: a matrix-vector product that BLAS splits
# across threads may finish the rows at a split on another kernel path, so
# the whole-array oracle of the NLL pass is reproducible only on one thread.
# Set before NumPy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from relikit.manifest import load_manifest  # noqa: E402
from relikit.synth import DomainSpec, SynthConfig, default_ladder, generate_benchmark  # noqa: E402


@pytest.fixture(scope="session")
def ladder_manifest(tmp_path_factory):
    """Stock three-domain benchmark with oracle temperatures {1, 2, 4}."""
    out = tmp_path_factory.mktemp("ladder")
    return load_manifest(generate_benchmark(default_ladder(seed=5), out))


@pytest.fixture(scope="session")
def family_manifest(tmp_path_factory):
    """In-domain family spanning temperatures 1.0 .. 3.2 plus a test-only shifted domain."""
    config = SynthConfig(
        domains=(
            DomainSpec("id_low", 1.0, 0.0, (0.0, 0.0)),
            DomainSpec("id_mid", 1.8, 0.05, (3.0, 0.0)),
            DomainSpec("id_high", 3.2, 0.1, (0.0, 3.0)),
            DomainSpec("shifted", 4.0, 0.1, (3.0, 3.0), calibration_images=0, test_images=6),
        ),
        height=40, width=40, calibration_images=5, test_images=3, seed=13,
    )
    out = tmp_path_factory.mktemp("family")
    return load_manifest(generate_benchmark(config, out))


@pytest.fixture(scope="session")
def holdout_manifest(tmp_path_factory):
    """Benchmark with one held-out class to exercise unknown-pixel masks."""
    config = SynthConfig(
        domains=(
            DomainSpec("id", 1.0, 0.0, (0.0, 0.0)),
            DomainSpec("strange", 2.5, 0.2, (5.0, 0.0)),
        ),
        height=32, width=32, calibration_images=3, test_images=4, seed=17,
        holdout_classes=(4,),
    )
    out = tmp_path_factory.mktemp("holdout")
    return load_manifest(generate_benchmark(config, out))
