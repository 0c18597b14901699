"""Temperature fitting, application, cluster and learned variants."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relikit import calibration, mlp
from relikit.calibration import (
    DEFAULT_PIXELS_PER_IMAGE,
    LN_T_TOL,
    T_MAX,
    T_MIN,
    ClusterTemperatureModel,
    ClusterVariant,
    FeatureMode,
    GlobalTemperature,
    LtsHyper,
    TemperatureMap,
    TemperatureRegressor,
    apply_calibrator,
    apply_temperature,
    assign_cluster,
    calibrator_temperature,
    fit_cluster_ts,
    fit_global_ts,
    fit_lts,
    fit_temperature,
    gather_pixel_batches,
    load_calibrator,
    needs_image,
    predict_temperature_map,
    save_calibrator,
)
from relikit.confidence import confidence_map
from relikit.cli import main
from relikit.errors import CalibrationError, ManifestError, UsageError, convert_option
from relikit.kmeans import kmeans
from relikit.manifest import load_entry, load_features, load_manifest
from relikit.rng import derive_stream, subsample_indices
from relikit.synth import DomainSpec, SynthConfig, generate_benchmark
from relikit.tensor_io import read_feature, read_image, read_labels, read_logits
from relikit.tensors import LogitTensor


def scaled_nll(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    """Mean NLL of softmax(logits / temperature) against integer labels: the solver's oracle."""
    z = np.asarray(logits, dtype=np.float64) / temperature
    shift = z.max(axis=1, keepdims=True)
    lse = shift[:, 0] + np.log(np.exp(z - shift).sum(axis=1))
    return float((lse - z[np.arange(z.shape[0]), labels]).mean())


def _calibrated_sample(rng, n, classes, temperature=1.0, concentration=1.0):
    """Labels drawn from softmax(logits / temperature), so the generating
    temperature is the NLL-optimal one in expectation."""
    p = rng.dirichlet(np.full(classes, concentration), size=n)
    p = np.maximum(p, 1e-12)
    p /= p.sum(axis=1, keepdims=True)
    labels = (rng.random(n)[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    logits = temperature * np.log(p)
    return logits, labels.astype(np.int64)


@st.composite
def _fit_problems(draw):
    """Random logits labelled all right (the fit pins at T_MIN), all wrong
    (it pins at T_MAX) or by sampling softmax(logits / tau)."""
    n = draw(st.integers(1, 60))
    classes = draw(st.integers(2, 6))
    scale = draw(st.floats(0.01, 50.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(scale=scale, size=(n, classes))
    labelling = draw(st.sampled_from(["right", "wrong", "sampled"]))
    if labelling == "right":
        return logits, logits.argmax(axis=1)
    if labelling == "wrong":
        return logits, logits.argmin(axis=1)
    tau = draw(st.floats(0.1, 10.0))
    p = np.exp((logits - logits.max(axis=1, keepdims=True)) / tau)
    cdf = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
    labels = np.minimum((rng.random(n)[:, None] > cdf).sum(axis=1), classes - 1)
    return logits, labels


def _oracle_nll_derivatives(z, mean_zy, beta):
    """The NLL pass as one whole-array formula: the blocked pass must give its bits.

    Returns the NLL and its two derivatives, and the per-row terms they are the means of.
    """
    ones = np.ones(z.shape[1])
    e = np.multiply(z, beta)
    np.exp(e, out=e)
    total = e @ ones
    e *= z
    mean_z = (e @ ones) / total
    e *= z
    var_z = (e @ ones) / total - mean_z * mean_z
    nll = float(np.log(total).mean()) - beta * mean_zy
    derivatives = nll, float(mean_z.mean()) - mean_zy, float(np.maximum(var_z, 0.0).mean())
    return derivatives, np.stack([np.log(total), mean_z, np.maximum(var_z, 0.0)])


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def _pass_problems(draw):
    """Logits of 1, B - 1, B, B + 1 or 3B + 5 rows (B rows per block) with tied maxima
    and rows whose maximum is a zero of either sign, labels and a beta in [1/20, 20]."""
    classes = draw(st.sampled_from([2, 5, 19, 40]))
    block = calibration._block_rows(classes)
    n = draw(st.sampled_from([1, block - 1, block, block + 1, 3 * block + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(scale=draw(st.floats(0.1, 30.0)), size=(n, classes))
    kind = rng.integers(0, 4, n)
    tied = np.flatnonzero(kind == 1)
    logits[tied, rng.integers(0, classes, tied.size)] = logits[tied].max(axis=1)
    zero = np.flatnonzero(kind >= 2)
    logits[zero] = -np.abs(logits[zero]) - 0.5
    logits[zero, rng.integers(0, classes, zero.size)] = 0.0
    logits[zero, rng.integers(0, classes, zero.size)] = -0.0
    return logits, rng.integers(0, classes, n), draw(st.floats(0.05, 20.0))


@pytest.fixture(scope="module")
def mono_manifest(tmp_path_factory):
    """Single mildly shifted domain (oracle temperature 2)."""
    config = SynthConfig(
        domains=(DomainSpec("only", 2.0, 0.05, (1.0, 0.0)),),
        height=32, width=32, calibration_images=4, test_images=2, seed=23,
    )
    out = tmp_path_factory.mktemp("mono")
    return load_manifest(generate_benchmark(config, out))


class TestScaledNll:
    def test_uniform_binary_is_ln_two(self):
        logits = np.zeros((4, 2))
        labels = np.array([0, 1, 0, 1])
        assert scaled_nll(logits, labels, 1.0) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(70)
        logits = rng.normal(scale=3.0, size=(50, 4))
        labels = rng.integers(0, 4, size=50)
        for t in [0.1, 1.0, 5.0]:
            scaled = logits / t
            p = np.exp(scaled - scaled.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            direct = -np.log(p[np.arange(50), labels]).mean()
            assert scaled_nll(logits, labels, t) == pytest.approx(direct, rel=1e-12)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[800.0, -800.0]])
        assert np.isfinite(scaled_nll(logits, np.array([1]), 1.0))


class TestFitTemperature:
    def test_beats_dense_grid(self):
        # returned T must dominate an independent 2001-point ln-T grid
        rng = np.random.default_rng(71)
        for _ in range(5):
            tau = float(rng.uniform(0.3, 5.0))
            logits, labels = _calibrated_sample(rng, 3000, 4, temperature=tau)
            fitted = fit_temperature(logits, labels)
            grid = np.exp(np.linspace(np.log(T_MIN), np.log(T_MAX), 2001))
            grid_nll = min(scaled_nll(logits, labels, t) for t in grid)
            assert scaled_nll(logits, labels, fitted) <= grid_nll + 1e-9

    def test_matches_dense_grid_argmin(self):
        rng = np.random.default_rng(72)
        logits, labels = _calibrated_sample(rng, 4000, 5, temperature=2.5)
        fitted = fit_temperature(logits, labels)
        grid = np.linspace(np.log(T_MIN), np.log(T_MAX), 4001)
        nlls = [scaled_nll(logits, labels, float(np.exp(x))) for x in grid]
        best = grid[int(np.argmin(nlls))]
        spacing = (np.log(T_MAX) - np.log(T_MIN)) / 4000
        assert abs(np.log(fitted) - best) < spacing + LN_T_TOL

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 4.0])
    def test_recovers_generating_temperature(self, tau):
        rng = np.random.default_rng(int(tau * 10))
        logits, labels = _calibrated_sample(rng, 20_000, 5, temperature=tau)
        fitted = fit_temperature(logits, labels)
        assert abs(fitted - tau) / tau < 0.05

    def test_calibrated_data_fits_near_identity(self):
        rng = np.random.default_rng(73)
        logits, labels = _calibrated_sample(rng, 50_000, 4, temperature=1.0)
        fitted = fit_temperature(logits, labels)
        assert abs(np.log(fitted)) < 0.05

    def test_single_confident_correct_pixel_clamps_low(self):
        # sharper is always better -> search pins to the lower bound
        fitted = fit_temperature(np.array([[6.0, 0.0]]), np.array([0]))
        assert fitted == pytest.approx(T_MIN, rel=1e-12)

    def test_single_confident_wrong_pixel_clamps_high(self):
        fitted = fit_temperature(np.array([[6.0, 0.0]]), np.array([1]))
        assert fitted == pytest.approx(T_MAX, rel=1e-12)

    def test_respects_custom_bounds(self):
        rng = np.random.default_rng(74)
        logits, labels = _calibrated_sample(rng, 5000, 3, temperature=4.0)
        fitted = fit_temperature(logits, labels, t_min=0.5, t_max=2.0)
        assert fitted == pytest.approx(2.0, rel=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_fit_problems())
    def test_never_worse_than_dense_grid(self, problem):
        logits, labels = problem
        fitted = fit_temperature(logits, labels)
        grid = np.exp(np.linspace(np.log(T_MIN), np.log(T_MAX), 2001))
        nlls = [scaled_nll(logits, labels, t) for t in grid]
        assert T_MIN <= fitted <= T_MAX
        assert scaled_nll(logits, labels, fitted) <= min(nlls) + 1e-9
        best = int(np.argmin(nlls))
        if best in (0, len(grid) - 1):
            bound = T_MIN if best == 0 else T_MAX
            inward = bound * np.exp(1e-6 if best == 0 else -1e-6)
            # NLL rising inward from the bound means the bound is the minimizer
            if scaled_nll(logits, labels, inward) > scaled_nll(logits, labels, bound):
                assert fitted == bound

    def test_few_passes_per_fit(self, monkeypatch):
        # the solver must stay a handful of NLL passes, not a grid search
        passes = []
        real = calibration._nll_derivatives
        monkeypatch.setattr(calibration, "_nll_derivatives",
                            lambda *args: passes.append(1) or real(*args))
        rng = np.random.default_rng(71)
        problems = [_calibrated_sample(rng, 3000, 4, temperature=float(rng.uniform(0.3, 5.0)))
                    for _ in range(5)]
        problems += [(np.array([[6.0, 0.0]]), np.array([0])), (np.array([[6.0, 0.0]]), np.array([1]))]
        for logits, labels in problems:
            passes.clear()
            fit_temperature(logits, labels)
            assert 1 <= len(passes) <= 10

    def test_input_validation(self):
        with pytest.raises(CalibrationError):
            fit_temperature(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        with pytest.raises(CalibrationError):
            fit_temperature(np.zeros((4, 3)), np.zeros(3, dtype=np.int64))
        with pytest.raises(CalibrationError):
            fit_temperature(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(CalibrationError):
            fit_temperature(np.zeros((2, 3)), np.array([0, 1]), t_min=2.0, t_max=1.0)


class TestBlockedPass:
    """The NLL pass runs block by block, and cluster cells reuse the global fit's kept row terms."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_pass_problems())
    def test_blocked_pass_matches_whole_array_formula(self, problem):
        logits, labels, beta = problem
        z = logits - logits.max(axis=1, keepdims=True)
        np.testing.assert_array_equal(_bits(calibration._shift_rows(logits.copy())), _bits(z))
        mean_zy = float(z[np.arange(z.shape[0]), labels].mean())
        terms = np.empty((3, z.shape[0]))
        derivatives = calibration._nll_derivatives(z, mean_zy, beta, terms)
        expected, expected_terms = _oracle_nll_derivatives(z, mean_zy, beta)
        np.testing.assert_array_equal(_bits(terms), _bits(expected_terms))
        np.testing.assert_array_equal(_bits(derivatives), _bits(expected))

    @pytest.mark.parametrize("classes", [5, 19, 40])
    def test_row_subset_terms_are_the_full_terms(self, classes):
        # what the kept first passes rest on: a row's terms do not depend on the rows
        # around it, except in a pass's last block, which a cell fit always computes
        rng = np.random.default_rng(classes)
        n = 3 * calibration._block_rows(classes) + 7
        z = calibration._shift_rows(rng.normal(scale=3.0, size=(n, classes)))
        zy = z[np.arange(n), rng.integers(0, classes, n)]
        for beta in (1.0, 1 / T_MAX, 1 / T_MIN):
            full = np.empty((3, n))
            calibration._nll_derivatives(z, 0.0, beta, full)
            for size in (1, 2, 3, 66, 67, 68, 69, 70, 1001, 2 * n // 3):
                rows = np.union1d(rng.choice(n, size, replace=False), [n - 3, n - 2, n - 1])
                part = np.empty((3, rows.size))
                calibration._nll_derivatives(z[rows], 0.0, beta, part)
                last = calibration._blocks(rows.size, classes)[-1]
                np.testing.assert_array_equal(_bits(part[:, :last.start]), _bits(full[:, rows[:last.start]]))
                kept = calibration._cell_passes(z, zy, rows, {beta: full})(beta)
                fresh = calibration._nll_derivatives(z[rows], float(zy[rows].mean()), beta)
                np.testing.assert_array_equal(_bits(kept), _bits(fresh))

    def test_blocks_cover_the_rows_in_multiples_of_64(self):
        for rows, classes in ((1, 5), (3, 19), (64, 19), (67, 19), (68, 19), (3392 * 2 + 70, 19), (13056 + 5, 5)):
            blocks = calibration._blocks(rows, classes)
            assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
            assert blocks[0].start == 0 and blocks[-1].stop == rows
            assert all((b.stop - b.start) % 64 == 0 for b in blocks[:-1])
            assert min(rows, 4) <= blocks[-1].stop - blocks[-1].start < 68

    def test_fit_temperature_leaves_its_input_unchanged(self):
        logits, labels = _calibrated_sample(np.random.default_rng(75), 500, 4, temperature=2.0)
        before = logits.copy()
        fit_temperature(logits, labels)
        np.testing.assert_array_equal(logits, before)


class TestApplyTemperature:
    def _logits(self, seed=75, shape=(5, 6, 4)):
        rng = np.random.default_rng(seed)
        return LogitTensor(rng.normal(scale=2.0, size=shape).astype(np.float32))

    def test_identity_equals_softmax(self):
        logits = self._logits()
        z = logits.data.astype(np.float64)
        e = np.exp(z - z.max(axis=2, keepdims=True))
        np.testing.assert_array_equal(apply_temperature(logits, 1.0), e / e.sum(axis=2, keepdims=True))

    def test_argmax_preserved_for_any_temperature(self):
        logits = self._logits()
        base = apply_temperature(logits, 1.0).argmax(axis=2)
        rng = np.random.default_rng(76)
        for t in [0.05, 0.3, 1.0, 7.5, 20.0]:
            np.testing.assert_array_equal(apply_temperature(logits, t).argmax(axis=2), base)
        tmap = TemperatureMap(0.1 + 5.0 * rng.random((5, 6)))
        np.testing.assert_array_equal(apply_temperature(logits, tmap).argmax(axis=2), base)

    def test_temperature_map_matches_per_pixel_scalars(self):
        logits = self._logits(shape=(2, 3, 4))
        rng = np.random.default_rng(77)
        tmap = 0.2 + 3.0 * rng.random((2, 3))
        full = apply_temperature(logits, TemperatureMap(tmap))
        for i in range(2):
            for j in range(3):
                one = LogitTensor(logits.data[i : i + 1, j : j + 1, :])
                np.testing.assert_allclose(
                    full[i, j], apply_temperature(one, float(tmap[i, j]))[0, 0], atol=1e-15
                )

    def test_high_temperature_softens(self):
        logits = self._logits()
        sharp = apply_temperature(logits, 1.0).max(axis=2)
        soft = apply_temperature(logits, 10.0).max(axis=2)
        assert np.all(soft <= sharp + 1e-12)
        assert soft.mean() < sharp.mean()

    def test_invalid_temperatures_raise(self):
        logits = self._logits()
        # eval's kernel shares these checks
        for bad in [0.0, -1.0, np.nan, np.inf, TemperatureMap(np.full((2, 2), 1.0))]:  # last: wrong shape
            for apply in (apply_temperature, confidence_map):
                with pytest.raises(CalibrationError):
                    apply(logits, bad)
        with pytest.raises(CalibrationError):
            TemperatureMap(np.zeros((5, 6)))  # non-positive entries


class TestGatherPixelBatches:
    def test_subsample_matches_record_extraction(self, ladder_manifest):
        entries = ladder_manifest.select(split="calibration")[:2]
        pixels = gather_pixel_batches(ladder_manifest, entries, pixels_per_image=500, seed=11)
        assert pixels.logits.shape == (1000, ladder_manifest.classes) and pixels.logits.dtype == np.float32
        assert pixels.labels.dtype == np.int64 and pixels.channels is None
        np.testing.assert_array_equal(pixels.entry, np.repeat([0, 1], 500))
        for i, entry in enumerate(entries):
            logits = read_logits(ladder_manifest.resolve(entry.logits)).data.reshape(-1, ladder_manifest.classes)
            labels = read_labels(ladder_manifest.resolve(entry.labels)).data.reshape(-1)
            valid = np.flatnonzero(labels != ladder_manifest.ignore_value)
            rows = valid[subsample_indices(valid.size, 500, 11, f"pixels:{entry.image_id}")]
            np.testing.assert_array_equal(pixels.labels[pixels.entry == i], labels[rows])
            np.testing.assert_array_equal(pixels.logits[pixels.entry == i], logits[rows])

    def test_all_pixels_when_unlimited(self, ladder_manifest, holdout_manifest):
        entry = ladder_manifest.select(split="calibration")[0]
        pixels = gather_pixel_batches(ladder_manifest, [entry], pixels_per_image=None, seed=0)
        assert pixels.logits.shape[0] == 48 * 48
        # entries with different counts of non-ignored pixels: each row maps to its own entry
        entries = holdout_manifest.select(split="test")
        pixels = gather_pixel_batches(holdout_manifest, entries, pixels_per_image=None, seed=0)
        counts = [load_entry(holdout_manifest, e, pixels_per_image=None, seed=0).valid.size for e in entries]
        assert len(set(counts)) > 1
        np.testing.assert_array_equal(pixels.entry, np.repeat(np.arange(len(entries)), counts))

    def test_image_channels_loaded_on_request(self, ladder_manifest):
        entries = ladder_manifest.select(split="calibration")[:2]
        pixels = gather_pixel_batches(
            ladder_manifest, entries, pixels_per_image=100, seed=0, need_image=True
        )
        assert pixels.channels.shape[0] == 200 and pixels.channels.dtype == np.float32
        for i, entry in enumerate(entries):
            loaded = load_entry(ladder_manifest, entry, pixels_per_image=100, seed=0, image=True)
            np.testing.assert_array_equal(pixels.channels[pixels.entry == i], loaded.drawn(loaded.image.data))

    def test_missing_image_raises_when_needed(self, ladder_manifest):
        entry = dataclasses.replace(ladder_manifest.select(split="calibration")[0], image=None)
        with pytest.raises(CalibrationError):
            gather_pixel_batches(ladder_manifest, [entry], pixels_per_image=10, seed=0, need_image=True)

    def test_class_count_mismatch_raises(self, ladder_manifest):
        wrong = dataclasses.replace(ladder_manifest, classes=ladder_manifest.classes + 1)
        entry = wrong.select(split="calibration")[0]
        with pytest.raises(ManifestError):
            gather_pixel_batches(wrong, [entry], pixels_per_image=10, seed=0)

    def test_no_entries_raises(self, ladder_manifest):
        with pytest.raises(CalibrationError):
            gather_pixel_batches(ladder_manifest, [], pixels_per_image=10, seed=0)


class TestLoadEntry:
    def test_optional_tensors_read_only_when_asked(self, holdout_manifest):
        entry = holdout_manifest.select(split="test")[0]
        bare = load_entry(holdout_manifest, entry, pixels_per_image=50, seed=1)
        assert bare.image is None and bare.feature is None and bare.ood_mask is None
        full = load_entry(holdout_manifest, entry, pixels_per_image=50, seed=1,
                          image=True, feature=True, mask=True)
        assert full.image.data.shape[:2] == full.ood_mask.shape == bare.labels.data.shape
        assert full.feature.ndim == 1
        np.testing.assert_array_equal(full.rows, bare.rows)
        assert bare.rows.shape == (50,) and np.all(np.isin(bare.rows, bare.valid))

    def test_missing_feature_raises_when_asked(self, ladder_manifest):
        entry = dataclasses.replace(ladder_manifest.select(split="test")[0], feature=None)
        load_entry(ladder_manifest, entry, pixels_per_image=10, seed=0)
        with pytest.raises(CalibrationError):
            load_entry(ladder_manifest, entry, pixels_per_image=10, seed=0, feature=True)

    def test_needs_image(self):
        assert not needs_image(None) and not needs_image(GlobalTemperature(1.0))
        assert needs_image(FeatureMode.IMAGE) and needs_image(FeatureMode.BOTH)
        assert not needs_image(FeatureMode.LOGITS)


def _single_domain(manifest, domain):
    return dataclasses.replace(manifest, entries=tuple(manifest.select(domain=domain)))


class TestFitGlobalTs:
    def test_recovers_domain_temperatures(self, ladder_manifest):
        for domain, tau in [("id", 1.0), ("mild", 2.0), ("strong", 4.0)]:
            fitted = fit_global_ts(_single_domain(ladder_manifest, domain), seed=3)
            assert abs(fitted.temperature - tau) / tau < 0.15, domain

    def test_deterministic(self, ladder_manifest):
        a = fit_global_ts(ladder_manifest, seed=4)
        b = fit_global_ts(ladder_manifest, seed=4)
        assert a.temperature == b.temperature

    def test_missing_split_raises(self, ladder_manifest):
        only_test = dataclasses.replace(
            ladder_manifest, entries=tuple(ladder_manifest.select(split="test"))
        )
        with pytest.raises(CalibrationError):
            fit_global_ts(only_test)


class TestFitClusterTs:
    def test_one_cluster_equals_global(self, ladder_manifest):
        cluster = fit_cluster_ts(ladder_manifest, k=1, seed=6)
        global_t = fit_global_ts(ladder_manifest, seed=6)
        assert abs(np.log(cluster.temperatures[0]) - np.log(global_t.temperature)) < 1e-3
        assert cluster.fallback_temperature == global_t.temperature

    def test_three_clusters_recover_ladder(self, ladder_manifest):
        model = fit_cluster_ts(ladder_manifest, k=3, seed=6)
        assert model.variant is ClusterVariant.PER_IMAGE
        assert model.temperatures.shape == (3,)
        recovered = np.sort(model.temperatures)
        for got, want in zip(recovered, [1.0, 2.0, 4.0]):
            assert abs(got - want) / want < 0.2

    def test_per_class_variant_shape(self, ladder_manifest):
        model = fit_cluster_ts(ladder_manifest, k=2, variant=ClusterVariant.PER_CLASS, seed=6)
        assert model.variant is ClusterVariant.PER_CLASS
        assert model.temperatures.shape == (2, ladder_manifest.classes)
        assert np.all(model.temperatures > 0)

    def test_accepts_plain_string_variant(self, ladder_manifest):
        model = fit_cluster_ts(ladder_manifest, k=1, variant="per_class", seed=6)
        assert model.variant is ClusterVariant.PER_CLASS

    # 300 pixels per image make each cell's fit depend on its row order; 2 leave cells empty
    @pytest.mark.parametrize("variant, pixels", [
        (ClusterVariant.PER_IMAGE, 300), (ClusterVariant.PER_CLASS, 300), (ClusterVariant.PER_CLASS, 2),
    ])
    def test_matches_per_cell_reference_loop(self, ladder_manifest, variant, pixels):
        k, classes, seed = 3, ladder_manifest.classes, 6
        model = fit_cluster_ts(ladder_manifest, k=k, variant=variant, pixels_per_image=pixels, seed=seed)
        entries = ladder_manifest.select(split="calibration")
        assignment = kmeans(load_features(ladder_manifest, entries)[1], k, seed).assignment
        loaded = [load_entry(ladder_manifest, e, pixels_per_image=pixels, seed=seed) for e in entries]
        z = [one.drawn(one.logits.data).astype(np.float64) for one in loaded]
        y = [one.drawn(one.labels.data).astype(np.int64) for one in loaded]
        fallback = fit_temperature(np.concatenate(z), np.concatenate(y))
        per_class = variant is ClusterVariant.PER_CLASS
        expected = np.full((k, classes) if per_class else (k,), fallback)
        empty = 0
        for cell in np.ndindex(expected.shape):
            # the cell's rows, entry by entry, each entry's in pixel order
            members = [i for i, cluster in enumerate(assignment) if cluster == cell[0]]
            rows = [z[i].argmax(axis=1) == cell[1] if per_class else slice(None) for i in members]
            cell_z = np.concatenate([z[i][r] for i, r in zip(members, rows)] or [np.empty((0, classes))])
            if cell_z.shape[0] == 0:
                empty += 1
            else:
                expected[cell] = fit_temperature(cell_z, np.concatenate([y[i][r] for i, r in zip(members, rows)]))
        assert (empty > 0) == (pixels == 2)
        assert model.fallback_temperature == fallback
        np.testing.assert_array_equal(model.temperatures, expected)


    @pytest.mark.parametrize("variant", list(ClusterVariant))
    def test_cells_start_from_the_kept_first_passes(self, ladder_manifest, monkeypatch, variant):
        passes, cells = [], []
        real_pass, real_cell = calibration._nll_derivatives, calibration._cell_passes
        monkeypatch.setattr(calibration, "_nll_derivatives", lambda *args: passes.append(1) or real_pass(*args))

        def counted_cell(*args):
            evaluate, made = real_cell(*args), []
            cells.append(made)

            def counted(beta):
                before = len(passes)
                result = evaluate(beta)
                made.append((beta, len(passes) - before))
                return result
            return counted

        monkeypatch.setattr(calibration, "_cell_passes", counted_cell)
        fit_cluster_ts(ladder_manifest, k=3, variant=variant, pixels_per_image=300, seed=6)
        evaluations = [one for made in cells for one in made]
        assert cells and all(made[0] == (1.0, 0) for made in cells)
        assert sum(count for _, count in evaluations) <= len(evaluations) - len(cells)


@pytest.fixture(scope="module")
def model(ladder_manifest):
    return fit_cluster_ts(ladder_manifest, k=3, seed=6)


class TestApplyClusterTs:
    """Cluster temperature scaling of one image, through apply_calibrator."""

    def test_per_image_matches_scalar_application(self, ladder_manifest, model):
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        feature = read_feature(ladder_manifest.resolve(entry.feature))
        cluster = assign_cluster(model, feature)
        assert calibrator_temperature(model, logits, feature) == float(model.temperatures[cluster])
        expected = apply_temperature(logits, float(model.temperatures[cluster]))
        got = apply_calibrator(model, logits, feature=feature)
        np.testing.assert_array_equal(got, expected)

    def test_per_class_uses_predicted_class_cells(self, ladder_manifest):
        model = fit_cluster_ts(ladder_manifest, k=2, variant=ClusterVariant.PER_CLASS, seed=6)
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        feature = read_feature(ladder_manifest.resolve(entry.feature))
        cluster = assign_cluster(model, feature)
        predicted = logits.data.argmax(axis=2)
        tmap = model.temperatures[cluster][predicted]
        np.testing.assert_array_equal(calibrator_temperature(model, logits, feature).values, tmap)
        expected = apply_temperature(logits, TemperatureMap(tmap))
        got = apply_calibrator(model, logits, feature=feature)
        np.testing.assert_array_equal(got, expected)

    def test_bad_predicted_map_raises(self, ladder_manifest):
        model = fit_cluster_ts(ladder_manifest, k=2, variant=ClusterVariant.PER_CLASS, seed=6)
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        feature = read_feature(ladder_manifest.resolve(entry.feature))
        # the argmax map indexes the temperature rows, so its classes must be the model's:
        # an extra class would index past the end, a missing one would be silently unused
        extra = np.concatenate([logits.data, np.full((logits.height, logits.width, 1), 99, np.float32)], axis=2)
        for data in (extra, logits.data[:, :, :-1]):
            with pytest.raises(CalibrationError, match="classes"):
                apply_calibrator(model, LogitTensor(data), feature=feature)

    def test_feature_width_mismatch_raises(self, ladder_manifest, model):
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        wide = dataclasses.replace(model, centroids=np.pad(model.centroids, ((0, 0), (0, 1))))
        feature = read_feature(ladder_manifest.resolve(entry.feature))
        with pytest.raises(CalibrationError, match="centroids have"):
            apply_calibrator(wide, logits, feature=feature)
        with pytest.raises(CalibrationError, match="centroids have"):
            assign_cluster(model, np.append(feature, 0.0))


class TestFitLts:
    def test_single_domain_converges_to_global_temperature(self, mono_manifest):
        # with one domain the regressor should collapse toward the scalar fit
        target = fit_global_ts(mono_manifest, seed=8).temperature
        regressor, curve = fit_lts(
            mono_manifest, feature_mode=FeatureMode.IMAGE,
            hyper=LtsHyper(epochs=60, learning_rate=0.1), seed=8,
        )
        assert len(curve) == 60
        entry = mono_manifest.select(split="test")[0]
        logits = read_logits(mono_manifest.resolve(entry.logits))
        image = read_image(mono_manifest.resolve(entry.image))
        tmap = predict_temperature_map(regressor, logits, image)
        assert abs(tmap.values.mean() - target) / target < 0.15
        assert np.all(tmap.values > regressor.t_floor)

    def test_feature_mode_dimensions(self, mono_manifest):
        hyper = LtsHyper(epochs=1)
        entry = mono_manifest.select(split="calibration")[0]
        logits = read_logits(mono_manifest.resolve(entry.logits))
        image = read_image(mono_manifest.resolve(entry.image))
        for mode, dim in [
            (FeatureMode.LOGITS, mono_manifest.classes),
            (FeatureMode.IMAGE, image.channels),
            (FeatureMode.BOTH, mono_manifest.classes + image.channels),
        ]:
            regressor, _ = fit_lts(mono_manifest, feature_mode=mode, hyper=hyper, seed=1)
            assert regressor.input_dim == dim
            assert regressor.feature_mode is mode

    def test_logits_mode_ignores_missing_images(self, mono_manifest):
        stripped = dataclasses.replace(
            mono_manifest,
            entries=tuple(dataclasses.replace(e, image=None) for e in mono_manifest.entries),
        )
        regressor, _ = fit_lts(stripped, feature_mode=FeatureMode.LOGITS, hyper=LtsHyper(epochs=1), seed=1)
        assert regressor.input_dim == mono_manifest.classes
        with pytest.raises(CalibrationError):
            fit_lts(stripped, feature_mode=FeatureMode.IMAGE, hyper=LtsHyper(epochs=1), seed=1)

    @pytest.mark.parametrize("field, value", [
        ("hidden_width", 0), ("epochs", -1), ("batch_pixels", 0), ("t_floor", 1.0), ("t_floor", -0.5),
        ("learning_rate", 0.0), ("learning_rate", float("nan")), ("domain_weights", {"id": float("inf")}),
        ("domain_weights", {"id": 1.0, "mild": -1.0}),
    ])
    def test_hyper_rejects_values_training_cannot_use(self, field, value):
        with pytest.raises(UsageError, match=field.replace("_", "[-_ ]")):
            LtsHyper(**{field: value})

    def test_zero_weight_on_every_pixel_raises(self, mono_manifest):
        weights = {domain: 0.0 for domain in mono_manifest.domains()}
        with pytest.raises(CalibrationError, match="zero on every calibration pixel"):
            fit_lts(mono_manifest, feature_mode=FeatureMode.LOGITS,
                    hyper=LtsHyper(epochs=1, domain_weights=weights), seed=1)

    def test_domain_weights_follow_each_row_entry(self, ladder_manifest):
        hyper = LtsHyper(epochs=2, batch_pixels=64, domain_weights={"id": 0.25, "strong": 3.0})
        regressor, curve = fit_lts(ladder_manifest, feature_mode=FeatureMode.BOTH, hyper=hyper,
                                   pixels_per_image=40, seed=5)
        features, logits, labels, weights = [], [], [], []
        for entry in ladder_manifest.select(split="calibration"):
            one = load_entry(ladder_manifest, entry, pixels_per_image=40, seed=5, image=True)
            z = one.drawn(one.logits.data).astype(np.float64)
            features.append(np.concatenate([z, one.drawn(one.image.data)], axis=1, dtype=np.float64))
            logits.append(z)
            labels.append(one.drawn(one.labels.data).astype(np.int64))
            weights.append(np.full(z.shape[0], hyper.domain_weights.get(entry.domain, 1.0)))
        features = np.concatenate(features)
        scale = features.std(axis=0)
        scale[scale < 1e-12] = 1.0
        features = (features - features.mean(axis=0)) / scale
        params = mlp.init_params(features.shape[1], hyper.hidden_width, derive_stream(5, "lts-init"),
                                 mlp.softplus_inverse(1.0 - hyper.t_floor))
        expected = mlp.sgd_train(params, features, np.concatenate(logits), np.concatenate(labels),
                                 hyper.t_floor, hyper.learning_rate, hyper.epochs, hyper.batch_pixels,
                                 derive_stream(5, "lts-batches"), np.concatenate(weights))
        assert curve == expected
        np.testing.assert_array_equal(regressor.params.to_vector(), params.to_vector())

    def test_loss_curve_improves(self, mono_manifest):
        _, curve = fit_lts(mono_manifest, feature_mode=FeatureMode.IMAGE, hyper=LtsHyper(epochs=15), seed=2)
        assert curve[-1] < curve[0]

    def test_deterministic(self, mono_manifest):
        runs = [
            fit_lts(mono_manifest, feature_mode=FeatureMode.LOGITS, hyper=LtsHyper(epochs=2), seed=9)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0][0].params.to_vector(), runs[1][0].params.to_vector())
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("mode", list(FeatureMode))
    def test_predict_matches_standardize_then_network_formula(self, mono_manifest, mode):
        regressor, _ = fit_lts(mono_manifest, feature_mode=mode, hyper=LtsHyper(epochs=1), seed=3)
        entry = mono_manifest.select(split="test")[0]
        logits = read_logits(mono_manifest.resolve(entry.logits))
        image = read_image(mono_manifest.resolve(entry.image))
        logits_before, image_before = logits.data.copy(), image.data.copy()
        tmap = predict_temperature_map(regressor, logits, image)
        # the caller's tensors are untouched by the in-place standardization
        np.testing.assert_array_equal(logits.data, logits_before)
        np.testing.assert_array_equal(image.data, image_before)
        rows = {FeatureMode.LOGITS: [logits.data.reshape(-1, logits.classes)],
                FeatureMode.IMAGE: [image.data.reshape(-1, image.channels)],
                FeatureMode.BOTH: [logits.data.reshape(-1, logits.classes),
                                   image.data.reshape(-1, image.channels)]}[mode]
        features = np.asarray(np.concatenate(rows, axis=1), dtype=np.float64)
        standardized = (features - regressor.feature_mean) / regressor.feature_scale
        params = regressor.params
        raw = np.tanh(standardized @ params.w1.T + params.b1) @ params.w2 + params.b2
        expected = np.logaddexp(0.0, raw) + regressor.t_floor
        np.testing.assert_array_equal(tmap.values, expected.reshape(logits.height, logits.width))

    def test_predict_validates_dimensions(self, mono_manifest):
        regressor, _ = fit_lts(mono_manifest, feature_mode=FeatureMode.BOTH, hyper=LtsHyper(epochs=1), seed=1)
        entry = mono_manifest.select(split="test")[0]
        logits = read_logits(mono_manifest.resolve(entry.logits))
        with pytest.raises(CalibrationError):
            predict_temperature_map(regressor, logits)  # image tensor missing


class TestApplyCalibrator:
    def test_none_is_raw_softmax(self, ladder_manifest):
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        np.testing.assert_array_equal(apply_calibrator(None, logits), apply_temperature(logits, 1.0))

    def test_temperature_of_each_calibrator(self, mono_manifest):
        entry = mono_manifest.select(split="test")[0]
        logits = read_logits(mono_manifest.resolve(entry.logits))
        image = read_image(mono_manifest.resolve(entry.image))
        regressor, _ = fit_lts(mono_manifest, feature_mode=FeatureMode.BOTH, hyper=LtsHyper(epochs=1), seed=1)
        assert calibrator_temperature(None, logits) == 1.0
        assert calibrator_temperature(GlobalTemperature(2.5), logits) == 2.5
        tmap = calibrator_temperature(regressor, logits, image=image)
        np.testing.assert_array_equal(tmap.values, predict_temperature_map(regressor, logits, image).values)
        np.testing.assert_array_equal(apply_calibrator(regressor, logits, image=image),
                                      apply_temperature(logits, tmap))
        with pytest.raises(UsageError):
            calibrator_temperature("ts", logits)

    def test_cluster_requires_feature(self, ladder_manifest):
        model = fit_cluster_ts(ladder_manifest, k=1, seed=0)
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        with pytest.raises(CalibrationError):
            apply_calibrator(model, logits)


class TestSaveLoadRoundTrip:
    def test_global(self, tmp_path):
        path = save_calibrator(GlobalTemperature(1.7342906), tmp_path / "ts.json")
        loaded = load_calibrator(path)
        assert isinstance(loaded, GlobalTemperature)
        assert loaded.temperature == 1.7342906

    def test_cluster_both_variants(self, ladder_manifest, tmp_path):
        for variant, name in [(ClusterVariant.PER_IMAGE, "c.json"), (ClusterVariant.PER_CLASS, "cc.json")]:
            model = fit_cluster_ts(ladder_manifest, k=2, variant=variant, seed=1)
            loaded = load_calibrator(save_calibrator(model, tmp_path / name))
            assert isinstance(loaded, ClusterTemperatureModel)
            assert loaded.variant is variant
            np.testing.assert_array_equal(loaded.centroids, model.centroids)
            np.testing.assert_array_equal(loaded.temperatures, model.temperatures)
            assert loaded.fallback_temperature == model.fallback_temperature
            assert loaded.classes == model.classes

    def test_lts(self, mono_manifest, tmp_path):
        regressor, _ = fit_lts(mono_manifest, feature_mode=FeatureMode.BOTH, hyper=LtsHyper(epochs=1), seed=3)
        loaded = load_calibrator(save_calibrator(regressor, tmp_path / "lts.json"))
        assert isinstance(loaded, TemperatureRegressor)
        assert loaded.feature_mode is FeatureMode.BOTH
        np.testing.assert_array_equal(loaded.params.to_vector(), regressor.params.to_vector())
        np.testing.assert_array_equal(loaded.feature_mean, regressor.feature_mean)
        np.testing.assert_array_equal(loaded.feature_scale, regressor.feature_scale)

    def test_loaded_lts_predicts_identically(self, mono_manifest, tmp_path):
        regressor, _ = fit_lts(mono_manifest, feature_mode=FeatureMode.LOGITS, hyper=LtsHyper(epochs=1), seed=4)
        loaded = load_calibrator(save_calibrator(regressor, tmp_path / "lts.json"))
        entry = mono_manifest.select(split="test")[0]
        logits = read_logits(mono_manifest.resolve(entry.logits))
        np.testing.assert_array_equal(
            predict_temperature_map(loaded, logits).values,
            predict_temperature_map(regressor, logits).values,
        )

    _LTS = {"method": "lts", "feature_mode": "logits", "input_dim": 3, "hidden_width": 2,
            "t_floor": 0.05, "feature_mean": [0, 0, 0], "feature_scale": [1, 1, 1],
            "w1": [[0, 0, 0], [0, 0, 0]], "b1": [0, 0], "w2": [0, 0], "b2": 0.0}

    def test_load_rejects_malformed_artifacts(self, tmp_path):
        cases = {
            "absent.json": None,
            "not_json.json": "{oops",
            "no_method.json": "{}",
            "bad_method.json": '{"method": "magic"}',
            "bad_t.json": '{"method": "ts", "temperature": -2.0}',
            "missing_field.json": '{"method": "ts"}',
            "bad_cluster.json": '{"method": "cluster_ts", "centroids": [[0.0]], "temperatures": [[1.0]], "fallback_temperature": 1.0, "classes": 2}',
            "bad_lts.json": '{"method": "lts", "feature_mode": "logits", "input_dim": 3, "hidden_width": 2, "t_floor": 0.05, "feature_mean": [0,0,0], "feature_scale": [1,1,1], "w1": [[0,0]], "b1": [0,0], "w2": [0,0], "b2": 0.0}',
        }
        lts = self._LTS
        path = tmp_path / "good_lts.json"
        path.write_text(json.dumps(lts), encoding="utf-8")
        assert load_calibrator(path).hidden_width == 2
        for key in ("b1", "w2", "feature_mean", "feature_scale"):
            cases[f"short_{key}.json"] = json.dumps({**lts, key: lts[key][:-1]})
        for bad in (0.0, -0.5, float("nan"), float("inf")):
            cases[f"t_floor_{bad}.json"] = json.dumps({**lts, "t_floor": bad})
        # every key a method does not list is rejected, like an unknown manifest or config key
        cases["unknown_key.json"] = json.dumps({**lts, "diagnostics": {}})
        cases["ts_with_lts_key.json"] = '{"method": "ts", "temperature": 1.5, "t_floor": 0.05}'
        cases["method_list.json"] = '{"method": ["ts"], "temperature": 1.5}'
        # deeper than NumPy's 32-axis iterators: rejected for its rank, without iterating it
        cases["deep_centroids.json"] = self._cluster_payload(centroids=json.loads("[" * 40 + "0" + "]" * 40))
        cases["not_utf8.json"] = b"\xe9"
        for name, content in cases.items():
            path = tmp_path / name
            if isinstance(content, bytes):
                path.write_bytes(content)
            elif content is not None:
                path.write_text(content, encoding="utf-8")
            with pytest.raises(CalibrationError):
                load_calibrator(path)

    def test_load_rejects_t_floor_outside_unit_interval(self, mono_manifest, tmp_path):
        regressor, _ = fit_lts(mono_manifest, feature_mode=FeatureMode.LOGITS, hyper=LtsHyper(epochs=1), seed=4)
        path = save_calibrator(regressor, tmp_path / "lts.json")
        loaded = load_calibrator(path)
        assert loaded.t_floor == 0.05
        assert save_calibrator(loaded, tmp_path / "again.json").read_bytes() == path.read_bytes()
        payload = json.loads(path.read_text(encoding="utf-8"))
        for bad in (5.0, 1.0, 0.0):
            path.write_text(json.dumps({**payload, "t_floor": bad}), encoding="utf-8")
            with pytest.raises(CalibrationError, match=r"t_floor must be in \(0, 1\), got " + str(bad)):
                load_calibrator(path)

    def _cluster_payload(self, **overrides):
        payload = {
            "method": "class_cluster_ts", "centroids": [[0.0], [1.0]],
            "temperatures": [[1.0, 2.0], [1.5, 0.5]], "fallback_temperature": 1.2, "classes": 2,
        }
        payload.update(overrides)
        return json.dumps(payload)

    def test_load_rejects_bad_fallback_temperature(self, tmp_path):
        path = tmp_path / "cc.json"
        path.write_text(self._cluster_payload(), encoding="utf-8")
        assert load_calibrator(path).fallback_temperature == 1.2
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            path.write_text(self._cluster_payload(fallback_temperature=bad), encoding="utf-8")
            with pytest.raises(CalibrationError, match="fallback_temperature must be positive and finite"):
                load_calibrator(path)

    def test_load_rejects_class_count_mismatch(self, tmp_path):
        path = tmp_path / "cc.json"
        path.write_text(self._cluster_payload(classes=3), encoding="utf-8")
        with pytest.raises(CalibrationError, match=r"temperatures has shape \(2, 2\), metadata implies \(2, 3\)"):
            load_calibrator(path)

    def _rejects(self, tmp_path, payload, match):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CalibrationError, match=match):
            load_calibrator(path)

    def test_load_rejects_bool_and_fractional_scalars(self, tmp_path):
        # a bool is no number and a float no integer: true would read as T = 1, 5.9 as 5 classes
        cluster = json.loads(self._cluster_payload())
        cases = [({"method": "ts", "temperature": True}, "temperature"),
                 ({**cluster, "fallback_temperature": True}, "fallback_temperature")]
        cases += [({**cluster, "classes": bad}, "classes") for bad in (True, 2.0, 5.9)]
        cases += [({**self._LTS, key: True}, key) for key in ("input_dim", "hidden_width", "t_floor", "b2")]
        cases += [({**self._LTS, key: 2.5}, key) for key in ("input_dim", "hidden_width")]
        # array elements take only JSON numbers: [true, true] would read as T = 1, ["1.5", "2"] as 1.5 and 2
        for bad in ([True, True], ["1.5", "2"], [1.5, None], [1.5, [2.0]]):
            cases.append(({**cluster, "method": "cluster_ts", "temperatures": bad}, "temperatures"))
        cases += [({**self._LTS, "feature_scale": [1, 1, True]}, "feature_scale"),
                  ({**self._LTS, "w1": [[0, 0, 0], [0, "0", 0]]}, "w1")]
        for payload, key in cases:
            self._rejects(tmp_path, payload, f"malformed.*{key.replace('_', '-')} must be")

    def test_load_rejects_numbers_spelled_as_strings(self, tmp_path, ladder_manifest, capsys):
        # JSON holds numbers as numbers: "1.5" would read as T = 1.5, "5" as 5 classes
        cluster = json.loads(self._cluster_payload())
        cases = [({"method": "ts", "temperature": "1.5"}, "temperature must be a number, got '1.5'"),
                 ({**cluster, "fallback_temperature": "1.5"}, "fallback-temperature must be a number, got '1.5'"),
                 ({**cluster, "classes": "2"}, "classes must be an integer, got '2'"),
                 ({**self._LTS, "hidden_width": "2"}, "hidden-width must be an integer, got '2'"),
                 ({**self._LTS, "b2": "0"}, "b2 must be a number, got '0'")]
        path = tmp_path / "artifact.json"
        for payload, message in cases:
            self._rejects(tmp_path, payload, re.escape(f"{path}: malformed calibrator artifact ({message})"))
        # a command-line value and RELIKIT_WORKERS are strings, and still cast
        assert convert_option("workers", "3", int) == 3 and convert_option("domain weight id", "1.5", float) == 1.5
        path.write_text(json.dumps({"method": "ts", "temperature": "1.5"}), encoding="utf-8")
        code = main(["eval", "--manifest", str(ladder_manifest.root / "manifest.json"), "--calibrator", str(path),
                     "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err == f"error: {path}: malformed calibrator artifact (temperature must be a number, got '1.5')\n"

    def test_load_rejects_non_finite_and_non_positive_values(self, tmp_path):
        # Python's json parses NaN, and a NaN centroid would win every nearest-centroid argmin
        cluster = json.loads(self._cluster_payload())
        for bad in (float("nan"), float("inf")):
            self._rejects(tmp_path, {**cluster, "centroids": [[0.0], [bad]]}, f"centroids must be finite, got {bad}")
            self._rejects(tmp_path, {**self._LTS, "b2": bad}, f"b2 must be finite, got {bad}")
            for key, rule in (("w1", "finite"), ("b1", "finite"), ("w2", "finite"), ("feature_mean", "finite"),
                              ("feature_scale", "positive and finite")):
                array = np.asarray(self._LTS[key], dtype=np.float64)
                array.flat[-1] = bad
                self._rejects(tmp_path, {**self._LTS, key: array.tolist()}, f"{key} must be {rule}, got {bad}")
        for bad in (0.0, -1.0):
            self._rejects(tmp_path, {**self._LTS, "feature_scale": [1, bad, 1]},
                          f"feature_scale must be positive and finite, got {bad}")
        # a cluster_ts artifact uses classes nowhere else, so only the rule rejects a negative count
        for bad in (0, -3):
            self._rejects(tmp_path, {**cluster, "method": "cluster_ts", "temperatures": [1.0, 2.0], "classes": bad},
                          f"classes must be positive, got {bad}")

    def test_artifact_keys_are_the_dataclass_fields(self, tmp_path):
        # a field added to a calibrator dataclass without a table entry would be missing here
        params = mlp.MlpParams(np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.0)
        calibrators = [
            GlobalTemperature(1.5),
            ClusterTemperatureModel(ClusterVariant.PER_IMAGE, np.zeros((2, 1)), np.ones(2), 1.0, 2),
            ClusterTemperatureModel(ClusterVariant.PER_CLASS, np.zeros((2, 1)), np.ones((2, 2)), 1.0, 2),
            TemperatureRegressor(FeatureMode.LOGITS, 3, 2, 0.05, np.zeros(3), np.ones(3), params),
        ]
        for calibrator in calibrators:
            path = save_calibrator(calibrator, tmp_path / "a.json")
            keys = {"method"}
            for field in dataclasses.fields(calibrator):
                value = getattr(calibrator, field.name)
                if dataclasses.is_dataclass(value):  # params: its fields are keys of their own
                    keys |= {f.name for f in dataclasses.fields(value)}
                elif field.name != "variant":  # the method tag names the variant
                    keys.add(field.name)
            assert json.loads(path.read_text(encoding="utf-8")).keys() == keys
            assert save_calibrator(load_calibrator(path), tmp_path / "b.json").read_bytes() == path.read_bytes()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # each draw overwrites one file
    @given(st.data())
    def test_load_rejects_every_dropped_retyped_or_reshaped_key(self, tmp_path, data):
        cluster = json.loads(self._cluster_payload())
        artifact = dict(data.draw(st.sampled_from([
            {"method": "ts", "temperature": 1.5},
            {**cluster, "method": "cluster_ts", "temperatures": [1.0, 2.0]},
            cluster,
            self._LTS,
        ])))
        key = data.draw(st.sampled_from(sorted(artifact)))
        value = artifact[key]
        change = data.draw(st.sampled_from(["drop", "retype"] + ["string"] * (not isinstance(value, str))
                                           + ["reshape", "element"] * isinstance(value, list)))
        if change == "drop":
            del artifact[key]
        elif change == "retype":
            artifact[key] = data.draw(st.sampled_from([True, "x", None, [], {}]))
        elif change == "string":  # the valid value spelled as JSON text
            artifact[key] = json.dumps(value)
        elif change == "reshape":  # one axis more, one less, or one entry fewer along the first
            artifact[key] = data.draw(st.sampled_from([[value], value[0], value[:-1]]))
        else:  # the first element retyped
            artifact[key] = row = json.loads(json.dumps(value))
            while isinstance(row[0], list):
                row = row[0]
            row[0] = data.draw(st.sampled_from([True, "1.5", None]))
        self._rejects(tmp_path, artifact, re.escape(f"{tmp_path / 'artifact.json'}: "))

    def test_default_pixels_constant(self):
        assert DEFAULT_PIXELS_PER_IMAGE == 20_000
        assert T_MIN == 0.05 and T_MAX == 20.0
