"""Temperature fitting, application, cluster and learned variants."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relikit import calibration
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
    apply_cluster_ts,
    apply_temperature,
    assign_cluster,
    fit_cluster_ts,
    fit_global_ts,
    fit_lts,
    fit_temperature,
    gather_pixel_batches,
    load_calibrator,
    load_entry,
    needs_image,
    predict_temperature_map,
    save_calibrator,
    scaled_nll,
)
from relikit.confidence import ConfidenceScore, extract_records, softmax
from relikit.errors import CalibrationError, ManifestError
from relikit.manifest import load_manifest
from relikit.synth import DomainSpec, SynthConfig, generate_benchmark
from relikit.tensor_io import read_logits
from relikit.tensors import LogitTensor


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


class TestApplyTemperature:
    def _logits(self, seed=75, shape=(5, 6, 4)):
        rng = np.random.default_rng(seed)
        return LogitTensor(rng.normal(scale=2.0, size=shape).astype(np.float32))

    def test_identity_equals_softmax(self):
        logits = self._logits()
        np.testing.assert_array_equal(apply_temperature(logits, 1.0).data, softmax(logits).data)

    def test_global_temperature_wrapper_matches_scalar(self):
        logits = self._logits()
        a = apply_temperature(logits, 3.0)
        b = apply_temperature(logits, GlobalTemperature(3.0))
        np.testing.assert_array_equal(a.data, b.data)

    def test_argmax_preserved_for_any_temperature(self):
        logits = self._logits()
        base = softmax(logits).data.argmax(axis=2)
        rng = np.random.default_rng(76)
        for t in [0.05, 0.3, 1.0, 7.5, 20.0]:
            np.testing.assert_array_equal(apply_temperature(logits, t).data.argmax(axis=2), base)
        tmap = TemperatureMap(0.1 + 5.0 * rng.random((5, 6)))
        np.testing.assert_array_equal(apply_temperature(logits, tmap).data.argmax(axis=2), base)

    def test_temperature_map_matches_per_pixel_scalars(self):
        logits = self._logits(shape=(2, 3, 4))
        rng = np.random.default_rng(77)
        tmap = 0.2 + 3.0 * rng.random((2, 3))
        full = apply_temperature(logits, TemperatureMap(tmap)).data
        for i in range(2):
            for j in range(3):
                one = LogitTensor(logits.data[i : i + 1, j : j + 1, :])
                np.testing.assert_allclose(
                    full[i, j], apply_temperature(one, float(tmap[i, j])).data[0, 0], atol=1e-15
                )

    def test_plain_array_dispatches_to_map(self):
        logits = self._logits(shape=(3, 3, 2))
        tmap = np.full((3, 3), 2.0)
        a = apply_temperature(logits, tmap)
        b = apply_temperature(logits, TemperatureMap(tmap))
        np.testing.assert_array_equal(a.data, b.data)

    def test_high_temperature_softens(self):
        logits = self._logits()
        sharp = apply_temperature(logits, 1.0).data.max(axis=2)
        soft = apply_temperature(logits, 10.0).data.max(axis=2)
        assert np.all(soft <= sharp + 1e-12)
        assert soft.mean() < sharp.mean()

    def test_invalid_temperatures_raise(self):
        logits = self._logits()
        for bad in [0.0, -1.0, np.nan, np.inf]:
            with pytest.raises(CalibrationError):
                apply_temperature(logits, bad)
        with pytest.raises(CalibrationError):
            apply_temperature(logits, TemperatureMap(np.full((2, 2), 1.0)))  # wrong shape
        with pytest.raises(CalibrationError):
            TemperatureMap(np.zeros((5, 6)))  # non-positive entries


class TestGatherPixelBatches:
    def test_subsample_matches_record_extraction(self, ladder_manifest):
        entry = ladder_manifest.select(split="calibration")[0]
        batches = gather_pixel_batches(
            ladder_manifest, [entry], pixels_per_image=500, seed=11
        )
        assert len(batches) == 1
        batch = batches[0]
        assert batch.logits.shape == (500, ladder_manifest.classes)
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        from relikit.tensor_io import read_labels

        labels = read_labels(ladder_manifest.resolve(entry.labels))
        records = extract_records(
            softmax(logits), labels, entry.image_id,
            score=ConfidenceScore.MAX_PROB,
            ignore_value=ladder_manifest.ignore_value,
            pixels_per_image=500, seed=11,
        )
        np.testing.assert_array_equal(batch.labels, records.actual)
        np.testing.assert_array_equal(batch.predicted, records.predicted)

    def test_all_pixels_when_unlimited(self, ladder_manifest):
        entry = ladder_manifest.select(split="calibration")[0]
        batch = gather_pixel_batches(ladder_manifest, [entry], pixels_per_image=None, seed=0)[0]
        assert batch.logits.shape[0] == 48 * 48
        assert batch.domain == entry.domain

    def test_image_channels_loaded_on_request(self, ladder_manifest):
        entry = ladder_manifest.select(split="calibration")[0]
        batch = gather_pixel_batches(
            ladder_manifest, [entry], pixels_per_image=100, seed=0, need_image=True
        )[0]
        assert batch.channels is not None
        assert batch.channels.shape[0] == 100

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


@pytest.fixture(scope="module")
def model(ladder_manifest):
    return fit_cluster_ts(ladder_manifest, k=3, seed=6)


class TestApplyClusterTs:
    def test_per_image_matches_scalar_application(self, ladder_manifest, model):
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        from relikit.tensor_io import read_feature

        feature = read_feature(ladder_manifest.resolve(entry.feature))
        cluster = assign_cluster(model, feature)
        expected = apply_temperature(logits, float(model.temperatures[cluster]))
        got = apply_cluster_ts(model, feature, logits)
        np.testing.assert_array_equal(got.data, expected.data)

    def test_per_class_uses_predicted_class_cells(self, ladder_manifest):
        model = fit_cluster_ts(ladder_manifest, k=2, variant=ClusterVariant.PER_CLASS, seed=6)
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        from relikit.tensor_io import read_feature

        feature = read_feature(ladder_manifest.resolve(entry.feature))
        cluster = assign_cluster(model, feature)
        predicted = logits.data.argmax(axis=2)
        tmap = model.temperatures[cluster][predicted]
        expected = apply_temperature(logits, TemperatureMap(tmap))
        got = apply_cluster_ts(model, feature, logits)
        np.testing.assert_array_equal(got.data, expected.data)

    def test_bad_predicted_map_raises(self, ladder_manifest):
        model = fit_cluster_ts(ladder_manifest, k=2, variant=ClusterVariant.PER_CLASS, seed=6)
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        from relikit.tensor_io import read_feature

        feature = read_feature(ladder_manifest.resolve(entry.feature))
        with pytest.raises(CalibrationError):
            apply_cluster_ts(model, feature, logits, predicted=np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(CalibrationError):
            apply_cluster_ts(
                model, feature, logits,
                predicted=np.full((logits.height, logits.width), 99, dtype=np.int64),
            )

    def test_feature_width_mismatch_raises(self, ladder_manifest, model):
        entry = ladder_manifest.select(split="test")[0]
        logits = read_logits(ladder_manifest.resolve(entry.logits))
        wide = dataclasses.replace(model, centroids=np.pad(model.centroids, ((0, 0), (0, 1))))
        from relikit.tensor_io import read_feature

        feature = read_feature(ladder_manifest.resolve(entry.feature))
        with pytest.raises(CalibrationError, match="centroids have"):
            apply_cluster_ts(wide, feature, logits)
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
        from relikit.tensor_io import read_image

        image = read_image(mono_manifest.resolve(entry.image))
        tmap = predict_temperature_map(regressor, logits, image)
        assert abs(tmap.values.mean() - target) / target < 0.15
        assert np.all(tmap.values > regressor.t_floor)

    def test_feature_mode_dimensions(self, mono_manifest):
        hyper = LtsHyper(epochs=1)
        entry = mono_manifest.select(split="calibration")[0]
        logits = read_logits(mono_manifest.resolve(entry.logits))
        from relikit.tensor_io import read_image

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
        np.testing.assert_array_equal(apply_calibrator(None, logits).data, softmax(logits).data)

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
        lts = {"method": "lts", "feature_mode": "logits", "input_dim": 3, "hidden_width": 2,
               "t_floor": 0.05, "feature_mean": [0, 0, 0], "feature_scale": [1, 1, 1],
               "w1": [[0, 0, 0], [0, 0, 0]], "b1": [0, 0], "w2": [0, 0], "b2": 0.0}
        path = tmp_path / "good_lts.json"
        path.write_text(json.dumps(lts), encoding="utf-8")
        assert load_calibrator(path).hidden_width == 2
        for key in ("b1", "w2", "feature_mean", "feature_scale"):
            cases[f"short_{key}.json"] = json.dumps({**lts, key: lts[key][:-1]})
        for name, content in cases.items():
            path = tmp_path / name
            if content is not None:
                path.write_text(content, encoding="utf-8")
            with pytest.raises(CalibrationError):
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
            with pytest.raises(CalibrationError, match="fallback temperature"):
                load_calibrator(path)

    def test_load_rejects_class_count_mismatch(self, tmp_path):
        path = tmp_path / "cc.json"
        path.write_text(self._cluster_payload(classes=3), encoding="utf-8")
        with pytest.raises(CalibrationError, match="3 classes"):
            load_calibrator(path)

    def test_default_pixels_constant(self):
        assert DEFAULT_PIXELS_PER_IMAGE == 20_000
        assert T_MIN == 0.05 and T_MAX == 20.0
