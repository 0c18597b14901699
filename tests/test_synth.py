"""Synthetic benchmark generator: determinism, calibration properties, config."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relikit.calibration import apply_temperature
from relikit.confidence import RecordSet, confidence_map
from relikit.errors import UsageError
from relikit.metrics import ece
from relikit.synth import (
    DomainSpec,
    Scene,
    SynthConfig,
    box_smooth,
    config_from_json,
    config_to_json,
    default_ladder,
    generate_benchmark,
    generate_scene,
)
from relikit.tensor_io import read_labels, read_logits, read_mask


def _tiny_config(**overrides):
    base = dict(
        domains=(DomainSpec("a", 1.0, 0.0, (0.0,)), DomainSpec("b", 2.0, 0.1, (4.0,))),
        height=16, width=16, calibration_images=1, test_images=1, seed=3,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestBoxSmooth:
    def test_identity_at_zero_radius(self):
        rng = np.random.default_rng(80)
        field = rng.random((5, 5, 2))
        np.testing.assert_array_equal(box_smooth(field, 0), field)

    def test_matches_naive_window_average(self):
        rng = np.random.default_rng(81)
        field = rng.random((7, 6, 3))
        for radius in (1, 2):
            smoothed = box_smooth(field, radius)
            naive = np.empty_like(field)
            h, w, _ = field.shape
            for i in range(h):
                for j in range(w):
                    window = field[
                        max(i - radius, 0) : min(i + radius + 1, h),
                        max(j - radius, 0) : min(j + radius + 1, w),
                    ]
                    naive[i, j] = window.mean(axis=(0, 1))
            np.testing.assert_allclose(smoothed, naive, atol=1e-12)

    def test_preserves_constant_fields(self):
        field = np.full((4, 4, 2), 3.25)
        np.testing.assert_allclose(box_smooth(field, 2), field, atol=1e-12)


class TestGenerateScene:
    def test_deterministic_per_image_id(self):
        config = _tiny_config()
        a = generate_scene(config, "a", "a-cal-000")
        b = generate_scene(config, "a", "a-cal-000")
        np.testing.assert_array_equal(a.logits.data, b.logits.data)
        np.testing.assert_array_equal(a.labels.data, b.labels.data)
        np.testing.assert_array_equal(a.image.data, b.image.data)
        np.testing.assert_array_equal(a.feature, b.feature)

    def test_different_ids_decorrelate(self):
        config = _tiny_config()
        a = generate_scene(config, "a", "a-cal-000")
        b = generate_scene(config, "a", "a-cal-001")
        assert not np.array_equal(a.labels.data, b.labels.data)

    def test_shapes_and_types(self):
        config = _tiny_config()
        scene = generate_scene(config, "b", "b-test-000")
        assert isinstance(scene, Scene)
        assert scene.logits.data.shape == (16, 16, 5)
        assert scene.labels.data.shape == (16, 16)
        # channels: one per domain, one shift strength, one evidence per class
        assert scene.image.data.shape == (16, 16, 2 + 1 + 5)
        assert scene.feature.shape == (1,)
        assert scene.true_probs.shape == (16, 16, 5)
        assert scene.ood_mask is None

    def test_true_probs_are_distributions(self):
        scene = generate_scene(_tiny_config(), "a", "x")
        np.testing.assert_allclose(scene.true_probs.sum(axis=2), 1.0, atol=1e-12)
        assert scene.true_probs.min() > 0

    def test_labels_within_class_range(self):
        scene = generate_scene(_tiny_config(), "a", "x")
        assert scene.labels.data.max() < 5

    def test_noise_free_identity_domain_recovers_true_probs(self):
        # tau = 1, no noise: softmax(logits) == p up to float32 quantization
        config = _tiny_config()
        scene = generate_scene(config, "a", "a-cal-000")
        recovered = apply_temperature(scene.logits, 1.0)
        np.testing.assert_allclose(recovered, scene.true_probs, atol=1e-4)

    def test_sharper_domain_is_more_confident(self):
        config = _tiny_config()
        flat = generate_scene(config, "a", "same-id")
        sharp = generate_scene(config, "b", "same-id")
        assert (
            apply_temperature(sharp.logits, 1.0).max(axis=2).mean()
            > apply_temperature(flat.logits, 1.0).max(axis=2).mean()
        )

    def test_identity_domain_is_calibrated(self):
        # one bigger image: ECE of tau=1 logits against sampled labels is small
        config = SynthConfig(
            domains=(DomainSpec("id", 1.0, 0.0, (0.0,)),),
            height=96, width=96, seed=5,
        )
        scene = generate_scene(config, "id", "id-cal-000")
        conf, predicted = confidence_map(scene.logits)
        keep = scene.labels.data != config.ignore_value
        records = RecordSet(conf[keep], predicted[keep] == scene.labels.data[keep])
        assert ece(records, bins=15) < 0.03

    def test_feature_carries_domain_offset(self):
        config = _tiny_config()
        features_a = [generate_scene(config, "a", f"a-{i}").feature for i in range(5)]
        features_b = [generate_scene(config, "b", f"b-{i}").feature for i in range(5)]
        assert abs(np.mean(features_a) - 0.0) < 0.5
        assert abs(np.mean(features_b) - 4.0) < 0.5

    def test_holdout_classes_masked_and_damped(self):
        config = _tiny_config(holdout_classes=(4,), height=48, width=48)
        scene = generate_scene(config, "a", "a-cal-000")
        assert scene.ood_mask is not None
        assert scene.ood_mask.any()
        # masked pixels carry the ignore sentinel, all others a real class
        np.testing.assert_array_equal(
            scene.labels.data == config.ignore_value, scene.ood_mask
        )
        assert not np.any(scene.labels.data[~scene.ood_mask] == 4)
        # damped logits mean lower confidence on masked pixels
        conf = apply_temperature(scene.logits, 1.0).max(axis=2)
        assert conf[scene.ood_mask].mean() < conf[~scene.ood_mask].mean()

    def test_unknown_domain_tag_raises(self):
        with pytest.raises(UsageError):
            generate_scene(_tiny_config(), "nope", "x")


class TestGenerateBenchmark:
    def test_writes_complete_benchmark(self, tmp_path):
        from relikit.manifest import load_manifest

        path = generate_benchmark(_tiny_config(), tmp_path)
        manifest = load_manifest(path)
        assert manifest.classes == 5
        # 2 domains x (1 calibration + 1 test)
        assert len(manifest.entries) == 4
        ids = [e.image_id for e in manifest.entries]
        assert ids == ["a-cal-000", "a-test-000", "b-cal-000", "b-test-000"]
        for entry in manifest.entries:
            assert entry.feature is not None and entry.image is not None
            read_logits(manifest.resolve(entry.logits))
            read_labels(manifest.resolve(entry.labels))

    def test_per_domain_image_count_overrides(self, tmp_path):
        config = _tiny_config(
            domains=(
                DomainSpec("a", 1.0, 0.0, (0.0,)),
                DomainSpec("b", 2.0, 0.0, (4.0,), calibration_images=0, test_images=3),
            )
        )
        from relikit.manifest import load_manifest

        manifest = load_manifest(generate_benchmark(config, tmp_path))
        assert [e.image_id for e in manifest.select(domain="b")] == [
            "b-test-000", "b-test-001", "b-test-002"
        ]
        assert manifest.select(split="calibration", domain="b") == []

    def test_masks_written_when_classes_held_out(self, tmp_path):
        config = _tiny_config(holdout_classes=(0,), height=32, width=32)
        from relikit.manifest import load_manifest

        manifest = load_manifest(generate_benchmark(config, tmp_path))
        for entry in manifest.entries:
            assert entry.ood_mask is not None
            mask = read_mask(manifest.resolve(entry.ood_mask))
            labels = read_labels(manifest.resolve(entry.labels))
            np.testing.assert_array_equal(mask, labels.data == config.ignore_value)

    def test_regeneration_is_byte_identical(self, tmp_path):
        config = _tiny_config()
        first = generate_benchmark(config, tmp_path / "one")
        second = generate_benchmark(config, tmp_path / "two")
        assert first.read_bytes() == second.read_bytes()
        for entry_file in sorted((tmp_path / "one" / "data").iterdir()):
            twin = tmp_path / "two" / "data" / entry_file.name
            assert entry_file.read_bytes() == twin.read_bytes(), entry_file.name

    def test_ladder_temperatures_monotone(self, ladder_manifest):
        # fitted-confidence ordering: id < mild < strong overconfidence
        means = {}
        for domain in ("id", "mild", "strong"):
            confs = []
            for entry in ladder_manifest.select(split="test", domain=domain):
                logits = read_logits(ladder_manifest.resolve(entry.logits))
                confs.append(apply_temperature(logits, 1.0).max(axis=2).mean())
            means[domain] = np.mean(confs)
        assert means["id"] < means["mild"] < means["strong"]


class TestDefaultLadder:
    def test_oracle_temperatures(self):
        config = default_ladder(seed=1, shift=1.0)
        taus = [d.true_temperature for d in config.domains]
        assert taus == [1.0, 2.0, 4.0]

    def test_shift_scales_drift(self):
        config = default_ladder(seed=1, shift=0.5)
        taus = [d.true_temperature for d in config.domains]
        assert taus == [1.0, 1.5, 2.5]

    def test_negative_shift_rejected(self):
        with pytest.raises(UsageError):
            default_ladder(shift=-1.0)


class TestConfigJson:
    def test_round_trip_preserves_everything(self):
        config = SynthConfig(
            classes=4, height=20, width=24,
            domains=(
                DomainSpec("x", 1.5, 0.2, (1.0, -2.0), calibration_images=2),
                DomainSpec("y", 3.0, 0.0, (0.0, 5.0), test_images=7),
            ),
            concentration=0.8, smoothing_radius=1, sharpness=2.5, seed=42,
            feature_jitter=0.25, calibration_images=3, test_images=2,
            ignore_value=100, holdout_classes=(1, 3), holdout_logit_damp=0.5,
            channel_noise=0.02, evidence_floor=-4.0,
        )
        assert config_from_json(config_to_json(config)) == config

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_round_trip_over_drawn_configs(self, data):
        number = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(min_value=1e-3, max_value=1e3)
        count = st.integers(0, 50)
        classes = data.draw(st.integers(2, 30))
        dim = data.draw(st.integers(1, 4))
        tags = data.draw(st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=3, unique=True))
        domains = tuple(
            DomainSpec(
                tag, data.draw(positive), data.draw(st.floats(min_value=0.0, max_value=10.0)),
                tuple(data.draw(st.lists(number, min_size=dim, max_size=dim))),
                calibration_images=data.draw(st.none() | count), test_images=data.draw(st.none() | count),
            ) for tag in tags)
        config = SynthConfig(
            classes=classes, height=data.draw(st.integers(1, 512)), width=data.draw(st.integers(1, 512)),
            domains=domains, concentration=data.draw(positive),
            smoothing_radius=data.draw(st.integers(0, 10)), sharpness=data.draw(positive),
            seed=data.draw(st.integers(0, 2**63 - 1)), feature_jitter=data.draw(number),
            calibration_images=data.draw(count), test_images=data.draw(count),
            ignore_value=data.draw(st.integers(classes, 65535)),
            holdout_classes=tuple(data.draw(st.lists(st.integers(0, classes - 1), max_size=classes - 1))),
            holdout_logit_damp=data.draw(st.floats(min_value=1e-3, max_value=1.0)),
            channel_noise=data.draw(number), evidence_floor=data.draw(number),
        )
        assert config_from_json(config_to_json(config)) == config

    def test_defaults_fill_missing_keys(self):
        config = config_from_json("{}")
        assert config == SynthConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(UsageError):
            config_from_json('{"sharpnes": 2.0}')
        with pytest.raises(UsageError):
            config_from_json(json.dumps({"domains": [{"tag": "a", "oops": 1}]}))

    def test_invalid_json_rejected(self):
        with pytest.raises(UsageError, match="^benchmark config is not valid JSON"):
            config_from_json("{nope")
        with pytest.raises(UsageError, match="^benchmark config must be a JSON object$"):
            config_from_json("[1, 2]")

    def test_over_nested_json_text_is_a_usage_error(self):
        # the text parse is errors.parse_json_object, as for a config file; nesting too deep is no RecursionError
        for text in ("[" * 100_000, '{"domains": ' + "[" * 100_000 + "]" * 100_000 + "}"):
            with pytest.raises(UsageError, match="^benchmark config is not valid JSON"):
                config_from_json(text)

    def test_validation_applies_to_parsed_configs(self):
        with pytest.raises(UsageError):
            config_from_json('{"classes": 1}')
        with pytest.raises(UsageError):
            config_from_json('{"sharpness": 0.0}')


class TestValidateConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"classes": 1},
            {"height": 0},
            {"domains": ()},
            {"domains": (DomainSpec("a", 1.0, 0.0, (0.0,)), DomainSpec("a", 2.0, 0.0, (1.0,)))},
            {"domains": (DomainSpec("a", 1.0, 0.0, (0.0,)), DomainSpec("b", 2.0, 0.0, (1.0, 2.0)))},
            {"domains": (DomainSpec("a", -1.0, 0.0, (0.0,)),)},
            {"domains": (DomainSpec("a", 1.0, -0.1, (0.0,)),)},
            {"concentration": 0.0},
            {"smoothing_radius": -1},
            {"sharpness": -2.0},
            {"calibration_images": -1},
            {"ignore_value": 3},
            {"holdout_classes": (9,)},
            {"holdout_classes": (0, 1, 2, 3, 4)},
            {"holdout_logit_damp": 0.0},
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        base = dict(
            domains=(DomainSpec("a", 1.0, 0.0, (0.0,)),),
            height=8, width=8, calibration_images=1, test_images=1,
        )
        base.update(overrides)
        with pytest.raises(UsageError):
            generate_scene(SynthConfig(**base), base["domains"][0].tag if base["domains"] else "a", "x")
