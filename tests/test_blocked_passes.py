"""Per-pixel passes run block by block: the bits of whole-array passes, in the memory of a few blocks.

Each oracle below is the whole-array formulation the blocked pass replaced;
the pass must reproduce it bit for bit, with -0.0 told apart from 0.0.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relikit import mlp
from relikit.calibration import (
    FeatureMode,
    TemperatureRegressor,
    _feature_stats,
    predict_temperature_map,
)
from relikit.confidence import BLOCK_VALUES, ConfidenceScore, _block_rows, _blocks, _confidence_pass, confidence_map
from relikit.synth import PROB_FLOOR, DomainSpec, SynthConfig, _domain, generate_scene
from relikit.rng import derive_stream
from relikit.tensors import ImageTensor, LogitTensor, TemperatureMap

BLOCK_BYTES = BLOCK_VALUES * 8


def _same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _oracle_confidence_pass(logits, temperature, entropy):
    """The confidence pass over the whole array at once, with its float64 copy of the logits."""
    if isinstance(logits, LogitTensor):
        logits = logits.data
    predicted = logits.argmax(axis=-1).astype(np.int64)
    z = logits.astype(np.float64)
    if isinstance(temperature, TemperatureMap):
        t = temperature.values
    else:
        t = np.asarray(temperature, dtype=np.float64)
        if t.ndim:
            t = t[:, None, None]
    z /= t[..., None]
    z -= np.take_along_axis(z, predicted[..., None], axis=-1)
    e = np.exp(z, out=z)
    total = e.sum(axis=-1, keepdims=True)
    max_prob = 1.0 / total[..., 0]
    if not entropy:
        return max_prob, None, predicted
    p = np.divide(e, total, out=e)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return max_prob, terms.sum(axis=-1), predicted


def _oracle_temperature_map(regressor, logits, image):
    """LTS prediction over one (H * W, K + C) float64 input matrix."""
    rows, channels = logits.data.reshape(-1, logits.classes), image.data.reshape(-1, image.channels)
    parts = {FeatureMode.LOGITS: [rows], FeatureMode.IMAGE: [channels],
             FeatureMode.BOTH: [rows, channels]}[regressor.feature_mode]
    features = np.concatenate(parts, axis=1, dtype=np.float64)
    features -= regressor.feature_mean
    features /= regressor.feature_scale
    hidden = features @ regressor.params.w1.T
    hidden += regressor.params.b1
    np.tanh(hidden, out=hidden)
    raw = hidden @ regressor.params.w2 + regressor.params.b2
    t = np.logaddexp(0.0, raw) + regressor.t_floor
    return t.reshape(logits.height, logits.width)


def _oracle_box_smooth_axis(arr, radius, axis):
    n = arr.shape[axis]
    cumsum = np.cumsum(arr, axis=axis)
    pad_shape = list(arr.shape)
    pad_shape[axis] = 1
    cumsum = np.concatenate([np.zeros(pad_shape), cumsum], axis=axis)
    idx = np.arange(n)
    lo = np.maximum(idx - radius, 0)
    hi = np.minimum(idx + radius + 1, n)
    window = np.take(cumsum, hi, axis=axis) - np.take(cumsum, lo, axis=axis)
    counts_shape = [1] * arr.ndim
    counts_shape[axis] = n
    return window / (hi - lo).reshape(counts_shape)


def _oracle_generate_scene(config, domain_tag, image_id):
    """One scene from whole-image arrays, each random draw taken at once."""
    domain_index, domain = _domain(config, domain_tag)
    h, w, k = config.height, config.width, config.classes
    rng = derive_stream(config.seed, f"scene:{image_id}")
    raw = rng.gamma(config.concentration, 1.0, size=(h, w, k))
    if config.smoothing_radius > 0:
        raw = _oracle_box_smooth_axis(_oracle_box_smooth_axis(raw, config.smoothing_radius, 0),
                                      config.smoothing_radius, 1)
    raw = np.maximum(raw, PROB_FLOOR) ** config.sharpness
    probs = raw / raw.sum(axis=2, keepdims=True)
    draw = rng.random((h, w))
    labels = np.minimum((draw[:, :, None] > np.cumsum(probs, axis=2)).sum(axis=2), k - 1)
    base = np.log(probs)
    logits = domain.true_temperature * base
    logits += rng.normal(0.0, 1.0, size=(h, w, k)) * domain.logit_noise
    one_hot = rng.normal(0.0, 1.0, size=(h, w, len(config.domains))) * config.channel_noise
    one_hot[:, :, domain_index] += 1.0
    shift = np.full((h, w, 1), np.log(domain.true_temperature))
    shift += rng.normal(0.0, 1.0, size=(h, w, 1)) * config.channel_noise
    evidence = np.maximum(base, config.evidence_floor)
    evidence = evidence + rng.normal(0.0, 1.0, size=(h, w, k)) * config.channel_noise
    image = np.concatenate([one_hot, shift, evidence], axis=2)
    offset = np.asarray(domain.feature_offset, dtype=np.float64)
    feature = offset + rng.normal(0.0, 1.0, size=offset.shape[0]) * config.feature_jitter
    mask = None
    out_labels = labels.astype(np.uint16)
    if config.holdout_classes:
        mask = np.isin(labels, np.asarray(config.holdout_classes))
        logits = np.where(mask[:, :, None], logits * config.holdout_logit_damp, logits)
        out_labels = np.where(mask, config.ignore_value, out_labels).astype(np.uint16)
    return (logits.astype(np.float32), out_labels, image.astype(np.float32), feature.astype(np.float32),
            mask, probs)


def _edge_rows(block):
    return [1, 3, 63, 64, 65, block - 1, block, block + 1, 3 * block + 5]


def _edge_logits(rng, shape):
    """Logits with tied maxima, maxima that are zeros of either sign, and -0.0 elsewhere."""
    logits = rng.normal(scale=rng.choice([0.5, 4.0, 30.0]), size=shape)
    rows = logits.reshape(-1, shape[-1])
    kind = rng.integers(0, 4, rows.shape[0])
    tied = np.flatnonzero(kind == 1)
    rows[tied, rng.integers(0, shape[-1], tied.size)] = rows[tied].max(axis=1)
    zero = np.flatnonzero(kind >= 2)
    rows[zero] = -np.abs(rows[zero]) - 0.5
    rows[zero, rng.integers(0, shape[-1], zero.size)] = 0.0
    rows[zero, rng.integers(0, shape[-1], zero.size)] = -0.0
    return logits.astype(np.float32)


@st.composite
def _confidence_problems(draw):
    """Images of 1 .. 3B + 5 pixels around the block edges (B pixels per block), alone or
    stacked, with a scalar, per-image or per-pixel temperature."""
    classes = draw(st.sampled_from([2, 5, 19, 40]))
    pixels = draw(st.sampled_from(_edge_rows(_block_rows(classes))))
    kind = draw(st.sampled_from(["scalar", "per_image", "map"]))
    images = draw(st.sampled_from([1, 2, 5, 30]))
    images = max(1, min(images, 400_000 // (pixels * classes)))
    stacked = kind == "per_image" or images > 1 or draw(st.booleans())
    grid = (1, pixels) if draw(st.booleans()) else (pixels, 1)
    shape = ((images,) if stacked else ()) + grid + (classes,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = _edge_logits(rng, shape)
    if kind == "scalar":
        temperature = draw(st.sampled_from([0.05, 0.7, 1.0, 3.3, 20.0]))
    elif kind == "per_image":
        temperature = rng.uniform(0.05, 20.0, images)
    else:
        temperature = TemperatureMap(rng.uniform(0.05, 20.0, shape[:-1]))
    return logits, temperature


class TestConfidencePass:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_confidence_problems())
    def test_blocked_pass_has_the_whole_array_bits(self, problem):
        logits, temperature = problem
        for entropy in (False, True):
            for actual, expected in zip(_confidence_pass(logits, temperature, entropy=entropy),
                                        _oracle_confidence_pass(logits, temperature, entropy)):
                if expected is None:
                    assert actual is None
                else:
                    _same_bits(actual, expected)

    @pytest.mark.parametrize("score", list(ConfidenceScore))
    def test_every_block_edge_and_zero_sign(self, score):
        entropy = score is ConfidenceScore.NEG_ENTROPY
        rng = np.random.default_rng(4)
        for classes in (2, 5, 19, 40):
            for pixels in _edge_rows(_block_rows(classes)):
                logits = _edge_logits(rng, (2, 1, pixels, classes))
                for temperature in (1.0, np.array([0.3, 7.0]), TemperatureMap(rng.uniform(0.05, 20, (2, 1, pixels)))):
                    conf, predicted = confidence_map(logits, temperature, score)
                    max_prob, neg_entropy, expected = _oracle_confidence_pass(logits, temperature, entropy)
                    _same_bits(conf, neg_entropy if entropy else max_prob)
                    _same_bits(predicted, expected)

    def test_one_hot_rows_keep_a_positive_zero_entropy(self):
        logits = np.zeros((1, 3 * _block_rows(4) + 5, 4), dtype=np.float32)
        logits[..., 2] = 5000.0
        conf, _ = confidence_map(logits, 1.0, ConfidenceScore.NEG_ENTROPY)
        _same_bits(conf, np.zeros(logits.shape[:-1]))


def _regressor(rng, mode, width, hidden=16):
    return TemperatureRegressor(
        feature_mode=mode, input_dim=width, hidden_width=hidden, t_floor=0.05,
        feature_mean=rng.normal(size=width), feature_scale=rng.uniform(0.5, 3.0, width),
        params=mlp.MlpParams(rng.normal(size=(hidden, width)) / np.sqrt(width), rng.normal(size=hidden) * 0.1,
                             rng.normal(size=hidden) / 4.0, 0.5),
    )


@st.composite
def _map_problems(draw):
    classes = draw(st.sampled_from([2, 5, 19, 40]))
    channels = draw(st.sampled_from([1, 3, 23]))
    mode = draw(st.sampled_from(list(FeatureMode)))
    width = {FeatureMode.LOGITS: classes, FeatureMode.IMAGE: channels, FeatureMode.BOTH: classes + channels}[mode]
    pixels = draw(st.sampled_from(_edge_rows(_block_rows(width))))
    grid = (1, pixels) if draw(st.booleans()) else (pixels, 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = LogitTensor(_edge_logits(rng, grid + (classes,)))
    image = ImageTensor(rng.normal(size=grid + (channels,)).astype(np.float32))
    return _regressor(rng, mode, width), logits, image


class TestTemperatureMap:
    def test_matrix_product_blocks_hold_at_least_128_rows(self):
        # a BLAS matrix-matrix product of fewer rows sums in another order than the whole-image product
        for rows, width in ((1, 42), (127, 42), (128, 42), (191, 42), (192, 42), (1536 + 192, 42),
                            (3392 * 2 + 3, 19), (5000, 2000)):
            blocks = _blocks(rows, width, least=128)
            assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
            assert blocks[0].start == 0 and blocks[-1].stop == rows
            assert all((b.stop - b.start) % 64 == 0 and b.stop - b.start >= 128 for b in blocks[:-1])
            assert min(rows, 128) <= blocks[-1].stop - blocks[-1].start < 256
            assert (blocks[-1].stop - blocks[-1].start) % 64 == rows % 64

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_map_problems())
    def test_blocked_prediction_has_the_whole_image_bits(self, problem):
        regressor, logits, image = problem
        _same_bits(predict_temperature_map(regressor, logits, image).values,
                   _oracle_temperature_map(regressor, logits, image))


class TestFeatureStats:
    @pytest.mark.parametrize("width", [2, 5, 42])
    def test_mean_and_std_have_numpys_bits(self, width):
        rng = np.random.default_rng(width)
        for rows in _edge_rows(_block_rows(width)):
            features = rng.normal(scale=rng.uniform(0.01, 1e3, width), size=(rows, width))
            features[rng.random(features.shape) < 0.05] = -0.0
            features[:, 0] = 3.25  # a constant column: every deviation is exactly 0
            mean, std = _feature_stats(features)
            _same_bits(mean, features.mean(axis=0))
            _same_bits(std, features.std(axis=0))


SCENES = [
    SynthConfig(),
    SynthConfig(classes=19, height=40, width=256, holdout_classes=(18,), seed=1),
    SynthConfig(classes=2, height=300, width=7, smoothing_radius=3, seed=2, holdout_classes=(1,)),
    SynthConfig(classes=40, height=33, width=70, smoothing_radius=1, seed=4),
    SynthConfig(classes=3, height=1, width=1, seed=5),
    SynthConfig(classes=5, height=2, width=900, seed=6),
    SynthConfig(classes=5, height=30, width=30, smoothing_radius=0, seed=6),
    SynthConfig(classes=4, height=23, width=3000, smoothing_radius=5, seed=8, holdout_classes=(0, 3)),
    SynthConfig(classes=19, height=17, width=4000, smoothing_radius=2, seed=9),
]


class TestGenerateScene:
    @pytest.mark.parametrize("config", SCENES, ids=lambda c: f"{c.height}x{c.width}x{c.classes}r{c.smoothing_radius}")
    def test_blocked_scene_has_the_whole_image_bits(self, config):
        for domain in config.domains:
            scene = generate_scene(config, domain.tag, f"{domain.tag}-cal-007")
            logits, labels, image, feature, mask, probs = _oracle_generate_scene(
                config, domain.tag, f"{domain.tag}-cal-007")
            _same_bits(scene.logits.data, logits)
            _same_bits(scene.labels.data, labels)
            _same_bits(scene.image.data, image)
            _same_bits(scene.feature, feature)
            _same_bits(scene.true_probs, probs)
            if mask is None:
                assert scene.ood_mask is None
            else:
                _same_bits(scene.ood_mask, mask)


def _traced_peak(fn):
    """The peak of traced allocations above the start while ``fn`` runs, and its result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


class TestMemory:
    """One 256 x 256 x 19 image: a pass holds its outputs and a few blocks, no whole-image float64 copy."""

    SIZE = (256, 256, 19)

    @pytest.mark.parametrize("score", list(ConfidenceScore))
    def test_confidence_map(self, score):
        logits = LogitTensor(_edge_logits(np.random.default_rng(1), self.SIZE))
        peak, (conf, predicted) = _traced_peak(lambda: confidence_map(logits, 1.7, score))
        kept = 2 if score is ConfidenceScore.NEG_ENTROPY else 1  # the pass gives max_prob with the entropy
        assert peak <= kept * conf.nbytes + predicted.nbytes + 4 * BLOCK_BYTES

    def test_predict_temperature_map(self):
        rng = np.random.default_rng(2)
        logits = LogitTensor(_edge_logits(rng, self.SIZE))
        image = ImageTensor(rng.normal(size=self.SIZE[:2] + (23,)).astype(np.float32))
        regressor = _regressor(rng, FeatureMode.BOTH, self.SIZE[2] + 23)
        peak, tmap = _traced_peak(lambda: predict_temperature_map(regressor, logits, image))
        assert peak <= tmap.values.nbytes + 4 * BLOCK_BYTES

    def test_generate_scene(self):
        config = SynthConfig(classes=self.SIZE[2], height=self.SIZE[0], width=self.SIZE[1], holdout_classes=(18,),
                             domains=(DomainSpec("id", 1.0, 0.0, (0.0,)), DomainSpec("strong", 4.0, 0.25, (6.0,))))
        peak, scene = _traced_peak(lambda: generate_scene(config, "strong", "strong-cal-000"))
        outputs = sum(a.nbytes for a in (scene.logits.data, scene.labels.data, scene.image.data, scene.feature,
                                         scene.ood_mask, scene.true_probs))
        assert peak <= outputs + 8 * BLOCK_BYTES
