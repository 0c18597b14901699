"""Temperatures are checked once per pass, and every rejected form keeps its message."""

import numpy as np
import pytest

from relikit import confidence
from relikit.calibration import apply_temperature
from relikit.confidence import _confidence_pass, _image_blocks, confidence_map
from relikit.errors import CalibrationError
from relikit.tensors import LogitTensor, TemperatureMap


def _logits(shape, seed=0):
    return np.random.default_rng(seed).normal(0.0, 3.0, shape).astype(np.float32)


@pytest.mark.parametrize("entropy", [False, True])
@pytest.mark.parametrize("form", ["scalar", "per_image", "map"])
def test_each_pass_checks_its_temperature_once(monkeypatch, form, entropy):
    images, height, width, classes = 2, 64, 64, 19
    assert len(list(_image_blocks(images, height * width, classes))) > images  # several blocks per image
    temperature = {"scalar": 1.3, "per_image": np.array([0.5, 2.0]),
                   "map": TemperatureMap(np.random.default_rng(1).uniform(0.05, 20.0, (images, height, width)))}[form]
    calls = []
    real = confidence._checked_temperature

    def counted(pixel_shape, t):
        calls.append(pixel_shape)
        return real(pixel_shape, t)

    monkeypatch.setattr(confidence, "_checked_temperature", counted)
    max_prob, neg_entropy, _ = _confidence_pass(_logits((images, height, width, classes)), temperature,
                                                entropy=entropy)
    assert calls == [(images, height, width)]
    assert max_prob.shape == (images, height, width) and (neg_entropy is not None) == entropy


def test_checked_temperature_is_a_float64_array_of_the_pixel_shape():
    pixel_shape = (3, 4, 5)
    scalar = confidence._checked_temperature(pixel_shape, 2.5)
    per_image = confidence._checked_temperature(pixel_shape, [1.0, 2.0, 3.0])
    assert scalar.shape == per_image.shape == pixel_shape
    assert scalar.dtype == per_image.dtype == np.float64
    np.testing.assert_array_equal(scalar, 2.5)
    np.testing.assert_array_equal(per_image[:, 1, 2], [1.0, 2.0, 3.0])
    values = np.full(pixel_shape, 0.7)
    np.testing.assert_array_equal(confidence._checked_temperature(pixel_shape, TemperatureMap(values)), values)



@pytest.mark.parametrize("shape", [(7, 3), (3,)])
def test_a_scalar_scales_logits_of_fewer_than_two_pixel_axes(shape):
    logits = _logits(shape)
    for score in ("max_prob", "neg_entropy"):
        conf, predicted = confidence_map(logits, 0.8, score)
        expected_conf, expected_predicted = confidence_map(logits.reshape(1, 1, -1, shape[-1]), 0.8, score)
        np.testing.assert_array_equal(conf, expected_conf.reshape(shape[:-1]))
        np.testing.assert_array_equal(predicted, expected_predicted.reshape(shape[:-1]))


# (rejected temperature, message) for one 5x6x3 image
_REJECTED = [
    (0.0, "temperature must be positive and finite, got 0.0"),
    (-1.0, "temperature must be positive and finite, got -1.0"),
    (np.nan, "temperature must be positive and finite, got nan"),
    (np.inf, "temperature must be positive and finite, got inf"),
    (TemperatureMap(np.ones((2, 2))), "temperature map shape (2, 2) does not match image (5, 6)"),
    (np.array([1.0, 2.0]), "2 temperatures for a stack of () images"),
    (np.ones((5, 6)), "30 temperatures for a stack of () images"),  # a plain (H, W) array is no map
]


@pytest.mark.parametrize("apply", [confidence_map, apply_temperature], ids=["confidence_map", "apply_temperature"])
@pytest.mark.parametrize("bad, message", _REJECTED,
                         ids=["zero", "negative", "nan", "inf", "map_shape", "per_image_length", "plain_array"])
def test_each_rejected_form_keeps_its_message(apply, bad, message):
    with pytest.raises(CalibrationError) as excinfo:
        apply(LogitTensor(_logits((5, 6, 3))), bad)
    assert str(excinfo.value) == message


def test_a_stack_rejects_per_image_temperatures_of_the_wrong_length():
    with pytest.raises(CalibrationError) as excinfo:
        confidence_map(_logits((3, 4, 4, 2)), np.array([1.0, 2.0]))
    assert str(excinfo.value) == "2 temperatures for a stack of (3,) images"
