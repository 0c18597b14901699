"""Hand-written MLP gradients vs central finite differences, plus training."""

import math

import numpy as np
import pytest

from relikit import mlp
from relikit.mlp import (
    MlpParams,
    init_params,
    loss_and_grads,
    raw_output,
    sgd_train,
    sigmoid,
    softplus,
    softplus_inverse,
)


def _problem(rng, n=40, input_dim=3, classes=4, hidden=5):
    features = rng.normal(size=(n, input_dim))
    logits = rng.normal(scale=2.0, size=(n, classes))
    labels = rng.integers(0, classes, size=n)
    params = init_params(input_dim, hidden, rng, raw_bias=0.3)
    return params, features, logits, labels


def _numeric_gradient(params, features, logits, labels, t_floor, weights=None, h=1e-4):
    vec = params.to_vector()
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += h
        down = vec.copy()
        down[i] -= h
        loss_up, _, _ = loss_and_grads(params.from_vector(up), features, logits, labels, t_floor, weights)
        loss_down, _, _ = loss_and_grads(params.from_vector(down), features, logits, labels, t_floor, weights)
        grad[i] = (loss_up - loss_down) / (2.0 * h)
    return grad


def _max_relative_error(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)))


class TestActivations:
    def test_softplus_positive_and_monotone(self):
        x = np.linspace(-20, 20, 101)
        y = softplus(x)
        assert np.all(y > 0)
        assert np.all(np.diff(y) > 0)

    def test_softplus_inverse_round_trip(self):
        for y in [1e-3, 0.1, 0.95, 1.0, 3.0, 19.0]:
            assert softplus(softplus_inverse(y)) == pytest.approx(y, rel=1e-12)

    def test_softplus_inverse_rejects_non_positive(self):
        with pytest.raises(ValueError):
            softplus_inverse(0.0)
        with pytest.raises(ValueError):
            softplus_inverse(-1.0)

    def test_sigmoid_matches_logistic(self):
        x = np.linspace(-10, 10, 41)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-14)

    def test_sigmoid_is_softplus_derivative(self):
        x = np.linspace(-5, 5, 21)
        h = 1e-6
        numeric = (softplus(x + h) - softplus(x - h)) / (2 * h)
        np.testing.assert_allclose(sigmoid(x), numeric, atol=1e-8)


class TestParams:
    def test_vector_round_trip(self):
        rng = np.random.default_rng(50)
        params = init_params(3, 4, rng, raw_bias=-0.5)
        clone = params.from_vector(params.to_vector())
        np.testing.assert_array_equal(clone.w1, params.w1)
        np.testing.assert_array_equal(clone.b1, params.b1)
        np.testing.assert_array_equal(clone.w2, params.w2)
        assert clone.b2 == params.b2

    def test_copy_is_independent(self):
        rng = np.random.default_rng(51)
        params = init_params(2, 3, rng, raw_bias=0.0)
        clone = params.copy()
        clone.w1[0, 0] += 1.0
        assert params.w1[0, 0] != clone.w1[0, 0]

    def test_init_bias_and_zero_hidden_bias(self):
        rng = np.random.default_rng(52)
        params = init_params(4, 6, rng, raw_bias=0.7)
        assert params.b2 == 0.7
        np.testing.assert_array_equal(params.b1, np.zeros(6))


class TestLossAndGrads:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            params, features, logits, labels = _problem(rng)
            loss, grads, t = loss_and_grads(params, features, logits, labels, t_floor=0.05)
            assert np.isfinite(loss)
            assert np.all(t >= 0.05)
            numeric = _numeric_gradient(params, features, logits, labels, 0.05)
            assert _max_relative_error(grads.to_vector(), numeric) < 1e-4

    def test_gradient_with_weights_matches(self):
        rng = np.random.default_rng(54)
        params, features, logits, labels = _problem(rng, n=30)
        weights = rng.random(30) + 0.1
        _, grads, _ = loss_and_grads(params, features, logits, labels, 0.05, weights)
        numeric = _numeric_gradient(params, features, logits, labels, 0.05, weights)
        assert _max_relative_error(grads.to_vector(), numeric) < 1e-4

    def test_weights_are_scale_invariant(self):
        rng = np.random.default_rng(55)
        params, features, logits, labels = _problem(rng, n=20)
        weights = rng.random(20) + 0.5
        loss_a, grads_a, _ = loss_and_grads(params, features, logits, labels, 0.05, weights)
        loss_b, grads_b, _ = loss_and_grads(params, features, logits, labels, 0.05, 10.0 * weights)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        np.testing.assert_allclose(grads_a.to_vector(), grads_b.to_vector(), rtol=1e-12)

    def test_uniform_weights_match_default(self):
        rng = np.random.default_rng(56)
        params, features, logits, labels = _problem(rng, n=15)
        loss_a, grads_a, _ = loss_and_grads(params, features, logits, labels, 0.05)
        loss_b, grads_b, _ = loss_and_grads(params, features, logits, labels, 0.05, np.ones(15))
        assert loss_a == pytest.approx(loss_b, rel=1e-14)
        np.testing.assert_allclose(grads_a.to_vector(), grads_b.to_vector(), rtol=1e-12)

    def test_non_positive_weight_sum_raises(self):
        rng = np.random.default_rng(57)
        params, features, logits, labels = _problem(rng, n=5)
        with pytest.raises(ValueError):
            loss_and_grads(params, features, logits, labels, 0.05, np.zeros(5))

    def test_loss_is_mean_nll_of_scaled_logits(self):
        rng = np.random.default_rng(58)
        params, features, logits, labels = _problem(rng, n=25)
        loss, _, t = loss_and_grads(params, features, logits, labels, 0.05)
        direct = 0.0
        for i in range(25):
            scaled = logits[i] / t[i]
            p = np.exp(scaled - scaled.max())
            p /= p.sum()
            direct -= np.log(p[labels[i]])
        assert loss == pytest.approx(direct / 25, rel=1e-12)

    def test_extreme_raw_outputs_stay_finite(self):
        params, features, logits, labels = _extreme_problem()
        loss, grads, t = loss_and_grads(params, features, logits, labels, 0.05)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grads.to_vector()))
        assert np.all(np.isfinite(t))


def _extreme_problem():
    """Raw outputs of about +-200, where softplus saturates and t spans 0.05 .. 200."""
    params = MlpParams(w1=np.full((2, 1), 50.0), b1=np.zeros(2), w2=np.array([100.0, 100.0]), b2=0.0)
    return params, np.array([[5.0], [-5.0]]), np.array([[4.0, -4.0], [0.5, -0.5]]), np.array([0, 1])


def _train_problem(n=150, weighted=False):
    rng = np.random.default_rng(63)
    features = rng.normal(size=(n, 3))
    logits = rng.normal(scale=2.0, size=(n, 4))
    labels = rng.integers(0, 4, size=n)
    weights = rng.random(n) + 0.1 if weighted else None
    return features, logits, labels, weights


class TestSgdTrain:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_full_gradient_reference_loop(self, weighted):
        # the reference records each epoch's loss as the running mean of its minibatch losses
        features, logits, labels, weights = _train_problem(weighted=weighted)
        params = init_params(3, 5, np.random.default_rng(64), raw_bias=0.4)
        reference = params.copy()
        curve = sgd_train(params, features, logits, labels, 0.05, 0.1, 4, 32,
                          np.random.default_rng(65), weights)
        rng = np.random.default_rng(65)
        expected = []
        for _ in range(4):
            order = rng.permutation(len(labels))
            loss_sum = mass = 0.0
            for start in range(0, len(labels), 32):
                batch = order[start : start + 32]
                loss, grads, _ = loss_and_grads(reference, features[batch], logits[batch], labels[batch],
                                                0.05, None if weights is None else weights[batch])
                reference.w1 -= 0.1 * grads.w1
                reference.b1 -= 0.1 * grads.b1
                reference.w2 -= 0.1 * grads.w2
                reference.b2 -= 0.1 * grads.b2
                batch_mass = len(batch) if weights is None else float(weights[batch].sum())
                loss_sum += loss * batch_mass
                mass += batch_mass
            expected.append(loss_sum / mass)
        assert curve == expected
        np.testing.assert_array_equal(params.to_vector(), reference.to_vector())

    @pytest.mark.parametrize("batch_pixels", [1, 3])
    def test_zero_weight_batch_takes_no_step_and_adds_no_loss(self, batch_pixels):
        # a batch whose weights sum to zero has a 0/0 gradient and no loss mass
        features, logits, labels, weights = _train_problem(n=30, weighted=True)
        weights[::2] = 0.0
        params = init_params(3, 5, np.random.default_rng(70), raw_bias=0.4)
        reference = params.copy()
        curve = sgd_train(params, features, logits, labels, 0.05, 0.1, 3, batch_pixels,
                          np.random.default_rng(71), weights)
        rng = np.random.default_rng(71)
        expected, skipped = [], 0
        for _ in range(3):
            order = rng.permutation(30)
            loss_sum = mass = 0.0
            for start in range(0, 30, batch_pixels):
                batch = order[start : start + batch_pixels]
                batch_mass = float(weights[batch].sum())
                if batch_mass == 0:
                    skipped += 1
                    continue
                loss, grads, _ = loss_and_grads(reference, features[batch], logits[batch], labels[batch],
                                                0.05, weights[batch])
                reference.w1 -= 0.1 * grads.w1
                reference.b1 -= 0.1 * grads.b1
                reference.w2 -= 0.1 * grads.w2
                reference.b2 -= 0.1 * grads.b2
                loss_sum += loss * batch_mass
                mass += batch_mass
            expected.append(loss_sum / mass)
        assert skipped > 0
        assert curve == expected
        np.testing.assert_array_equal(params.to_vector(), reference.to_vector())

    def test_all_zero_weights_raise(self):
        features, logits, labels, _ = _train_problem(n=10)
        params = init_params(3, 5, np.random.default_rng(72), raw_bias=0.0)
        with pytest.raises(ValueError):
            sgd_train(params, features, logits, labels, 0.05, 0.1, 1, 4, np.random.default_rng(73), np.zeros(10))

    @pytest.mark.parametrize("n, epochs, batch_pixels", [(150, 4, 32), (150, 3, 150), (7, 2, 1000), (96, 5, 32)])
    def test_gradients_only_on_minibatches(self, monkeypatch, n, epochs, batch_pixels):
        # the per-epoch loss is forward-only: no full-data gradient pass
        calls = []
        real = mlp.loss_and_grads
        monkeypatch.setattr(mlp, "loss_and_grads", lambda *args: calls.append(len(args[3])) or real(*args))
        features, logits, labels, _ = _train_problem(n)
        params = init_params(3, 5, np.random.default_rng(66), raw_bias=0.0)
        curve = sgd_train(params, features, logits, labels, 0.05, 0.1, epochs, batch_pixels,
                          np.random.default_rng(67))
        assert len(curve) == epochs
        assert len(calls) == epochs * math.ceil(n / min(batch_pixels, n))
        assert sum(calls) == epochs * n


    def test_loss_decreases_on_learnable_problem(self):
        # logits are 3x too sharp wherever the feature is positive
        rng = np.random.default_rng(59)
        n = 2000
        features = np.where(rng.random(n) < 0.5, 1.0, -1.0).reshape(-1, 1)
        base = rng.normal(scale=1.5, size=(n, 3))
        labels = np.array([np.argmax(b + rng.normal(scale=1.0, size=3)) for b in base])
        logits = np.where(features > 0, base * 3.0, base)
        params = init_params(1, 4, rng, raw_bias=softplus_inverse(1.0 - 0.05))
        curve = sgd_train(params, features, logits, labels, 0.05, 0.05, 20, 256, rng)
        assert curve[-1] < curve[0]

    def test_deterministic_given_stream(self):
        rng_data = np.random.default_rng(60)
        features = rng_data.normal(size=(100, 2))
        logits = rng_data.normal(size=(100, 3))
        labels = rng_data.integers(0, 3, size=100)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            params = init_params(2, 3, np.random.default_rng(5), raw_bias=0.0)
            curve = sgd_train(params, features, logits, labels, 0.05, 0.05, 3, 32, rng)
            runs.append((curve, params.to_vector()))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_batch_size_clamped_to_population(self):
        rng = np.random.default_rng(61)
        features = rng.normal(size=(10, 2))
        logits = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=10)
        params = init_params(2, 3, rng, raw_bias=0.0)
        curve = sgd_train(params, features, logits, labels, 0.05, 0.05, 2, 10_000, rng)
        assert len(curve) == 2
        assert all(np.isfinite(v) for v in curve)
