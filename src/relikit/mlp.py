"""Two-layer perceptron with hand-written gradients, float64 throughout.

The network maps a per-pixel feature vector to one raw scalar:
``raw = w2 . tanh(W1 x + b1) + b2``. A temperature is obtained as
``softplus(raw) + t_floor`` so it is always positive. The loss is the
(optionally weighted) mean NLL of per-pixel class logits divided by the
predicted temperature; its gradient with respect to the temperature is
``(z_y - sum_k p_k z_k) / t^2``, back-propagated through softplus and the
network by hand. :func:`loss_and_grads` is checked against central finite
differences in the test suite.

:func:`sgd_train` touches the data only through minibatch
:func:`loss_and_grads` calls. Each epoch's loss on the curve is the running
mean of that epoch's minibatch losses, weighted by each batch's row count
or weight sum, so it averages over the parameters the epoch passed
through, not the epoch's final ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def softplus(x, out=None):
    return np.logaddexp(0.0, x, out=out)


def softplus_inverse(y: float) -> float:
    if y <= 0:
        raise ValueError("softplus is positive")
    return float(y + np.log1p(-np.exp(-y)))


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class MlpParams:
    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float

    def copy(self) -> "MlpParams":
        return MlpParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), float(self.b2))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.w1.reshape(-1), self.b1, self.w2, [self.b2]])

    def from_vector(self, vec: np.ndarray) -> "MlpParams":
        h, d = self.w1.shape
        parts = np.split(np.asarray(vec, dtype=np.float64), [h * d, h * d + h, h * d + 2 * h])
        return MlpParams(parts[0].reshape(h, d), parts[1], parts[2], float(parts[3][0]))


def init_params(input_dim: int, hidden: int, rng: np.random.Generator, raw_bias: float) -> MlpParams:
    return MlpParams(
        w1=rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(hidden, input_dim)),
        b1=np.zeros(hidden),
        w2=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=hidden),
        b2=float(raw_bias),
    )


def _hidden(params: MlpParams, features: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    hidden = np.matmul(features, params.w1.T, out=out)
    hidden += params.b1
    return np.tanh(hidden, out=hidden)


def raw_output(params: MlpParams, features: np.ndarray, out: np.ndarray | None = None,
               hidden: np.ndarray | None = None) -> np.ndarray:
    """Each row's raw output, written into ``out`` (n,) and through ``hidden`` (n, hidden) when given."""
    raw = np.matmul(_hidden(params, features, hidden), params.w2, out=out)
    raw += params.b2
    return raw


def loss_and_grads(params: MlpParams, features: np.ndarray, logits: np.ndarray,
                   labels: np.ndarray, t_floor: float,
                   weights: np.ndarray | None = None) -> tuple[float, MlpParams, np.ndarray]:
    """Weighted mean NLL of temperature-scaled logits, and its gradients.

    Returns (loss, gradients shaped like the parameters, per-pixel
    temperatures). ``weights`` defaults to uniform and is normalized to
    sum to one.
    """
    features = np.asarray(features, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    hidden = _hidden(params, features)
    raw = hidden @ params.w2 + params.b2
    t = softplus(raw) + t_floor
    scaled = logits / t[:, None]
    shift = scaled.max(axis=1, keepdims=True)
    expd = np.exp(scaled - shift)
    norm = expd.sum(axis=1)
    lse = shift[:, 0] + np.log(norm)
    rows = np.arange(n)
    nll = lse - scaled[rows, labels]
    if weights is None:
        scale = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must have positive sum")
        scale = weights / total
    loss = float((nll * scale).sum())
    probs = expd / norm[:, None]
    dloss_dt = (logits[rows, labels] - (probs * logits).sum(axis=1)) / t**2
    g_raw = dloss_dt * sigmoid(raw) * scale
    g_b2 = float(g_raw.sum())
    g_w2 = hidden.T @ g_raw
    g_hidden = np.outer(g_raw, params.w2) * (1.0 - hidden**2)
    g_w1 = g_hidden.T @ features
    g_b1 = g_hidden.sum(axis=0)
    return loss, MlpParams(g_w1, g_b1, g_w2, g_b2), t


def _take_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix[rows]``; ``np.take`` is faster on a C-ordered matrix but copies any other whole."""
    return np.take(matrix, rows, axis=0) if matrix.flags.c_contiguous else matrix[rows]


def sgd_train(params: MlpParams, features: np.ndarray, logits: np.ndarray, labels: np.ndarray,
              t_floor: float, learning_rate: float, epochs: int, batch_pixels: int,
              rng: np.random.Generator, weights: np.ndarray | None = None,
              standardize: tuple[np.ndarray, np.ndarray] | None = None) -> list[float]:
    """Mini-batch gradient descent in place; returns the per-epoch training loss.

    Each minibatch's rows are gathered and widened to float64 as it is
    taken, so float32 ``features`` and ``logits`` are never copied whole.
    With ``standardize`` = (mean, scale), its feature rows are taken as
    (row - mean) / scale, the values a standardized float64 copy of
    ``features`` would hold.

    Each epoch takes ``ceil(n / batch_pixels)`` gradient steps and records the
    mean of their minibatch losses, each weighted by its batch's row count, or
    by its weight sum when ``weights`` are given. A batch whose weights sum to
    zero has neither a gradient nor loss mass: it takes no step and adds
    nothing to the curve. There is no other pass over the data.
    """
    if weights is not None and not weights.sum() > 0:
        raise ValueError("weights must have positive sum")
    n = features.shape[0]
    batch_pixels = max(1, min(batch_pixels, n))
    curve = []
    for _ in range(epochs):
        order = rng.permutation(n)
        loss_sum = mass = 0.0
        for start in range(0, n, batch_pixels):
            batch = order[start : start + batch_pixels]
            batch_weights = None if weights is None else weights[batch]
            batch_mass = batch.size if weights is None else float(batch_weights.sum())
            if batch_mass == 0:
                continue
            rows = np.asarray(_take_rows(features, batch), dtype=np.float64)  # float32 features widen here
            if standardize is not None:
                rows -= standardize[0]
                rows /= standardize[1]
            loss, grads, _ = loss_and_grads(
                params, rows, _take_rows(logits, batch), labels[batch], t_floor, batch_weights,
            )
            params.w1 -= learning_rate * grads.w1
            params.b1 -= learning_rate * grads.b1
            params.w2 -= learning_rate * grads.w2
            params.b2 -= learning_rate * grads.b2
            loss_sum += loss * batch_mass
            mass += batch_mass
        curve.append(loss_sum / mass)
    return curve
