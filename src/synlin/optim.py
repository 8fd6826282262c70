"""Math both networks share: Adagrad, log-softmax, row sums, the finite-difference check.

Adagrad update: acc += g*g; theta -= lr * g / (sqrt(acc) + 1e-8).  Parameters
are updated in place, so the dict passed in must hold the live arrays.
"""

from __future__ import annotations

import math

import numpy as np

from synlin.errors import ConfigError


def check_rates(learning_rate: float, l2_lambda: float):
    """Raise ConfigError unless both are finite and >= 0 (a zero rate trains nothing)."""
    for name, value in (("learning_rate", learning_rate), ("l2_lambda", l2_lambda)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")


class Adagrad:
    def __init__(self, tensors: dict[str, np.ndarray], learning_rate: float):
        self.tensors = tensors
        self.learning_rate = learning_rate
        self.accum = {name: np.zeros_like(t) for name, t in tensors.items()}

    def step(self, grads: dict[str, np.ndarray]):
        for name, g in grads.items():
            acc = self.accum[name]
            acc += g * g
            self.tensors[name] -= self.learning_rate * g / (np.sqrt(acc) + 1e-8)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities along the last axis, shifted by the max for stability."""
    m = logits.max(axis=-1, keepdims=True)
    return logits - (m + np.log(np.sum(np.exp(logits - m), axis=-1, keepdims=True)))


def row_sums(ids, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum the rows of `values` (shape ids.shape + (width,)) by id into (n_rows, width)."""
    width = values.shape[-1]
    flat = (np.reshape(ids, (-1, 1)) * width + np.arange(width)).ravel()
    return np.bincount(flat, values.ravel(), n_rows * width).reshape(n_rows, width)


def max_grad_error(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    objective,
    epsilon: float,
    samples_per_tensor: int,
    rng: np.random.Generator,
) -> float:
    """Max relative error between `grads` and central differences of `objective()`.

    Each tensor is perturbed in place at every coordinate, or at
    `samples_per_tensor` coordinates drawn from `rng` when it is larger.  The
    error is relative for large gradients and absolute near zero
    (denominator max(1, |a|, |n|)).
    """
    worst = 0.0
    for name, tensor in tensors.items():
        flat = tensor.reshape(-1)
        size = flat.shape[0]
        if size <= samples_per_tensor:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=samples_per_tensor, replace=False)
        gflat = grads[name].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + epsilon
            f_plus = objective()
            flat[c] = orig - epsilon
            f_minus = objective()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            denom = max(1.0, abs(gflat[c]), abs(numeric))
            worst = max(worst, abs(gflat[c] - numeric) / denom)
    return worst
