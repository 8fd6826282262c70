"""Adagrad, and the finite-difference gradient check both networks share.

Update: acc += g*g; theta -= lr * g / (sqrt(acc) + eps).  Parameters are
updated in place, so the dict passed in must hold the live arrays.
"""

from __future__ import annotations

import numpy as np


class Adagrad:
    def __init__(self, tensors: dict[str, np.ndarray], learning_rate: float, epsilon: float = 1e-8):
        self.tensors = tensors
        self.learning_rate = learning_rate
        self.epsilon = epsilon
        self.accum = {name: np.zeros_like(t) for name, t in tensors.items()}

    def step(self, grads: dict[str, np.ndarray]):
        for name, g in grads.items():
            acc = self.accum[name]
            acc += g * g
            self.tensors[name] -= self.learning_rate * g / (np.sqrt(acc) + self.epsilon)


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
