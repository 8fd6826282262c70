"""Test-only references for `synlin.optim`.

`Adagrad` here is the whole-tensor update from before the blocked, threaded
one: per tensor, acc += g*g; theta -= lr * g / (sqrt(acc) + 1e-8), through
two scratch rows as long as the largest tensor.  The blocked update runs the
same element-wise operations in the same order, so after any number of steps
its parameters and accumulators must equal these bit for bit
(`test_optim.py`).  `log_sum_exp` and `pad_rows` are the forms the direct
reductions and the C fill replaced; theirs must be equal bit for bit too.
"""

import numpy as np


class Adagrad:
    """Updates in place, through two scratch rows as long as the largest tensor."""

    def __init__(self, tensors: dict[str, np.ndarray], learning_rate: float):
        self.tensors = tensors
        self.learning_rate = learning_rate
        self.accum = {name: np.zeros_like(t) for name, t in tensors.items()}
        rows = np.empty((2, max((t.size for t in tensors.values()), default=0)))
        self._scratch = {
            name: [row[: t.size].reshape(t.shape) for row in rows] for name, t in tensors.items()
        }

    def step(self, grads: dict[str, np.ndarray]):
        for name, g in grads.items():
            acc, (root, scaled) = self.accum[name], self._scratch[name]
            acc += np.multiply(g, g, out=root)
            np.sqrt(acc, out=root)
            root += 1e-8
            np.multiply(self.learning_rate, g, out=scaled)
            self.tensors[name] -= np.divide(scaled, root, out=root)


def log_sum_exp(x: np.ndarray) -> np.ndarray:
    """The `ndarray.max` / `np.sum` form that `synlin.optim.log_sum_exp`
    replaced with direct ufunc reductions (same ufuncs, axis and order)."""
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.sum(np.exp(x - m), axis=-1, keepdims=True))


def pad_rows(seqs) -> tuple[np.ndarray, np.ndarray]:
    """The list fill that `synlin.optim.pad_rows` replaced: the mask from the
    lengths, for one sequence too, and the entries as one Python list."""
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    padded = np.zeros(valid.shape, dtype=np.int64)
    padded[valid] = [x for seq in seqs for x in seq]
    return padded, valid
