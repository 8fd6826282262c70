"""Math both networks share (Adagrad, log-softmaxes, padding, row sums, gradient check), and a thread pool.

Adagrad update: acc += g*g; theta -= lr * g / (sqrt(acc) + 1e-8).  Parameters
are updated in place, so the dict passed in must hold the live arrays.  The
update walks every tensor in blocks of BLOCK elements, each block running the
same element-wise operations in the same order as a whole-tensor update, so
the result does not depend on the block size or on how many threads share the
blocks.

`run_parts` runs independent parts of work at once, one per CPU the process
may run on: the calling thread runs one and a process-wide thread pool the
rest (numpy releases the interpreter lock inside its loops and products).
The pool serves the Adagrad update and the scorer's batch pass
(`ffnn._batch_pass`).  This is the only module that starts threads: the pool
starts at the first run that is split, never at import, and a forked child
starts its own.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np

from synlin.errors import ConfigError

# Elements per Adagrad block: large enough that numpy's loops, not the
# interpreter, hold a block's time (8 Ki blocks left the threads waiting on
# the interpreter lock), small enough that a block's operands stay in cache.
BLOCK = 65_536


def check_rates(learning_rate: float, l2_lambda: float):
    """Raise ConfigError unless both are finite and >= 0 (a zero rate trains nothing)."""
    for name, value in (("learning_rate", learning_rate), ("l2_lambda", l2_lambda)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def cpu_count() -> int:
    """The number of CPUs this process may run on (`taskset` restricts it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def split(sizes: list[int], parts: int) -> list[int]:
    """Cut points (0 first, len(sizes) last) of `sizes` into `parts`
    contiguous runs of about equal sum, none empty; `parts` <= len(sizes)."""
    ends = np.cumsum(sizes)
    cuts = [0]
    for k in range(1, parts):
        target = ends[-1] * k / parts
        at = int(np.searchsorted(ends, target))  # first run ending at or past target
        cut = at if at > 0 and target - ends[at - 1] < ends[at] - target else at + 1
        cuts.append(min(max(cut, cuts[-1] + 1), len(sizes) - (parts - k)))
    return [*cuts, len(sizes)]


# The worker threads of this process: (pid, thread count, pool).  A forked
# child inherits the object but not its threads, so it builds its own.
_pool: tuple[int, int, ThreadPoolExecutor] | None = None


def _workers(count: int) -> ThreadPoolExecutor:
    """A thread pool of at least `count` threads, started by this process."""
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[0] != pid or _pool[1] < count:
        if _pool is not None and _pool[0] == pid:
            _pool[2].shutdown(wait=False)
        _pool = pid, count, ThreadPoolExecutor(count, thread_name_prefix="synlin-worker")
    return _pool[2]


def run_parts(parts: list):
    """Call every part, a function of no arguments, at the same time: the
    calling thread the first and `_workers` the others.  An exception of a
    part is raised here once every part has ended.  A part off the calling
    thread must call only numpy and functions that do, never one a tracer
    may wrap (perfbench's keeps one span stack)."""
    first, *rest = parts
    pending = []
    if rest:
        pool = _workers(len(rest))
        pending = [pool.submit(part) for part in rest]
    try:
        first()
    finally:
        wait(pending)
    for done in pending:
        done.result()


class Adagrad:
    """Updates in place, block by block, the blocks split into one part per
    CPU of `cpu_count()` at construction, never more parts than blocks.
    `run_parts` runs the parts, each through its own two scratch rows of up
    to BLOCK elements.  `step` takes one gradient per tensor, of the tensor's
    shape; tensors must be C-contiguous, as every model's are."""

    def __init__(self, tensors: dict[str, np.ndarray], learning_rate: float):
        self.learning_rate = learning_rate
        self.accum = {name: np.zeros_like(t) for name, t in tensors.items()}
        blocks = []  # (name, start, stop, param block, accumulator block), in tensor order
        for name, t in tensors.items():
            if not t.flags.c_contiguous:
                raise ValueError(f"tensor {name} is not C-contiguous")
            param, acc = t.reshape(-1), self.accum[name].reshape(-1)
            for lo in range(0, t.size, BLOCK):
                hi = min(lo + BLOCK, t.size)
                blocks.append((name, lo, hi, param[lo:hi], acc[lo:hi]))
        cuts = split([hi - lo for _, lo, hi, _, _ in blocks], min(cpu_count(), len(blocks)))
        self._parts = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        width = max((hi - lo for _, lo, hi, _, _ in blocks), default=0)
        self._scratch = [np.empty((2, width)) for _ in self._parts]

    def step(self, grads: dict[str, np.ndarray]):
        flat = {name: g.reshape(-1) for name, g in grads.items()}
        run_parts([partial(self._update, *job, flat) for job in zip(self._parts, self._scratch)])

    def _update(self, part, rows: np.ndarray, grads: dict[str, np.ndarray]):
        """Run the blocks of `part`.  Worker threads run this, so it calls
        only numpy, nothing a tracer (which keeps one span stack) may wrap."""
        lr = self.learning_rate
        for name, lo, hi, param, acc in part:
            g = grads[name][lo:hi]
            root, scaled = rows[0, : hi - lo], rows[1, : hi - lo]
            acc += np.multiply(g, g, out=root)
            np.sqrt(acc, out=root)
            root += 1e-8
            np.multiply(lr, g, out=scaled)
            param -= np.divide(scaled, root, out=root)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities along the last axis, shifted by the max for stability."""
    return logits - log_sum_exp(logits)


def log_sum_exp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) along the last axis, kept as a length-1 axis."""
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.sum(np.exp(x - m), axis=-1, keepdims=True))


def masked_log_softmax(logits: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """`log_softmax` over the entries `valid` marks; the others are set to -inf in place."""
    logits[~valid] = -np.inf
    return log_softmax(logits)


def pad_rows(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Integer sequences as one zero-padded (n x longest) array, and the mask of real entries."""
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    padded = np.zeros(valid.shape, dtype=np.int64)
    padded[valid] = [x for seq in seqs for x in seq]
    return padded, valid


def row_sums(ids, values: np.ndarray, n_rows: int, index: np.ndarray | None = None) -> np.ndarray:
    """Sum the rows of `values` (shape ids.shape + (width,)) by id into
    (n_rows, width).  `index`, if given, is an int64 array of values.size
    entries that holds the flat index, so none is allocated.  It is filled by
    a copy and an in-place add: an add of two broadcast operands would make
    numpy allocate two 64 KiB iteration buffers."""
    width = values.shape[-1]
    if index is None:
        index = np.empty(values.size, dtype=np.int64)
    flat = index.reshape(-1, width)
    np.copyto(flat, np.reshape(ids, (-1, 1)) * width)
    flat += np.arange(width)
    return np.bincount(flat.ravel(), values.ravel(), n_rows * width).reshape(n_rows, width)


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
