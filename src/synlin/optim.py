"""Math both networks share (Adagrad, log-softmaxes, padding, row sums, gradient check), and a thread pool.

Adagrad update: acc += g*g; theta -= lr * g / (sqrt(acc) + 1e-8).  Parameters
are updated in place, so the dict passed in must hold the live arrays.  The
update walks every tensor in blocks of BLOCK elements, each block running the
same element-wise operations in the same order as a whole-tensor update, so
the result does not depend on the block size or on how many threads share the
blocks.

`run_jobs` shares a list of jobs among parts that run at once, one per CPU
the process may run on: the calling thread runs one part and a process-wide
thread pool the rest (numpy releases the interpreter lock inside its loops
and products).  Its callers are the Adagrad update, whose jobs are its
blocks dealt round-robin into one part per CPU, and the scorer's batch pass
(`ffnn._batch_pass`).  When BLAS runs its products on more than one thread
(`blas_threads`), its threads already use the CPUs, and every part runs on
the calling thread.  This is the only module that starts threads: the pool
starts at the first run with more than one part, never at import, and a
forked child starts its own.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

from synlin.errors import ConfigError

# Elements per Adagrad block: large enough that numpy's loops, not the
# interpreter, hold a block's time (8 Ki blocks left the threads waiting on
# the interpreter lock), small enough that a block's operands stay in cache.
BLOCK = 65_536


def check_training(config):
    """Raise ConfigError unless `config`'s dropout is in [0, 1), its epochs
    and seed are >= 0, and its learning_rate and l2_lambda are finite and
    >= 0 (a zero rate trains nothing)."""
    if not 0.0 <= config.dropout < 1.0:
        raise ConfigError(f"dropout must be in [0, 1), got {config.dropout}")
    for name in ("epochs", "seed"):
        if getattr(config, name) < 0:
            raise ConfigError(f"{name} must be >= 0, got {getattr(config, name)}")
    for name in ("learning_rate", "l2_lambda"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def cpu_count() -> int:
    """The number of CPUs this process may run on (`taskset` restricts it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_thread_count():
    """The thread-count call of the OpenBLAS that numpy bundles, or None when
    numpy links another BLAS or that library does not export it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_-*.so")):
        try:
            call = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        call.restype, call.argtypes = ctypes.c_int, []
        return call
    return None


def blas_threads() -> int:
    """The threads the bundled OpenBLAS runs a product on, as it is set now
    (1 when it cannot be read).  Only read, never set: the caller's BLAS
    setting is the caller's."""
    call = _openblas_thread_count()
    return 1 if call is None else call()


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


def run_jobs(jobs: list[tuple], rows: np.ndarray) -> dict:
    """Run and empty `jobs`, a non-empty list of (key, function, *args)
    tuples, and return each one's result under its key.  Each part, one per
    row of `rows` but never more than jobs, takes the next job until none is
    left and calls its function with `args` and then the part's row (its
    scratch): the calling thread runs the first part and `_workers` the
    others, unless BLAS runs on more than one thread (`blas_threads`): then
    the calling thread's part takes every job.  A job's exception is raised
    here once every part has ended.  A job off the calling thread must call
    only numpy and functions that do, never one a tracer may wrap
    (perfbench's keeps one span stack)."""
    out = {}
    first, *rest = rows[: len(jobs)]
    pending = []
    if rest and blas_threads() == 1:
        pool = _workers(len(rest))
        pending = [pool.submit(_take_jobs, jobs, out, row) for row in rest]
    try:
        _take_jobs(jobs, out, first)
    finally:
        wait(pending)
    for done in pending:
        done.result()
    return out


def _take_jobs(queue: list[tuple], out: dict, row: np.ndarray):
    """One part of `run_jobs`: take jobs off `queue` until it is empty."""
    while True:
        try:
            key, function, *args = queue.pop(0)  # atomic: one job goes to one part
        except IndexError:
            return
        out[key] = function(*args, row)


class Adagrad:
    """Updates in place, block by block, the blocks dealt round-robin at
    construction into one part per CPU of `cpu_count()`, never more parts
    than blocks: part k holds blocks k, k + parts, ...  Each step hands the
    parts to `run_jobs` as jobs, each with its own two scratch rows of up to
    BLOCK elements.  `step` takes one gradient per tensor, of the tensor's
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
        parts = max(1, min(cpu_count(), len(blocks)))
        self._parts = [blocks[k::parts] for k in range(parts)]
        width = max((hi - lo for _, lo, hi, _, _ in blocks), default=0)
        self._scratch = np.empty((parts, 2, width))

    def step(self, grads: dict[str, np.ndarray]):
        flat = {name: g.reshape(-1) for name, g in grads.items()}
        run_jobs([(k, self._update, part, flat) for k, part in enumerate(self._parts)],
                 self._scratch)

    def _update(self, part, grads: dict[str, np.ndarray], rows: np.ndarray):
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
    """log(sum(exp(x))) along the last axis, kept as a length-1 axis.  The
    reductions are the ufuncs' own, which `ndarray.max` and `np.sum` wrap."""
    m = np.maximum.reduce(x, axis=-1, keepdims=True)
    return m + np.log(np.add.reduce(np.exp(x - m), axis=-1, keepdims=True))


def masked_log_softmax(logits: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """`log_softmax` over the entries `valid` marks; the others are set to -inf in place."""
    logits[~valid] = -np.inf
    return log_softmax(logits)


def pad_rows(seqs) -> tuple[np.ndarray, np.ndarray]:
    """A sequence of integer sequences as one zero-padded (n x longest)
    array, and the mask of real entries.  One sequence is a one-row array with
    nothing to pad; more are filled from one `np.fromiter` over their
    entries, in row order."""
    if len(seqs) == 1:
        padded = np.array(seqs, dtype=np.int64)
        return padded, np.ones(padded.shape, dtype=bool)
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    padded = np.zeros(valid.shape, dtype=np.int64)
    padded[valid] = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64)
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
