"""The blocked, threaded Adagrad against the whole-tensor reference, the
scorer's shared batch pass against the one-thread reference, and the life of
their thread pool: creation, failures, fork and interpreter exit.

The pool runs only when BLAS runs on one thread, and these tests may run
with BLAS unpinned, so every test here reads the BLAS thread count as 1
unless it sets another (`one_blas_thread`)."""

import os
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_batch
import reference_optim
from conftest import small_linearizer, small_lm
from synlin import ffnn, lstm_lm, optim
from synlin.corpus import build_indexers
from synlin.optim import BLOCK, Adagrad
from synlin.synth import toy_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
EDGE_SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
BLAS_THREADS = optim.blas_threads  # the real lookup, which `one_blas_thread` replaces


@pytest.fixture(autouse=True)
def one_blas_thread(monkeypatch):
    monkeypatch.setattr(optim, "blas_threads", lambda: 1)


@pytest.fixture(scope="module")
def sentences():
    return toy_corpus(40, seed=21)


@pytest.fixture(scope="module")
def idx(sentences):
    return build_indexers(sentences)


def real_params(kind, indexers):
    """The parameter dict of a model of `kind` at the benchmark's sizes."""
    if kind == "lm":
        return lstm_lm.init_lm(indexers, lstm_lm.LmConfig()).params
    lm_feat_dim = lstm_lm.LmConfig().hidden_size if kind == "combined" else None
    variant = "light" if kind == "combined" else kind
    return ffnn.init_linearizer(indexers, variant, ffnn.TrainConfig(), lm_feat_dim).params


def assert_steps_equal(tensors, learning_rate, steps=4, seed=0):
    """`steps` Adagrad steps on copies of `tensors`, blocked and reference,
    leave equal bytes in every parameter and accumulator."""
    rng = np.random.default_rng(seed)
    mine = {name: t.copy() for name, t in tensors.items()}
    ref = {name: t.copy() for name, t in tensors.items()}
    opt, ref_opt = Adagrad(mine, learning_rate), reference_optim.Adagrad(ref, learning_rate)
    for _ in range(steps):
        grads = {name: rng.normal(size=t.shape) for name, t in tensors.items()}
        opt.step(grads)
        ref_opt.step(grads)
    for name in tensors:
        assert mine[name].tobytes() == ref[name].tobytes(), name
        assert opt.accum[name].tobytes() == ref_opt.accum[name].tobytes(), name
    return opt


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("learning_rate", [0.0, 0.05])
def test_edge_sizes_match_the_reference(cpus, learning_rate, monkeypatch):
    monkeypatch.setattr(optim, "cpu_count", lambda: cpus)
    rng = np.random.default_rng(cpus)
    tensors = {f"t{size}": rng.uniform(-1, 1, size) for size in EDGE_SIZES}
    tensors["matrix"] = rng.uniform(-1, 1, (3, BLOCK // 2 + 5))
    opt = assert_steps_equal(tensors, learning_rate)
    blocks = sum(-(-t.size // BLOCK) for t in tensors.values())
    assert len(opt._parts) == min(cpus, blocks)


@pytest.mark.parametrize("size", EDGE_SIZES)
@pytest.mark.parametrize("cpus", [1, 4])
def test_one_tensor_of_each_edge_size(size, cpus, monkeypatch):
    monkeypatch.setattr(optim, "cpu_count", lambda: cpus)
    tensor = np.random.default_rng(size).uniform(-1, 1, size)
    opt = assert_steps_equal({"t": tensor}, 0.1, seed=size)
    assert len(opt._parts) == max(1, min(cpus, -(-size // BLOCK)))


@pytest.mark.parametrize("kind", ["full", "light", "combined", "lm"])
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("learning_rate", [0.0, 0.01])
def test_real_parameter_dicts_match_the_reference(kind, cpus, learning_rate, idx, monkeypatch):
    monkeypatch.setattr(optim, "cpu_count", lambda: cpus)
    assert_steps_equal(real_params(kind, idx), learning_rate, steps=3)


@pytest.mark.parametrize("cpus", [1, 2])
def test_training_matches_the_reference_optimizer(cpus, idx, sentences, monkeypatch):
    # Whole training runs, dropout and L2 on: the same bytes as with the
    # whole-tensor update swapped in.
    monkeypatch.setattr(optim, "cpu_count", lambda: cpus)

    def trained(module, optimizer):
        with monkeypatch.context() as patch:
            patch.setattr(module, "Adagrad", optimizer)
            if module is lstm_lm:
                model = small_lm(idx, seed=5, hidden_size=16, dropout=0.3, l2_lambda=1e-4,
                                 epochs=2)
                lstm_lm.train_lm(model, sentences[:10])
            else:
                model = small_linearizer(idx, "full", seed=6, embed_dim=20, hidden_dim=40,
                                         dropout=0.3, l2_lambda=1e-6, epochs=2)
                ffnn.train(model, ffnn.make_training_examples(sentences[:10], model))
        return b"".join(t.tobytes() for t in model.params.values())

    for module in (ffnn, lstm_lm):
        assert trained(module, Adagrad) == trained(module, reference_optim.Adagrad)


def test_the_parts_deal_the_blocks_round_robin(monkeypatch):
    monkeypatch.setattr(optim, "cpu_count", lambda: 3)
    tensors = {"a": np.zeros(2 * BLOCK), "b": np.zeros(BLOCK + 1), "c": np.zeros(5)}
    parts = Adagrad(tensors, 0.1)._parts
    assert [[(name, lo) for name, lo, *_ in part] for part in parts] == [
        [("a", 0), ("b", BLOCK)], [("a", BLOCK), ("c", 0)], [("b", 0)]
    ]


def test_a_tensor_that_is_not_contiguous_is_refused():
    with pytest.raises(ValueError, match="contiguous"):
        Adagrad({"t": np.zeros((4, 4))[:, ::2]}, 0.1)


def test_one_cpu_creates_no_pool(monkeypatch):
    monkeypatch.setattr(optim, "cpu_count", lambda: 1)
    monkeypatch.setattr(optim, "_pool", None)
    tensors = {name: np.ones(2 * BLOCK) for name in "abc"}
    Adagrad(tensors, 0.1).step({name: np.ones(2 * BLOCK) for name in "abc"})
    assert optim._pool is None
    assert tensors["c"][-1] < 1.0


def test_a_failing_worker_part_raises_in_the_caller(monkeypatch):
    # The caller's part waits until a worker has taken the other, which
    # fails; the caller's part runs to its end before the failure surfaces.
    monkeypatch.setattr(optim, "cpu_count", lambda: 2)
    update = Adagrad._update
    taken, ran = threading.Event(), []

    def worker_fails(self, part, grads, rows):
        if threading.current_thread() is not threading.main_thread():
            taken.set()
            raise RuntimeError("worker part failed")
        assert taken.wait(10), "no worker took a part"
        update(self, part, grads, rows)
        ran.extend(name for name, *_ in part)

    monkeypatch.setattr(Adagrad, "_update", worker_fails)
    tensors = {"a": np.ones(BLOCK), "b": np.ones(BLOCK)}
    opt = Adagrad(tensors, 0.1)
    assert len(opt._parts) == 2
    with pytest.raises(RuntimeError, match="worker part failed"):
        opt.step({"a": np.ones(BLOCK), "b": np.ones(BLOCK)})
    assert len(ran) == 1
    assert all((t < 1.0).all() if name in ran else (t == 1.0).all() for name, t in tensors.items())


@pytest.fixture(scope="module")
def scorers(idx, sentences):
    """kind -> (model, its training examples) at the benchmark's sizes."""
    lm = lstm_lm.init_lm(idx, lstm_lm.LmConfig())
    out = {}
    for kind in ("full", "light", "combined"):
        model = ffnn.init_linearizer(idx, "light" if kind == "combined" else kind,
                                     ffnn.TrainConfig(),
                                     lm.config.hidden_size if kind == "combined" else None)
        examples = ffnn.make_training_examples(sentences, model, lm if kind == "combined" else None)
        out[kind] = model, examples
    return out


def copied(model, **config):
    """`model` with copies of its parameters, trained by `TrainConfig(**config)`."""
    params = {name: t.copy() for name, t in model.params.items()}
    return replace(model, params=params, config=ffnn.TrainConfig(**config))


def assert_same_pass(got, want):
    assert got[0] == want[0]
    assert list(got[1]) == list(want[1])
    for name, grad in want[1].items():
        assert got[1][name].tobytes() == grad.tobytes(), name


@pytest.mark.parametrize("kind", ["full", "light", "combined"])
@pytest.mark.parametrize("l2_lambda", [0.0, 1e-8])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("size", [1, 32])
def test_the_shared_batch_pass_matches_the_reference(kind, l2_lambda, dropout, size, scorers,
                                                      monkeypatch):
    model, examples = scorers[kind]
    at = np.random.default_rng(size).permutation(len(examples))[:size]
    want = reference_batch.batch_pass(model, examples, at, l2_lambda, dropout,
                                      np.random.default_rng(4))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(optim, "cpu_count", lambda: cpus)
        scratch = ffnn._scratch(model.params, 32)  # as `train` holds it
        for held in (None, scratch, scratch):
            got = ffnn._batch_pass(model, examples, at, l2_lambda, dropout,
                                   np.random.default_rng(4), scratch=held)
            assert_same_pass(got, want)


@pytest.mark.parametrize("kind", ["full", "light", "combined"])
def test_training_bytes_do_not_depend_on_the_cpu_count(kind, scorers, monkeypatch):
    model, examples = scorers[kind]
    trained = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(optim, "cpu_count", lambda: cpus)
        copy = copied(model, epochs=2, seed=8)
        log = ffnn.train(copy, examples[:200])
        trained.add((tuple(log), b"".join(t.tobytes() for t in copy.params.values())))
    assert len(trained) == 1


def test_one_cpu_trains_the_scorer_with_no_pool(scorers, monkeypatch):
    monkeypatch.setattr(optim, "cpu_count", lambda: 1)
    monkeypatch.setattr(optim, "_pool", None)
    model, examples = scorers["full"]
    ffnn.train(copied(model, epochs=1), examples[:64])
    assert optim._pool is None


@pytest.mark.parametrize("threads", [2, 4])
def test_blas_on_several_threads_runs_every_job_on_the_caller(threads, scorers, monkeypatch):
    # BLAS threads already use the CPUs: no pool starts, no job leaves the
    # calling thread, and the model bytes are those of one CPU.
    model, examples = scorers["full"]
    monkeypatch.setattr(optim, "cpu_count", lambda: 1)
    alone = copied(model, epochs=1, seed=8)
    ffnn.train(alone, examples[:200])
    monkeypatch.setattr(optim, "cpu_count", lambda: 2)
    monkeypatch.setattr(optim, "blas_threads", lambda: threads)
    monkeypatch.setattr(optim, "_pool", None)
    callers = set()
    take_jobs = optim._take_jobs

    def recorded(*args):
        callers.add(threading.current_thread())
        return take_jobs(*args)

    monkeypatch.setattr(optim, "_take_jobs", recorded)
    copy = copied(model, epochs=1, seed=8)
    ffnn.train(copy, examples[:200])
    assert optim._pool is None and callers == {threading.main_thread()}
    assert all(copy.params[n].tobytes() == t.tobytes() for n, t in alone.params.items())


def test_the_blas_thread_count_is_read_not_set(monkeypatch):
    count = BLAS_THREADS()
    assert type(count) is int and count >= 1
    assert BLAS_THREADS() == count
    monkeypatch.setattr(optim, "_openblas_thread_count", lambda: None)
    assert BLAS_THREADS() == 1  # another BLAS, or no such call


def test_a_failing_block_job_raises_in_the_caller_after_the_other_jobs(scorers, monkeypatch):
    # The caller's first job waits until a worker has taken one, which fails;
    # the caller then runs every job left before the failure surfaces.
    monkeypatch.setattr(optim, "cpu_count", lambda: 2)
    model, examples = scorers["full"]
    names = {id(t): name for name, t in model.params.items()}
    taken, ran, failed = threading.Event(), [], []
    w1_grad, emb_grad = ffnn._w1_grad, ffnn._emb_grad

    def failing_w1_grad(l2_lambda, dpre, x, w1, grad, row):
        if threading.current_thread() is threading.main_thread():
            assert taken.wait(10), "no worker took a job"
        elif not taken.is_set():
            taken.set()
            failed.append(names[id(w1)])
            raise RuntimeError("block job failed")
        w1_grad(l2_lambda, dpre, x, w1, grad, row)
        ran.append(names[id(w1)])
        return grad

    def recorded_emb_grad(l2_lambda, dpre, w1, emb, *args):
        grad = emb_grad(l2_lambda, dpre, w1, emb, *args)
        ran.append(names[id(emb)])
        return grad

    monkeypatch.setattr(ffnn, "_w1_grad", failing_w1_grad)
    monkeypatch.setattr(ffnn, "_emb_grad", recorded_emb_grad)
    with pytest.raises(RuntimeError, match="block job failed"):
        ffnn._batch_pass(model, examples, np.arange(32), 1e-8,
                         scratch=ffnn._scratch(model.params, 32))
    expected = {name for name in model.params if name.startswith(("w1_", "emb_"))}
    assert len(failed) == 1 and sorted(ran) == sorted(expected - set(failed))


def test_jobs_shared_by_more_parts_than_cpus_run_once_each(scorers, monkeypatch):
    # As many parts as jobs share each pass's job list, with a switch
    # interval of a microsecond: a job lost or run twice leaves a gradient
    # missing or with its L2 term added twice.
    monkeypatch.setattr(optim, "cpu_count", lambda: 8)
    model, examples = scorers["full"]
    scratch = ffnn._scratch(model.params, 32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            at = np.random.default_rng(seed).permutation(len(examples))[:32]
            want = reference_batch.batch_pass(model, examples, at, 1e-8)
            assert_same_pass(ffnn._batch_pass(model, examples, at, 1e-8, scratch=scratch), want)
    finally:
        sys.setswitchinterval(interval)


def same_bits(got, want):
    """Equal dtype, shape and bits (floats as int64, so -0.0 and NaNs count)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == np.float64:
        got, want = got.view(np.int64), want.view(np.int64)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seqs=st.lists(
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=12).map(
            lambda seq: seq if len(seq) % 2 else tuple(seq)
        ),
        max_size=6,
    )
)
def test_pad_rows_equals_the_list_fill(seqs):
    for got, want in zip(optim.pad_rows(seqs), reference_optim.pad_rows(seqs), strict=True):
        same_bits(got, want)


LOGITS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, max_side=16),
    elements=st.one_of(
        st.floats(-1e3, 1e3), st.just(-np.inf), st.floats(-1e300, 1e300), st.just(-0.0)
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(x=LOGITS)
def test_log_sum_exp_equals_the_wrapper_form(x):
    with np.errstate(invalid="ignore", over="ignore"):
        same_bits(optim.log_sum_exp(x), reference_optim.log_sum_exp(x))


# What may run off the calling thread: the scorer's job bodies, Adagrad's
# part and the row sums they call; every other function of synlin is one a
# tracer with a single span stack may wrap.
OFF_MAIN = {
    ("ffnn.py", name)
    for name in ("_block_product", "_square_sum", "_w1_grad", "_emb_grad", "_add_l2")
} | {("optim.py", name) for name in ("_take_jobs", "row_sums", "_update")}


def test_only_job_bodies_run_off_the_calling_thread(scorers, monkeypatch):
    monkeypatch.setattr(optim, "cpu_count", lambda: 2)
    monkeypatch.setattr(optim, "_pool", None)  # new threads start with the hook
    package = Path(ffnn.__file__).parent
    seen = set()

    def hook(frame, event, arg):
        path = Path(frame.f_code.co_filename)
        if event == "call" and path.parent == package:
            seen.add((path.name, frame.f_code.co_name))

    model, examples = scorers["full"]
    copy = copied(model, epochs=1)
    threading.setprofile(hook)
    try:
        ffnn.train(copy, examples[:320])
    finally:
        threading.setprofile(None)
        optim._pool[2].shutdown()
    assert ("optim.py", "_update") in seen
    assert seen <= OFF_MAIN, seen - OFF_MAIN


def run_python(code, timeout=60):
    """`code` in a fresh interpreter with synlin on its path; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_synlin_starts_no_thread():
    out = run_python(
        """
        import importlib, pkgutil, threading
        before = threading.active_count()
        import synlin
        for module in pkgutil.iter_modules(synlin.__path__):
            importlib.import_module(f"synlin.{module.name}")
        print(before, threading.active_count())
        """
    )
    before, after = out.split()
    assert before == after


# Defines `train()`: train a small scorer with the update split in two and
# return the digest of its parameters.
TRAIN_SPLIT = textwrap.dedent(
    """
    import hashlib, os, signal
    from synlin import ffnn, optim
    from synlin.corpus import build_indexers
    from synlin.synth import toy_corpus

    optim.cpu_count = lambda: 2
    optim.blas_threads = lambda: 1

    def train():
        sentences = toy_corpus(8, seed=5)
        config = ffnn.TrainConfig(embed_dim=8, hidden_dim=12, epochs=2, seed=3)
        model = ffnn.init_linearizer(build_indexers(sentences), "full", config)
        ffnn.train(model, ffnn.make_training_examples(sentences, model))
        return hashlib.sha256(b"".join(t.tobytes() for t in model.params.values())).hexdigest()
    """
)


def test_a_forked_child_can_train():
    # The parent's step starts the pool; the child inherits the pool object
    # but not its threads, and must train to the same bytes on its own.
    out = run_python(
        TRAIN_SPLIT
        + textwrap.dedent(
            """
            parent = train()
            assert optim._pool is not None
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                signal.alarm(50)  # a child that hangs ends before the test's timeout
                os.write(write, train().encode())
                os._exit(0)
            os.close(write)
            child = os.read(read, 64).decode()
            _, status = os.waitpid(pid, 0)
            print(status, parent == child)
            """
        )
    )
    assert out.split() == ["0", "True"]


def test_interpreter_exit_after_training_is_not_delayed():
    out = run_python(TRAIN_SPLIT + "train()\nimport time\nprint(time.time())\n")
    exited = time.time()
    assert exited - float(out) < 10.0
