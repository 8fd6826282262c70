import numpy as np
import pytest

import reference_decode
from conftest import parse_valid, small_lm
from reference_grads import lm_grad_check
from synlin import lstm_lm
from synlin.corpus import build_indexers
from synlin.errors import DataError
from synlin.optim import pad_rows
from synlin.lstm_lm import (
    LmConfig,
    _cell,
    _sigmoid,
    init_lm,
    initial_lm_state,
    input_rows,
    lm_step,
    next_word_logprobs,
    sentence_ids,
    start_state,
    step_weights,
    train_lm,
)
from synlin.synth import toy_corpus


@pytest.fixture(scope="module")
def corpus():
    return toy_corpus(8, seed=17)


@pytest.fixture(scope="module")
def idx(corpus):
    return build_indexers(corpus)


def lm_bytes(model):
    return b"".join(t.tobytes() for t in model.params.values())


def probs(model, state, ids):
    """Next-word probabilities over `ids`, in order (duplicates count separately)."""
    return np.exp(logprobs(model, state, [list(ids)])[0])


def logprobs(model, states, ids):
    """next_word_logprobs of the rows of `states` over the id sequences `ids`."""
    return next_word_logprobs(model, states[-1][0], *pad_rows(ids))


def step(model, states, ids):
    """`lm_step` of the words `ids` from `states`, through the model's step weights."""
    weights = step_weights(model)
    return lm_step(weights, states, input_rows(weights, ids))


def start(model):
    return start_state(model, step_weights(model))


def starts(model, k):
    """k copies of the start state."""
    return tuple((np.repeat(h, k, axis=0), np.repeat(c, k, axis=0)) for h, c in start(model))


def rows(states, k):
    """Row k of a batch of LM states, as a one-row batch."""
    return tuple((h[[k]], c[[k]]) for h, c in states)


class TestCell:
    def test_zero_everything(self):
        n = 5
        h, c, _ = _cell(np.zeros((4 * n, 2 * n)), np.zeros(n), np.zeros(n), np.zeros(n), None)
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_zero_weights_carry_half(self):
        # gates are sigmoid(0)=0.5 and the candidate tanh(0)=0, so
        # c = 0.5*c_prev and h = 0.5*tanh(0.5*c_prev)
        n = 4
        v = np.array([1.0, -2.0, 0.5, 3.0])
        h, c, _ = _cell(np.zeros((4 * n, 2 * n)), np.zeros(n), np.zeros(n), v, None)
        assert np.allclose(c, 0.5 * v, atol=1e-15)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * v), atol=1e-15)

    def test_saturated_memory_carry(self):
        # bias drives the input gate to 0 and the forget gate to 1: the cell
        # memory passes through exactly
        n = 3
        bias = np.concatenate([np.full(n, -50.0), np.full(n, 50.0), np.zeros(2 * n)])
        v = np.array([0.3, -1.2, 7.5])
        _, c, _ = _cell(np.zeros((4 * n, 2 * n)), np.zeros(n), np.zeros(n), v, bias)
        assert np.array_equal(c, v)


class TestStep:
    def test_zero_weights_zero_output(self, idx):
        model = small_lm(idx, scale=None)
        for t in model.params.values():
            t[...] = 0.0
        state = step(model, initial_lm_state(model), [model.start_id])
        assert np.all(state[-1][0] == 0.0)
        assert state[-1][0].shape == (1, model.config.hidden_size)

    def test_determinism_and_purity(self, idx):
        model = small_lm(idx, seed=4)
        st0 = initial_lm_state(model)
        snapshot = [(h.copy(), c.copy()) for h, c in st0]
        s1 = step(model, st0, [3])
        s2 = step(model, st0, [3])
        assert np.array_equal(s1[-1][0], s2[-1][0])
        for (h, c), (hs, cs) in zip(st0, snapshot):
            assert np.array_equal(h, hs) and np.array_equal(c, cs)

    def test_start_state_consumes_the_start_symbol(self, idx):
        model = small_lm(idx, seed=4)
        st = start(model)
        again = step(model, initial_lm_state(model), [model.start_id])
        for (h, c), (h1, c1) in zip(st, again):
            assert np.array_equal(h, h1) and np.array_equal(c, c1)
        assert any(np.any(h != 0.0) for h, _ in st)

    @pytest.mark.parametrize("batch", [1, 3, 10])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("gate_bias", [False, True])
    def test_step_matches_the_reference_step(self, idx, gate_bias, num_layers, batch):
        # layer 0 split into an input row and a recurrent product, and the
        # weights held transposed, change only the order of the sums
        model = small_lm(idx, seed=8, hidden_size=16, num_layers=num_layers, gate_bias=gate_bias)
        rng = np.random.default_rng(9)
        n = model.config.hidden_size
        states = tuple(
            (rng.uniform(-1.0, 1.0, (batch, n)), rng.uniform(-2.0, 2.0, (batch, n)))
            for _ in range(num_layers)
        )
        ids = rng.integers(0, len(model.params["emb"]), batch)
        pairs = [
            (step(model, states, ids), reference_decode.lm_step(model, states, ids)),
            (start(model), reference_decode.lm_prefix_state(model, [])),
        ]
        for got, want in pairs:
            assert len(got) == len(want) == num_layers
            for (h, c), (h1, c1) in zip(got, want):
                assert h.shape == h1.shape and c.shape == c1.shape
                assert np.max(np.abs(h - h1)) <= 1e-12 and np.max(np.abs(c - c1)) <= 1e-12

    @pytest.mark.parametrize("gate_bias", [False, True])
    def test_batched_step_equals_single_steps(self, idx, gate_bias):
        model = small_lm(idx, seed=6, hidden_size=32, gate_bias=gate_bias)
        rng = np.random.default_rng(7)
        states = [start(model)]  # ten different prefixes
        for _ in range(9):
            states.append(step(model, states[-1], [int(rng.integers(len(model.params["emb"])))]))
        batch = tuple(tuple(np.concatenate(x) for x in zip(*layer)) for layer in zip(*states))
        ids = [int(i) for i in rng.integers(0, len(model.params["emb"]), len(states))]
        stepped = step(model, batch, ids)
        for k, (state, wid) in enumerate(zip(states, ids)):
            got, want = rows(stepped, k), step(model, state, [wid])
            for (h, c), (h1, c1) in zip(got, want):
                assert np.max(np.abs(h - h1)) <= 1e-12 and np.max(np.abs(c - c1)) <= 1e-12


class TestDistribution:
    def test_equal_states_score_equal_words_equally(self, idx):
        # bit for bit, whatever the row and the order of the allowed set: an
        # exact tie between two derivations stays a tie
        model = small_lm(idx, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(40):
            ids = [int(i) for i in rng.integers(2, len(model.params["emb"]), rng.integers(2, 9))]
            allowed = [ids, [int(i) for i in rng.permutation(ids)]]
            top = np.repeat(rng.uniform(-1.0, 1.0, (1, model.config.hidden_size)), 2, axis=0)
            batch = logprobs(model, ((top, top),), allowed)
            first = dict(zip(allowed[0], batch[0].tolist()))
            assert [first[i] for i in allowed[1]] == batch[1].tolist()

    def test_singleton_probability_one(self, idx):
        model = small_lm(idx, seed=5)
        assert probs(model, start(model), [3]).tolist() == [1.0]

    def test_zero_weights_uniform(self, idx):
        model = small_lm(idx, scale=None)
        for t in model.params.values():
            t[...] = 0.0
        dist = probs(model, start(model), [2, 3, 4])
        assert all(abs(p - 1 / 3) < 1e-12 for p in dist)

    def test_sums_to_one(self, idx):
        model = small_lm(idx, seed=6)
        st = start(model)
        full = probs(model, st, range(len(model.params["emb"])))
        assert abs(sum(full) - 1.0) < 1e-9
        some = probs(model, st, [2, 5, 7, 7])
        assert abs(sum(some) - 1.0) < 1e-9

    def test_restriction_identity(self, idx):
        model = small_lm(idx, seed=7)
        st = start(model)
        full = probs(model, st, range(len(model.params["emb"])))
        allowed = [2, 4, 9]
        restricted = probs(model, st, allowed)
        mass = sum(full[i] for i in allowed)
        for p, i in zip(restricted, allowed):
            assert abs(p - full[i] / mass) < 1e-9

    def test_empty_allowed(self, idx):
        model = small_lm(idx, seed=7)
        with pytest.raises(DataError):
            logprobs(model, start(model), [[]])

    def test_empty_allowed_set_in_a_batch(self, idx):
        model = small_lm(idx, seed=7)
        with pytest.raises(DataError, match="empty allowed set"):
            logprobs(model, starts(model, 2), [[2, 3], []])

    def test_states_and_allowed_sets_must_pair_up(self, idx):
        model = small_lm(idx, seed=7)
        with pytest.raises(DataError, match="2 LM states for 3 allowed sets"):
            next_word_logprobs(model, starts(model, 2)[-1][0], *pad_rows([[2], [3], [4]]))

    def test_batch_rows_equal_single_rows(self, idx):
        # one product for the whole batch: each row, up to its -inf padding,
        # is the row the state gets alone (duplicate and shared ids included)
        model = small_lm(idx, seed=7)
        states = step(model, starts(model, 3), [2, 5, 9])
        allowed = [[4, 2, 2], [7], [9, 3, 4, 11]]
        batch = logprobs(model, states, allowed)
        assert batch.shape == (3, 4)
        for k, (row, ids) in enumerate(zip(batch, allowed)):
            [alone] = logprobs(model, rows(states, k), [ids])
            assert np.max(np.abs(row[: len(ids)] - alone)) <= 1e-12
            assert np.all(row[len(ids) :] == -np.inf)


def test_sigmoid_is_bitwise_the_two_branch_formula():
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 709.8, -745.2, np.inf, -np.inf]
    for x in (rng.standard_normal(10**6), 40.0 * rng.standard_normal(10**5), np.array(edges)):
        assert np.array_equal(_sigmoid(x).view(np.int64), two_branch(x).view(np.int64))
    batch = rng.standard_normal((10, 512))[:, :384]  # a strided gate slice, as in `_cell`
    assert np.array_equal(_sigmoid(batch).view(np.int64), two_branch(batch).view(np.int64))


class TestTraining:
    def test_zero_epochs_keeps_init(self, idx, corpus):
        model = small_lm(idx, scale=None, epochs=0)
        before = lm_bytes(model)
        log = train_lm(model, corpus)
        assert log == [] and lm_bytes(model) == before

    def test_one_sentence_overfit(self):
        sent = parse_valid(
            "1\tthe\t_\t_\tDT\t_\t2\tdet\n2\tdog\t_\t_\tNN\t_\t3\tnsubj\n"
            "3\tran\t_\t_\tVBD\t_\t0\troot\n"
        )
        idx = build_indexers(sent)
        cfg = LmConfig(hidden_size=16, num_layers=2, dropout=0.0, learning_rate=0.5,
                       epochs=150, seed=3)
        model = init_lm(idx, cfg)
        log = train_lm(model, sent, cfg)
        assert log[-1] < 1.05

    def test_perplexity_nonincreasing_first_epochs(self, idx, corpus):
        cfg = LmConfig(hidden_size=12, num_layers=2, dropout=0.0, learning_rate=0.3,
                       epochs=3, seed=9)
        model = init_lm(idx, cfg)
        log = train_lm(model, corpus, cfg)
        assert log[0] >= log[1] >= log[2]

    def test_determinism(self, idx, corpus):
        runs = []
        for _ in range(2):
            cfg = LmConfig(hidden_size=10, dropout=0.4, learning_rate=0.2, epochs=2, seed=13)
            model = init_lm(idx, cfg)
            train_lm(model, corpus, cfg)
            runs.append(lm_bytes(model))
        assert runs[0] == runs[1]

    def test_no_sentences(self, idx):
        model = small_lm(idx)
        with pytest.raises(DataError):
            train_lm(model, [])

    def test_sentence_ids_bracketing(self, idx, corpus):
        model = small_lm(idx)
        inputs, targets = sentence_ids(model, corpus[0].forms())
        assert inputs[0] == model.start_id
        assert targets[-1] == model.eos_id
        assert inputs[1:] == targets[:-1]


class TestGradients:
    def test_bptt_matches_finite_differences(self, idx, corpus):
        model = small_lm(idx, seed=21, hidden_size=8)
        err = lm_grad_check(
            model, corpus[:2], samples_per_tensor=50, rng=np.random.default_rng(2)
        )
        assert err < 1e-4

    def test_with_gate_bias(self, idx, corpus):
        cfg = LmConfig(hidden_size=6, num_layers=2, dropout=0.0, seed=22, gate_bias=True)
        model = init_lm(idx, cfg)
        rng = np.random.default_rng(23)
        for t in model.params.values():
            t[...] = rng.uniform(-0.5, 0.5, size=t.shape)
        err = lm_grad_check(
            model, corpus[:1], samples_per_tensor=40, rng=np.random.default_rng(3)
        )
        assert err < 1e-4
