import numpy as np
import pytest

from conftest import small_lm
from synlin import lstm_lm
from synlin.corpus import build_indexers, parse_conll
from synlin.errors import DataError
from synlin.lstm_lm import (
    LmConfig,
    _cell,
    init_lm,
    initial_lm_state,
    lm_grad_check,
    lm_step,
    next_word_logprobs,
    sentence_ids,
    start_state,
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
    return b"".join(t.tobytes() for t in model.params.named_tensors().values())


def probs(model, state, ids):
    """Next-word probabilities over `ids`, in order (duplicates count separately)."""
    return np.exp(next_word_logprobs(model, state, ids))


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
        for t in model.params.named_tensors().values():
            t[...] = 0.0
        [state] = lm_step(model, [initial_lm_state(model)], [model.start_id])
        assert np.all(state.top_h == 0.0)
        assert state.consumed == 1

    def test_determinism_and_purity(self, idx):
        model = small_lm(idx, seed=4)
        st0 = initial_lm_state(model)
        snapshot = [(h.copy(), c.copy()) for h, c in st0.layers]
        [s1] = lm_step(model, [st0], [3])
        [s2] = lm_step(model, [st0], [3])
        assert np.array_equal(s1.top_h, s2.top_h)
        for (h, c), (hs, cs) in zip(st0.layers, snapshot):
            assert np.array_equal(h, hs) and np.array_equal(c, cs)

    def test_prefix_counter(self, idx):
        model = small_lm(idx, seed=4)
        st = start_state(model)
        assert st.consumed == 1
        [st] = lm_step(model, [st], [2])
        assert st.consumed == 2


    @pytest.mark.parametrize("gate_bias", [False, True])
    def test_batched_step_equals_single_steps(self, idx, gate_bias):
        model = small_lm(idx, seed=6, hidden_size=32, gate_bias=gate_bias)
        rng = np.random.default_rng(7)
        states = [start_state(model)]  # ten different prefixes
        for _ in range(9):
            states += lm_step(model, states[-1:], [int(rng.integers(model.vocab_size))])
        ids = [int(i) for i in rng.integers(0, model.vocab_size, len(states))]
        for state, wid, got in zip(states, ids, lm_step(model, states, ids)):
            [want] = lm_step(model, [state], [wid])
            assert got.consumed == want.consumed
            for (h, c), (h1, c1) in zip(got.layers, want.layers):
                assert np.max(np.abs(h - h1)) <= 1e-12 and np.max(np.abs(c - c1)) <= 1e-12


class TestDistribution:
    def test_singleton_probability_one(self, idx):
        model = small_lm(idx, seed=5)
        assert probs(model, start_state(model), [3]).tolist() == [1.0]

    def test_zero_weights_uniform(self, idx):
        model = small_lm(idx, scale=None)
        for t in model.params.named_tensors().values():
            t[...] = 0.0
        dist = probs(model, start_state(model), [2, 3, 4])
        assert all(abs(p - 1 / 3) < 1e-12 for p in dist)

    def test_sums_to_one(self, idx):
        model = small_lm(idx, seed=6)
        st = start_state(model)
        full = probs(model, st, range(model.vocab_size))
        assert abs(sum(full) - 1.0) < 1e-9
        some = probs(model, st, [2, 5, 7, 7])
        assert abs(sum(some) - 1.0) < 1e-9

    def test_restriction_identity(self, idx):
        model = small_lm(idx, seed=7)
        st = start_state(model)
        full = probs(model, st, range(model.vocab_size))
        allowed = [2, 4, 9]
        restricted = probs(model, st, allowed)
        mass = sum(full[i] for i in allowed)
        for p, i in zip(restricted, allowed):
            assert abs(p - full[i] / mass) < 1e-9

    def test_empty_allowed(self, idx):
        model = small_lm(idx, seed=7)
        with pytest.raises(DataError):
            next_word_logprobs(model, start_state(model), [])


class TestTraining:
    def test_zero_epochs_keeps_init(self, idx, corpus):
        model = small_lm(idx, scale=None, epochs=0)
        before = lm_bytes(model)
        log = train_lm(model, corpus)
        assert log == [] and lm_bytes(model) == before

    def test_one_sentence_overfit(self):
        sent = parse_conll(
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
        for t in model.params.named_tensors().values():
            t[...] = rng.uniform(-0.5, 0.5, size=t.shape)
        err = lm_grad_check(
            model, corpus[:1], samples_per_tensor=40, rng=np.random.default_rng(3)
        )
        assert err < 1e-4
