import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import extract, randomize_params, score, small_linearizer, small_lm
from reference_grads import grad_check, loss
from reference_rows import ActionInventory, inventory
from synlin import ffnn, lstm_lm
from synlin.corpus import NULL_WORD, UNK_WORD, DepSentence, Token, bag_from_forms, build_indexers
from synlin.corpus import to_bag
from synlin.errors import ConfigError, DataError
from synlin.ffnn import (
    TrainConfig,
    code_rows,
    make_training_examples,
    output_actions,
    train,
)
from synlin.optim import Adagrad, pad_rows
from synlin.synth import toy_corpus
from synlin.transition import Action, initial_state, legal_actions


@pytest.fixture(scope="module")
def corpus():
    return toy_corpus(12, seed=7)


@pytest.fixture(scope="module")
def idx(corpus):
    return build_indexers(corpus)


def params_bytes(model):
    return b"".join(t.tobytes() for t in model.params.values())


class TestInventory:
    """`output_actions` against the reference row map."""

    def test_rows_cover_all_actions(self, idx):
        actions = output_actions(idx, "full")
        assert len(actions) == (idx.n_words - 1) + idx.n_pos - 1 + 2 * (idx.n_labels - 1) + 1
        assert len(set(actions)) == len(actions)
        assert actions == ActionInventory.from_indexers(idx, "full").actions

    def test_light_inventory(self, idx):
        actions = output_actions(idx, "light")
        kinds = {a.kind for a in actions}
        assert kinds == {"Shift", "LArc", "RArc", "End"}
        assert Action("LArc") in actions and Action("LArc", "det") not in actions
        assert actions == ActionInventory.from_indexers(idx, "light").actions

    def test_oov_shift_maps_to_unk_row(self, idx):
        model, actions = small_linearizer(idx, "full"), output_actions(idx, "full")
        bag = bag_from_forms([idx.words[2], "zzz-not-a-word"])
        space = initial_state(bag, "full", idx.content_pos_tags, idx.content_labels).space
        rows = code_rows(model, space)
        assert space.forms[1] == "zzz-not-a-word"
        assert actions[rows[0]] == Action("Shift", idx.words[2])
        assert actions[rows[1]] == Action("Shift", UNK_WORD)

    def test_unknown_nonshift_rejected(self, idx):
        assert Action("Pos", "ZZZ") not in output_actions(idx, "full")
        with pytest.raises(DataError):
            ActionInventory.from_indexers(idx, "full").row(Action("Pos", "ZZZ"))


def feasible_rows(model, feasibles):
    """`ffnn.forward`'s rows and mask for sequences of feasible actions."""
    return pad_rows([[inventory(model).row(a) for a in feasible] for feasible in feasibles])


def actions_at(state):
    """The legal actions of `state`, in legal order."""
    return tuple(state.space.actions[c] for c in legal_actions(state))


def logprobs(model, fv, feasible):
    """`ffnn.forward` on a one-item batch, as a map action -> log-probability."""
    return dict(zip(feasible, score(model, fv, *feasible_rows(model, [feasible]))[0]))


class TestForward:
    def feasible_state(self, model, corpus, k=0, steps=0):
        state = initial_state(
            to_bag(corpus[k]),
            model.variant,
            model.indexers.content_pos_tags,
            model.indexers.content_labels,
        )
        return state

    def test_zero_params_uniform(self, idx, corpus):
        model = small_linearizer(idx, "full", scale=None)
        for t in model.params.values():
            t[...] = 0.0
        state = self.feasible_state(model, corpus)
        feasible = actions_at(state)
        out = logprobs(model, extract(model, [state]), feasible)
        expected = -np.log(len(feasible))
        assert all(abs(v - expected) < 1e-12 for v in out.values())

    def test_normalization(self, idx, corpus):
        model = small_linearizer(idx, "full", seed=3)
        state = self.feasible_state(model, corpus)
        out = logprobs(model, extract(model, [state]), actions_at(state))
        assert abs(sum(np.exp(v) for v in out.values()) - 1.0) < 1e-9

    def test_subset_renormalization_identity(self, idx, corpus):
        model = small_linearizer(idx, "full", seed=4)
        state = self.feasible_state(model, corpus)
        fv = extract(model, [state])
        full_set = output_actions(model.indexers, model.variant)
        full_lp = logprobs(model, fv, full_set)
        subset = tuple(actions_at(state))
        sub_lp = logprobs(model, fv, subset)
        log_mass = np.log(sum(np.exp(full_lp[a]) for a in subset))
        for a in subset:
            assert abs(sub_lp[a] - (full_lp[a] - log_mass)) < 1e-9

    def test_argmax_invariant_under_constant_logit_shift(self, idx, corpus):
        model = small_linearizer(idx, "full", seed=5)
        state = self.feasible_state(model, corpus)
        fv = extract(model, [state])
        feasible = actions_at(state)
        before = logprobs(model, fv, feasible)
        # adding one vector to every output row shifts all logits by v @ h
        model.params["w2"] += np.random.default_rng(0).uniform(-1, 1, model.params["w2"].shape[1])
        after = logprobs(model, fv, feasible)
        best_before = max(before, key=lambda a: (before[a], a.sort_key()))
        best_after = max(after, key=lambda a: (after[a], a.sort_key()))
        assert best_before == best_after
        a0 = feasible[0]
        for a in feasible:
            assert abs((before[a] - before[a0]) - (after[a] - after[a0])) < 1e-9

    def test_inference_deterministic(self, idx, corpus):
        model = small_linearizer(idx, "full", seed=6)
        state = self.feasible_state(model, corpus)
        fv = extract(model, [state])
        feasible = actions_at(state)
        r1 = logprobs(model, fv, feasible)
        r2 = logprobs(model, fv, feasible)
        assert r1 == r2

    def test_empty_feasible(self, idx, corpus):
        model = small_linearizer(idx, "full")
        state = self.feasible_state(model, corpus)
        with pytest.raises(DataError):
            score(model, extract(model, [state]), *feasible_rows(model, [()]))

    def test_lm_feat_mismatch(self, idx, corpus):
        model = small_linearizer(idx, "full")
        state = self.feasible_state(model, corpus)
        with pytest.raises(ConfigError):
            score(
                model,
                extract(model, [state]),
                *feasible_rows(model, [actions_at(state)]),
                np.zeros((1, 4)),
            )


class TestSharedHiddenLayer:
    @pytest.mark.parametrize("variant,lm_feat_dim", [("full", None), ("light", None), ("light", 8)])
    def test_decoding_and_training_agree(self, idx, corpus, variant, lm_feat_dim):
        # forward (decoding, from slot tables) and _batch_pass (training, one
        # product per block) share the output layer: a one-example training
        # objective is minus the decoder's log-probability of the gold action,
        # and a batch scores each item as it scores alone, padded with -inf
        model = small_linearizer(
            idx, variant, seed=21, lm_feat_dim=lm_feat_dim, embed_dim=16, hidden_dim=64
        )
        lm = small_lm(idx, seed=22, hidden_size=8) if lm_feat_dim else None
        ex = make_training_examples(corpus[:4], model, lm=lm)
        feats = ex.lm_feats
        batched = score(model, ex.ids, ex.rows, ex.valid, feats)
        for i in range(len(ex)):
            ce, _ = ffnn._batch_pass(model, ex, np.array([i]), 0.0)
            assert abs(ce + batched[i][ex.gold_col[i]]) <= 1e-12
            row = None if feats is None else feats[i : i + 1]
            m = int(ex.valid[i].sum())
            [alone] = score(model, ex[i : i + 1].ids, ex.rows[i : i + 1, :m], ex.valid[i : i + 1, :m], row)
            assert np.max(np.abs(batched[i, :m] - alone)) <= 1e-12
            assert np.all(batched[i, m:] == -np.inf)

    def test_items_and_feasible_sets_must_pair_up(self, idx, corpus):
        model = small_linearizer(idx, "full")
        state = initial_state(to_bag(corpus[0]), "full", idx.content_pos_tags, idx.content_labels)
        with pytest.raises(DataError):
            score(model, extract(model, [state] * 2), *feasible_rows(model, [actions_at(state)]))


class TestLoss:
    def test_zero_params_log_k(self, idx, corpus):
        model = small_linearizer(idx, "full", scale=None)
        for t in model.params.values():
            t[...] = 0.0
        ex = make_training_examples(corpus[:1], model)[:1]
        assert abs(loss(model, ex, l2_lambda=0.0) - np.log(ex.valid.sum())) < 1e-12

    def test_additivity(self, idx, corpus):
        model = small_linearizer(idx, "full", seed=8)
        exs = make_training_examples(corpus[:1], model)[:4]
        total = loss(model, exs, l2_lambda=0.0)
        parts = sum(loss(model, exs[i : i + 1], l2_lambda=0.0) for i in range(len(exs)))
        assert abs(total - parts) < 1e-9

    def test_perfect_prediction_limit(self, idx, corpus):
        model = small_linearizer(idx, "full", scale=None)
        for t in model.params.values():
            t[...] = 0.0
        ex = make_training_examples(corpus[:1], model)[:1]
        legal = ex.rows[0][ex.valid[0]]
        gold_row = legal[ex.gold_col[0]]
        # push the gold action's logit far above every other feasible one
        model.params["b1"][...] = 100.0  # h = tanh(100) ~ 1
        model.params["w2"][gold_row] = 1.0
        model.params["w2"][legal[legal != gold_row]] = -1.0
        assert loss(model, ex, l2_lambda=0.0) < 1e-9


class TestGradients:
    def test_full_variant(self, idx, corpus):
        model = small_linearizer(idx, "full", seed=11, l2_lambda=1e-4)
        exs = make_training_examples(corpus[:2], model)
        err = grad_check(model, exs[:6], samples_per_tensor=60, rng=np.random.default_rng(1))
        assert err < 1e-4

    def test_light_with_lm_block(self, idx, corpus):
        lm = small_lm(idx, seed=2, hidden_size=6)
        model = small_linearizer(idx, "light", seed=12, lm_feat_dim=6)
        exs = make_training_examples(corpus[:2], model, lm=lm)
        err = grad_check(model, exs[:6], samples_per_tensor=60, rng=np.random.default_rng(2))
        assert err < 1e-4

    def test_truncation_error_grows_with_epsilon(self, idx, corpus):
        model = small_linearizer(idx, "full", seed=13)
        exs = make_training_examples(corpus[:1], model)[:4]
        fine = grad_check(model, exs, epsilon=1e-5, samples_per_tensor=20,
                          rng=np.random.default_rng(3))
        coarse = grad_check(model, exs, epsilon=1e-1, samples_per_tensor=20,
                            rng=np.random.default_rng(3))
        assert coarse > fine

    def test_unused_embedding_rows_have_zero_gradient(self, idx, corpus):
        model = small_linearizer(idx, "full", seed=14)
        exs = make_training_examples(corpus[:1], model)[:3]
        _, grads = ffnn._batch_pass(model, exs, np.arange(len(exs)), l2_lambda=0.0)
        used = set(exs.ids["word"].ravel().tolist())
        unused = [i for i in range(model.indexers.n_words) if i not in used]
        assert unused, "test needs at least one unused word"
        assert np.all(grads["emb_word"][unused] == 0.0)


def largest_allocation(fn) -> int:
    """The most that one bytecode instruction run by `fn()`, or by the Python
    functions it calls, raised tracemalloc's peak above the memory traced
    when the instruction began: at least the size of any block allocated
    within one instruction, less what the instruction freed before it."""
    worst, start = 0, 0

    def trace(frame, event, arg):
        nonlocal worst, start
        frame.f_trace_opcodes = True
        worst = max(worst, tracemalloc.get_traced_memory()[1] - start)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        return trace

    tracemalloc.start()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return worst


class TestTraining:
    def test_a_warm_batch_allocates_no_w1_sized_array(self, idx, corpus):
        # Adagrad steps through its own scratch and `train` hands `_batch_pass`
        # arrays for the w1 gradients and L2 terms, so once warm neither
        # allocates an array as large as a w1 tensor.  At these sizes each w1
        # tensor outweighs everything else a two-example batch allocates.
        model = small_linearizer(idx, "full", embed_dim=50, hidden_dim=200, dropout=0.3)
        examples = make_training_examples(corpus[:1], model)
        opt, scratch = Adagrad(model.params, 0.01), ffnn._scratch(model.params, 2)
        rng, at = np.random.default_rng(0), np.arange(2)
        w1 = min(t.nbytes for name, t in model.params.items() if name.startswith("w1_"))

        def batch():
            return ffnn._batch_pass(model, examples, at, 1e-8, 0.3, rng, scratch=scratch)[1]

        opt.step(batch())  # warm-up
        tracemalloc.start()
        try:
            grads = batch()
            peaks = [tracemalloc.get_traced_memory()[1]]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            opt.step(grads)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert max(peaks) < w1, (peaks, w1)

    def test_a_warm_batch_at_benchmark_sizes_allocates_no_block_of_128_kib(self):
        # glibc serves a block of 128 KiB or more (its default mmap threshold)
        # from fresh pages, or not, depending on what the process freed
        # before, so such batch temporaries make training's page faults
        # depend on the heap's layout.  At the benchmark's sizes the embedding
        # gathers, their gradients and the row-sum index are about 192 KB.
        sentences = toy_corpus(200, seed=21)
        model = ffnn.init_linearizer(build_indexers(sentences), "full", TrainConfig())
        examples = make_training_examples(sentences[:20], model)
        config = model.config
        scratch, rng = ffnn._scratch(model.params, config.batch_size), np.random.default_rng(0)
        at = np.arange(config.batch_size)

        def batch():
            ffnn._batch_pass(model, examples, at, config.l2_lambda, config.dropout, rng,
                             scratch=scratch)

        batch()  # warm-up
        assert largest_allocation(batch) < 128 * 1024

    def test_zero_learning_rate_freezes_params(self, idx, corpus):
        model = small_linearizer(idx, "full", seed=15, learning_rate=0.0, epochs=2,
                                 dropout=0.2)
        exs = make_training_examples(corpus[:3], model)
        before = params_bytes(model)
        train(model, exs)
        assert params_bytes(model) == before

    def test_loss_decreases_by_epoch_five(self, idx, corpus):
        model = small_linearizer(
            idx, "full", seed=16, scale=None, epochs=5, learning_rate=0.05, dropout=0.0
        )
        exs = make_training_examples(corpus, model)
        log = train(model, exs)
        assert log[4] < log[0]

    def test_heavy_l2_shrinks_norms_monotonically(self, idx, corpus):
        model = small_linearizer(
            idx,
            "full",
            seed=17,
            l2_lambda=1e3,
            learning_rate=0.001,
            epochs=1,
            dropout=0.0,
        )
        exs = make_training_examples(corpus[:3], model)
        norms = []
        for _ in range(5):
            train(model, exs)
            norms.append(
                sum(float(np.sum(t * t)) for t in model.params.values())
            )
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_determinism(self, idx, corpus):
        runs = []
        for _ in range(2):
            model = small_linearizer(idx, "full", seed=18, scale=None, epochs=3, dropout=0.3)
            exs = make_training_examples(corpus[:5], model)
            train(model, exs)
            runs.append(params_bytes(model))
        assert runs[0] == runs[1]

    def test_frozen_lm_untouched(self, idx, corpus):
        lm = small_lm(idx, seed=19, hidden_size=6)
        lm_before = b"".join(t.tobytes() for t in lm.params.values())
        model = small_linearizer(idx, "full", seed=20, scale=None, lm_feat_dim=6, epochs=3)
        exs = make_training_examples(corpus[:5], model, lm=lm)
        train(model, exs)
        lm_after = b"".join(t.tobytes() for t in lm.params.values())
        assert lm_before == lm_after

    def test_empty_examples_rejected(self, idx):
        model = small_linearizer(idx, "full")
        examples = make_training_examples([], model)
        assert len(examples) == 0
        with pytest.raises(DataError, match="^no training examples$"):
            train(model, examples)

    def test_oracle_feasibility_enforced(self, idx, corpus):
        model = small_linearizer(idx, "full")
        examples = make_training_examples(corpus, model)
        assert examples.valid[np.arange(len(examples)), examples.gold_col].all()


class TestTrainingExamples:
    @pytest.mark.parametrize("variant", ["full", "light"])
    @pytest.mark.parametrize("min_count", [1, 2])
    def test_code_rows_are_inventory_rows(self, corpus, variant, min_count):
        indexers = build_indexers(corpus, min_count=min_count)
        model = small_linearizer(indexers, variant)
        inv = inventory(model)
        unk_row = inv.row(Action("Shift", indexers.words[0]))
        oov = 0
        for sent in corpus:
            state = initial_state(
                to_bag(sent), variant, indexers.content_pos_tags, indexers.content_labels
            )
            space = state.space
            rows = code_rows(model, space)
            assert rows.dtype == np.int64 and len(rows) == len(space.actions)
            for code, action in enumerate(space.actions):
                assert rows[code] == inv.row(action)
                if action.kind == "Shift" and action not in inv:
                    assert rows[code] == unk_row
                    oov += 1
        assert oov > 0 if min_count == 2 else oov == 0

    def test_selection(self, idx, corpus):
        model = small_linearizer(idx, "light")
        examples = make_training_examples(corpus[:2], model)
        head, picked = examples[:6], examples[np.array([4, 1])]
        assert len(head) == 6 and len(picked) == 2
        assert np.array_equal(head.rows, examples.rows[:6])
        assert np.array_equal(picked.ids["word"], examples.ids["word"][[4, 1]])
        assert np.array_equal(picked.gold_col, examples.gold_col[[4, 1]])

    def test_lm_without_an_lm_block(self, idx, corpus):
        model = small_linearizer(idx, "light")
        with pytest.raises(ConfigError, match="^model takes no LM features, LM gives 6$"):
            make_training_examples(corpus[:2], model, lm=small_lm(idx, hidden_size=6))

    def test_lm_block_without_an_lm(self, idx, corpus):
        model = small_linearizer(idx, "light", lm_feat_dim=6)
        with pytest.raises(ConfigError, match="^model takes 6 LM features, LM gives none$"):
            make_training_examples(corpus[:2], model)

    def test_lm_of_the_wrong_width(self, idx, corpus):
        model = small_linearizer(idx, "light", lm_feat_dim=6)
        with pytest.raises(ConfigError, match="^model takes 6 LM features, LM gives 8$"):
            make_training_examples(corpus[:2], model, lm=small_lm(idx, hidden_size=8))

    def test_underivable_sentence_named_by_number(self, idx, corpus):
        bad = DepSentence(
            (Token(1, "dogs", "_", 2, "nsubj"), Token(2, "bark", "VBP", 0, "root")), number=7
        )
        model = small_linearizer(build_indexers([corpus[0]]), "full")
        with pytest.raises(DataError, match="^sentence 7: gold action Pos-_ not feasible"):
            make_training_examples([corpus[0], bad], model)
        with pytest.raises(DataError, match="^sentence 2: gold action Pos-_ not feasible"):
            make_training_examples([corpus[0], replace(bad, number=0)], model)


# Forms of the random vocabularies: the reserved spellings among them, and
# one form ("oov") that only bags hold.
FORMS = [UNK_WORD, NULL_WORD, "a", "b", "cc", "d"]


def chain(tokens) -> DepSentence:
    """Token i heads token i - 1; the last token is the root."""
    n = len(tokens)
    return DepSentence(
        tuple(
            Token(i, form, pos, 0 if i == n else i + 1, label)
            for i, (form, pos, label) in enumerate(tokens, start=1)
        )
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    sentences=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(FORMS),
                st.sampled_from(["NN", "VB", "DT", "_"]),
                st.sampled_from(["amod", "det", "nsubj", "_"]),
            ),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    ),
    bag=st.lists(st.sampled_from([*FORMS, "oov"]), min_size=1, max_size=6),
    variant=st.sampled_from(["full", "light"]),
    min_count=st.sampled_from([1, 2]),
)
def test_code_rows_are_the_reference_rows(sentences, bag, variant, min_count):
    indexers = build_indexers([chain(tokens) for tokens in sentences], min_count)
    model = small_linearizer(indexers, variant, scale=None, embed_dim=1, hidden_dim=1)
    inv = ActionInventory.from_indexers(indexers, variant)
    assert output_actions(indexers, variant) == inv.actions
    tags, labels = indexers.content_pos_tags, indexers.content_labels
    space = initial_state(bag_from_forms(bag), variant, tags, labels).space
    assert code_rows(model, space).tolist() == [inv.row(a) for a in space.actions]


class TestExamplesFitTheModel:
    """`loss`, `train` and `grad_check` refuse arrays made for another model."""

    @staticmethod
    def refused(model, examples, match):
        for call in (loss, train, grad_check):
            with pytest.raises(ConfigError, match=match):
                call(model, examples)

    def test_feature_blocks(self, idx, corpus):
        light = make_training_examples(corpus[:2], small_linearizer(idx, "light"))
        blocks = r"\['word', 'pos', 'label'\], examples give \['word'\]"
        self.refused(small_linearizer(idx, "full"), light, f"^model takes blocks {blocks}$")

    def test_lm_feature_width(self, idx, corpus):
        model = small_linearizer(idx, "light", lm_feat_dim=6)
        examples = make_training_examples(corpus[:2], model, lm=small_lm(idx, hidden_size=6))
        wider = small_linearizer(idx, "light", lm_feat_dim=8)
        self.refused(wider, examples, "^model takes 8 LM features, examples give 6$")
        plain_model = small_linearizer(idx, "light")
        self.refused(plain_model, examples, "^model takes no LM features, examples give 6$")
        plain = make_training_examples(corpus[:2], small_linearizer(idx, "light"))
        self.refused(model, plain, "^model takes 6 LM features, examples give none$")

    def test_ids_and_rows_inside_their_tensors(self, idx, corpus):
        examples = make_training_examples(corpus, small_linearizer(idx, "light"))
        smaller = build_indexers(corpus[:1])
        assert smaller.n_words < examples.ids["word"].max() + 1
        match = f"^examples index emb_word outside its {smaller.n_words} rows$"
        self.refused(small_linearizer(smaller, "light"), examples, match)
        model = small_linearizer(idx, "light")
        n_rows = len(model.params["w2"])
        for bad in (n_rows, -1):
            rows = examples.rows.copy()
            rows[0, 0] = bad
            match = f"^examples index w2 outside its {n_rows} rows$"
            self.refused(model, replace(examples, rows=rows), match)
