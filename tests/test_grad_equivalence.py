"""The matrix-product gradients of both training loops against the
row-at-a-time references in `reference_grads.py`.

Same parameters, same examples and the same dropout draws: the objective
and every gradient tensor must agree within 1e-12 of the tensor's scale.
"""

import numpy as np
import pytest

import reference_grads
from conftest import small_linearizer, small_lm
from synlin import ffnn, lstm_lm
from synlin.corpus import build_indexers
from synlin.synth import toy_corpus
from synlin.transition import Action

TOL = 1e-12


@pytest.fixture(scope="module")
def corpus():
    return toy_corpus(12, seed=7)


def assert_same(objective, grads, ref_objective, ref_grads):
    assert abs(objective - ref_objective) <= TOL * max(1.0, abs(ref_objective))
    assert list(grads) == list(ref_grads)
    for name, want in ref_grads.items():
        assert grads[name].shape == want.shape, name
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(grads[name] - want))) <= TOL * scale, name


@pytest.mark.parametrize("gate_bias", [False, True])
def test_lm_sentence_with_dropout(corpus, gate_bias):
    model = small_lm(build_indexers(corpus), seed=31, hidden_size=16, gate_bias=gate_bias)
    inputs, targets = lstm_lm.sentence_ids(model, corpus[3].forms())
    ce, caches = lstm_lm._forward_sentence(
        model, inputs, targets, dropout=0.4, rng=np.random.default_rng(5)
    )
    grads = lstm_lm._backward_sentence(model, caches)
    ref_ce, ref_grads = reference_grads.lm_sentence_grads(
        model, inputs, targets, dropout=0.4, rng=np.random.default_rng(5)
    )
    assert_same(ce, grads, ref_ce, ref_grads)


def scorer_case(model, examples, l2_lambda, dropout):
    packed = ffnn._pack(model, examples)
    idx = np.random.default_rng(3).permutation(len(examples))[:32]
    got = ffnn._batch_pass(
        model, packed, idx, l2_lambda, dropout=dropout, rng=np.random.default_rng(9)
    )
    want = reference_grads.batch_pass(
        model, packed, idx, l2_lambda, dropout=dropout, rng=np.random.default_rng(9)
    )
    assert_same(*got, *want)
    return packed, idx


@pytest.mark.parametrize("variant", ["full", "light"])
def test_scorer_batch_with_dropout_and_l2(corpus, variant):
    model = small_linearizer(build_indexers(corpus), variant, seed=32)
    scorer_case(model, ffnn.make_training_examples(corpus[:4], model), 1e-3, 0.3)


def test_scorer_batch_with_lm_block(corpus):
    indexers = build_indexers(corpus)
    lm = small_lm(indexers, seed=33, hidden_size=6)
    model = small_linearizer(indexers, "light", seed=34, lm_feat_dim=6)
    scorer_case(model, ffnn.make_training_examples(corpus[:4], model, lm=lm), 1e-3, 0.3)


def test_scorer_batch_with_shifts_sharing_the_unk_row(corpus):
    model = small_linearizer(build_indexers(corpus, min_count=2), "full", seed=35)
    packed, idx = scorer_case(model, ffnn.make_training_examples(corpus, model), 1e-3, 0.3)
    unk_row = model.inventory.row(Action("Shift", model.indexers.words[0]))
    shared = [
        np.count_nonzero(packed.rows[i][packed.valid[i]] == unk_row) for i in idx
    ]
    assert max(shared) >= 2, "the batch needs two feasible Shifts on the UNK row"
