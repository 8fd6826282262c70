"""The oracle walk over `transition.State` against the integer-stack reference.

`reference_oracle` keeps the oracle and the replaying example builder that
`corpus.derive_oracle` and `ffnn.make_training_examples` replaced; both must
give the same actions and the same training examples.
"""

import numpy as np
import pytest

import reference_oracle
from conftest import random_projective_sentence, small_linearizer, small_lm
from synlin import ffnn
from synlin.corpus import build_indexers, derive_oracle
from synlin.synth import toy_corpus


@pytest.mark.parametrize("variant", ["full", "light"])
def test_actions_equal_on_synth220(synth220, synth220_indexers, variant):
    for sent in synth220:
        state = derive_oracle(sent, variant, synth220_indexers)
        assert list(state.history) == reference_oracle.derive_oracle(sent, variant)


@pytest.mark.parametrize("variant", ["full", "light"])
def test_actions_equal_on_random_projective(variant):
    rng = np.random.default_rng(2025)
    for _ in range(400):
        sent = random_projective_sentence(rng, int(rng.integers(1, 13)))
        state = derive_oracle(sent, variant, build_indexers([sent]))
        assert list(state.history) == reference_oracle.derive_oracle(sent, variant)


@pytest.mark.parametrize("variant,with_lm", [("full", False), ("light", False), ("light", True)])
def test_training_examples_equal(variant, with_lm):
    corpus = toy_corpus(30, seed=23)
    idx = build_indexers(corpus)
    lm = small_lm(idx, seed=5) if with_lm else None
    model = small_linearizer(idx, variant, seed=6, lm_feat_dim=8 if with_lm else None)
    got = ffnn.make_training_examples(corpus, model, lm=lm)
    want = reference_oracle.make_training_examples(corpus, model, lm=lm)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.features == b.features
        assert a.feasible == b.feasible
        assert a.gold == b.gold
        if with_lm:
            assert np.array_equal(a.lm_feat, b.lm_feat)
        else:
            assert a.lm_feat is None and b.lm_feat is None
