"""The oracle walk over `transition.State` against the integer-stack reference.

`reference_oracle` keeps the oracle, the replaying example builder and the
packing into arrays that `corpus.derive_oracle` and
`ffnn.make_training_examples` replaced; both must give the same actions and
the same training arrays, field by field.
"""

import numpy as np
import pytest

import reference_oracle
from conftest import random_projective_sentence, small_linearizer, small_lm
from reference_rows import inventory
from synlin import ffnn
from synlin.corpus import UNK_WORD, build_indexers, derive_oracle
from synlin.synth import toy_corpus
from synlin.transition import Action


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


def assert_same_arrays(got, want):
    assert len(got) == len(want) > 0
    assert list(got.ids) == list(want.ids)
    for block in want.ids:
        assert got.ids[block].dtype == want.ids[block].dtype
        assert np.array_equal(got.ids[block], want.ids[block]), block
    for name in ("rows", "valid", "gold_col", "lm_feats"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize(
    "variant,with_lm", [("full", False), ("light", False), ("light", True), ("full", True)]
)
def test_training_examples_equal(variant, with_lm):
    corpus = toy_corpus(30, seed=23)
    idx = build_indexers(corpus)
    lm = small_lm(idx, seed=5) if with_lm else None
    model = small_linearizer(idx, variant, seed=6, lm_feat_dim=8 if with_lm else None)
    got = ffnn.make_training_examples(corpus, model, lm=lm)
    want = reference_oracle.pack(model, reference_oracle.make_training_examples(corpus, model, lm=lm))
    assert_same_arrays(got, want)


@pytest.mark.parametrize("variant", ["full", "light"])
def test_training_examples_equal_with_rare_words(variant):
    # with min_count 2, out-of-vocabulary Shifts share the UNK row
    corpus = toy_corpus(12, seed=7)
    model = small_linearizer(build_indexers(corpus, min_count=2), variant, seed=7)
    got = ffnn.make_training_examples(corpus, model)
    want = reference_oracle.pack(model, reference_oracle.make_training_examples(corpus, model))
    assert_same_arrays(got, want)
    unk_row = inventory(model).row(Action("Shift", UNK_WORD))
    shared = (got.rows == unk_row) & got.valid
    assert shared.sum(axis=1).max() >= 2, "needs two legal Shifts on the UNK row"
