"""Table-driven decoding against the per-item reference in `reference_decode.py`.

`step_scores` sums per-bag slot tables for the hidden layer, takes one output
product per step and one LM product per step; the reference builds each
item's hidden layer with training's product and scores every item alone.
The sums run in another order, so scores may differ in the last bits: every
candidate must match within 1e-9, with the same items and actions in the
same order.  The tables must be built per bag and per call, so they never go
stale and never grow with the vocabulary.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

import reference_decode
from conftest import small_linearizer, small_lm
from synlin import decoder, ffnn
from synlin.corpus import bag_from_forms, build_indexers, to_bag
from synlin.decoder import DecodeConfig, Models, beam_decode, step_scores
from synlin.synth import toy_corpus

TOL = 1e-9

# mode, variant, --renormalize
CASES = [
    ("syn", "full", False),
    ("syn", "light", False),
    ("syn+lstm", "full", False),
    ("syn+lstm", "full", True),
    ("syn+lstm", "light", False),
    ("syn+lstm", "light", True),
    ("synxlstm", "full", False),
    ("synxlstm", "light", False),
    ("lstm", None, False),
]


@pytest.fixture(scope="module")
def idx():
    return build_indexers(toy_corpus(30, seed=81))


@pytest.fixture(scope="module")
def lm(idx):
    return small_lm(idx, seed=82)


@pytest.fixture(scope="module")
def bags(idx):
    """Unseen sentences (some forms are out of vocabulary) and bags built to
    hold OOV forms, which share the UNK word, and repeated forms."""
    sents = [s for s in toy_corpus(40, seed=83) if 4 <= len(s) <= 9][:3]
    extra = [["qqq", "the", "the", "dog", "zebra"], ["a", "a", "cat", "qqq", "qqq"]]
    out = [to_bag(s) for s in sents] + [bag_from_forms(forms) for forms in extra]
    assert any(not idx.has_word(f) for bag in out for f in bag.forms())
    assert any(len(set(bag.forms())) < len(bag) for bag in out)
    return out


def models_for(idx, lm, mode, variant):
    if mode == "lstm":
        return Models(lm=lm)
    lm_feat_dim = lm.config.hidden_size if mode == "synxlstm" else None
    lin = small_linearizer(idx, variant, seed=84, lm_feat_dim=lm_feat_dim)
    return Models(linearizer=lin, lm=None if mode == "syn" else lm)


@pytest.mark.parametrize("beam", [1, 2, 10])
@pytest.mark.parametrize("mode,variant,renormalize", CASES)
def test_every_candidate_matches_the_reference(idx, lm, bags, mode, variant, renormalize, beam):
    models = models_for(idx, lm, mode, variant)
    cfg = DecodeConfig(mode=mode, alpha=0.4, beam_size=beam, renormalize_joint=renormalize)
    widest = 0
    for bag in bags:
        items = [decoder._root_item(bag, models, cfg, decoder._validate(models, cfg))]
        tables = decoder._bag_tables(bag, models, cfg)
        while not decoder._is_terminal(items[0].state, mode):
            fast = step_scores(items, models, cfg, tables)
            slow = reference_decode.step_scores(items, models, cfg)
            assert [(id(i), a) for _, i, a in fast] == [(id(i), a) for _, i, a in slow]
            assert max(abs(f[0] - s[0]) for f, s in zip(fast, slow)) <= TOL
            fast.sort(key=lambda c: (-c[0], c[1].state.history, c[2]))
            items = decoder._advance_all(fast[:beam], models)
            widest = max(widest, len(items))
    assert widest == beam


def test_tables_are_rebuilt_for_every_call(idx):
    # parameters edited in place between two decodes: the second decode must
    # equal a fresh model's, so nothing is cached across calls
    model = small_linearizer(idx, "full", seed=85)
    bag = to_bag(next(s for s in toy_corpus(20, seed=86) if len(s) >= 5))
    cfg = DecodeConfig(mode="syn", beam_size=4)
    before = beam_decode(bag, Models(linearizer=model), cfg)
    rng = np.random.default_rng(87)
    model.params["emb_word"] += rng.uniform(-0.5, 0.5, model.params["emb_word"].shape)
    model.params["w1_pos"] *= -1.0
    after = beam_decode(bag, Models(linearizer=model), cfg)
    fresh = dataclasses.replace(model, params={k: v.copy() for k, v in model.params.items()})
    assert after == beam_decode(bag, Models(linearizer=fresh), cfg)
    assert after != before


def test_word_table_covers_only_the_bag(idx):
    extra = tuple(f"extra{i}" for i in range(5000 - idx.n_words))
    big = dataclasses.replace(idx, words=idx.words + extra)
    assert big.n_words == 5000
    model = small_linearizer(big, "full", seed=88)
    forms = ["the", "the", "dog", "qqq", "zebra", "extra7"]
    built = []

    def spy(*args):
        built.append(ffnn.slot_tables(*args))
        return built[-1]

    with mock.patch.object(decoder, "slot_tables", spy):
        beam_decode(bag_from_forms(forms), Models(linearizer=model), DecodeConfig(beam_size=2))
    [tables] = built
    ids, table = tables["word"]
    # the, dog, extra7, one UNK row for qqq and zebra, and the padding id
    expected = sorted({big.word_id(f) for f in forms} | {big.null_word_id})
    assert list(ids) == expected and len(expected) == 5
    assert table.shape == (15, 5, model.config.hidden_dim)
    assert tables["pos"][1].shape == (15, big.n_pos, model.config.hidden_dim)
