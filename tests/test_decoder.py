from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_projective_sentence, small_linearizer, small_lm
from synlin import decoder, ffnn
from synlin.corpus import bag_from_forms, build_indexers, to_bag
from synlin.decoder import (
    DecodeConfig,
    Models,
    beam_decode,
    count_derivations,
    exhaustive_decode,
    step_scores,
)
from synlin.errors import ConfigError, SearchSpaceError
from synlin.ffnn import forward, make_training_examples, train
from synlin.lstm_lm import next_word_logprobs, start_state
from synlin.synth import toy_corpus
from synlin.transition import Action, initial_state, legal_actions


@pytest.fixture(scope="module")
def corpus():
    return toy_corpus(16, seed=31)


@pytest.fixture(scope="module")
def idx(corpus):
    return build_indexers(corpus)


@pytest.fixture(scope="module")
def lin_full(idx):
    return small_linearizer(idx, "full", seed=41, scale=0.3)


@pytest.fixture(scope="module")
def lin_light(idx):
    return small_linearizer(idx, "light", seed=42, scale=0.3)


@pytest.fixture(scope="module")
def lin_feat(idx):
    return small_linearizer(idx, "light", seed=43, scale=0.3, lm_feat_dim=8)


@pytest.fixture(scope="module")
def lm(idx):
    return small_lm(idx, seed=44, hidden_size=8, scale=0.3)


@pytest.fixture(scope="module")
def lin_trained(corpus, idx):
    """A briefly trained scorer: beam-size monotonicity is an empirical
    property of peaked models, not of arbitrary weights."""
    model = small_linearizer(
        idx, "full", seed=45, scale=None, epochs=30, learning_rate=0.1,
        dropout=0.0, embed_dim=12, hidden_dim=24,
    )
    train(model, make_training_examples(corpus, model))
    return model


def scores(item, models, cfg):
    """step_scores on a one-item beam, as a map action -> accumulated score."""
    return {action: score for score, _, action in step_scores([item], models, cfg)}


def advance(item, action, score, models):
    return decoder._advance_all([(score, item, action)], models)[0]


class TestValidation:
    def test_lstm_needs_lm(self, lin_full):
        with pytest.raises(ConfigError):
            beam_decode(
                bag_from_forms(["go"]),
                Models(linearizer=lin_full),
                DecodeConfig(mode="lstm"),
            )

    def test_syn_rejects_feature_model(self, lin_feat, lm):
        with pytest.raises(ConfigError):
            beam_decode(
                bag_from_forms(["go"]),
                Models(linearizer=lin_feat, lm=lm),
                DecodeConfig(mode="syn"),
            )

    def test_feature_mode_needs_lm_block(self, lin_full, lm):
        with pytest.raises(ConfigError):
            beam_decode(
                bag_from_forms(["go"]),
                Models(linearizer=lin_full, lm=lm),
                DecodeConfig(mode="synxlstm"),
            )

    def test_joint_needs_lm(self, lin_full):
        with pytest.raises(ConfigError):
            beam_decode(
                bag_from_forms(["go"]),
                Models(linearizer=lin_full),
                DecodeConfig(mode="syn+lstm"),
            )

    def test_bad_mode_and_beam(self):
        with pytest.raises(ConfigError):
            DecodeConfig(mode="magic")
        with pytest.raises(ConfigError):
            DecodeConfig(beam_size=0)


class TestStepScores:
    def root_item(self, bag, models, config):
        variant = decoder._validate(models, config)
        return decoder._root_item(bag, models, config, variant)

    def test_joint_nonshift_lm_contribution_exactly_zero(self, corpus, lin_light, lm):
        bag = to_bag(corpus[1])
        models = Models(linearizer=lin_light, lm=lm)
        joint_cfg = DecodeConfig(mode="syn+lstm", alpha=0.4)
        syn_cfg = DecodeConfig(mode="syn")
        item = self.root_item(bag, models, joint_cfg)
        # shift twice so arc actions become available
        for _ in range(2):
            shift = next(a for a in scores(item, models, joint_cfg) if a.kind == "Shift")
            item = advance(item, shift, 0.0, models)
        joint = scores(item, models, joint_cfg)
        syn_item = decoder.BeamItem(item.state, 0.0, None)
        syn = scores(syn_item, models, syn_cfg)
        nonshift = [a for a in joint if a.kind != "Shift"]
        assert nonshift
        for action in nonshift:
            assert joint[action] == syn[action]  # exact float equality

    def test_alpha_zero_equals_syn_everywhere(self, corpus, lin_full, lm):
        bag = to_bag(corpus[2])
        models = Models(linearizer=lin_full, lm=lm)
        item = self.root_item(bag, models, DecodeConfig(mode="syn+lstm", alpha=0.0))
        joint = scores(item, models, DecodeConfig(mode="syn+lstm", alpha=0.0))
        syn = scores(
            decoder.BeamItem(item.state, 0.0, None), models, DecodeConfig(mode="syn")
        )
        assert joint == syn

    def test_joint_shift_hand_combined(self, corpus, lin_full, lm):
        bag = to_bag(corpus[3])
        models = Models(linearizer=lin_full, lm=lm)
        cfg = DecodeConfig(mode="syn+lstm", alpha=0.4)
        item = self.root_item(bag, models, cfg)
        combined = scores(item, models, cfg)
        state = item.state
        feasible = legal_actions(state)
        syn_lp = dict(
            zip(feasible, forward(lin_full, [lin_full.extract_features(state)], [feasible])[0])
        )
        forms = state.remaining_forms()
        lm_lp = dict(
            zip(forms, next_word_logprobs(lm, item.lm_state, [lm.word_id(f) for f in forms]))
        )
        for action, value in combined.items():
            if action.kind == "Shift":
                expected = syn_lp[action] + 0.4 * lm_lp[action.arg]
                assert abs(value - expected) < 1e-12

    def test_renormalized_joint_sums_to_one(self, corpus, lin_full, lm):
        bag = to_bag(corpus[3])
        models = Models(linearizer=lin_full, lm=lm)
        cfg = DecodeConfig(mode="syn+lstm", alpha=0.4, renormalize_joint=True)
        item = self.root_item(bag, models, cfg)
        values = scores(item, models, cfg).values()
        assert abs(sum(np.exp(v) for v in values) - 1.0) < 1e-9

    def test_feature_mode_uses_lm_state(self, corpus, lin_feat, lm):
        bag = to_bag(corpus[4])
        models = Models(linearizer=lin_feat, lm=lm)
        cfg = DecodeConfig(mode="synxlstm")
        item = self.root_item(bag, models, cfg)
        base = scores(item, models, cfg)
        # a different LM state must change the scores
        other = decoder.BeamItem(
            item.state, 0.0, start_state(lm).__class__(
                layers=tuple((h + 1.0, c) for h, c in item.lm_state.layers),
                consumed=item.lm_state.consumed,
            )
        )
        changed = scores(other, models, cfg)
        assert any(abs(base[a] - changed[a]) > 1e-9 for a in base)


def beam_after(bag, models, cfg, steps):
    """The beam items after `steps` steps of beam_decode's search."""
    items = [decoder._root_item(bag, models, cfg, decoder._validate(models, cfg))]
    for _ in range(steps):
        candidates = step_scores(items, models, cfg)
        candidates.sort(key=lambda c: (-c[0], c[1].state.history, c[2]))
        items = decoder._advance_all(candidates[: cfg.beam_size], models)
    return items


class TestBatchedStep:
    """One step_scores call on a beam equals one call per item."""

    @pytest.mark.parametrize("width", [2, 10])
    @pytest.mark.parametrize(
        "mode,renormalize",
        [("syn", False), ("syn+lstm", False), ("syn+lstm", True), ("synxlstm", False), ("lstm", False)],
    )
    def test_batch_equals_single_items(self, width, mode, renormalize, corpus, lin_full, lin_feat, lm):
        models = Models(
            linearizer={"syn": lin_full, "syn+lstm": lin_full, "synxlstm": lin_feat}.get(mode),
            lm=None if mode == "syn" else lm,
        )
        cfg = DecodeConfig(mode=mode, alpha=0.4, beam_size=width, renormalize_joint=renormalize)
        bag = to_bag(next(s for s in corpus if len(s) >= 6))
        items = beam_after(bag, models, cfg, steps=5)
        assert len(items) == width
        batched = step_scores(items, models, cfg)
        single = [c for item in items for c in step_scores([item], models, cfg)]
        assert len(batched) == len(single)
        for (score, item, action), (score1, item1, action1) in zip(batched, single):
            assert item is item1 and action == action1
            assert abs(score - score1) <= 1e-12


class TestBeam:
    def test_beam_one_is_greedy(self, corpus, lin_full):
        models = Models(linearizer=lin_full)
        cfg = DecodeConfig(mode="syn", beam_size=1)
        bag = to_bag(corpus[5])
        result = beam_decode(bag, models, cfg)
        item = decoder._root_item(bag, models, cfg, "full")
        while not item.state.terminal:
            totals = scores(item, models, cfg)
            best = min(totals, key=lambda a: (-totals[a], a.sort_key()))
            item = advance(item, best, totals[best], models)
        assert result.actions == item.state.history
        assert abs(result.score - item.score) < 1e-12

    def test_single_token_bag(self, lin_full, lm):
        for mode, models in [
            ("syn", Models(linearizer=lin_full)),
            ("lstm", Models(lm=lm)),
        ]:
            r = beam_decode(
                bag_from_forms(["Go"]), models, DecodeConfig(mode=mode, beam_size=4)
            )
            assert r.tokens == ("Go",)

    def test_output_is_permutation_with_tree(self, corpus, lin_full):
        models = Models(linearizer=lin_full)
        for sent in corpus[:8]:
            bag = to_bag(sent)
            r = beam_decode(bag, models, DecodeConfig(mode="syn", beam_size=4))
            assert sorted(r.tokens) == sorted(bag.forms())
            n = len(bag)
            assert len(r.arcs) == n - 1
            deps = [d for _, d, _ in r.arcs]
            assert len(set(deps)) == n - 1  # every dependent attached once
            assert len(r.actions) == 3 * n

    def test_lstm_mode_shape(self, corpus, lm):
        bag = to_bag(corpus[6])
        r = beam_decode(bag, Models(lm=lm), DecodeConfig(mode="lstm", beam_size=4))
        assert sorted(r.tokens) == sorted(bag.forms())
        assert r.arcs is None
        assert len(r.actions) == len(bag)
        assert all(a.kind == "Shift" for a in r.actions)

    def test_overfit_single_sentence_recovers_it(self):
        from synlin.corpus import build_indexers, parse_conll
        from synlin.ffnn import TrainConfig, init_linearizer

        sent = parse_conll(
            "1\tI\t_\t_\tPRP\t_\t2\tnsubj\n2\tlove\t_\t_\tVBP\t_\t0\troot\n"
            "3\tNLP\t_\t_\tNNP\t_\t2\tdobj\n"
        )
        idx = build_indexers(sent)
        cfg = TrainConfig(learning_rate=0.1, dropout=0.0, epochs=80, batch_size=8,
                          seed=5, embed_dim=12, hidden_dim=16)
        model = init_linearizer(idx, "full", cfg)
        train(model, make_training_examples(sent, model), cfg)
        r = beam_decode(
            to_bag(sent[0]), Models(linearizer=model), DecodeConfig(mode="syn", beam_size=2)
        )
        assert r.tokens == ("I", "love", "NLP")
        assert r.arcs == frozenset({(2, 1, "nsubj"), (2, 3, "dobj")})

    def test_lm_prefix_tracks_shifts(self, corpus, lin_full, lm):
        bag = to_bag(corpus[2])
        models = Models(linearizer=lin_full, lm=lm)
        cfg = DecodeConfig(mode="syn+lstm", alpha=0.4)
        item = decoder._root_item(bag, models, cfg, "full")
        shifts = 0
        while not item.state.terminal:
            totals = scores(item, models, cfg)
            action = max(totals, key=lambda a: (totals[a], a.sort_key()))
            item = advance(item, action, 0.0, models)
            shifts += action.kind == "Shift"
            # start symbol plus one step per shifted word
            assert item.lm_state.consumed == 1 + shifts

    def test_unfinished_derivation_is_a_search_error(self, corpus, lin_full, monkeypatch):
        # a coded error rather than an assert, so the check survives python -O
        monkeypatch.setattr(decoder, "derivation_length", lambda variant, n: 3 * n - 1)
        with pytest.raises(SearchSpaceError, match="unfinished"):
            beam_decode(to_bag(corpus[5]), Models(linearizer=lin_full), DecodeConfig(mode="syn"))

    def test_deterministic(self, corpus, lin_full):
        models = Models(linearizer=lin_full)
        cfg = DecodeConfig(mode="syn", beam_size=8)
        bag = to_bag(corpus[7])
        r1 = beam_decode(bag, models, cfg)
        r2 = beam_decode(bag, models, cfg)
        assert r1 == r2

    def test_monotone_in_beam_size(self, corpus, lin_trained):
        models = Models(linearizer=lin_trained)
        for sent in corpus[:6]:
            bag = to_bag(sent)
            scores = [
                beam_decode(bag, models, DecodeConfig(mode="syn", beam_size=b)).score
                for b in (1, 4, 16)
            ]
            assert scores[0] <= scores[1] + 1e-12 and scores[1] <= scores[2] + 1e-12


class TestExhaustive:
    def test_n2_light_has_four_derivations(self):
        assert count_derivations(bag_from_forms(["a", "b"]), "syn") == 4

    def test_n2_duplicate_forms_halves_orders(self):
        assert count_derivations(bag_from_forms(["a", "a"]), "syn") == 2

    def test_lstm_mode_counts_orders(self):
        assert count_derivations(bag_from_forms(["a", "b", "c"]), "lstm") == 6

    def test_bound_enforced(self, lin_light):
        bag = bag_from_forms([f"w{i}" for i in range(7)])
        with pytest.raises(SearchSpaceError):
            exhaustive_decode(bag, Models(linearizer=lin_light), DecodeConfig(mode="syn"))

    @pytest.mark.parametrize("mode", ["syn", "syn+lstm", "synxlstm", "lstm"])
    def test_argmax_beats_all(self, mode, lin_light, lin_feat, lm):
        bag = bag_from_forms(["the", "dog", "ran"])
        models = Models(
            linearizer={"syn": lin_light, "syn+lstm": lin_light, "synxlstm": lin_feat}.get(mode),
            lm=None if mode == "syn" else lm,
        )
        cfg = DecodeConfig(mode=mode, alpha=0.4)
        best = exhaustive_decode(bag, models, cfg)
        # enumerate (score, history) by DFS: none beats the argmax, and the
        # argmax wins every exact tie on the lexicographic history
        leaves = []

        def walk(item):
            if decoder._is_terminal(item.state, mode):
                leaves.append((item.score, item.state.history))
                return
            for child in decoder._advance_all(step_scores([item], models, cfg), models):
                walk(child)

        walk(decoder._root_item(bag, models, cfg, decoder._validate(models, cfg)))
        assert len(leaves) == count_derivations(bag, mode)
        assert all(best.score >= s for s, _ in leaves)
        assert min(leaves, key=lambda leaf: (-leaf[0], leaf[1])) == (best.score, best.actions)

    @pytest.mark.parametrize("mode", ["syn", "syn+lstm", "synxlstm", "lstm"])
    def test_beam_covering_space_equals_exhaustive(self, mode, lin_light, lin_feat, lm):
        models = Models(
            linearizer={"syn": lin_light, "syn+lstm": lin_light, "synxlstm": lin_feat}.get(mode),
            lm=None if mode == "syn" else lm,
        )
        for forms in (["go"], ["the", "dog"], ["a", "cat", "ran"], ["the", "the", "dog", "ran"]):
            bag = bag_from_forms(forms)
            space = count_derivations(bag, mode)
            cfg = DecodeConfig(mode=mode, alpha=0.4, beam_size=space)
            exact = exhaustive_decode(bag, models, cfg)
            beamed = beam_decode(bag, models, cfg)
            assert beamed.tokens == exact.tokens
            assert beamed.actions == exact.actions
            assert abs(beamed.score - exact.score) < 1e-9

    def test_full_variant_tiny_tag_set(self, corpus):
        # keep the enumeration small: 2 tokens, 2 tags, 1 label
        tiny = build_indexers(toy_corpus(2, seed=31)[:1])
        lin = small_linearizer(tiny, "full", seed=50, scale=0.3)
        bag = bag_from_forms(toy_corpus(2, seed=31)[0].forms()[:2])
        models = Models(linearizer=lin)
        space = count_derivations(
            bag, "syn", "full", tiny.content_pos_tags, tiny.content_labels
        )
        cfg = DecodeConfig(mode="syn", beam_size=space)
        exact = exhaustive_decode(bag, models, cfg)
        beamed = beam_decode(bag, models, cfg)
        assert beamed.actions == exact.actions
        assert abs(beamed.score - exact.score) < 1e-9


def exhaustive_with_leaf_count(bag, models, cfg):
    """exhaustive_decode, plus the number of terminal states its walk reached."""
    is_terminal = decoder._is_terminal
    leaves = 0

    def counting(state, mode):
        nonlocal leaves
        done = is_terminal(state, mode)
        leaves += done
        return done

    with mock.patch.object(decoder, "_is_terminal", counting):
        return exhaustive_decode(bag, models, cfg), leaves


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    variant=st.sampled_from(["full", "light"]),
)
def test_beam_covering_space_equals_exhaustive_on_random_trees(seed, n, variant):
    if variant == "full":
        n = min(n, 3)  # with the sentence's own tags and labels, n=4 has up to 5e5 derivations
    sent = random_projective_sentence(np.random.default_rng(seed), n)
    idx = build_indexers([sent])
    models = Models(linearizer=small_linearizer(idx, variant, seed=seed % 1000, scale=0.3))
    bag = to_bag(sent)
    space = count_derivations(bag, "syn", variant, idx.content_pos_tags, idx.content_labels)
    cfg = DecodeConfig(mode="syn", beam_size=space)
    exact, leaves = exhaustive_with_leaf_count(bag, models, cfg)
    beamed = beam_decode(bag, models, cfg)
    assert leaves == space
    assert beamed.tokens == exact.tokens
    assert beamed.actions == exact.actions
    assert abs(beamed.score - exact.score) < 1e-9
