"""Decoding against the references in `reference_decode.py`.

The array beam of `synlin.decoder` must reproduce the object beam it
replaced bit for bit: every `DecodeResult` field is compared with `==`, in
all four modes, with seeded random models and with all-tie models (`w2` and
`out_emb` zeroed), where the tie rule decides every step.

`step_scores` sums per-bag slot tables for the hidden layer, takes one output
product per step and one LM product per step; the per-item reference builds
each item's hidden layer with training's product and scores every item alone.
The sums run in another order, so scores may differ in the last bits: every
candidate must match within 1e-9, with the same items and actions in the
same order.  The word block's table must be built per bag, so it never grows
with the vocabulary; the POS and label tables, the non-Shift code rows and
the LM start state once per `Models`, which must see a rebound model and
never a stale one.  The action codes of a bag must sort as its actions do
and map to the scorer rows and LM ids of those actions.  The LM steps a
state when it is first read: every row of a decode's table must hold the
state of its item's shifted words within 1e-12 of the whole-block reference
step, syn mode steps none, and a Shift pruned before it is read is never
stepped.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_decode
import reference_optim
import reference_transition
from conftest import small_linearizer, small_lm
from reference_rows import inventory
from synlin import decoder, ffnn, transition
from synlin.corpus import UNK_WORD, bag_from_forms, build_indexers, to_bag
from synlin.decoder import DecodeConfig, Models, beam_decode, step_scores
from synlin.features import FEATURE_BLOCKS
from synlin.lstm_lm import start_state, step_weights
from synlin.synth import toy_corpus
from synlin.transition import SHIFT, Action, initial_state

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
    assert any(idx.word_id(f) == idx.unk_id for bag in out for f in bag.forms())
    assert any(len(set(bag.forms())) < len(bag) for bag in out)
    return out


def models_for(idx, lm, mode, variant):
    if mode == "lstm":
        return Models(lm=lm)
    lm_feat_dim = lm.config.hidden_size if mode == "synxlstm" else None
    lin = small_linearizer(idx, variant, seed=84, lm_feat_dim=lm_feat_dim)
    return Models(linearizer=lin, lm=None if mode == "syn" else lm)


def all_tie(models):
    """Copies of the models with `w2` and `out_emb` zeroed: every feasible
    action of an item gets the same score."""

    def zeroed(model, name):
        params = {k: np.zeros_like(v) if k == name else v for k, v in model.params.items()}
        return dataclasses.replace(model, params=params)

    return Models(
        linearizer=models.linearizer and zeroed(models.linearizer, "w2"),
        lm=models.lm and zeroed(models.lm, "out_emb"),
    )


@pytest.mark.parametrize("ties", [False, True], ids=["random", "all-tie"])
@pytest.mark.parametrize("beam", [1, 2, 10])
@pytest.mark.parametrize("mode,variant,renormalize", CASES)
def test_array_beam_equals_the_object_beam(idx, lm, bags, mode, variant, renormalize, beam, ties):
    models = models_for(idx, lm, mode, variant)
    if ties:
        models = all_tie(models)
    cfg = DecodeConfig(mode=mode, alpha=0.4, beam_size=beam, renormalize_joint=renormalize)
    for bag in bags:
        assert beam_decode(bag, models, cfg) == reference_decode.beam_decode(bag, models, cfg)


@pytest.mark.parametrize("beam", [1, 2, 10])
@pytest.mark.parametrize("mode,variant,renormalize", CASES)
def test_every_candidate_matches_the_reference(idx, lm, bags, mode, variant, renormalize, beam):
    models = models_for(idx, lm, mode, variant)
    cfg = DecodeConfig(mode=mode, alpha=0.4, beam_size=beam, renormalize_joint=renormalize)
    widest = 0
    for bag in bags:
        items = decoder._root(bag, models, cfg)
        while not decoder._is_terminal(items.states[0], mode):
            fast = step_scores(items, models, cfg)
            reference_items = reference_decode.items_of(items)
            slow = reference_decode.step_scores(reference_items, models, cfg)
            # the same items and actions in the same order
            actions = items.states[0].space.actions
            k, i = np.nonzero(fast.valid)
            item_index = {id(item): n for n, item in enumerate(reference_items)}
            assert [(int(n), actions[c]) for n, c in zip(k, fast.codes[k, i])] == [
                (item_index[id(item)], a) for _, item, a in slow
            ]
            assert len(fast) == len(slow)
            assert max(abs(f - s[0]) for f, s in zip(fast.scores[k, i], slow)) <= TOL
            items = decoder._advance_all(items, fast, decoder._kept(items, fast, beam))
            widest = max(widest, len(items.states))
    assert widest == beam


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    forms=st.lists(st.sampled_from(["the", "dog", "a", "cat", "qqq", "zebra", "ran"]), min_size=1, max_size=8),
    variant=st.sampled_from(["full", "light"]),
)
def test_action_codes_sort_and_map_as_their_actions(forms, variant):
    idx = build_indexers(toy_corpus(30, seed=81))
    lin = small_linearizer(idx, variant, seed=84)
    lm = small_lm(idx, seed=82)
    state = initial_state(bag_from_forms(forms), variant, idx.content_pos_tags, idx.content_labels)
    space = state.space
    # sorting codes sorts their actions: code c is the c-th action in canonical order
    assert list(space.actions) == sorted(space.actions)
    assert all(space.codes[a] == c for c, a in enumerate(space.actions))
    assert len(space.codes) == len(space.actions)
    arrays = decoder._start(state, Models(linearizer=lin, lm=lm), DecodeConfig(mode="syn+lstm"))
    unk_row = inventory(lin).row(Action(SHIFT, UNK_WORD))
    for code, action in enumerate(space.actions):
        assert arrays.rows[code] == inventory(lin).row(action)
        if action.kind == SHIFT:
            assert code < len(space.forms)
            assert arrays.lm_ids[code] == lm.word_id(action.arg)
            if idx.word_id(action.arg) == idx.unk_id:
                assert arrays.rows[code] == unk_row
        else:
            assert code >= len(space.forms)


def test_tables_are_rebuilt_for_every_call(idx):
    # parameters edited in place between two decodes, each with a new Models:
    # the second decode must equal a fresh model's, so nothing is cached
    # across Models
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
    start = decoder._start

    def spy(*args):
        built.append(start(*args))
        return built[-1]

    with mock.patch.object(decoder, "_start", spy):
        beam_decode(bag_from_forms(forms), Models(linearizer=model), DecodeConfig(beam_size=2))
    [tables] = [beam.tables for beam in built]
    ids, table = tables["word"]
    # the, dog, extra7, one UNK row for qqq and zebra, and the padding id
    expected = sorted({big.word_id(f) for f in forms} | {big.null_word_id})
    assert list(ids) == expected and len(expected) == 5
    assert table.shape == (15, 5, model.config.hidden_dim)
    assert tables["pos"][1].shape == (15, big.n_pos, model.config.hidden_dim)


def held(models, mode):
    """The decode constants a `Models` holds for `mode`."""
    return [
        *([models.scorer_tables] if mode != "lstm" else []),
        *([models.lm_weights, models.lm_start] if mode != "syn" else []),
    ]


def held_bytes(models, mode):
    """The bytes of every array a `Models` holds for `mode`, in order."""

    def arrays(value):
        if value is None:
            return []
        if isinstance(value, np.ndarray):
            return [value.tobytes()]
        if dataclasses.is_dataclass(value):
            value = [getattr(value, field.name) for field in dataclasses.fields(value)]
        return [a for v in (value.values() if isinstance(value, dict) else value) for a in arrays(v)]

    return arrays(held(models, mode))


@pytest.mark.parametrize("mode,variant,renormalize", CASES)
def test_held_constants_are_fresh_and_never_written(idx, lm, bags, mode, variant, renormalize):
    models = models_for(idx, lm, mode, variant)
    beam_decode(bags[0], models, DecodeConfig(mode=mode))
    lin = models.linearizer
    if lin is not None:
        tables = models.scorer_tables
        word_ids = [lin.indexers.word_id(f) for f in bags[0].forms()]
        fresh = ffnn.slot_tables(lin, word_ids, FEATURE_BLOCKS[lin.variant])
        assert sorted(tables) == sorted(fresh.keys() - {"word"})
        for block, (ids, table) in tables.items():
            assert ids.tobytes() == fresh[block][0].tobytes()
            assert table.tobytes() == fresh[block][1].tobytes()
    if mode != "syn":
        assert [a.tobytes() for layer in models.lm_start for a in layer] == [
            a.tobytes() for layer in start_state(lm, step_weights(lm)) for a in layer
        ]
    before, kept = held_bytes(models, mode), held(models, mode)
    for beam in (1, 10):
        cfg = DecodeConfig(mode=mode, beam_size=beam, renormalize_joint=renormalize)
        for bag in bags:
            beam_decode(bag, models, cfg)
    assert held_bytes(models, mode) == before
    assert all(a is b for a, b in zip(held(models, mode), kept, strict=True))
    # the module's held arrays: the index vector of the scorer's gathers and
    # the ranks of a one-item beam, read-only and as built
    for array, want in [(ffnn._INDEX, np.arange(1024)), (decoder._FIRST, np.zeros(1, np.int64))]:
        assert not array.flags.writeable
        assert array.dtype == want.dtype and array.tobytes() == want.tobytes()
    # the shared inventory half of each bag's space: tuples of frozen actions,
    # the same objects for every bag, equal to a space built from scratch
    spaces = [decoder._root(bag, models, DecodeConfig(mode=mode)).states[0].space for bag in bags]
    first = spaces[0].actions[len(spaces[0].forms) :]
    for space in spaces:
        fresh = reference_transition.ActionSpace(
            space.tokens, space.variant, space.pos_tags, space.arc_labels
        )
        assert space.actions == fresh.actions and space.arg_ids == fresh.arg_ids
        assert all(a is b for a, b in zip(space.actions[len(space.forms) :], first, strict=True))
        for shared in (space.actions, space.arg_ids, space.pos_tags, space.arc_labels):
            assert type(shared) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.actions[-1].arg = "x"


@pytest.mark.parametrize("mode", ["syn", "syn+lstm", "lstm"])
def test_rebinding_a_model_rebuilds_its_constants(idx, lm, bags, mode):
    # a Models cannot be rebound in place; the session built from it with
    # another model must decode as a fresh one, not from the old constants
    other_lin, other_lm = small_linearizer(idx, "full", seed=89), small_lm(idx, seed=90)
    cfg = DecodeConfig(mode=mode, beam_size=4)
    models = Models(small_linearizer(idx, "full", seed=84), lm)
    before = [beam_decode(bag, models, cfg) for bag in bags]
    for name, other in [("linearizer", other_lin), ("lm", other_lm)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(models, name, other)
    if mode != "lstm":
        models = dataclasses.replace(models, linearizer=other_lin)
    if mode != "syn":
        models = dataclasses.replace(models, lm=other_lm)
    fresh = Models(linearizer=models.linearizer, lm=models.lm)
    after = [beam_decode(bag, models, cfg) for bag in bags]
    assert after == [beam_decode(bag, fresh, cfg) for bag in bags]
    assert after != before


def search(bag, models, cfg):
    """Yield each beam of `beam_decode`'s search right after its step is scored."""
    beam = decoder._root(bag, models, cfg)
    while not decoder._is_terminal(beam.states[0], cfg.mode):
        cands = step_scores(beam, models, cfg)
        yield beam
        beam = decoder._advance_all(beam, cands, decoder._kept(beam, cands, cfg.beam_size))


@pytest.mark.parametrize(
    "mode,variant", [("syn+lstm", "full"), ("synxlstm", "full"), ("lstm", None)]
)
def test_every_stepped_row_matches_its_prefix(idx, lm, bags, mode, variant):
    # each LM row is the state of the shifted words of the item that read it,
    # as the whole-block reference step computes it from the start symbol
    models = models_for(idx, lm, mode, variant)
    cfg = DecodeConfig(mode=mode, alpha=0.4, beam_size=10)
    for bag in bags:
        prefixes = {}
        for beam in search(bag, models, cfg):
            for k, state in enumerate(beam.states):
                if beam.lm_shifts[k] < 0:
                    shifted = tuple(a.arg for a in state.history if a.kind == SHIFT)
                    assert prefixes.setdefault(int(beam.lm_rows[k]), shifted) == shifted
        assert sorted(prefixes) == list(range(beam.lm.count))
        for row, shifted in prefixes.items():
            want = reference_decode.lm_prefix_state(lm, shifted)
            for (h, c), (h1, c1) in zip(beam.lm.layers, want):
                assert np.max(np.abs(h[row] - h1)) <= 1e-12 and np.max(np.abs(c[row] - c1)) <= 1e-12


def test_syn_mode_steps_no_rows(idx, lm, bags):
    models = models_for(idx, lm, "syn", "full")
    cfg = DecodeConfig(mode="syn", beam_size=10)
    with mock.patch.object(decoder, "lm_step") as lm_step:
        for bag in bags:
            assert all(beam.lm is None for beam in search(bag, models, cfg))
            beam_decode(bag, models, cfg)
    lm_step.assert_not_called()


def test_a_shift_pruned_before_it_is_read_is_never_stepped(idx, lm, bags):
    # in syn+lstm mode only the items that can shift read their LM state, and
    # a full-variant Shift is always followed by a Pos action, so every kept
    # Shift waits at least one step; the rows stepped must be exactly the
    # reads of waiting Shifts, one row per read
    models = models_for(idx, lm, "syn+lstm", "full")
    cfg = DecodeConfig(mode="syn+lstm", alpha=0.4, beam_size=10)
    kept_shifts = never_read = 0
    for bag in bags:
        beam = decoder._root(bag, models, cfg)
        waits_on = [None]  # per item, the kept Shift its LM state waits on
        reads = []  # per kept Shift, how many items read its state
        while not beam.states[0].terminal:
            cands = step_scores(beam, models, cfg)
            for k, (state, shift) in enumerate(zip(beam.states, waits_on)):
                can_shift = decoder._successors(state, cfg.mode)[0] < len(state.space.forms)
                assert (beam.lm_shifts[k] >= 0) == (shift is not None and not can_shift)
                if shift is not None and can_shift:
                    reads[shift] += 1
            kept = decoder._kept(beam, cands, cfg.beam_size)
            waiting = beam.lm_shifts >= 0
            parents = kept // cands.codes.shape[1]
            beam = decoder._advance_all(beam, cands, kept)
            waits_on = [waits_on[p] if waiting[p] else None for p in parents]
            for k, state in enumerate(beam.states):
                if state.history[-1].kind == SHIFT:
                    waits_on[k] = len(reads)
                    reads.append(0)
        assert beam.lm.count - 1 == sum(reads)
        kept_shifts += len(reads)
        never_read += reads.count(0)
    assert 0 < never_read < kept_shifts


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    forms=st.lists(st.sampled_from(["the", "dog", "a", "cat", "qqq", "zebra", "ran"]), min_size=1, max_size=7),
    case=st.sampled_from(CASES),
    beam_size=st.sampled_from([1, 2, 10]),
)
def test_one_item_ranks_and_padding_equal_the_replaced_forms(forms, case, beam_size):
    # Every beam a decode moves to ranks its items as the lexsort rule does,
    # a lone kept item included, and every step's feasible sets pad as the
    # list fill does.
    mode, variant, renormalize = case
    idx = build_indexers(toy_corpus(30, seed=81))
    models = models_for(idx, small_lm(idx, seed=82), mode, variant)
    cfg = DecodeConfig(mode=mode, beam_size=beam_size, renormalize_joint=renormalize)
    beam = decoder._root(bag_from_forms(forms), models, cfg)
    lone = 0
    while not decoder._is_terminal(beam.states[0], mode):
        feasibles = [decoder._successors(state, mode) for state in beam.states]
        cands = step_scores(beam, models, cfg)
        want = reference_optim.pad_rows(feasibles)
        assert cands.codes.tobytes() == want[0].tobytes() and cands.codes.shape == want[0].shape
        assert cands.valid.tobytes() == want[1].tobytes()
        kept = decoder._kept(beam, cands, beam_size)
        parents = kept // cands.codes.shape[1]
        codes = cands.codes.ravel()[kept]
        ranks = reference_decode.history_ranks(codes, beam.ranks[parents])
        beam = decoder._advance_all(beam, cands, kept)
        assert beam.ranks.dtype == ranks.dtype and beam.ranks.tobytes() == ranks.tobytes()
        lone += len(kept) == 1
    assert lone or beam_size > 1
