import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_features
from conftest import parse_valid
from synlin import features
from synlin.corpus import bag_from_forms, build_indexers
from synlin.errors import DataError
from synlin.features import FEATURE_BLOCKS, LABEL_SLOTS, POS_SLOTS, WORD_SLOTS, lookup
from synlin.synth import toy_corpus
from synlin.transition import Action, apply, initial_state

CORPUS = (
    "1\tI\t_\t_\tPRP\t_\t2\tnsubj\n2\tlove\t_\t_\tVBP\t_\t0\troot\n"
    "3\tNLP\t_\t_\tNNP\t_\t2\tdobj\n\n"
    "1\tthe\t_\t_\tDT\t_\t2\tdet\n2\tdog\t_\t_\tNN\t_\t3\tnsubj\n"
    "3\tran\t_\t_\tVBD\t_\t0\troot\n"
)


@pytest.fixture(scope="module")
def idx():
    return build_indexers(parse_valid(CORPUS))


def start(forms, idx, variant="full"):
    return initial_state(
        bag_from_forms(forms), variant, idx.content_pos_tags, idx.content_labels
    )


def run(state, *action_names):
    for name in action_names:
        state = apply(state, state.space.codes[Action.parse(name)])
    return state


def extract(state, idx):
    """One state's full features through the batch extractor, as id tuples."""
    return one(features.extract, state, idx)


def extract_light(state, idx):
    """One state's word features through the batch extractor, as id tuples."""
    return one(features.extract_light, state, idx)


def one(extractor, state, idx):
    out = extractor([state], lookup(state.space, idx))
    return {block: tuple(ids[0].tolist()) for block, ids in out.items()}


class TestLayout:
    def test_slot_counts(self):
        assert len(WORD_SLOTS) == 15 and len(POS_SLOTS) == 15 and len(LABEL_SLOTS) == 12
        assert sum(map(len, FEATURE_BLOCKS["full"].values())) == 42
        assert sum(map(len, FEATURE_BLOCKS["light"].values())) == 15

    def test_initial_state_all_null(self, idx):
        fv = extract(start(["I", "love"], idx), idx)
        assert fv == {
            "word": (idx.null_word_id,) * 15,
            "pos": (idx.null_pos_id,) * 15,
            "label": (idx.null_label_id,) * 12,
        }

    def test_light_is_words_only(self, idx):
        fv = extract_light(start(["I", "love"], idx, variant="light"), idx)
        assert fv == {"word": (idx.null_word_id,) * 15}


class TestStackSlots:
    def test_three_shifted(self, idx):
        st = run(
            start(["I", "love", "NLP"], idx),
            "Shift-I",
            "Pos-PRP",
            "Shift-love",
            "Pos-VBP",
            "Shift-NLP",
            "Pos-NNP",
        )
        fv = extract(st, idx)
        w = idx.word_id
        assert fv["word"][:3] == (w("NLP"), w("love"), w("I"))
        assert fv["word"][3:] == (idx.null_word_id,) * 12
        p = idx.pos_id
        assert fv["pos"][:3] == (p("NNP"), p("VBP"), p("PRP"))
        assert fv["label"] == (idx.null_label_id,) * 12

    def test_light_three_shifted(self, idx):
        st = run(
            start(["I", "love", "NLP"], idx, variant="light"),
            "Shift-I",
            "Shift-love",
            "Shift-NLP",
        )
        fv = extract_light(st, idx)
        w = idx.word_id
        assert fv["word"] == (w("NLP"), w("love"), w("I")) + (idx.null_word_id,) * 12

    def test_pending_pos_exposes_null_tag(self, idx):
        st = run(start(["I", "love"], idx), "Shift-I")
        fv = extract(st, idx)
        assert fv["word"][0] == idx.word_id("I")
        assert fv["pos"][0] == idx.null_pos_id

    def test_child_and_label_slots(self, idx):
        st = run(
            start(["the", "dog", "ran"], idx),
            "Shift-the",
            "Pos-DT",
            "Shift-dog",
            "Pos-NN",
            "LArc-det",
        )
        fv = extract(st, idx)
        i_lc1_s1 = WORD_SLOTS.index("lc1(s1)")
        assert fv["word"][0] == idx.word_id("dog")
        assert fv["word"][i_lc1_s1] == idx.word_id("the")
        assert fv["word"][WORD_SLOTS.index("lc2(s1)")] == idx.null_word_id
        assert fv["pos"][i_lc1_s1] == idx.pos_id("DT")
        assert fv["label"][LABEL_SLOTS.index("lc1(s1)")] == idx.label_id("det")

    def test_grandchild_slot(self, idx):
        # ((the <- dog) <- ran): lc1(s1)=dog, lc1(lc1(s1))=the
        st = run(
            start(["the", "dog", "ran"], idx, variant="light"),
            "Shift-the",
            "Shift-dog",
            "LArc",
            "Shift-ran",
            "LArc",
        )
        fv = extract_light(st, idx)
        assert fv["word"][0] == idx.word_id("ran")
        assert fv["word"][WORD_SLOTS.index("lc1(s1)")] == idx.word_id("dog")
        assert fv["word"][WORD_SLOTS.index("lc1(lc1(s1))")] == idx.word_id("the")

    def test_outermost_child_ordering(self, idx):
        # two left children: nearest is attached first, lc1 is the outermost
        st = run(
            start(["I", "the", "dog"], idx, variant="light"),
            "Shift-I",
            "Shift-the",
            "Shift-dog",
            "LArc",  # the <- dog
            "LArc",  # I <- dog
        )
        fv = extract_light(st, idx)
        assert fv["word"][WORD_SLOTS.index("lc1(s1)")] == idx.word_id("I")
        assert fv["word"][WORD_SLOTS.index("lc2(s1)")] == idx.word_id("the")


class TestInvariants:
    def test_positional_stability(self, idx):
        st = run(start(["I", "love", "NLP"], idx), "Shift-I", "Pos-PRP", "Shift-love")
        assert extract(st, idx) == extract(st, idx)

    def test_remaining_set_blindness(self, idx):
        st = run(start(["I", "love", "NLP"], idx), "Shift-I", "Pos-PRP")
        other = run(start(["I", "zebra", "the", "the"], idx), "Shift-I", "Pos-PRP")
        assert st.stack == other.stack and st.remaining != other.remaining
        assert extract(st, idx) == extract(other, idx)

    def test_unknown_word_maps_to_unk(self, idx):
        st = run(start(["xyzzy"], idx, variant="light"), "Shift-xyzzy")
        fv = extract_light(st, idx)
        assert fv["word"][0] == idx.unk_id


class TestBatchEqualsReference:
    """A step's batch extraction equals the tree-walking reference, state by state."""

    CORPUS = toy_corpus(30, seed=5)
    IDX = build_indexers(CORPUS)
    FORMS = sorted({form for sent in CORPUS for form in sent.forms()})[:12]

    @settings(max_examples=150, deadline=None)
    @given(
        bag=st.lists(st.sampled_from([*FORMS, "oov", "<unk>", "<null_w>"]), min_size=1, max_size=8),
        variant=st.sampled_from(["full", "light"]),
        tags=st.lists(st.sampled_from(IDX.content_pos_tags), min_size=1, unique=True),
        labels=st.lists(st.sampled_from(IDX.content_labels), min_size=1, unique=True),
        own_inventories=st.booleans(),
        picks=st.lists(st.integers(0, 10**6), min_size=24, max_size=24),
    )
    def test_random_derivations(self, bag, variant, tags, labels, own_inventories, picks):
        # duplicate and out-of-vocabulary forms, and (unless `own_inventories`)
        # a space over some of the indexers' tags and labels, not all
        idx = self.IDX
        if own_inventories:
            tags, labels = idx.content_pos_tags, idx.content_labels
        state = initial_state(bag_from_forms(bag), variant, sorted(tags), sorted(labels))
        states = [state]
        for pick in picks:
            legal = state.legal
            if not legal:
                break
            state = apply(state, legal[pick % len(legal)])
            states.append(state)
        full = variant == "full"
        extractor = features.extract if full else features.extract_light
        batch = extractor(states, lookup(state.space, idx))
        reference = reference_features.extract if full else reference_features.extract_light
        assert list(batch) == list(FEATURE_BLOCKS[variant])
        for k, st_k in enumerate(states):
            want = reference(st_k, idx)
            assert {block: tuple(ids[k].tolist()) for block, ids in batch.items()} == want

    def test_a_tag_the_indexers_lack_is_a_data_error(self):
        idx = self.IDX
        tags = sorted({*idx.content_pos_tags, "ZZZ"})
        state = initial_state(bag_from_forms(["a"]), "full", tags, idx.content_labels)
        with pytest.raises(DataError, match="POS tag 'ZZZ' not in the index"):
            lookup(state.space, idx)
        state = initial_state(bag_from_forms(["a"]), "full", idx.content_pos_tags, ["zzz"])
        with pytest.raises(DataError, match="arc label 'zzz' not in the index"):
            lookup(state.space, idx)
