import numpy as np
import pytest

from conftest import TABLE2_CONLL, parse_valid, random_projective_sentence
from synlin.corpus import (
    DepSentence,
    Token,
    UNK_WORD,
    NULL_WORD,
    build_indexers,
    bag_from_forms,
    derive_oracle,
    gold_arcs,
    parse_conll_forms,
    parse_conll_lenient,
    to_bag,
    to_conll,
)
from synlin.errors import (
    ConllError,
    DataError,
    NonProjectiveError,
    TreeError,
)
from synlin.transition import Action, derivation_length, realized_sentence


def names(actions):
    return [a.name() for a in actions]


# "del" is the multiword token spanning the syntactic words 1-2; 3.1 is an
# empty node.  Readers keep the syntactic words only.
CONLLU_BLOCK = (
    "# text = del perro\n"
    "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "1\tde\tde\tADP\tIN\t_\t3\tcase\t_\t_\n"
    "2\tel\tel\tDET\tDT\t_\t3\tdet\t_\t_\n"
    "3\tperro\tperro\tNOUN\tNN\t_\t0\troot\t_\t_\n"
    "3.1\tes\t_\t_\t_\t_\t_\t_\t3:cop\t_\n"
)


class TestParseConll:
    def test_basic_block(self, table2):
        assert [t.form for t in table2.tokens] == ["I", "love", "NLP"]
        assert [t.head for t in table2.tokens] == [2, 0, 2]
        assert [t.form for t in table2.tokens if t.head == 0] == ["love"]

    def test_empty_input(self):
        assert parse_conll_lenient("") == ([], [])
        assert parse_conll_lenient("\n\n") == ([], [])

    def test_space_separated_columns(self):
        text = "1 I _ _ PRP _ 2 nsubj\n2 love _ _ VBP _ 0 root\n3 NLP _ _ NNP _ 2 dobj\n"
        assert parse_valid(text)[0].forms() == ["I", "love", "NLP"]

    def test_multi_root_rejected(self):
        text = "1\ta\t_\t_\tX\t_\t0\troot\n2\tb\t_\t_\tX\t_\t0\troot\n"
        assert parse_conll_lenient(text) == ([], ["sentence 1: expected exactly one root, found 2"])

    def test_cycle_rejected(self):
        text = "1\ta\t_\t_\tX\t_\t2\tl\n2\tb\t_\t_\tX\t_\t1\tl\n3\tc\t_\t_\tX\t_\t0\troot\n"
        sentences, [skipped] = parse_conll_lenient(TABLE2_CONLL + "\n" + text)
        assert len(sentences) == 1
        assert skipped.startswith("sentence 2: ") and "cycle" in skipped

    def test_nonprojective_rejected(self):
        # arcs 3->1 and 4->2 cross
        text = (
            "1\ta\t_\t_\tX\t_\t3\tl\n"
            "2\tb\t_\t_\tX\t_\t4\tl\n"
            "3\tc\t_\t_\tX\t_\t0\troot\n"
            "4\td\t_\t_\tX\t_\t3\tl\n"
        )
        assert parse_conll_lenient(text) == ([], ["sentence 1: arc 4->2 crosses token 3"])
        with pytest.raises(NonProjectiveError):
            DepSentence(tokens=tuple(Token(i, "x", "X", h, "l") for i, h in enumerate((3, 4, 0, 3), 1)))

    def test_malformed_line_number(self):
        text = "1\tI\t_\t_\tPRP\t_\t2\tnsubj\n2\tlove\t_\t_\tVBP\n"
        with pytest.raises(ConllError, match="line 2"):
            parse_conll_lenient(text)

    def test_non_integer_head(self):
        text = "1\tI\t_\t_\tPRP\t_\tx\tnsubj\n"
        with pytest.raises(ConllError, match="line 1"):
            parse_conll_lenient(text)

    def test_lenient_skips_bad_trees(self):
        good = TABLE2_CONLL
        bad = "1\ta\t_\t_\tX\t_\t0\troot\n2\tb\t_\t_\tX\t_\t0\troot\n"
        sentences, skipped = parse_conll_lenient(good + "\n" + bad)
        assert len(sentences) == 1
        assert len(skipped) == 1 and "sentence 2" in skipped[0]

    def test_forms_only_reader_ignores_tree_quality(self):
        bad = "1\ta\t_\t_\tX\t_\t0\troot\n2\tb\t_\t_\tX\t_\t0\troot\n"
        assert parse_conll_forms(bad) == [["a", "b"]]

    def test_conllu_ranges_and_empty_nodes_skipped_by_strict_reader(self):
        # a reader that must accept every tree reads ranges and empty nodes
        # as no tokens, not as a bad tree
        (sent,) = parse_valid(CONLLU_BLOCK)
        assert sent.forms() == ["de", "el", "perro"]
        assert [t.head for t in sent.tokens] == [3, 3, 0]

    def test_conllu_ranges_and_empty_nodes_skipped_by_lenient_reader(self):
        sentences, skipped = parse_conll_lenient(CONLLU_BLOCK + "\n" + CONLLU_BLOCK)
        assert [s.forms() for s in sentences] == [["de", "el", "perro"]] * 2
        assert skipped == []

    def test_conllu_ranges_and_empty_nodes_skipped_by_forms_reader(self):
        assert parse_conll_forms(CONLLU_BLOCK) == [["de", "el", "perro"]]
        # a block of nothing but such lines is no sentence
        assert parse_conll_forms("1-2\tdel\n1.1\tx\n") == []

    def test_roundtrip_through_text(self, synth220):
        again = parse_valid(to_conll(synth220))
        assert again == synth220


class TestIndexers:
    def one_sentence(self):
        return parse_valid(
            "1\tI\t_\t_\tPRP\t_\t2\tnsubj\n2\tlove\t_\t_\tVBP\t_\t0\troot\n"
            "3\tNLP\t_\t_\tNNP\t_\t2\tdobj\n"
        )

    def test_min_count_one(self):
        idx = build_indexers(self.one_sentence(), min_count=1)
        assert idx.n_words == 5  # 3 words + UNK + padding
        assert idx.words[0] == UNK_WORD and idx.words[1] == NULL_WORD

    def test_min_count_two_drops_all(self):
        idx = build_indexers(self.one_sentence(), min_count=2)
        assert idx.n_words == 2
        assert idx.word_id("love") == idx.unk_id

    def test_min_count_two_shared_word(self):
        text = (
            "1\tI\t_\t_\tPRP\t_\t2\tnsubj\n2\tlove\t_\t_\tVBP\t_\t0\troot\n\n"
            "1\tyou\t_\t_\tPRP\t_\t2\tnsubj\n2\tlove\t_\t_\tVBP\t_\t0\troot\n"
        )
        idx = build_indexers(parse_valid(text), min_count=2)
        assert idx.words[2:] == ("love",)

    def test_reserved_spellings_take_the_reserved_ids(self):
        text = (
            "1\t<unk>\t_\t_\tNN\t_\t2\tnsubj\n2\tgo\t_\t_\tVB\t_\t0\troot\n"
            "3\t<null_w>\t_\t_\tNN\t_\t2\tdobj\n"
        )
        idx = build_indexers(parse_valid(text))
        assert idx.words == (UNK_WORD, NULL_WORD, "go")
        assert idx.word_id(UNK_WORD) == idx.unk_id and idx.word_id(NULL_WORD) == idx.null_word_id
        assert idx.counts[UNK_WORD] == idx.counts[NULL_WORD] == 1

    def test_bijectivity(self, synth220_indexers):
        idx = synth220_indexers
        for i, w in enumerate(idx.words):
            assert idx.word_id(w) == i
        for i, p in enumerate(idx.pos_tags):
            assert idx.pos_id(p) == i
        for i, l in enumerate(idx.labels):
            assert idx.label_id(l) == i

    def test_unknown_lookups(self, synth220_indexers):
        idx = synth220_indexers
        assert idx.word_id("zzz-not-a-word") == idx.unk_id
        with pytest.raises(DataError):
            idx.pos_id("ZZZ")
        with pytest.raises(DataError):
            idx.label_id("zzz")

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            build_indexers([])


class TestWordBag:
    def test_simple_multiset(self, table2):
        assert to_bag(table2).forms() == ["I", "NLP", "love"]

    def test_multiplicity(self):
        bag = bag_from_forms("the dog bit the man".split())
        assert bag.forms() == ["bit", "dog", "man", "the", "the"]
        assert len(bag) == 5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            bag_from_forms([])

    def test_a_sentence_bag_numbers_tokens_by_position(self, synth220):
        for sent in synth220:
            assert to_bag(sent).token_ids == tuple(
                sorted(((t.index, t.form) for t in sent.tokens), key=lambda r: (r[1], r[0]))
            )


def oracle(sent, variant):
    """The oracle's terminal state over the sentence's own inventories."""
    return derive_oracle(sent, variant, build_indexers([sent]))


class TestOracle:
    def test_table2_light(self, table2):
        acts = oracle(table2, "light").history
        assert names(acts) == ["Shift-I", "Shift-love", "Shift-NLP", "RArc", "LArc", "End"]

    def test_table2_full(self, table2):
        acts = oracle(table2, "full").history
        assert names(acts) == [
            "Shift-I",
            "Pos-PRP",
            "Shift-love",
            "Pos-VBP",
            "Shift-NLP",
            "Pos-NNP",
            "RArc-dobj",
            "LArc-nsubj",
            "End",
        ]

    def test_single_token_full(self):
        sent = parse_valid("1\tGo\t_\t_\tVB\t_\t0\troot\n")[0]
        acts = oracle(sent, "full").history
        assert names(acts) == ["Shift-Go", "Pos-VB", "End"]
        assert len(acts) == 3 * 1

    def test_shift_preferred_over_left_arc(self, table2):
        # After [I love] the arc I<-love is available but NLP is shifted first.
        acts = names(oracle(table2, "light").history)
        assert acts.index("Shift-NLP") < acts.index("LArc")

    def test_left_branching_chain(self):
        # w1 <- w2 <- w3: deferring the first LArc would dead-end, so the
        # oracle must emit it before shifting w3.
        text = "1\tw1\t_\t_\tA\t_\t2\tl1\n2\tw2\t_\t_\tA\t_\t3\tl2\n3\tw3\t_\t_\tA\t_\t0\troot\n"
        sent = parse_valid(text)[0]
        state = oracle(sent, "light")
        assert names(state.history) == ["Shift-w1", "Shift-w2", "LArc", "Shift-w3", "LArc", "End"]
        assert [t.form for t in realized_sentence(state)] == ["w1", "w2", "w3"]

    def test_action_count_law(self, synth220, synth220_indexers):
        for sent in synth220:
            assert len(derive_oracle(sent, "full", synth220_indexers).history) == 3 * len(sent)
            assert len(derive_oracle(sent, "light", synth220_indexers).history) == 2 * len(sent)

    @pytest.mark.parametrize("variant", ["full", "light"])
    def test_roundtrip_corpus(self, synth220, synth220_indexers, variant):
        for sent in synth220:
            state = derive_oracle(sent, variant, synth220_indexers)
            assert [t.form for t in realized_sentence(state)] == sent.forms()
            assert state.arcs == gold_arcs(sent, variant)

    @pytest.mark.parametrize("variant", ["full", "light"])
    def test_roundtrip_random_projective(self, variant):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            sent = random_projective_sentence(rng, int(rng.integers(1, 13)))
            state = oracle(sent, variant)
            assert len(state.history) == derivation_length(variant, len(sent))
            assert [t.form for t in realized_sentence(state)] == sent.forms()
            assert state.arcs == gold_arcs(sent, variant)

    def test_duplicate_forms_consume_lowest_index(self):
        text = (
            "1\tthe\t_\t_\tDT\t_\t2\tdet\n"
            "2\tdog\t_\t_\tNN\t_\t3\tnsubj\n"
            "3\tbit\t_\t_\tVBD\t_\t0\troot\n"
            "4\tthe\t_\t_\tDT\t_\t5\tdet\n"
            "5\tman\t_\t_\tNN\t_\t3\tdobj\n"
        )
        sent = parse_valid(text)[0]
        state = oracle(sent, "full")
        realized = realized_sentence(state)
        assert [t.form for t in realized] == ["the", "dog", "bit", "the", "man"]
        assert [t.tid for t in realized] == [1, 2, 3, 4, 5]
        assert state.arcs == gold_arcs(sent, "full")

    def test_unknown_variant(self, table2):
        with pytest.raises(DataError):
            oracle(table2, "medium")

    @pytest.mark.parametrize(
        "text,action",
        [
            ("1\tGo\t_\t_\t_\t_\t0\troot\n", "Pos-_"),
            ("1\ta\t_\t_\tX\t_\t2\t_\n2\tb\t_\t_\tX\t_\t0\troot\n", "LArc-_"),
        ],
    )
    def test_gold_action_outside_inventories_is_a_data_error(self, text, action):
        # "_" is absent from the inventories, so the gold Pos/arc action is illegal
        sent = parse_valid(text)[0]
        with pytest.raises(DataError, match=f"gold action {action} not feasible at "):
            oracle(sent, "full")
        assert oracle(sent, "light").terminal

    def test_inventories_come_from_the_indexers(self, table2):
        other = build_indexers(parse_valid("1\tGo\t_\t_\tVB\t_\t0\troot\n"))
        with pytest.raises(DataError, match="gold action Pos-PRP not feasible"):
            derive_oracle(table2, "full", other)
        assert derive_oracle(table2, "light", other).history == oracle(table2, "light").history


class TestDepSentenceInvariants:
    def test_self_head(self):
        with pytest.raises(TreeError):
            DepSentence(tokens=(Token(1, "a", "X", 1, "l"),))

    def test_head_out_of_range(self):
        with pytest.raises(TreeError):
            DepSentence(tokens=(Token(1, "a", "X", 5, "l"),))

    def test_noncontiguous_indices(self):
        with pytest.raises(TreeError):
            DepSentence(
                tokens=(Token(1, "a", "X", 0, "root"), Token(3, "b", "X", 1, "l"))
            )

    def test_empty(self):
        with pytest.raises(TreeError):
            DepSentence(tokens=())
