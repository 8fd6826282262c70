import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_transition
from synlin import transition
from synlin.corpus import bag_from_forms, to_bag
from synlin.errors import DataError, IllegalActionError, StateError
from synlin.transition import (
    Action,
    ActionSpace,
    apply,
    initial_state,
    legal_actions,
    realized_sentence,
)

POS_TAGS = ("NNP", "PRP", "VBP")
LABELS = ("dobj", "nsubj")


def start(forms, variant="light"):
    return initial_state(bag_from_forms(forms), variant, POS_TAGS, LABELS)


def actions_at(state):
    """The legal actions of `state`, in legal order."""
    return tuple(state.space.actions[c] for c in legal_actions(state))


def code(state, name):
    """The code of the action called `name` in `state`'s action space."""
    return state.space.codes[Action.parse(name)]


def run(state, *action_names):
    for name in action_names:
        state = apply(state, code(state, name))
    return state


class TestInitialState:
    def test_table2_init(self):
        st = start(["NLP", "love", "I"])
        assert st.stack == ()
        assert st.arcs == frozenset()
        assert len(st.remaining) == 3
        assert st.history == ()

    def test_single(self):
        st = start(["Go"])
        assert len(st.remaining) == 1

    def test_empty_bag(self):
        with pytest.raises(StateError):
            initial_state([], "light")

    def test_unknown_variant(self):
        with pytest.raises(StateError):
            initial_state(bag_from_forms(["a"]), "medium")

    @pytest.mark.parametrize(
        "tags,labels,message",
        [
            (("VBP", "NNP"), LABELS, "POS tags not strictly increasing: 'VBP' before 'NNP'"),
            (("NNP", "NNP"), LABELS, "POS tags not strictly increasing: 'NNP' before 'NNP'"),
            (POS_TAGS, ("nsubj", "dobj"), "arc labels not strictly increasing: 'nsubj' before 'dobj'"),
            (POS_TAGS, ("dobj", "dobj"), "arc labels not strictly increasing: 'dobj' before 'dobj'"),
        ],
    )
    def test_full_variant_needs_increasing_tags_and_labels(self, tags, labels, message):
        bag = bag_from_forms(["I", "love"])
        with pytest.raises(StateError, match=f"^{re.escape(message)}$"):
            initial_state(bag, "full", tags, labels)
        light = initial_state(bag, "light", tags, labels)
        names = [a.name() for a in light.space.actions]
        assert names == ["Shift-I", "Shift-love", "LArc", "RArc", "End"]

    def test_codes_number_the_blocks_contiguously(self):
        space = start(["I", "love", "I"], variant="full").space
        assert [a.name() for a in space.actions] == [
            "Shift-I", "Shift-love", "Pos-NNP", "Pos-PRP", "Pos-VBP",
            "LArc-dobj", "LArc-nsubj", "RArc-dobj", "RArc-nsubj", "End",
        ]
        assert space.pos_codes == (2, 3, 4) and space.arc_codes == (5, 6, 7, 8)
        assert space.end_code == 9


class TestLegalActions:
    def test_all_shifted_no_end_no_shift(self):
        st = run(start(["I", "love", "NLP"]), "Shift-I", "Shift-love", "Shift-NLP")
        acts = {a.name() for a in actions_at(st)}
        assert acts == {"LArc", "RArc"}

    def test_single_tree_only_end(self):
        st = run(
            start(["I", "love", "NLP"]), "Shift-I", "Shift-love", "Shift-NLP", "RArc", "LArc"
        )
        assert {a.name() for a in actions_at(st)} == {"End"}

    def test_full_after_shift_only_pos(self):
        st = run(start(["I", "love"], variant="full"), "Shift-I")
        acts = actions_at(st)
        assert {a.kind for a in acts} == {"Pos"}
        assert {a.arg for a in acts} == set(POS_TAGS)

    def test_full_arcs_carry_all_labels(self):
        st = run(
            start(["I", "love"], variant="full"), "Shift-I", "Pos-PRP", "Shift-love", "Pos-VBP"
        )
        acts = {a.name() for a in actions_at(st)}
        assert acts == {"LArc-dobj", "LArc-nsubj", "RArc-dobj", "RArc-nsubj"}

    def test_terminal_has_none(self):
        st = run(start(["Go"]), "Shift-Go", "End")
        assert actions_at(st) == ()

    def test_shift_actions_per_distinct_form(self):
        st = start(["the", "dog", "the"])
        shifts = [a for a in actions_at(st) if a.kind == "Shift"]
        assert sorted(a.arg for a in shifts) == ["dog", "the"]


class TestApply:
    def test_table2_trace(self):
        # token ids follow construction order: I=1, love=2, NLP=3
        st = start(["I", "love", "NLP"], variant="full")
        st = run(
            st,
            "Shift-I",
            "Pos-PRP",
            "Shift-love",
            "Pos-VBP",
            "Shift-NLP",
            "Pos-NNP",
        )
        assert [it.root.form for it in st.stack] == ["I", "love", "NLP"]
        st = run(st, "RArc-dobj")
        assert [it.root.form for it in st.stack] == ["I", "love"]
        assert (2, 3, "dobj") in st.arcs
        st = run(st, "LArc-nsubj")
        assert [it.root.form for it in st.stack] == ["love"]
        assert (2, 1, "nsubj") in st.arcs
        st = run(st, "End")
        assert [t.form for t in realized_sentence(st)] == ["I", "love", "NLP"]

    def test_in_order_traversal(self):
        # bit with left subtree (the dog) and right subtree (the man)
        st = start(["the", "dog", "bit", "the", "man"])
        st = run(
            st,
            "Shift-the",
            "Shift-dog",
            "LArc",
            "Shift-bit",
            "LArc",
            "Shift-the",
            "Shift-man",
            "LArc",
            "RArc",
            "End",
        )
        assert [t.form for t in realized_sentence(st)] == ["the", "dog", "bit", "the", "man"]

    def test_illegal_action(self):
        st = start(["Go"])
        with pytest.raises(IllegalActionError, match="^illegal LArc at "):
            apply(st, code(st, "LArc"))

    def test_shift_not_in_bag(self):
        st = start(["Go"])
        assert Action.parse("Shift-stop") not in st.space.codes

    @pytest.mark.parametrize("bad", [-1, 4, 10**6, Action("End")])
    def test_only_codes_of_the_space_apply(self, bad):
        # codes only: an Action, or a number outside the space, names no action
        st = start(["Go"])
        assert len(st.space.actions) == 4
        message = f"^illegal action code {re.escape(repr(bad))} at "
        with pytest.raises(IllegalActionError, match=message):
            apply(st, bad)

    @pytest.mark.parametrize("variant", ["full", "light"])
    def test_every_illegal_kind_rejected_after_legal_set_is_used(self, variant):
        # apply checks membership in the legal set cached on the state; once
        # that set exists, an action of each kind outside it is still refused
        full = variant == "full"
        st = run(start(["I", "love", "NLP"], variant), "Shift-I", *(["Pos-PRP"] if full else []))
        arc = "nsubj" if full else None
        legal = legal_actions(st)
        for c in legal:
            apply(st, c)
        illegal = [
            Action("Shift", "I"),  # already shifted
            Action("LArc", arc),  # one stack item
            Action("RArc", arc),
            Action("End"),  # words remain
            *([Action("Pos", "PRP")] if full else []),  # no Pos pending
        ]
        for action in illegal:
            c = st.space.codes[action]
            assert c not in legal
            with pytest.raises(IllegalActionError, match=f"^illegal {action.name()} at "):
                apply(st, c)
        # never in the bag, no such kind, no Pos in the light variant: no code at all
        outside = [Action("Shift", "dog"), Action("Jump"), *([] if full else [Action("Pos", "PRP")])]
        assert not set(outside) & set(st.space.codes)
        two = run(st, "Shift-love", *(["Pos-VBP"] if full else []))
        assert actions_at(two)
        # a label outside the set has no code
        assert Action("LArc", "amod" if full else "nsubj") not in two.space.codes

    def test_determinism_and_immutability(self):
        st = start(["a", "b"])
        before = (st.stack, st.remaining, st.arcs, st.history)
        s1 = run(st, "Shift-a")
        s2 = run(st, "Shift-a")
        assert s1 == s2
        assert (st.stack, st.remaining, st.arcs, st.history) == before

    def test_duplicate_shift_consumes_lowest_tid(self):
        st = start(["the", "x", "the"])  # tids: the=1, x=2, the=3
        st = run(st, "Shift-the")
        assert st.stack[-1].root.tid == 1
        st = run(st, "Shift-the")
        assert st.stack[-1].root.tid == 3


class TestDerivationProperties:
    @pytest.mark.parametrize("variant", ["full", "light"])
    def test_random_walks_terminate_at_fixed_length(self, variant):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            forms = [f"w{rng.integers(0, 4)}" for _ in range(n)]
            st = start(forms, variant=variant)
            while True:
                acts = legal_actions(st)
                if not acts:
                    break
                st = apply(st, acts[rng.integers(0, len(acts))])
            assert st.terminal
            assert len(st.history) == (3 * n if variant == "full" else 2 * n)
            assert len(st.arcs) == n - 1
            assert len(realized_sentence(st)) == n

    def test_conservation(self):
        rng = np.random.default_rng(9)
        st = start([f"w{i%3}" for i in range(6)])
        def n_tokens(state):
            return len(state.remaining) + sum(len(item.span) for item in state.stack)

        n = n_tokens(st)
        while True:
            acts = legal_actions(st)
            if not acts:
                break
            st = apply(st, acts[rng.integers(0, len(acts))])
            assert n_tokens(st) == n

    def test_realized_requires_terminal(self):
        st = start(["Go"])
        with pytest.raises(StateError):
            realized_sentence(st)


class TestActionParsing:
    def test_roundtrip(self):
        for name in ["Shift-love", "Pos-PRP", "LArc-nsubj", "RArc", "End", "Shift-re-elect"]:
            assert Action.parse(name).name() == name

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="unknown action 'Jump-now'"):
            Action.parse("Jump-now")


SPACE_FIELDS = (
    "variant", "tokens", "forms", "form_bits", "pos_tags", "arc_labels", "actions", "end_code",
    "pos_codes", "arc_codes", "codes", "arg_ids", "leaves",
)
TAGS = ("DT", "JJ", "NN", "NNP", "PRP", "VBD", "VBP")
ARC_LABELS = ("amod", "det", "dobj", "nsubj", "root")


def inventory(names):
    """Strictly increasing tuples of `names`, and now and then one that is not."""
    ordered = st.lists(st.sampled_from(names), unique=True).map(lambda x: tuple(sorted(x)))
    return st.one_of(ordered, st.lists(st.sampled_from(names), max_size=4).map(tuple))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    forms=st.lists(st.sampled_from(["a", "dog", "the", "qqq", "cat"]), min_size=1, max_size=8),
    variant=st.sampled_from(["full", "light"]),
    pos_tags=inventory(TAGS),
    arc_labels=inventory(ARC_LABELS),
)
def test_a_space_equals_one_built_from_scratch(forms, variant, pos_tags, arc_labels):
    # The shared inventory half and the lazily built `codes` give every
    # attribute of a space built whole, and the same error when the tags or
    # labels of a full space do not strictly increase.
    tokens = bag_from_forms(forms).token_ids
    try:
        want = reference_transition.ActionSpace(tokens, variant, pos_tags, arc_labels)
    except StateError as exc:
        with pytest.raises(StateError, match=f"^{re.escape(str(exc))}$"):
            ActionSpace(tokens, variant, pos_tags, arc_labels)
        return
    got = ActionSpace(tokens, variant, pos_tags, arc_labels)
    for name in SPACE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
        assert type(getattr(got, name)) is type(getattr(want, name)), name
    # the inventory half is one shared object, and immutable
    again = ActionSpace(tokens[:1], variant, tuple(pos_tags), tuple(arc_labels))
    n, m = len(got.forms), len(again.forms)
    assert got.pos_tags is again.pos_tags and got.arc_labels is again.arc_labels
    assert all(a is b for a, b in zip(got.actions[n:], again.actions[m:], strict=True))
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.actions[-1].kind = "Shift"


def test_codes_are_built_on_first_use():
    space = start(["the", "dog"], "full").space
    assert "codes" not in vars(space)
    assert space.codes[Action("End")] == space.end_code
    assert vars(space)["codes"] is space.codes
    assert transition._inventory.cache_info().currsize >= 1
