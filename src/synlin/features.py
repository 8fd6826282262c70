"""Stack-context features for the action scorer.

The labeled system reads 42 ids from the top of the stack: word and POS of
the top three items, word/POS/label of the first and second outermost left
and right children of the top two, and word/POS/label of the outermost
grandchildren lc1(lc1(.)) / rc1(rc1(.)) of the top two.  The word-only
system keeps just the 15 word slots.  Absent referents fill with the
padding ids.  Nothing is ever read from the remaining word set.
"""

from __future__ import annotations

from synlin.corpus import Indexers
from synlin.transition import FULL, LIGHT, StackItem, State

# Referent names in slot order; recorded in model containers so a saved
# model documents its own input layout.
WORD_SLOTS = (
    "s1",
    "s2",
    "s3",
    "lc1(s1)",
    "lc2(s1)",
    "rc1(s1)",
    "rc2(s1)",
    "lc1(s2)",
    "lc2(s2)",
    "rc1(s2)",
    "rc2(s2)",
    "lc1(lc1(s1))",
    "rc1(rc1(s1))",
    "lc1(lc1(s2))",
    "rc1(rc1(s2))",
)
POS_SLOTS = WORD_SLOTS
LABEL_SLOTS = WORD_SLOTS[3:]

# The feature blocks of each variant, in the order the scorer adds them,
# each with its slot names.  A feature vector maps each block `b` of its
# variant to its tuple of ids, one per slot; the scorer tensors of `b` are
# `emb_<b>` and `w1_<b>`.
FEATURE_BLOCKS = {
    FULL: {"word": WORD_SLOTS, "pos": POS_SLOTS, "label": LABEL_SLOTS},
    LIGHT: {"word": WORD_SLOTS},
}


def _referents(state: State) -> list[StackItem | None]:
    s = state.peek(3)
    out: list[StackItem | None] = list(s)
    for item in s[:2]:
        if item is None:
            out.extend((None,) * 4)
        else:
            out.extend((item.left_child(1), item.left_child(2)))
            out.extend((item.right_child(1), item.right_child(2)))
    for item in s[:2]:
        lc1 = item.left_child(1) if item is not None else None
        rc1 = item.right_child(1) if item is not None else None
        out.append(lc1.left_child(1) if lc1 is not None else None)
        out.append(rc1.right_child(1) if rc1 is not None else None)
    return out


def _word_ids(refs: list[StackItem | None], indexers: Indexers) -> tuple[int, ...]:
    null = indexers.null_word_id
    return tuple(null if r is None else indexers.word_id(r.root.form) for r in refs)


def extract(state: State, indexers: Indexers) -> dict[str, tuple[int, ...]]:
    """Full 42-slot feature vector (15 word + 15 POS + 12 label ids)."""
    refs = _referents(state)
    pos = tuple(
        indexers.pos_id(r.pos) if r is not None and r.pos is not None else indexers.null_pos_id
        for r in refs
    )
    labels = tuple(
        indexers.label_id(r.arc_label)
        if r is not None and r.arc_label is not None
        else indexers.null_label_id
        for r in refs[3:]
    )
    return {"word": _word_ids(refs, indexers), "pos": pos, "label": labels}


def extract_light(state: State, indexers: Indexers) -> dict[str, tuple[int, ...]]:
    """Word-only 15-slot feature vector."""
    return {"word": _word_ids(_referents(state), indexers)}
