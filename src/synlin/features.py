"""Stack-context features for the action scorer.

The labeled system reads 42 ids from the top of the stack: word and POS of
the top three items, word/POS/label of the first and second outermost left
and right children of the top two, and word/POS/label of the outermost
grandchildren lc1(lc1(.)) / rc1(rc1(.)) of the top two.  The word-only
system keeps just the 15 word slots.  Absent referents fill with the
padding ids.  Nothing is ever read from the remaining word set.

Stack items carry their referents (`transition.StackItem.group`, packed as
bytes), so a step's features are one array read from each state's top three
packed groups, one column selection into slot order and one gather through
the bag's `Lookup`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from synlin.corpus import Indexers
from synlin.transition import FULL, LIGHT, ActionSpace

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
# each with its slot names.  A step's features map each block `b` of its
# variant to an (items x slots) id array; the scorer tensors of `b` are
# `emb_<b>` and `w1_<b>`.
FEATURE_BLOCKS = {
    FULL: {"word": WORD_SLOTS, "pos": POS_SLOTS, "label": LABEL_SLOTS},
    LIGHT: {"word": WORD_SLOTS},
}

# Each slot's column in the top three groups laid side by side (s_k's group
# from 20 * (k - 1)): the word slots, then the POS (+7) and label (+13) ones.
_WORD_COLUMNS = np.array([0, 20, 40, 1, 2, 3, 4, 21, 22, 23, 24, 5, 6, 25, 26])
_COLUMNS = np.concatenate((_WORD_COLUMNS, _WORD_COLUMNS + 7, _WORD_COLUMNS[3:] + 13))


class Lookup(NamedTuple):
    """A bag's ids of group entries: `words` by token position, absent (-1)
    last; `pos` and `labels` by entry.  A decode's words are slot-table columns."""

    words: np.ndarray
    pos: np.ndarray
    labels: np.ndarray


def lookup(space: ActionSpace, indexers: Indexers) -> Lookup:
    """The indexer ids of `space`'s group entries: the identity for tags and
    labels when its inventories are the indexers' (a tag they lack is a DataError)."""
    words = [*(indexers.word_id(tok.form) for tok in space.tokens), indexers.null_word_id]
    pos = [indexers.null_pos_id, *map(indexers.pos_id, space.pos_tags)]
    labels = [indexers.null_label_id, *map(indexers.label_id, space.arc_labels)]
    return Lookup(*(np.array(ids, dtype=np.int64) for ids in (words, pos, labels)))


def _groups(states, columns: np.ndarray) -> np.ndarray:
    """The `columns` of each state's top three groups laid side by side."""
    rows = b"".join([s.top.packed + s.below.top.packed + s.below.below.top.packed for s in states])
    return np.frombuffer(rows, np.int64).reshape(len(states), -1)[:, columns]


def extract(states, ids: Lookup) -> dict[str, np.ndarray]:
    """Full 42-slot features (15 word + 15 POS + 12 label ids) of each of
    `states`, which share one bag and its `ids`."""
    x = _groups(states, _COLUMNS)
    words, pos, labels = ids.words[x[:, :15]], ids.pos[x[:, 15:30]], ids.labels[x[:, 30:]]
    return {"word": words, "pos": pos, "label": labels}


def extract_light(states, ids: Lookup) -> dict[str, np.ndarray]:
    """Word-only 15-slot features of each of `states`."""
    return {"word": ids.words[_groups(states, _WORD_COLUMNS)]}
