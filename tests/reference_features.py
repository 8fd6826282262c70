"""Test-only reference for feature extraction.

`extract` and `extract_light` are the extractors before stack items carried
their feature groups: they walk one state's stack items and their child
items for the referents (`referents`) and look each one's form, tag and
label up in the indexers.  `synlin.features.extract`/`extract_light` of a
whole step must give, state by state, the ids these give
(`test_features.py`).  The items here are `ReferenceItem`s, the stack items
that held their child items, built by `stack`, which replays a state's
derivation.
"""

from typing import NamedTuple

import numpy as np

from synlin.features import FEATURE_BLOCKS
from synlin.transition import FULL, LEFT_ARC, POS, RIGHT_ARC, SHIFT


class ReferenceItem(NamedTuple):
    """A stack item with its child items, nearest-to-root first (attachment
    order): the outermost left child is the last of `left_children`."""

    form: str
    pos: str | None = None
    arc_label: str | None = None
    left_children: tuple = ()
    right_children: tuple = ()

    def left_child(self, k):
        """k-th leftmost child (k=1 is the outermost), or None."""
        return self.left_children[-k] if len(self.left_children) >= k else None

    def right_child(self, k):
        """k-th rightmost child (k=1 is the outermost), or None."""
        return self.right_children[-k] if len(self.right_children) >= k else None


def stack(state) -> list:
    """The stack of `state` as `ReferenceItem`s, bottom first, by replaying its actions."""
    items = []
    for action in state.history:
        if action.kind == SHIFT:
            items.append(ReferenceItem(action.arg))
        elif action.kind == POS:
            items[-1] = items[-1]._replace(pos=action.arg)
        elif action.kind in (LEFT_ARC, RIGHT_ARC):
            j, i = items[-2], items[-1]
            if action.kind == LEFT_ARC:
                dep = j._replace(arc_label=action.arg)
                items[-2:] = [i._replace(left_children=(*i.left_children, dep))]
            else:
                dep = i._replace(arc_label=action.arg)
                items[-2:] = [j._replace(right_children=(*j.right_children, dep))]
    return items


def referents(state) -> list:
    s = (stack(state)[::-1] + [None] * 3)[:3]
    out = list(s)
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


def word_ids(refs, indexers) -> tuple:
    null = indexers.null_word_id
    return tuple(null if r is None else indexers.word_id(r.form) for r in refs)


def extract(state, indexers) -> dict:
    """Full 42-slot feature vector (15 word + 15 POS + 12 label ids)."""
    refs = referents(state)
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
    return {"word": word_ids(refs, indexers), "pos": pos, "label": labels}


def extract_light(state, indexers) -> dict:
    """Word-only 15-slot feature vector."""
    return {"word": word_ids(referents(state), indexers)}


def features(model, state) -> dict:
    """The feature vector of `state` for `model`'s variant."""
    return (extract if model.variant == FULL else extract_light)(state, model.indexers)


def block_ids(model, vectors) -> dict:
    """Feature vectors as one (items x slots) id array per feature block."""
    return {
        block: np.array([v[block] for v in vectors], dtype=np.int64)
        for block in FEATURE_BLOCKS[model.variant]
    }
