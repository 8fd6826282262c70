"""Test-only reference for the scorer's output rows.

`ActionInventory` is the row map from before rows were numbered by offset:
a dict from each `Action` to its row, over the indexers' words (the padding
entry dropped by value), POS tags and labels, with out-of-vocabulary Shifts
looked up as the UNK row.  `synlin.ffnn.output_actions` must list its
`actions`, and `synlin.ffnn.code_rows` must give `row(space.actions[c])` for
every code c (`test_ffnn.py`).  `inventory(model)` is a model's, built once
per symbol tables and variant.
"""

from functools import lru_cache

from synlin.corpus import UNK_WORD, Indexers
from synlin.errors import DataError
from synlin.transition import END, FULL, LEFT_ARC, POS, RIGHT_ARC, SHIFT, Action


class ActionInventory:
    """The global action set; row i of the output matrix scores action i.

    Shift rows cover the whole word vocabulary (including the unknown-word
    token, to which out-of-vocabulary shifts are mapped); the padding tokens
    have no rows.
    """

    def __init__(self, actions: tuple[Action, ...]):
        self.actions = actions
        self._rows = {a: i for i, a in enumerate(actions)}
        self._unk_shift = self._rows.get(Action(SHIFT, UNK_WORD))

    @classmethod
    def from_indexers(cls, indexers: Indexers, variant: str) -> "ActionInventory":
        acts = [
            Action(SHIFT, w) for w in indexers.words if w != indexers.words[1]
        ]  # every vocabulary word except the padding token
        if variant == FULL:
            acts.extend(Action(POS, p) for p in indexers.content_pos_tags)
            acts.extend(Action(LEFT_ARC, l) for l in indexers.content_labels)
            acts.extend(Action(RIGHT_ARC, l) for l in indexers.content_labels)
        else:
            acts.append(Action(LEFT_ARC))
            acts.append(Action(RIGHT_ARC))
        acts.append(Action(END))
        return cls(tuple(acts))

    def __len__(self) -> int:
        return len(self.actions)

    def __contains__(self, action: Action) -> bool:
        return action in self._rows

    def row(self, action: Action) -> int:
        """Row index of an action; unknown shift forms map to the UNK row."""
        r = self._rows.get(action)
        if r is not None:
            return r
        if action.kind == SHIFT and self._unk_shift is not None:
            return self._unk_shift
        raise DataError(f"action {action.name()} not in the inventory")

    def action(self, row: int) -> Action:
        return self.actions[row]


def inventory(model) -> ActionInventory:
    """The reference row map of a `Linearizer`."""
    return _inventory(model.indexers, model.variant)


@lru_cache(maxsize=None)
def _inventory(indexers: Indexers, variant: str) -> ActionInventory:
    return ActionInventory.from_indexers(indexers, variant)
