"""Test-only reference for `synlin.transition.ActionSpace`.

`ActionSpace` here builds every part of a space from scratch, as the class
did before its inventory half (the Pos, arc and End actions, the tail of
`arg_ids` and the check that tags and labels strictly increase) was built
once per (variant, tags, labels) and shared, and before `codes` was built on
first use.  Every attribute of a space must equal this one's
(`test_transition.py`).
"""

from synlin.errors import StateError
from synlin.transition import END, FULL, LEFT_ARC, NULL_GROUP, POS, RIGHT_ARC, SHIFT
from synlin.transition import Action, _item


class ActionSpace:
    def __init__(self, tokens, variant: str, pos_tags: tuple, arc_labels: tuple):
        self.variant = variant
        self.tokens = tuple(sorted(tokens, key=lambda t: (t.form, t.tid)))
        bits: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            bits[tok.form] = bits.get(tok.form, 0) | 1 << i
        self.forms, self.form_bits = tuple(bits), tuple(bits.values())
        if variant != FULL:
            pos_tags, arc_labels = (), (None,)
        for kind, names in (("POS tag", pos_tags), ("arc label", arc_labels)):
            bad = next(((a, b) for a, b in zip(names, names[1:]) if a >= b), None)
            if bad:
                raise StateError(f"{kind}s not strictly increasing: {bad[0]!r} before {bad[1]!r}")
        self.pos_tags, self.arc_labels = pos_tags, arc_labels if variant == FULL else ()
        self.actions = (
            *(Action(SHIFT, form) for form in self.forms),
            *(Action(POS, tag) for tag in pos_tags),
            *(Action(kind, label) for kind in (LEFT_ARC, RIGHT_ARC) for label in arc_labels),
            Action(END),
        )
        self.end_code = len(self.actions) - 1
        self.pos_codes = tuple(range(len(bits), len(bits) + len(pos_tags)))
        self.arc_codes = tuple(range(len(bits) + len(pos_tags), self.end_code))
        self.codes = {a: c for c, a in enumerate(self.actions)}
        label_ids = range(1, len(arc_labels) + 1) if variant == FULL else (0,)
        self.arg_ids = (0,) * len(bits) + (*range(1, len(pos_tags) + 1), *label_ids, *label_ids, 0)
        self.leaves = tuple(
            _item(tok, (i, *NULL_GROUP[1:]), 0, (tok,)) for i, tok in enumerate(self.tokens)
        )
