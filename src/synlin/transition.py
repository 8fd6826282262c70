"""Arc-standard transition system for word ordering.

A state holds a stack of partially built dependency trees, the unordered
set of words not yet placed, and the arcs built so far.  Shift moves a word
from the set onto the stack; LArc/RArc combine the two topmost trees; End
closes a finished derivation.  In the "full" variant every Shift is followed
by exactly one Pos action tagging the new word, and arc actions carry labels;
the "light" variant has neither.

States are immutable nodes, as in the graph-structured stack of Huang &
Sagae 2010: `apply` returns a node pointing at its parent and at the state
holding the rest of its stack, so beam search can branch and share prefixes
freely; history, stack, remaining words and arcs are read back from the
nodes.  The states from one initial state share an `ActionSpace` that
numbers their actions in canonical order: `legal_actions` returns these
codes, and `apply` takes one.  Each stack item carries the referents the
scorer reads as one flat int tuple, which `apply` builds (`StackItem`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple

from synlin.errors import DataError, IllegalActionError, StateError

SHIFT = "Shift"
POS = "Pos"
LEFT_ARC = "LArc"
RIGHT_ARC = "RArc"
END = "End"

FULL = "full"
LIGHT = "light"
VARIANTS = (FULL, LIGHT)

_KIND_ORDER = {SHIFT: 0, POS: 1, LEFT_ARC: 2, RIGHT_ARC: 3, END: 4}


class TokenRef(NamedTuple):
    """One input token, individuated by `tid` so duplicate forms stay distinct."""

    tid: int
    form: str


@dataclass(frozen=True)
class Action:
    """A transition, e.g. Action("Shift", "love") or Action("LArc", "nsubj").

    Light-variant arc actions and End carry no argument.
    """

    kind: str
    arg: str | None = None

    def name(self) -> str:
        return self.kind if self.arg is None else f"{self.kind}-{self.arg}"

    @staticmethod
    def parse(text: str) -> "Action":
        kind, sep, arg = text.partition("-")
        if kind not in _KIND_ORDER:
            raise DataError(f"unknown action {text!r}")
        return Action(kind, arg if sep else None)

    def sort_key(self) -> tuple[int, str]:
        return (_KIND_ORDER[self.kind], self.arg or "")

    def __lt__(self, other: "Action") -> bool:
        """Canonical order; decoders break score ties on action histories."""
        return self.sort_key() < other.sort_key()


class StackItem(NamedTuple):
    """A partial subtree on the stack: its root token, its feature group, its
    root's dependent count and `span`, the realized order of the subtree.

    The group holds the positions in `space.tokens` of the root, lc1, lc2,
    rc1, rc2, lc1(lc1) and rc1(rc1) (-1 when absent) at 0-6, their tags at
    7-13 and the labels of the six dependents at 14-19; a tag or label is 1
    + its offset in the space's `pos_tags` or `arc_labels`, 0 when absent.
    """

    root: TokenRef
    group: tuple[int, ...]
    children: int
    span: tuple[TokenRef, ...]


NULL_GROUP = (-1,) * 7 + (0,) * 13  # an absent item's
# A new group selects from `i.group + (tag,)` (Pos) or `i.group + j.group +
# (label,)` (arcs, j's entries from 20): LArc makes j i's lc1, the old lc1
# its lc2 and lc1(j) its lc1(lc1); RArc makes i j's rc1, the old rc1 its rc2
# and rc1(i) its rc1(rc1).
_TAGGED = itemgetter(*range(7), 20, *range(8, 20))
_LEFT_ARC = itemgetter(0, 20, 1, 3, 4, 21, 6, 7, 27, 8, 10, 11, 28, 13, 40, 14, 16, 17, 34, 19)
_RIGHT_ARC = itemgetter(20, 21, 22, 0, 23, 25, 3, 27, 28, 29, 7, 30, 32, 10, 34, 35, 40, 36, 38, 16)


class ActionSpace:
    """The actions of every derivation from one initial state, by code.

    Code c is `actions[c]`, in canonical order (`codes`, built on first use,
    inverts it): Shifts first, code k shifting `forms[k]`, then contiguous
    Pos, LArc and RArc blocks (`pos_codes`, `arc_codes`) in the order of the
    tags and labels given, strictly increasing in the full variant (the light
    variant ignores them), then End.  Bit i of a state's `left` mask is
    `tokens[i]`, the bag sorted by (form, tid).  `pos_tags` and `arc_labels`
    are the inventories (empty in the light variant); `arg_ids[c]` is code
    c's tag or label entry in a feature group, and `leaves[i]` the item a
    Shift of `tokens[i]` pushes.  The half that depends only on the variant
    and the inventories is built once per (variant, tags, labels) and shared
    by every space over them (`_inventory`).
    """

    def __init__(self, tokens, variant: str, pos_tags: tuple, arc_labels: tuple):
        self.variant = variant
        self.tokens = tuple(sorted(tokens, key=lambda t: (t.form, t.tid)))
        bits: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            bits[tok.form] = bits.get(tok.form, 0) | 1 << i
        self.forms, self.form_bits = tuple(bits), tuple(bits.values())
        if variant != FULL:
            pos_tags, arc_labels = (), ()
        self.pos_tags, self.arc_labels, others, arg_ids = _inventory(
            variant, tuple(pos_tags), tuple(arc_labels)
        )
        n = len(bits)
        self.actions = (*(Action(SHIFT, form) for form in self.forms), *others)
        self.end_code = len(self.actions) - 1
        self.pos_codes = tuple(range(n, n + len(self.pos_tags)))
        self.arc_codes = tuple(range(n + len(self.pos_tags), self.end_code))
        self.arg_ids = (0,) * n + arg_ids
        self.leaves = tuple(
            StackItem(tok, (i, *NULL_GROUP[1:]), 0, (tok,)) for i, tok in enumerate(self.tokens)
        )

    @cached_property
    def codes(self) -> dict[Action, int]:
        return {a: c for c, a in enumerate(self.actions)}


@lru_cache(maxsize=64)
def _inventory(variant: str, pos_tags: tuple, arc_labels: tuple) -> tuple:
    """The inventory half of an `ActionSpace`: its `pos_tags` and
    `arc_labels`, its Pos, arc and End actions, and their `arg_ids` entries,
    all tuples.  A StateError unless a full variant's tags and labels are
    strictly increasing."""
    for kind, names in (("POS tag", pos_tags), ("arc label", arc_labels)):
        bad = next(((a, b) for a, b in zip(names, names[1:]) if a >= b), None)
        if bad:
            raise StateError(f"{kind}s not strictly increasing: {bad[0]!r} before {bad[1]!r}")
    args = arc_labels if variant == FULL else (None,)
    actions = (
        *(Action(POS, tag) for tag in pos_tags),
        *(Action(kind, label) for kind in (LEFT_ARC, RIGHT_ARC) for label in args),
        Action(END),
    )
    label_ids = range(1, len(arc_labels) + 1) if variant == FULL else (0,)
    arg_ids = (*range(1, len(pos_tags) + 1), *label_ids, *label_ids, 0)
    return pos_tags, arc_labels, actions, arg_ids


class State:
    """A configuration node: the action `code` that led here from `parent`.

    The stack is `top` on the stack of `below`, `depth` items in all; past
    them, every stack reads as `_BOTTOM`'s absent items, so the top three
    groups of any state can be read without a depth check.  `left` masks
    the remaining tokens, and `shifts` holds the Shift codes of their
    distinct forms.  Shifting a form consumes the lowest remaining tid
    carrying it, which makes duplicate handling deterministic.  Arcs are
    (head tid, dependent tid, label-or-None).
    """

    __slots__ = ("space", "parent", "code", "top", "below", "depth", "left", "shifts", "_legal")

    def __init__(self, space, parent, code, top, below, depth, left, shifts):
        self.space, self.parent, self.code = space, parent, code
        self.top, self.below, self.depth = top, below, depth
        self.left, self.shifts, self._legal = left, shifts, None

    @property
    def terminal(self) -> bool:
        return self.code == self.space.end_code

    @property
    def legal(self) -> tuple[int, ...]:
        """`legal_actions`, computed once per state (a cache, not a field)."""
        if self._legal is None:
            self._legal = _legal_codes(self)
        return self._legal

    def nodes(self) -> list["State"]:
        """The states from the first action's to this one."""
        out, node = [], self
        while node.parent is not None:
            out.append(node)
            node = node.parent
        return out[::-1]

    @property
    def history(self) -> tuple[Action, ...]:
        return tuple(self.space.actions[node.code] for node in self.nodes())

    def peek(self, k: int) -> list[StackItem | None]:
        """The top k stack items, top first, padded with None."""
        out, node = [], self
        while len(out) < k and node.depth:
            out.append(node.top)
            node = node.below
        return out + [None] * (k - len(out))

    @property
    def stack(self) -> tuple[StackItem, ...]:
        return tuple(self.peek(self.depth)[::-1])

    @property
    def remaining(self) -> tuple[TokenRef, ...]:
        return tuple(t for i, t in enumerate(self.space.tokens) if self.left >> i & 1)

    @property
    def arcs(self) -> frozenset:
        arcs, tokens = set(), self.space.tokens
        for node in self.nodes():
            action = self.space.actions[node.code]
            if action.kind in (LEFT_ARC, RIGHT_ARC):  # the dependent is the head's new lc1 or rc1
                dep = node.top.group[1 if action.kind == LEFT_ARC else 3]
                arcs.add((node.top.root.tid, tokens[dep].tid, action.arg))
        return frozenset(arcs)

    def summary(self) -> str:
        stack = " ".join(item.root.form for item in self.stack)
        rho = " ".join(tok.form for tok in self.remaining)
        return f"stack=[{stack}] remaining=[{rho}] step={len(self.nodes())}"

    def __eq__(self, other) -> bool:
        """Equal when reached from the same initial state by the same actions."""
        if not isinstance(other, State) or self.space is not other.space:
            return False
        return [n.code for n in self.nodes()] == [n.code for n in other.nodes()]


_ABSENT = StackItem(None, NULL_GROUP, 0, ())
_BOTTOM = State(None, None, None, _ABSENT, None, 0, 0, ())
_BOTTOM.below = _BOTTOM


def derivation_length(variant: str, n: int) -> int:
    """Actions in every derivation of n words: 3n in the full variant, 2n in light."""
    return 3 * n if variant == FULL else 2 * n


def initial_state(bag, variant: str, pos_tags: Iterable[str] = (), arc_labels: Iterable[str] = ()):
    """Start configuration: empty stack, full word set, no arcs.

    `bag` is a WordBag or any iterable of TokenRef.  For the full variant,
    `pos_tags` and `arc_labels` supply the action inventories used by
    `legal_actions`, each strictly increasing (a StateError otherwise).
    """
    if variant not in VARIANTS:
        raise StateError(f"unknown variant {variant!r}")
    tokens = tuple(getattr(bag, "token_ids", bag))
    if not tokens:
        raise StateError("cannot initialize a state from an empty bag")
    space = ActionSpace(tokens, variant, tuple(pos_tags), tuple(arc_labels))
    everything = (1 << len(tokens)) - 1
    return State(space, None, None, _ABSENT, _BOTTOM, 0, everything, tuple(range(len(space.forms))))


def legal_actions(state: State) -> tuple[int, ...]:
    """Codes of the actions applicable at `state` (`state.space.actions[c]` is
    code c's action), ascending: Shifts by form, the Pos or arc block, then
    End.  Terminal states have none; right after a full-variant Shift only
    Pos is legal; End needs an empty word set and one stack item.  Cached, so
    scoring and `apply` share it.
    """
    return state.legal


def _legal_codes(state: State) -> tuple[int, ...]:
    space = state.space
    if state.terminal:
        return ()
    if space.variant == FULL and state.code is not None and state.code < len(space.forms):
        return space.pos_codes  # a Pos action follows every Shift
    codes = state.shifts
    if state.depth >= 2:
        codes += space.arc_codes
    if not state.shifts and state.depth == 1:
        codes += (space.end_code,)
    return codes


def apply(state: State, code: int) -> State:
    """Deterministic successor of `state` under the action of code `code`.

    Raises IllegalActionError, naming the action of an in-range code, when
    the code is outside `legal_actions`.  LArc pops the top two items i (top)
    and j, makes j a dependent of i and prepends j's span; RArc symmetrically
    roots the combined item at j, so the second item always ends up left of
    the top one in surface order.
    """
    space = state.space
    if code not in state.legal:
        known = code in range(len(space.actions))
        name = space.actions[code].name() if known else f"action code {code!r}"
        raise IllegalActionError(f"illegal {name} at {state.summary()}")
    if code < len(space.forms):  # Shift
        mine = state.left & space.form_bits[code]
        bit = mine & -mine
        shifts = state.shifts if mine != bit else tuple(k for k in state.shifts if k != code)
        item = space.leaves[bit.bit_length() - 1]
        return State(space, state, code, item, state, state.depth + 1, state.left ^ bit, shifts)
    i, below, depth = state.top, state.below, state.depth
    kind = space.actions[code].kind
    if kind == POS:
        i = StackItem(i.root, _TAGGED(i.group + (space.arg_ids[code],)), i.children, i.span)
    elif kind != END:
        j, below, depth = below.top, below.below, depth - 1
        groups = i.group + j.group + (space.arg_ids[code],)
        if kind == LEFT_ARC:
            i = StackItem(i.root, _LEFT_ARC(groups), i.children + 1, j.span + i.span)
        else:
            i = StackItem(j.root, _RIGHT_ARC(groups), j.children + 1, j.span + i.span)
    return State(space, state, code, i, below, depth, state.left, state.shifts)


def realized_sentence(state: State) -> tuple[TokenRef, ...]:
    """Surface order of a finished derivation (requires a terminal state)."""
    if not state.terminal:
        raise StateError(f"state is not terminal: {state.summary()}")
    return state.top.span
