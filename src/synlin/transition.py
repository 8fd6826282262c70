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
codes, and `apply` takes one.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """A partial subtree on the stack.

    Child tuples are kept nearest-to-root first (attachment order), so the
    outermost left child -- the leftmost one in surface order -- is the last
    element of `left_children`, and symmetrically for the right.  `span` is
    the realized surface order of the whole subtree.  `arc_label` is the
    label of the arc to this item's parent, set when the item is attached.
    """

    root: TokenRef
    pos: str | None = None
    arc_label: str | None = None
    left_children: tuple["StackItem", ...] = ()
    right_children: tuple["StackItem", ...] = ()
    span: tuple[TokenRef, ...] = ()

    def left_child(self, k: int) -> "StackItem | None":
        """k-th leftmost child (k=1 is the outermost), or None."""
        return self.left_children[-k] if len(self.left_children) >= k else None

    def right_child(self, k: int) -> "StackItem | None":
        """k-th rightmost child (k=1 is the outermost), or None."""
        return self.right_children[-k] if len(self.right_children) >= k else None


class ActionSpace:
    """The actions of every derivation from one initial state, by code.

    Code c is `actions[c]`, in canonical order (`codes` inverts it): Shifts
    first, code k shifting `forms[k]`, then contiguous Pos, LArc and RArc
    blocks (`pos_codes`, `arc_codes`) in the order of the tags and labels
    given, strictly increasing in the full variant (the light variant ignores
    them), then End.  Bit i of a state's `left` mask is `tokens[i]`, the bag
    sorted by (form, tid).
    """

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


class State:
    """A configuration node: the action `code` that led here from `parent`.

    The stack is `top` on the stack of `below`, `depth` items in all; `left`
    masks the remaining tokens, and `shifts` holds the Shift codes of their
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
        arcs = set()
        for node in self.nodes():
            kind, label = self.space.actions[node.code].kind, self.space.actions[node.code].arg
            if kind in (LEFT_ARC, RIGHT_ARC):
                dep = (node.top.left_children if kind == LEFT_ARC else node.top.right_children)[-1]
                arcs.add((node.top.root.tid, dep.root.tid, label))
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
    return State(space, None, None, None, None, 0, everything, tuple(range(len(space.forms))))


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
    kind, arg = space.actions[code].kind, space.actions[code].arg
    if kind == SHIFT:
        mine = state.left & space.form_bits[code]
        bit = mine & -mine
        tok = space.tokens[bit.bit_length() - 1]
        shifts = state.shifts if mine != bit else tuple(k for k in state.shifts if k != code)
        item = StackItem(root=tok, span=(tok,))
        return State(space, state, code, item, state, state.depth + 1, state.left ^ bit, shifts)
    i, below, depth = state.top, state.below, state.depth
    if kind == POS:
        i = i._replace(pos=arg)
    elif kind != END:
        j, below, depth = below.top, below.below, depth - 1
        span = j.span + i.span
        if kind == LEFT_ARC:
            i = i._replace(left_children=(*i.left_children, j._replace(arc_label=arg)), span=span)
        else:
            i = j._replace(right_children=(*j.right_children, i._replace(arc_label=arg)), span=span)
    return State(space, state, code, i, below, depth, state.left, state.shifts)


def realized_sentence(state: State) -> tuple[TokenRef, ...]:
    """Surface order of a finished derivation (requires a terminal state)."""
    if not state.terminal:
        raise StateError(f"state is not terminal: {state.summary()}")
    return state.top.span
