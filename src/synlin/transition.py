"""Arc-standard transition system for word ordering.

A state holds a stack of partially built dependency trees, the unordered
set of words not yet placed, and the arcs built so far.  Shift moves a word
from the set onto the stack; LArc/RArc combine the two topmost trees; End
closes a finished derivation.  In the "full" variant every Shift is followed
by exactly one Pos action tagging the new word, and arc actions carry labels;
the "light" variant has neither.

States are immutable values: `apply` returns a successor and never mutates
its input, so beam search can branch and share prefixes freely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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


@dataclass(frozen=True)
class StackItem:
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


@dataclass(frozen=True)
class State:
    """A configuration: stack, remaining word set, arcs, and action history.

    `remaining` is kept sorted by (form, tid); shifting a form consumes the
    lowest remaining tid carrying it, which makes duplicate handling
    deterministic.  Arcs are (head tid, dependent tid, label-or-None).
    """

    variant: str
    stack: tuple[StackItem, ...]
    remaining: tuple[TokenRef, ...]
    arcs: frozenset
    history: tuple[Action, ...]
    pos_tags: tuple[str, ...] = ()
    arc_labels: tuple[str, ...] = ()
    pending_pos: bool = False
    terminal: bool = False

    @property
    def n_tokens(self) -> int:
        return len(self.remaining) + sum(len(item.span) for item in self.stack)

    def remaining_forms(self) -> list[str]:
        """Distinct remaining forms in canonical (sorted) order."""
        seen: list[str] = []
        for tok in self.remaining:
            if not seen or seen[-1] != tok.form:
                seen.append(tok.form)
        return seen

    @cached_property
    def legal(self) -> tuple[Action, ...]:
        """`legal_actions`, computed once per state (a cache, not a field)."""
        return _legal_actions(self)

    @cached_property
    def legal_set(self) -> frozenset[Action]:
        """The legal actions as a set, for `apply`'s membership check."""
        return frozenset(self.legal)

    def summary(self) -> str:
        stack = " ".join(item.root.form for item in self.stack)
        rho = " ".join(tok.form for tok in self.remaining)
        return f"stack=[{stack}] remaining=[{rho}] step={len(self.history)}"


def derivation_length(variant: str, n: int) -> int:
    """Actions in every derivation of n words: 3n in the full variant, 2n in light."""
    return 3 * n if variant == FULL else 2 * n


def initial_state(
    bag,
    variant: str,
    pos_tags: Iterable[str] = (),
    arc_labels: Iterable[str] = (),
) -> State:
    """Start configuration: empty stack, full word set, no arcs.

    `bag` is a WordBag or any iterable of TokenRef.  For the full variant,
    `pos_tags` and `arc_labels` supply the action inventories used by
    `legal_actions`.
    """
    if variant not in VARIANTS:
        raise StateError(f"unknown variant {variant!r}")
    tokens = tuple(getattr(bag, "token_ids", bag))
    if not tokens:
        raise StateError("cannot initialize a state from an empty bag")
    remaining = tuple(sorted(tokens, key=lambda t: (t.form, t.tid)))
    return State(
        variant=variant,
        stack=(),
        remaining=remaining,
        arcs=frozenset(),
        history=(),
        pos_tags=tuple(pos_tags),
        arc_labels=tuple(arc_labels),
    )


def legal_actions(state: State) -> tuple[Action, ...]:
    """All actions applicable at `state`, in a fixed canonical order.

    Terminal states have none.  Directly after a Shift in the full variant
    only Pos actions are legal.  End requires an empty word set and a single
    stack item.  Computed once per state, so scoring and `apply` share it.
    """
    return state.legal


def _legal_actions(state: State) -> tuple[Action, ...]:
    if state.terminal:
        return ()
    if state.variant == FULL and state.pending_pos:
        return tuple(Action(POS, p) for p in state.pos_tags)
    acts = [Action(SHIFT, form) for form in state.remaining_forms()]
    if len(state.stack) >= 2:
        if state.variant == FULL:
            acts.extend(Action(LEFT_ARC, l) for l in state.arc_labels)
            acts.extend(Action(RIGHT_ARC, l) for l in state.arc_labels)
        else:
            acts.append(Action(LEFT_ARC))
            acts.append(Action(RIGHT_ARC))
    if not state.remaining and len(state.stack) == 1:
        acts.append(Action(END))
    return tuple(acts)


def apply(state: State, action: Action) -> State:
    """Deterministic successor of `state` under `action`.

    Raises IllegalActionError when the action is outside `legal_actions`.
    LArc pops the top two items i (top) and j, makes j a dependent of i and
    prepends j's span; RArc symmetrically roots the combined item at j, so
    the second item always ends up left of the top one in surface order.
    """
    if action not in state.legal_set:
        raise IllegalActionError(f"illegal {action.name()} at {state.summary()}")
    history = state.history + (action,)
    if action.kind == SHIFT:
        pos = next(i for i, t in enumerate(state.remaining) if t.form == action.arg)
        tok = state.remaining[pos]
        item = StackItem(root=tok, span=(tok,))
        return replace(
            state,
            stack=state.stack + (item,),
            remaining=state.remaining[:pos] + state.remaining[pos + 1 :],
            history=history,
            pending_pos=state.variant == FULL,
        )
    if action.kind == POS:
        top = replace(state.stack[-1], pos=action.arg)
        return replace(
            state, stack=state.stack[:-1] + (top,), history=history, pending_pos=False
        )
    if action.kind == LEFT_ARC:
        i, j = state.stack[-1], state.stack[-2]
        attached = replace(j, arc_label=action.arg)
        merged = replace(
            i, left_children=i.left_children + (attached,), span=j.span + i.span
        )
        arcs = state.arcs | {(i.root.tid, j.root.tid, action.arg)}
        return replace(
            state, stack=state.stack[:-2] + (merged,), arcs=arcs, history=history
        )
    if action.kind == RIGHT_ARC:
        i, j = state.stack[-1], state.stack[-2]
        attached = replace(i, arc_label=action.arg)
        merged = replace(
            j, right_children=j.right_children + (attached,), span=j.span + i.span
        )
        arcs = state.arcs | {(j.root.tid, i.root.tid, action.arg)}
        return replace(
            state, stack=state.stack[:-2] + (merged,), arcs=arcs, history=history
        )
    if action.kind == END:
        return replace(state, terminal=True, history=history)
    raise IllegalActionError(f"unknown action kind {action.kind!r}")


def realized_sentence(state: State) -> tuple[TokenRef, ...]:
    """Surface order of a finished derivation (requires a terminal state)."""
    if not state.terminal:
        raise StateError(f"state is not terminal: {state.summary()}")
    return state.stack[0].span
