"""Greedy, beam, and exhaustive decoding over derivations.

Four scoring modes:

  syn       action log-probabilities from the feed-forward scorer alone;
  lstm      bag-restricted LSTM next-word log-probabilities; derivations are
            the n shift choices, no tree is built;
  syn+lstm  joint decoding: scorer log-prob plus alpha times the LM log-prob
            of the shifted word; non-shift actions get an LM factor of 1.0,
            i.e. exactly zero contribution, and the combined distribution is
            not renormalized (a config switch turns renormalization on);
  synxlstm  feature-level integration: the scorer itself consumes the LM's
            top hidden vector, so no interpolation weight exists.

The beam is breadth-synchronous: every hypothesis at step t has taken t
actions, and derivations have a fixed length (3n, 2n or n), so all
surviving items finish together.  The LSTM state advances only on Shift.
Ties in accumulated score break deterministically on the lexicographic
action history, actions ordered by (kind, argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from synlin.corpus import WordBag
from synlin.errors import ConfigError, DataError, SearchSpaceError
from synlin.ffnn import Linearizer, forward
from synlin.lstm_lm import LanguageModel, LmState, lm_step, next_word_logprobs, start_state
from synlin.optim import log_softmax
from synlin.transition import (
    LIGHT,
    SHIFT,
    Action,
    State,
    apply,
    derivation_length,
    initial_state,
    legal_actions,
    realized_sentence,
)

MODE_SYN = "syn"
MODE_LSTM = "lstm"
MODE_JOINT = "syn+lstm"
MODE_FEATURE = "synxlstm"
MODES = (MODE_SYN, MODE_LSTM, MODE_JOINT, MODE_FEATURE)

# Hard input-size bounds for full enumeration.
EXHAUSTIVE_MAX_TREE = 6
EXHAUSTIVE_MAX_LSTM = 8


@dataclass
class DecodeConfig:
    mode: str = MODE_SYN
    beam_size: int = 1
    alpha: float = 0.4
    renormalize_joint: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.beam_size < 1:
            raise ConfigError(f"beam_size must be >= 1, got {self.beam_size}")


@dataclass
class Models:
    linearizer: Linearizer | None = None
    lm: LanguageModel | None = None


@dataclass
class BeamItem:
    state: State
    score: float
    lm_state: LmState | None


@dataclass
class DecodeResult:
    tokens: tuple[str, ...]
    tids: tuple[int, ...]
    arcs: frozenset | None
    actions: tuple[Action, ...]
    score: float


def _validate(models: Models, config: DecodeConfig) -> str:
    """Check the mode/model combination; returns the working variant."""
    lin, lm = models.linearizer, models.lm
    if config.mode == MODE_LSTM:
        if lm is None:
            raise ConfigError("lstm mode needs a language model")
        return LIGHT
    if lin is None:
        raise ConfigError(f"{config.mode} mode needs a linearizer model")
    if config.mode == MODE_FEATURE:
        if lin.lm_feat_dim is None:
            raise ConfigError("synxlstm mode needs a linearizer trained with LM features")
        if lm is None:
            raise ConfigError("synxlstm mode needs the language model")
        if lin.lm_feat_dim != lm.config.hidden_size:
            raise ConfigError(
                f"LM feature width mismatch: model expects {lin.lm_feat_dim}, "
                f"LM provides {lm.config.hidden_size}"
            )
    else:
        if lin.lm_feat_dim is not None:
            raise ConfigError(
                f"{config.mode} mode cannot drive a linearizer trained with LM features"
            )
        if config.mode == MODE_JOINT and lm is None:
            raise ConfigError("syn+lstm mode needs a language model")
    return lin.variant


def _successors(state: State, mode: str) -> tuple[Action, ...]:
    """Next actions of a derivation: in lstm mode a Shift of each remaining
    form, otherwise the transition system's legal actions.
    """
    if mode == MODE_LSTM:
        return tuple(Action(SHIFT, f) for f in state.remaining_forms())
    return legal_actions(state)


def _is_terminal(state: State, mode: str) -> bool:
    if mode == MODE_LSTM:
        return not state.remaining
    return state.terminal


def _check_enumerable(n: int, mode: str):
    bound = EXHAUSTIVE_MAX_LSTM if mode == MODE_LSTM else EXHAUSTIVE_MAX_TREE
    if n > bound:
        raise SearchSpaceError(
            f"exhaustive enumeration limited to {bound} tokens in {mode} mode, got {n}"
        )


def step_scores(
    items: list[BeamItem], models: Models, config: DecodeConfig
) -> list[tuple[float, BeamItem, Action]]:
    """The candidates of one search step, scored as one batch.

    Returns (accumulated score, item, action) for every successor action of
    every item, items in the given order and each item's actions in
    canonical order.  One scorer call covers all items.
    """
    mode = config.mode
    feasibles = [_successors(item.state, mode) for item in items]
    for item, feasible in zip(items, feasibles):
        if not feasible:
            raise DataError(f"no legal actions at {item.state.summary()}")
    lm = models.lm
    if mode == MODE_LSTM:
        increments = [
            next_word_logprobs(lm, item.lm_state, [lm.word_id(a.arg) for a in feasible])
            for item, feasible in zip(items, feasibles)
        ]
    else:
        lin = models.linearizer
        lm_feats = None
        if mode == MODE_FEATURE:
            lm_feats = np.stack([item.lm_state.top_h for item in items])
        features = [lin.extract_features(item.state) for item in items]
        increments = forward(lin, features, feasibles, lm_feats)
        if mode == MODE_JOINT:
            increments = [
                _joint(lm, item.lm_state, feasible, base, config)
                for item, feasible, base in zip(items, feasibles, increments)
            ]
    return [
        (item.score + s, item, action)
        for item, feasible, inc in zip(items, feasibles, increments)
        for action, s in zip(feasible, inc.tolist())
    ]


def _joint(
    lm: LanguageModel,
    lm_state: LmState,
    feasible: tuple[Action, ...],
    base: np.ndarray,
    config: DecodeConfig,
) -> np.ndarray:
    """Scorer log-probs plus alpha times the LM log-prob of each shifted word."""
    shifts = [k for k, a in enumerate(feasible) if a.kind == SHIFT]
    combined = base
    if shifts:
        ids = [lm.word_id(feasible[k].arg) for k in shifts]
        combined = base.copy()
        combined[shifts] += config.alpha * next_word_logprobs(lm, lm_state, ids)
    return log_softmax(combined) if config.renormalize_joint else combined


def _advance(item: BeamItem, action: Action, score: float, lm_state: LmState | None) -> BeamItem:
    """The item one kept candidate leads to, given its already advanced LM state."""
    return BeamItem(apply(item.state, action), score, lm_state)


def _advance_all(
    candidates: list[tuple[float, BeamItem, Action]], models: Models
) -> list[BeamItem]:
    """The items the candidates lead to; one LM step covers every Shift among them."""
    lm_states = [item.lm_state for _, item, _ in candidates]
    shifts = [
        k
        for k, (_, item, action) in enumerate(candidates)
        if item.lm_state is not None and action.kind == SHIFT
    ]
    if shifts:
        ids = [models.lm.word_id(candidates[k][2].arg) for k in shifts]
        for k, state in zip(shifts, lm_step(models.lm, [lm_states[k] for k in shifts], ids)):
            lm_states[k] = state
    return [
        _advance(item, action, score, lm_state)
        for (score, item, action), lm_state in zip(candidates, lm_states)
    ]


def _result(item: BeamItem, mode: str) -> DecodeResult:
    if mode == MODE_LSTM:
        refs = tuple(it.root for it in item.state.stack)
        arcs = None
    else:
        refs = realized_sentence(item.state)
        arcs = item.state.arcs
    return DecodeResult(
        tokens=tuple(r.form for r in refs),
        tids=tuple(r.tid for r in refs),
        arcs=arcs,
        actions=item.state.history,
        score=item.score,
    )


def _root_item(bag: WordBag, models: Models, config: DecodeConfig, variant: str) -> BeamItem:
    lin = models.linearizer
    if config.mode == MODE_LSTM:
        state = initial_state(bag, LIGHT)
    else:
        state = initial_state(
            bag, variant, lin.indexers.content_pos_tags, lin.indexers.content_labels
        )
    lm_state = start_state(models.lm) if config.mode != MODE_SYN else None
    return BeamItem(state, 0.0, lm_state)


def beam_decode(bag: WordBag, models: Models, config: DecodeConfig) -> DecodeResult:
    """Best derivation under a breadth-synchronous beam of `beam_size`."""
    variant = _validate(models, config)
    n = len(bag)
    if n == 0:
        raise DataError("cannot decode an empty bag")
    items = [_root_item(bag, models, config, variant)]
    n_steps = n if config.mode == MODE_LSTM else derivation_length(variant, n)
    for step in range(n_steps):
        candidates = step_scores(items, models, config)
        if not all(math.isfinite(c[0]) for c in candidates):
            raise SearchSpaceError(f"non-finite score at step {step + 1}: are the weights finite?")
        candidates.sort(key=lambda c: (-c[0], c[1].state.history, c[2]))
        items = _advance_all(candidates[: config.beam_size], models)
    best = items[0]
    if not _is_terminal(best.state, config.mode):
        raise SearchSpaceError(f"unfinished after {n_steps} steps: {best.state.summary()}")
    return _result(best, config.mode)


def exhaustive_decode(bag: WordBag, models: Models, config: DecodeConfig) -> DecodeResult:
    """Global argmax by enumerating every legal derivation (testing oracle).

    Scores accumulate exactly as in beam_decode, ties break the same way.
    Refuses bags larger than the hard bounds.
    """
    variant = _validate(models, config)
    n = len(bag)
    _check_enumerable(n, config.mode)
    if n == 0:
        raise DataError("cannot decode an empty bag")
    best: BeamItem | None = None

    def walk(item: BeamItem):
        nonlocal best
        if _is_terminal(item.state, config.mode):
            key = (-item.score, item.state.history)
            if best is None or key < (-best.score, best.state.history):
                best = item
            return
        for child in _advance_all(step_scores([item], models, config), models):
            walk(child)

    walk(_root_item(bag, models, config, variant))
    return _result(best, config.mode)


def count_derivations(
    bag: WordBag,
    mode: str,
    variant: str = LIGHT,
    pos_tags=(),
    arc_labels=(),
) -> int:
    """Number of legal derivations for a bag (no models, structure only).

    Walks the same successors and terminal test as `exhaustive_decode`.
    """
    _check_enumerable(len(bag), mode)
    state = initial_state(bag, LIGHT if mode == MODE_LSTM else variant, pos_tags, arc_labels)

    def walk(st: State) -> int:
        if _is_terminal(st, mode):
            return 1
        return sum(walk(apply(st, a)) for a in _successors(st, mode))

    return walk(state)
