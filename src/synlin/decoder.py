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

A decode works on its bag's integer action codes; per bag, code arrays give
each action's scorer row (`ffnn.code_rows`: OOV shifts share the UNK row)
and LM word id.  A step's candidates are one (items x widest) score array,
each item's columns in legal order.  Beam histories are distinct and of equal length, so one
`np.lexsort` of (-score, parent's history rank, code) keeps the best.  LM
states are (items x n) arrays per layer, gathered by parent index each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from synlin.corpus import WordBag
from synlin.errors import ConfigError, DataError, SearchSpaceError
from synlin.features import FEATURE_BLOCKS
from synlin.ffnn import Linearizer, SlotTables, code_rows, forward, slot_tables
from synlin.lstm_lm import LanguageModel, LmStates, lm_step, next_word_logprobs, start_state
from synlin.optim import log_softmax, pad_rows
from synlin.transition import LIGHT, Action, State, apply, derivation_length
from synlin.transition import initial_state, legal_actions, realized_sentence

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
        if not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")


@dataclass(frozen=True)
class Models:
    """The models of a decode session, fixed when it is built, and the decode
    constants that depend only on them, each built at its first use and kept:
    the POS/label slot tables of `linearizer`, the start state of `lm`.  After
    editing weights in place, build a new `Models`."""

    linearizer: Linearizer | None = None
    lm: LanguageModel | None = None

    @cached_property
    def scorer_tables(self) -> SlotTables:
        """The slot tables of all blocks but the word block."""
        lin = self.linearizer
        blocks = [block for block in FEATURE_BLOCKS[lin.variant] if block != "word"]
        return slot_tables(lin, (), blocks)

    @cached_property
    def lm_start(self) -> LmStates:
        return start_state(self.lm)


@dataclass
class Beam:
    """One step's items as parallel arrays, and the per-bag arrays they are scored with.

    Item k is `states[k]`, with accumulated score `scores[k]`, its history's
    rank `ranks[k]` among the items', and row k of each (h, c) array of `lm`.
    By action code, `rows` holds the scorer's output row and `lm_ids` the
    LM's word id (0 for non-Shifts); `tables` are the scorer's slot tables.
    """

    states: list[State]
    scores: np.ndarray
    ranks: np.ndarray
    lm: LmStates | None
    tables: SlotTables | None
    rows: np.ndarray | None
    lm_ids: np.ndarray | None


@dataclass
class Candidates:
    """A step's `count` successors: item k's i-th legal action is `codes[k, i]`,
    with accumulated score `scores[k, i]`, where `valid[k, i]`."""

    scores: np.ndarray
    codes: np.ndarray
    valid: np.ndarray
    count: int

    def __len__(self) -> int:
        return self.count


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
    elif lin.lm_feat_dim is not None:
        raise ConfigError(f"{config.mode} mode cannot drive a linearizer trained with LM features")
    elif config.mode == MODE_JOINT and lm is None:
        raise ConfigError("syn+lstm mode needs a language model")
    return lin.variant


def _successors(state: State, mode: str) -> tuple[int, ...]:
    """Codes of a derivation's next actions: in lstm mode a Shift of each remaining form."""
    if mode == MODE_LSTM:
        return state.shifts
    return legal_actions(state)


def _is_terminal(state: State, mode: str) -> bool:
    if mode == MODE_LSTM:
        return not state.shifts
    return state.terminal


def _check_enumerable(n: int, mode: str):
    bound = EXHAUSTIVE_MAX_LSTM if mode == MODE_LSTM else EXHAUSTIVE_MAX_TREE
    if n > bound:
        raise SearchSpaceError(
            f"exhaustive enumeration limited to {bound} tokens in {mode} mode, got {n}"
        )


def step_scores(beam: Beam, models: Models, config: DecodeConfig) -> Candidates:
    """The candidates of one search step: one scorer call and one LM call cover all items."""
    mode = config.mode
    feasibles = [_successors(state, mode) for state in beam.states]
    for state, feasible in zip(beam.states, feasibles):
        if not feasible:
            raise DataError(f"no legal actions at {state.summary()}")
    codes, valid = pad_rows(feasibles)
    if mode == MODE_LSTM:
        increments = next_word_logprobs(models.lm, beam.lm[-1][0], beam.lm_ids[codes], valid)
    else:
        lin = models.linearizer
        lm_feats = beam.lm[-1][0] if mode == MODE_FEATURE else None
        features = [lin.extract_features(state) for state in beam.states]
        increments = forward(lin, features, beam.rows[codes], valid, lm_feats, beam.tables)
        if mode == MODE_JOINT:
            increments = _joint(models.lm, beam, codes, valid, increments, config)
    count = sum(map(len, feasibles))
    return Candidates(beam.scores[:, None] + increments, codes, valid, count)


def _joint(lm: LanguageModel, beam: Beam, codes, valid, base: np.ndarray, config: DecodeConfig):
    """Scorer log-probs `base` plus alpha times the LM log-prob of each shifted word.

    Adds in place.  Shifts come first in a feasible set, so the LM row of an
    item that can shift lines up with the first columns of its scorer row.
    """
    shift = valid & (codes < len(beam.states[0].space.forms))
    shifting = np.flatnonzero(shift[:, 0])
    if len(shifting):
        width = shift.sum(axis=1).max()
        shift = shift[shifting, :width]
        ids = beam.lm_ids[codes[shifting, :width]]
        lm_logp = next_word_logprobs(lm, beam.lm[-1][0][shifting], ids, shift)
        lm_logp[~shift] = 0.0  # the other actions get no LM term
        base[shifting, :width] += config.alpha * lm_logp
    return log_softmax(base) if config.renormalize_joint else base


def _kept(beam: Beam, candidates: Candidates, beam_size: int) -> np.ndarray:
    """Flat indices of the best `beam_size` candidates in (-score, history) order."""
    neg = np.where(candidates.valid, -candidates.scores, np.inf).ravel()
    ranks = np.repeat(beam.ranks, candidates.codes.shape[1])
    order = np.lexsort((candidates.codes.ravel(), ranks, neg))
    return order[: min(beam_size, len(candidates))]


def _advance(state: State, code: int) -> State:
    """The state one kept candidate leads to."""
    return apply(state, code)


def _advance_all(beam: Beam, candidates: Candidates, kept: np.ndarray, models: Models) -> Beam:
    """The beam of the `kept` candidates (flat indices, in the new beam's order).

    A new item's history ranks as (its parent's rank, its code); one LM step
    covers every Shift among the kept candidates.
    """
    parents = kept // candidates.codes.shape[1]
    codes = candidates.codes.ravel()[kept]
    states = [_advance(beam.states[k], c) for k, c in zip(parents.tolist(), codes.tolist())]
    ranks = np.empty(len(kept), dtype=np.int64)
    ranks[np.lexsort((codes, beam.ranks[parents]))] = np.arange(len(kept))
    lm = beam.lm
    if lm is not None:
        lm = tuple((h[parents], c[parents]) for h, c in lm)
        shifts = np.flatnonzero(codes < len(beam.states[0].space.forms))
        if len(shifts):
            ids = beam.lm_ids[codes[shifts]]
            stepped = lm_step(models.lm, [(h[shifts], c[shifts]) for h, c in lm], ids)
            for (h, c), (h_new, c_new) in zip(lm, stepped):
                h[shifts], c[shifts] = h_new, c_new
    scores = candidates.scores.ravel()[kept]
    return Beam(states, scores, ranks, lm, beam.tables, beam.rows, beam.lm_ids)


def _item(beam: Beam, k: int) -> Beam:
    """The one-item beam of item k."""
    at = [k]
    lm = None if beam.lm is None else tuple((h[at], c[at]) for h, c in beam.lm)
    states, scores, ranks = [beam.states[k]], beam.scores[at], beam.ranks[at]
    return replace(beam, states=states, scores=scores, ranks=ranks, lm=lm)


def _result(state: State, score: float, mode: str) -> DecodeResult:
    lstm = mode == MODE_LSTM
    refs = tuple(it.root for it in state.stack) if lstm else realized_sentence(state)
    tokens, tids = tuple(r.form for r in refs), tuple(r.tid for r in refs)
    return DecodeResult(tokens, tids, None if lstm else state.arcs, state.history, float(score))


def _start(state: State, models: Models, config: DecodeConfig) -> Beam:
    """The one-item beam at `state`: score 0 and the LM at its start state."""
    lin, lm = models.linearizer, models.lm
    space, n = state.space, len(state.space.forms)
    tables = rows = lm_ids = lm_state = None
    if config.mode != MODE_LSTM:
        word_tables = slot_tables(lin, map(lin.indexers.word_id, space.forms), ["word"])
        tables = {**models.scorer_tables, **word_tables}
        rows = code_rows(lin, space)
    if config.mode != MODE_SYN:
        lm_state = models.lm_start
        lm_ids = np.zeros(len(space.actions), dtype=np.int64)
        lm_ids[:n] = [lm.word_id(form) for form in space.forms]
    return Beam([state], np.zeros(1), np.zeros(1, dtype=np.int64), lm_state, tables, rows, lm_ids)


def _root(bag: WordBag, models: Models, config: DecodeConfig) -> Beam:
    """The one-item beam at the bag's initial state, once the mode and models check out."""
    variant = _validate(models, config)
    if len(bag) == 0:
        raise DataError("cannot decode an empty bag")
    if config.mode == MODE_LSTM:
        return _start(initial_state(bag, LIGHT), models, config)
    indexers = models.linearizer.indexers
    state = initial_state(bag, variant, indexers.content_pos_tags, indexers.content_labels)
    return _start(state, models, config)


def beam_decode(bag: WordBag, models: Models, config: DecodeConfig) -> DecodeResult:
    """Best derivation under a breadth-synchronous beam of `beam_size`."""
    beam = _root(bag, models, config)
    n = len(bag)
    n_steps = n if config.mode == MODE_LSTM else derivation_length(beam.states[0].space.variant, n)
    for step in range(n_steps):
        cands = step_scores(beam, models, config)
        if not np.isfinite(cands.scores[cands.valid]).all():
            raise SearchSpaceError(f"non-finite score at step {step + 1}: are the weights finite?")
        beam = _advance_all(beam, cands, _kept(beam, cands, config.beam_size), models)
    best = beam.states[0]
    if not _is_terminal(best, config.mode):
        raise SearchSpaceError(f"unfinished after {n_steps} steps: {best.summary()}")
    return _result(best, beam.scores[0], config.mode)


def exhaustive_decode(bag: WordBag, models: Models, config: DecodeConfig) -> DecodeResult:
    """Global argmax by enumerating every legal derivation (testing oracle).

    Scores accumulate exactly as in beam_decode, ties break the same way.
    Refuses bags larger than the hard bounds.
    """
    root = _root(bag, models, config)
    _check_enumerable(len(bag), config.mode)
    best = None

    def walk(beam: Beam):
        nonlocal best
        state, score = beam.states[0], beam.scores[0]
        if _is_terminal(state, config.mode):
            if best is None or (-score, state.history) < best[0]:
                best = (-score, state.history), state, score
            return
        cands = step_scores(beam, models, config)
        children = _advance_all(beam, cands, np.flatnonzero(cands.valid), models)
        for k in range(len(children.states)):
            walk(_item(children, k))

    walk(root)
    return _result(best[1], best[2], config.mode)
