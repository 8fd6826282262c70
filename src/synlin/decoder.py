"""Greedy and beam decoding over derivations.

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
each item's columns in legal order.  Beam histories are distinct and of equal
length, so a lexsort of (-score, parent's history rank, code) over the
candidates up to the `np.partition` cut keeps the best.  A one-item beam
takes no sort: its kept candidate is its first best one, and a lone kept
item has rank 0.  Each item owns its LM state, row k of the beam's
per-layer (h, c) arrays: moving the beam on costs one gather of those rows
by parent.
A kept Shift keeps its parent's state and its word until something reads its
state, so a Shift pruned before then is never stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from synlin.corpus import WordBag
from synlin.errors import ConfigError, DataError, SearchSpaceError
from synlin.features import FEATURE_BLOCKS, Lookup, lookup
from synlin.ffnn import Linearizer, SlotTables, code_rows, forward, slot_tables
from synlin.lstm_lm import LanguageModel, LmStates, StepWeights, input_rows, lm_step
from synlin.lstm_lm import next_word_logprobs, start_state, step_weights
from synlin.optim import log_softmax, pad_rows
from synlin.transition import LIGHT, Action, State, apply, derivation_length
from synlin.transition import initial_state, legal_actions, realized_sentence

MODE_SYN = "syn"
MODE_LSTM = "lstm"
MODE_JOINT = "syn+lstm"
MODE_FEATURE = "synxlstm"
MODES = (MODE_SYN, MODE_LSTM, MODE_JOINT, MODE_FEATURE)

# The history ranks of a one-item beam, held and read-only.
_FIRST = np.zeros(1, dtype=np.int64)
_FIRST.flags.writeable = False

# The widest beam a config accepts: a step's scorer gathers one (items x
# slots x hidden) temporary, about 98 MB at this width with the default sizes.
MAX_BEAM = 4096


@dataclass
class DecodeConfig:
    mode: str = MODE_SYN
    beam_size: int = 1
    alpha: float = 0.4
    renormalize_joint: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not 1 <= self.beam_size <= MAX_BEAM:
            raise ConfigError(f"beam_size must be in [1, {MAX_BEAM}], got {self.beam_size}")
        if not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")


@dataclass(frozen=True)
class Models:
    """The models of a decode session, fixed when it is built, and the decode
    constants that depend only on them, each built at its first use and kept:
    the POS/label slot tables of `linearizer`, the `step_weights` and the start
    state of `lm`.  After editing weights in place, build a new `Models`."""

    linearizer: Linearizer | None = None
    lm: LanguageModel | None = None

    @cached_property
    def scorer_tables(self) -> SlotTables:
        """The slot tables of all blocks but the word block."""
        lin = self.linearizer
        blocks = [block for block in FEATURE_BLOCKS[lin.variant] if block != "word"]
        return slot_tables(lin, (), blocks)

    @cached_property
    def lm_weights(self) -> StepWeights:
        return step_weights(self.lm)

    @cached_property
    def lm_start(self) -> LmStates:
        """The LM's start state, read-only: every decode's root beam shares it."""
        state = start_state(self.lm, self.lm_weights)
        for array in (a for layer in state for a in layer):
            array.flags.writeable = False
        return state


@dataclass
class Beam:
    """One step's items as parallel arrays, and the per-bag arrays they are scored with.

    Item k is `states[k]`, with accumulated score `scores[k]` and its
    history's rank `ranks[k]` among the items'.  Its LM state is row k of
    each (h, c) array pair of `lm` or, while `lm_shifts[k]` is a Shift code
    and not -1, that Shift from row k, stepped in place when `_lm_top` first
    reads it.  By action code, `rows` holds the scorer's output row and
    `lm_ids` the LM's word id (0 for non-Shifts), and `lm_inputs` holds the
    `input_rows` of the bag's Shift codes; `tables` are the scorer's slot
    tables, and `ids` turns feature groups into their columns.
    """

    states: list[State]
    scores: np.ndarray
    ranks: np.ndarray
    tables: SlotTables | None
    ids: Lookup | None
    rows: np.ndarray | None
    lm_ids: np.ndarray | None
    lm_inputs: np.ndarray | None
    lm: LmStates | None
    lm_shifts: np.ndarray | None


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


def step_scores(beam: Beam, models: Models, config: DecodeConfig) -> Candidates:
    """The candidates of one search step: one scorer call and one LM call cover all items."""
    mode = config.mode
    feasibles = [_successors(state, mode) for state in beam.states]
    for state, feasible in zip(beam.states, feasibles):
        if not feasible:
            raise DataError(f"no legal actions at {state.summary()}")
    codes, valid = pad_rows(feasibles)
    if mode == MODE_LSTM:
        top = _lm_top(beam, np.arange(len(beam.states)), models)
        increments = next_word_logprobs(models.lm, top, beam.lm_ids[codes], valid)
    else:
        lin = models.linearizer
        lm_feats = None
        if mode == MODE_FEATURE:
            lm_feats = _lm_top(beam, np.arange(len(beam.states)), models)
        features = lin.extract_features(beam.states, beam.ids)
        increments = forward(lin, features, beam.rows[codes], valid, lm_feats, beam.tables)
        if mode == MODE_JOINT:
            increments = _joint(models, beam, codes, increments, config)
    count = sum(map(len, feasibles))
    return Candidates(beam.scores[:, None] + increments, codes, valid, count)


def _lm_top(beam: Beam, items: np.ndarray, models: Models) -> np.ndarray:
    """The top-layer LM outputs of `items`, after one `lm_step` for the
    pending Shifts among them, whose new states replace their rows."""
    pending = items[beam.lm_shifts[items] >= 0]
    if len(pending):
        inputs = beam.lm_inputs[beam.lm_shifts[pending]]
        stepped = lm_step(models.lm_weights, _rows(beam.lm, pending), inputs)
        for (h, c), (h_new, c_new) in zip(beam.lm, stepped):
            h[pending], c[pending] = h_new, c_new
        beam.lm_shifts[pending] = -1
    return beam.lm[-1][0].take(items, 0)


def _rows(lm: LmStates, at) -> LmStates:
    """Rows `at` of every LM state array; for a few rows, `take` runs in a
    third of the time of an index array."""
    return tuple((h.take(at, 0), c.take(at, 0)) for h, c in lm)


def _joint(models: Models, beam: Beam, codes, base: np.ndarray, config: DecodeConfig):
    """Scorer log-probs `base` plus alpha times the LM log-prob of each shifted word.

    Adds in place.  Shifts come first in a feasible set, so an item can shift
    when its first code is a Shift, and then its first `len(state.shifts)`
    columns are its Shifts, which line up with its LM row.  Only the LM
    states of items that can shift are read.
    """
    shifting = np.flatnonzero(codes[:, 0] < len(beam.states[0].space.forms))
    if len(shifting):
        counts = np.array([len(beam.states[k].shifts) for k in shifting.tolist()])
        shift = np.arange(counts.max()) < counts[:, None]
        ids = beam.lm_ids[codes[shifting, : shift.shape[1]]]
        lm_logp = next_word_logprobs(models.lm, _lm_top(beam, shifting, models), ids, shift)
        lm_logp[~shift] = 0.0  # the other actions get no LM term
        base[shifting, : shift.shape[1]] += config.alpha * lm_logp
    return log_softmax(base) if config.renormalize_joint else base


def _kept(beam: Beam, candidates: Candidates, beam_size: int) -> np.ndarray:
    """Flat indices of the best `beam_size` candidates in (-score, history)
    order; only those at or above the cut's score, ties included, are sorted."""
    if beam_size == 1:  # one item, whose columns ascend by code: its first best one
        scores = candidates.scores[0, : candidates.count].tolist()
        return np.array([max(range(len(scores)), key=scores.__getitem__)])
    neg = np.where(candidates.valid, -candidates.scores, np.inf).ravel()
    cut = np.partition(neg, beam_size - 1)[beam_size - 1] if beam_size < len(neg) else np.inf
    pool = np.flatnonzero(neg <= cut)
    ranks = beam.ranks[pool // candidates.codes.shape[1]]
    order = np.lexsort((candidates.codes.ravel()[pool], ranks, neg[pool]))
    return pool[order[: min(beam_size, len(candidates))]]


def _advance(state: State, code: int) -> State:
    """The state one kept candidate leads to."""
    return apply(state, code)


def _advance_all(beam: Beam, candidates: Candidates, kept: np.ndarray) -> Beam:
    """The beam of the `kept` candidates (flat indices, in the new beam's order).

    A new item's history ranks as (its parent's rank, its code).  Each new
    item's LM state is its parent's, one gather by parent per state array.  A
    kept Shift's LM state is left pending on its parent's, which
    `step_scores` read: an item that can shift has its LM state read.
    """
    parents = kept // candidates.codes.shape[1]
    codes = candidates.codes.ravel()[kept]
    states = [_advance(beam.states[k], c) for k, c in zip(parents.tolist(), codes.tolist())]
    if len(kept) == 1:
        ranks = _FIRST
    else:
        ranks = np.empty(len(kept), dtype=np.int64)
        ranks[np.lexsort((codes, beam.ranks[parents]))] = np.arange(len(kept))
    lm = lm_shifts = None
    if beam.lm is not None:
        lm = _rows(beam.lm, parents)
        shift = codes < len(beam.states[0].space.forms)
        lm_shifts = np.where(shift, codes, beam.lm_shifts[parents])
    scores = candidates.scores.ravel()[kept]
    return Beam(
        states, scores, ranks, beam.tables, beam.ids, beam.rows, beam.lm_ids, beam.lm_inputs, lm,
        lm_shifts,
    )


def _result(state: State, score: float, mode: str) -> DecodeResult:
    lstm = mode == MODE_LSTM
    refs = tuple(it.root for it in state.stack) if lstm else realized_sentence(state)
    tokens, tids = tuple(r.form for r in refs), tuple(r.tid for r in refs)
    return DecodeResult(tokens, tids, None if lstm else state.arcs, state.history, float(score))


def _start(state: State, models: Models, config: DecodeConfig) -> Beam:
    """The one-item beam at `state`: score 0 and the LM at its start state."""
    lin, lm = models.linearizer, models.lm
    space, n = state.space, len(state.space.forms)
    tables = ids = rows = lm_ids = lm_inputs = lm_state = lm_shifts = None
    if config.mode != MODE_LSTM:
        ids = lookup(space, lin.indexers)
        word_tables = slot_tables(lin, ids.words.tolist(), ["word"])
        tables = {**models.scorer_tables, **word_tables}
        ids = ids._replace(words=np.searchsorted(word_tables["word"][0], ids.words))
        rows = code_rows(lin, space)
    if config.mode != MODE_SYN:
        lm_ids = np.zeros(len(space.actions), dtype=np.int64)
        lm_ids[:n] = [lm.word_id(form) for form in space.forms]
        lm_inputs = input_rows(models.lm_weights, lm_ids[:n])
        lm_state, lm_shifts = models.lm_start, np.full(1, -1)
    scores = np.zeros(1)
    return Beam([state], scores, _FIRST, tables, ids, rows, lm_ids, lm_inputs, lm_state, lm_shifts)


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
        beam = _advance_all(beam, cands, _kept(beam, cands, config.beam_size))
    best = beam.states[0]
    if not _is_terminal(best, config.mode):
        raise SearchSpaceError(f"unfinished after {n_steps} steps: {best.summary()}")
    return _result(best, beam.scores[0], config.mode)
