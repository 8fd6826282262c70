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
each item's columns in legal order.  Beam histories are distinct and of equal
length, so one `np.lexsort` of (-score, parent's history rank, code) keeps the
best.  A one-item beam takes no sort: its kept candidate is its first best
one, and a lone kept item has rank 0.  A decode's LM states are rows of one
table (`LmRows`), one per derivation node whose state was read: an item holds
a row index, and a kept Shift holds its parent's row and its word until
something reads its state, so a Shift pruned before then is never stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

# Hard input-size bounds for full enumeration.
EXHAUSTIVE_MAX_TREE = 6
EXHAUSTIVE_MAX_LSTM = 8

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
        return start_state(self.lm, self.lm_weights)


@dataclass
class LmRows:
    """One decode's LM states, one row per derivation node that was stepped,
    row 0 the start state: per layer, (h, c) arrays of which `count` rows are
    in use; `inputs` holds the `input_rows` of the bag's Shift codes.  The
    arrays start with room for the 1 + n rows of a greedy decode of n words
    and double when full, so nothing is allocated by the beam size.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    count: int
    inputs: np.ndarray

    def step(self, weights: StepWeights, parents: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Rows for the Shifts of `codes` from the rows `parents`: one `lm_step`."""
        states = tuple((h[parents], c[parents]) for h, c in self.layers)
        stepped = lm_step(weights, states, self.inputs[codes])
        start, end = self.count, self.count + len(parents)
        if end > len(self.layers[0][0]):
            size = max(end, 2 * len(self.layers[0][0]))
            self.layers = [(_resized(h, size), _resized(c, size)) for h, c in self.layers]
        for (h, c), (h_new, c_new) in zip(self.layers, stepped):
            h[start:end], c[start:end] = h_new, c_new
        self.count = end
        return np.arange(start, end)

    def top(self, rows: np.ndarray) -> np.ndarray:
        """The top layer's outputs at `rows`."""
        return self.layers[-1][0][rows]


def _resized(a: np.ndarray, rows: int) -> np.ndarray:
    out = np.empty((rows, *a.shape[1:]))
    out[: len(a)] = a
    return out


@dataclass
class Beam:
    """One step's items as parallel arrays, and the per-bag arrays they are scored with.

    Item k is `states[k]`, with accumulated score `scores[k]` and its
    history's rank `ranks[k]` among the items'.  Its LM state is row
    `lm_rows[k]` of the decode's `lm` table or, while `lm_shifts[k]` is a
    Shift code and not -1, that Shift from row `lm_rows[k]`, stepped when
    `_lm_top` first reads it.  By action code, `rows` holds the scorer's
    output row and `lm_ids` the LM's word id (0 for non-Shifts); `tables`
    are the scorer's slot tables, and `ids` turns feature groups into
    their columns.
    """

    states: list[State]
    scores: np.ndarray
    ranks: np.ndarray
    tables: SlotTables | None
    ids: Lookup | None
    rows: np.ndarray | None
    lm_ids: np.ndarray | None
    lm: LmRows | None
    lm_rows: np.ndarray | None
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
            increments = _joint(models, beam, codes, valid, increments, config)
    count = sum(map(len, feasibles))
    return Candidates(beam.scores[:, None] + increments, codes, valid, count)


def _lm_top(beam: Beam, items: np.ndarray, models: Models) -> np.ndarray:
    """The top-layer LM outputs of `items`, after one `lm_step` for the
    pending Shifts among them."""
    pending = items[beam.lm_shifts[items] >= 0]
    if len(pending):
        parents, codes = beam.lm_rows[pending], beam.lm_shifts[pending]
        beam.lm_rows[pending] = beam.lm.step(models.lm_weights, parents, codes)
        beam.lm_shifts[pending] = -1
    return beam.lm.top(beam.lm_rows[items])


def _joint(models: Models, beam: Beam, codes, valid, base: np.ndarray, config: DecodeConfig):
    """Scorer log-probs `base` plus alpha times the LM log-prob of each shifted word.

    Adds in place.  Shifts come first in a feasible set, so the LM row of an
    item that can shift lines up with the first columns of its scorer row.
    Only the LM states of items that can shift are read.
    """
    shift = valid & (codes < len(beam.states[0].space.forms))
    shifting = np.flatnonzero(shift[:, 0])
    if len(shifting):
        width = np.maximum.reduce(np.add.reduce(shift, axis=1))
        shift = shift[shifting, :width]
        ids = beam.lm_ids[codes[shifting, :width]]
        lm_logp = next_word_logprobs(models.lm, _lm_top(beam, shifting, models), ids, shift)
        lm_logp[~shift] = 0.0  # the other actions get no LM term
        base[shifting, :width] += config.alpha * lm_logp
    return log_softmax(base) if config.renormalize_joint else base


def _kept(beam: Beam, candidates: Candidates, beam_size: int) -> np.ndarray:
    """Flat indices of the best `beam_size` candidates in (-score, history) order."""
    if beam_size == 1:  # one item, whose columns ascend by code: its first best one
        scores = candidates.scores[0, : candidates.count].tolist()
        return np.array([max(range(len(scores)), key=scores.__getitem__)])
    neg = np.where(candidates.valid, -candidates.scores, np.inf).ravel()
    ranks = np.repeat(beam.ranks, candidates.codes.shape[1])
    order = np.lexsort((candidates.codes.ravel(), ranks, neg))
    return order[: min(beam_size, len(candidates))]


def _advance(state: State, code: int) -> State:
    """The state one kept candidate leads to."""
    return apply(state, code)


def _advance_all(beam: Beam, candidates: Candidates, kept: np.ndarray) -> Beam:
    """The beam of the `kept` candidates (flat indices, in the new beam's order).

    A new item's history ranks as (its parent's rank, its code).  A kept
    Shift's LM state is left pending on its parent's row, which `step_scores`
    read: an item that can shift has its LM state read.
    """
    parents = kept // candidates.codes.shape[1]
    codes = candidates.codes.ravel()[kept]
    states = [_advance(beam.states[k], c) for k, c in zip(parents.tolist(), codes.tolist())]
    if len(kept) == 1:
        ranks = _FIRST
    else:
        ranks = np.empty(len(kept), dtype=np.int64)
        ranks[np.lexsort((codes, beam.ranks[parents]))] = np.arange(len(kept))
    lm_rows = lm_shifts = None
    if beam.lm is not None:
        lm_rows = beam.lm_rows[parents]
        shift = codes < len(beam.states[0].space.forms)
        lm_shifts = np.where(shift, codes, beam.lm_shifts[parents])
    scores = candidates.scores.ravel()[kept]
    return Beam(
        states, scores, ranks, beam.tables, beam.ids, beam.rows, beam.lm_ids, beam.lm, lm_rows,
        lm_shifts,
    )


def _item(beam: Beam, k: int) -> Beam:
    """The one-item beam of item k, with an LM table of its own that starts
    from the item's row: an enumeration holds only the rows of its path."""
    at = [k]
    lm = lm_rows = lm_shifts = None
    if beam.lm is not None:
        row = beam.lm_rows[at]
        lm = LmRows([(h[row], c[row]) for h, c in beam.lm.layers], 1, beam.lm.inputs)
        lm_rows, lm_shifts = np.zeros(1, dtype=np.int64), beam.lm_shifts[at]
    return replace(
        beam,
        states=[beam.states[k]],
        scores=beam.scores[at],
        ranks=beam.ranks[at],
        lm=lm,
        lm_rows=lm_rows,
        lm_shifts=lm_shifts,
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
    tables = ids = rows = lm_ids = lm_table = lm_rows = lm_shifts = None
    if config.mode != MODE_LSTM:
        ids = lookup(space, lin.indexers)
        word_tables = slot_tables(lin, ids.words.tolist(), ["word"])
        tables = {**models.scorer_tables, **word_tables}
        ids = ids._replace(words=np.searchsorted(word_tables["word"][0], ids.words))
        rows = code_rows(lin, space)
    if config.mode != MODE_SYN:
        lm_ids = np.zeros(len(space.actions), dtype=np.int64)
        lm_ids[:n] = [lm.word_id(form) for form in space.forms]
        layers = [(_resized(h, 1 + n), _resized(c, 1 + n)) for h, c in models.lm_start]
        lm_table = LmRows(layers, 1, input_rows(models.lm_weights, lm_ids[:n]))
        lm_rows, lm_shifts = np.zeros(1, dtype=np.int64), np.full(1, -1)
    scores = np.zeros(1)
    return Beam([state], scores, _FIRST, tables, ids, rows, lm_ids, lm_table, lm_rows, lm_shifts)


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
        children = _advance_all(beam, cands, np.flatnonzero(cands.valid))
        for k in range(len(children.states)):
            walk(_item(children, k))

    walk(root)
    return _result(best[1], best[2], config.mode)
