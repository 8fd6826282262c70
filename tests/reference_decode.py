"""Test-only references for decoding.

The object beam, `beam_decode`, is the decoder before its beam was held in
arrays: one `BeamItem` per hypothesis with its own LM state vectors, feasible
sets of `Action`s mapped to scorer rows by `reference_rows` and to LM
ids by `lm.word_id`, and candidates as (score, item, action) tuples kept by
a Python sort on (-score, history, action).  A kept Shift's LM state waits
on its parent's until the item is read (every item in lstm and synxlstm
mode, the items that can shift in syn+lstm mode), and one `lstm_lm.lm_step`
over the stacked states covers the waiting items a step reads.  It feeds
`ffnn.forward`, `lstm_lm.lm_step` and `next_word_logprobs` the same
matrices as `synlin.decoder`, so the two must agree bit for bit
(`test_decode_equivalence.py`).

`lm_step` is the decode-time LM step that came before `lstm_lm.lm_step`:
each layer's whole (4n x 2n) block times the concatenated input and
previous output, through a transposed view, with the word's embedding as
layer 0's input.  `lstm_lm.lm_step` must match it within 1e-12.

`step_scores` is the per-item scoring that came before per-bag slot tables:
`forward` builds the hidden layer with training's product form
(`reference_grads.hidden`) and softmaxes each item over its own gathered
`w2` rows; `next_word_logprobs` scores one LM state; `joint` adds the LM
term item by item.  The table-driven scores must match it within 1e-9.

`history_ranks` is the rank rule `synlin.decoder._advance_all` applies to
every beam of two or more kept items, and applied to a lone one too until
that took rank 0 without a sort; the two must agree bit for bit.
"""

from dataclasses import dataclass

import numpy as np

import reference_features
from reference_grads import hidden
from reference_rows import inventory
from synlin.decoder import (
    MODE_FEATURE,
    MODE_JOINT,
    MODE_LSTM,
    MODE_SYN,
    DecodeResult,
    _validate,
)
from synlin.features import FEATURE_BLOCKS
from synlin.ffnn import forward as table_forward, slot_tables
from synlin.lstm_lm import _cell, initial_lm_state, input_rows, lm_step as table_lm_step
from synlin.lstm_lm import next_word_logprobs as batch_next_word_logprobs, start_state, step_weights
from synlin.optim import log_softmax, pad_rows
from synlin.transition import (
    LIGHT,
    SHIFT,
    Action,
    apply,
    derivation_length,
    initial_state,
    legal_actions,
    realized_sentence,
)


def lm_step(model, states, word_ids):
    """Feed word_ids[k] to row k of `states`; returns the new states.

    All rows advance together: one batched `_cell` per layer.
    """
    p = model.params
    below = p["emb"][np.asarray(word_ids, dtype=np.int64)]
    layers = []
    for layer, (h_prev, c_prev) in enumerate(states):
        h, c, _ = _cell(p[f"cell{layer}"], below, h_prev, c_prev, p.get(f"cell{layer}_bias"))
        layers.append((h, c))
        below = h
    return tuple(layers)


def lm_prefix_state(model, forms):
    """The state after the start symbol and `forms`, one `lm_step` at a time."""
    state = lm_step(model, initial_lm_state(model), [model.start_id])
    for form in forms:
        state = lm_step(model, state, [model.word_id(form)])
    return state


@dataclass
class BeamItem:
    """One hypothesis: its state, accumulated score, action history and LM
    state (per layer an (h, c) pair of vectors, or None in syn mode).  While
    `shift` is a Shift code, the LM state is the one that Shift leaves from
    `lm_state`, not yet stepped."""

    state: object
    score: float
    history: tuple
    lm_state: tuple | None
    shift: int | None = None


def successors(state, mode):
    """The next actions: a Shift of each remaining form in lstm mode, else the legal actions."""
    if mode == MODE_LSTM:
        return tuple(Action(SHIFT, state.space.forms[k]) for k in state.shifts)
    return tuple(state.space.actions[c] for c in legal_actions(state))


def top_h(lm_state):
    return lm_state[-1][0]


def stacked(lm_states):
    """Per-item LM states as one batch of rows."""
    return tuple(
        (np.stack([s[layer][0] for s in lm_states]), np.stack([s[layer][1] for s in lm_states]))
        for layer in range(len(lm_states[0]))
    )


def row(lm_states, k):
    """Row k of a batch of LM states, as per-item vectors."""
    return tuple((h[k], c[k]) for h, c in lm_states)


def lm_row(beam, k):
    """Item k's LM state read from the rows of a `synlin.decoder.Beam`, or
    None in syn mode and while its Shift is pending (nothing has read it)."""
    if beam.lm is None or beam.lm_shifts[k] >= 0:
        return None
    return tuple((h[beam.lm_rows[k]], c[beam.lm_rows[k]]) for h, c in beam.lm.layers)


def items_of(beam):
    """The items of a `synlin.decoder.Beam`."""
    return [
        BeamItem(state, float(score), state.history, lm_row(beam, k))
        for k, (state, score) in enumerate(zip(beam.states, beam.scores))
    ]


# -- the per-item reference ---------------------------------------------------


def forward(model, features, feasibles, lm_feats=None):
    """One array of feasible log-probabilities per item."""
    hiddens, _ = hidden(model, reference_features.block_ids(model, features), lm_feats)
    row_of = inventory(model).row
    return [
        log_softmax(model.params["w2"][[row_of(a) for a in feasible]] @ h)
        for h, feasible in zip(hiddens, feasibles)
    ]


def next_word_logprobs(model, lm_state, ids):
    """Log-probabilities of one state's next word, normalized over `ids`."""
    ids = np.asarray(ids, dtype=np.int64)
    return log_softmax(model.params["out_emb"][ids] @ top_h(lm_state))


def joint(lm, lm_state, feasible, base, config):
    """Scorer log-probs plus alpha times the LM log-prob of each shifted word."""
    shifts = [k for k, a in enumerate(feasible) if a.kind == SHIFT]
    combined = base
    if shifts:
        ids = [lm.word_id(feasible[k].arg) for k in shifts]
        combined = base.copy()
        combined[shifts] += config.alpha * next_word_logprobs(lm, lm_state, ids)
    return log_softmax(combined) if config.renormalize_joint else combined


def step_scores(items, models, config):
    """(accumulated score, item, action) candidates, item by item."""
    mode = config.mode
    feasibles = [successors(item.state, mode) for item in items]
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
            lm_feats = np.stack([top_h(item.lm_state) for item in items])
        features = [reference_features.features(lin, item.state) for item in items]
        increments = forward(lin, features, feasibles, lm_feats)
        if mode == MODE_JOINT:
            increments = [
                joint(lm, item.lm_state, feasible, base, config)
                for item, feasible, base in zip(items, feasibles, increments)
            ]
    return [
        (item.score + s, item, action)
        for item, feasible, inc in zip(items, feasibles, increments)
        for action, s in zip(feasible, inc.tolist())
    ]


# -- the object beam ----------------------------------------------------------


def read_lm(items, weights, inputs):
    """Step the pending Shifts of `items`, all in one `lm_step`."""
    pending = [item for item in items if item.shift is not None]
    if pending:
        states = stacked([item.lm_state for item in pending])
        stepped = table_lm_step(weights, states, inputs[[item.shift for item in pending]])
        for j, item in enumerate(pending):
            item.lm_state, item.shift = row(stepped, j), None


def batched_step_scores(items, models, config, tables, lm_tables):
    """(accumulated score, item, action) candidates, one scorer and one LM call
    per step; `lm_tables` are the LM's `step_weights` and the bag's `input_rows`."""
    mode = config.mode
    feasibles = [successors(item.state, mode) for item in items]
    lm = models.lm
    if mode in (MODE_LSTM, MODE_FEATURE):
        read_lm(items, *lm_tables)
    elif mode == MODE_JOINT:
        read_lm([item for item, f in zip(items, feasibles) if f[0].kind == SHIFT], *lm_tables)
    if mode == MODE_LSTM:
        ids = [[lm.word_id(a.arg) for a in feasible] for feasible in feasibles]
        top = np.stack([top_h(item.lm_state) for item in items])
        increments = batch_next_word_logprobs(lm, top, *pad_rows(ids))
    else:
        lin = models.linearizer
        lm_feats = None
        if mode == MODE_FEATURE:
            lm_feats = np.stack([top_h(item.lm_state) for item in items])
        vectors = [reference_features.features(lin, item.state) for item in items]
        columns = {
            block: np.searchsorted(tables[block][0], ids)
            for block, ids in reference_features.block_ids(lin, vectors).items()
        }
        rows = pad_rows([[inventory(lin).row(a) for a in feasible] for feasible in feasibles])
        increments = table_forward(lin, columns, *rows, lm_feats, tables)
        if mode == MODE_JOINT:
            increments = batched_joint(lm, items, feasibles, increments, config)
    return [
        (item.score + s, item, action)
        for item, feasible, inc in zip(items, feasibles, increments.tolist())
        for action, s in zip(feasible, inc)
    ]


def batched_joint(lm, items, feasibles, base, config):
    shifted = [[lm.word_id(a.arg) for a in feasible if a.kind == SHIFT] for feasible in feasibles]
    shifting = [k for k, ids in enumerate(shifted) if ids]
    if shifting:
        ids, valid = pad_rows([shifted[k] for k in shifting])
        top = np.stack([top_h(items[k].lm_state) for k in shifting])
        lm_logp = batch_next_word_logprobs(lm, top, ids, valid)
        lm_logp[~valid] = 0.0
        base[shifting, : lm_logp.shape[1]] += config.alpha * lm_logp
    return log_softmax(base) if config.renormalize_joint else base


def advance_all(candidates):
    """The items the candidates lead to; a Shift's LM step waits until the item is read."""
    items = []
    for score, item, action in candidates:
        code = item.state.space.codes[action]
        shift = code if item.lm_state is not None and action.kind == SHIFT else item.shift
        items.append(
            BeamItem(apply(item.state, code), score, item.history + (action,), item.lm_state, shift)
        )
    return items


def beam_decode(bag, models, config):
    """Best derivation under a breadth-synchronous beam, as `synlin.decoder.beam_decode`."""
    variant = _validate(models, config)
    mode, lin, lm = config.mode, models.linearizer, models.lm
    if mode == MODE_LSTM:
        state, tables = initial_state(bag, LIGHT), None
        n_steps = len(bag)
    else:
        indexers = lin.indexers
        state = initial_state(bag, variant, indexers.content_pos_tags, indexers.content_labels)
        word_ids = [indexers.word_id(form) for form in bag.forms()]
        tables = slot_tables(lin, word_ids, FEATURE_BLOCKS[variant])
        n_steps = derivation_length(variant, len(bag))
    lm_state = lm_tables = None
    if mode != MODE_SYN:
        weights = step_weights(lm)
        lm_state = row(start_state(lm, weights), 0)
        lm_tables = weights, input_rows(weights, [lm.word_id(form) for form in state.space.forms])
    items = [BeamItem(state, 0.0, (), lm_state)]
    for _ in range(n_steps):
        candidates = batched_step_scores(items, models, config, tables, lm_tables)
        candidates.sort(key=lambda c: (-c[0], c[1].history, c[2]))
        items = advance_all(candidates[: config.beam_size])
    best = items[0]
    if mode == MODE_LSTM:
        refs, arcs = tuple(it.root for it in best.state.stack), None
    else:
        refs, arcs = realized_sentence(best.state), best.state.arcs
    return DecodeResult(
        tokens=tuple(r.form for r in refs),
        tids=tuple(r.tid for r in refs),
        arcs=arcs,
        actions=best.history,
        score=best.score,
    )


def history_ranks(codes, parent_ranks):
    """The kept items' history ranks: one `np.lexsort` of (parent's rank, code)."""
    ranks = np.empty(len(codes), dtype=np.int64)
    ranks[np.lexsort((codes, parent_ranks))] = np.arange(len(codes))
    return ranks
