"""Test-only references for decoding.

The object beam, `beam_decode`, is the decoder before its beam was held in
arrays: one `BeamItem` per hypothesis with its own LM state vectors, feasible
sets of `Action`s mapped to scorer rows by `reference_rows` and to LM
ids by `lm.word_id`, candidates as (score, item, action) tuples kept by a
Python sort on (-score, history, action), and one `lm_step` over the
stacked states of the kept Shifts.  It feeds `ffnn.forward`, `lm_step` and
`next_word_logprobs` the same matrices as `synlin.decoder`, so the two must
agree bit for bit (`test_decode_equivalence.py`).

`step_scores` is the per-item scoring that came before per-bag slot tables:
`forward` builds the hidden layer with training's product form
(`reference_grads.hidden`) and softmaxes each item over its own gathered
`w2` rows; `next_word_logprobs` scores one LM state; `joint` adds the LM
term item by item.  The table-driven scores must match it within 1e-9.
"""

from dataclasses import dataclass

import numpy as np

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
from synlin.ffnn import _block_ids, forward as table_forward, slot_tables
from synlin.lstm_lm import lm_step, next_word_logprobs as batch_next_word_logprobs, start_state
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


@dataclass
class BeamItem:
    """One hypothesis: its state, accumulated score, action history and LM
    state (per layer an (h, c) pair of vectors, or None in syn mode)."""

    state: object
    score: float
    history: tuple
    lm_state: tuple | None


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


def items_of(beam):
    """The items of a `synlin.decoder.Beam`."""
    return [
        BeamItem(
            state,
            float(score),
            state.history,
            None if beam.lm is None else row(beam.lm, k),
        )
        for k, (state, score) in enumerate(zip(beam.states, beam.scores))
    ]


# -- the per-item reference ---------------------------------------------------


def forward(model, features, feasibles, lm_feats=None):
    """One array of feasible log-probabilities per item."""
    hiddens, _ = hidden(model, _block_ids(model, features), lm_feats)
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
        features = [lin.extract_features(item.state) for item in items]
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


def batched_step_scores(items, models, config, tables):
    """(accumulated score, item, action) candidates, one scorer and one LM call per step."""
    mode = config.mode
    feasibles = [successors(item.state, mode) for item in items]
    lm = models.lm
    if mode == MODE_LSTM:
        ids = [[lm.word_id(a.arg) for a in feasible] for feasible in feasibles]
        top = np.stack([top_h(item.lm_state) for item in items])
        increments = batch_next_word_logprobs(lm, top, *pad_rows(ids))
    else:
        lin = models.linearizer
        lm_feats = None
        if mode == MODE_FEATURE:
            lm_feats = np.stack([top_h(item.lm_state) for item in items])
        features = [lin.extract_features(item.state) for item in items]
        rows = pad_rows([[inventory(lin).row(a) for a in feasible] for feasible in feasibles])
        increments = table_forward(lin, features, *rows, lm_feats, tables)
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


def advance_all(candidates, models):
    """The items the candidates lead to; one LM step covers every Shift among them."""
    lm_states = [item.lm_state for _, item, _ in candidates]
    shifts = [
        k
        for k, (_, item, action) in enumerate(candidates)
        if item.lm_state is not None and action.kind == SHIFT
    ]
    if shifts:
        ids = [models.lm.word_id(candidates[k][2].arg) for k in shifts]
        stepped = lm_step(models.lm, stacked([lm_states[k] for k in shifts]), ids)
        for j, k in enumerate(shifts):
            lm_states[k] = row(stepped, j)
    return [
        BeamItem(
            apply(item.state, item.state.space.codes[action]), score, item.history + (action,), lm_state
        )
        for (score, item, action), lm_state in zip(candidates, lm_states)
    ]


def beam_decode(bag, models, config):
    """Best derivation under a breadth-synchronous beam, as `synlin.decoder.beam_decode`."""
    variant = _validate(models, config)
    mode, lin = config.mode, models.linearizer
    if mode == MODE_LSTM:
        state, tables = initial_state(bag, LIGHT), None
        n_steps = len(bag)
    else:
        indexers = lin.indexers
        state = initial_state(bag, variant, indexers.content_pos_tags, indexers.content_labels)
        word_ids = [indexers.word_id(form) for form in bag.forms()]
        tables = slot_tables(lin, word_ids, FEATURE_BLOCKS[variant])
        n_steps = derivation_length(variant, len(bag))
    lm_state = None if mode == MODE_SYN else row(start_state(models.lm), 0)
    items = [BeamItem(state, 0.0, (), lm_state)]
    for _ in range(n_steps):
        candidates = batched_step_scores(items, models, config, tables)
        candidates.sort(key=lambda c: (-c[0], c[1].history, c[2]))
        items = advance_all(candidates[: config.beam_size], models)
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
