"""Test-only references: the per-item decode scoring that `step_scores` used
before each step was scored from per-bag slot tables.

`forward` builds the hidden layer with training's product form
(`reference_grads.hidden`) and softmaxes each item over its own gathered
`w2` rows; `next_word_logprobs` scores one LM state; `joint` adds the LM
term item by item.  `step_scores` puts them together as the decoder did.
`test_decode_equivalence.py` checks the fast paths in `synlin` against them.
"""

import numpy as np

from reference_grads import hidden
from synlin.decoder import MODE_FEATURE, MODE_JOINT, MODE_LSTM, _successors
from synlin.ffnn import _block_ids
from synlin.optim import log_softmax
from synlin.transition import SHIFT


def forward(model, features, feasibles, lm_feats=None):
    """One array of feasible log-probabilities per item."""
    hiddens, _ = hidden(model, _block_ids(model, features), lm_feats)
    row = model.inventory.row
    return [
        log_softmax(model.params["w2"][[row(a) for a in feasible]] @ h)
        for h, feasible in zip(hiddens, feasibles)
    ]


def next_word_logprobs(model, state, ids):
    """Log-probabilities of one state's next word, normalized over `ids`."""
    ids = np.asarray(ids, dtype=np.int64)
    return log_softmax(model.params["out_emb"][ids] @ state.top_h)


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
    """(accumulated score, item, action) candidates, as `decoder.step_scores`."""
    mode = config.mode
    feasibles = [_successors(item.state, mode) for item in items]
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
                joint(lm, item.lm_state, feasible, base, config)
                for item, feasible, base in zip(items, feasibles, increments)
            ]
    return [
        (item.score + s, item, action)
        for item, feasible, inc in zip(items, feasibles, increments)
        for action, s in zip(feasible, inc.tolist())
    ]
