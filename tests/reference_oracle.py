"""Test-only references for the gold oracle and its training examples.

`derive_oracle` is the oracle before it walked `transition.State`: its own
integer stack of gold indices, an `attached` counter per head and a check
that the derivation has 3n (full) or 2n (light) actions.  It returns the
action list, which `make_training_examples` replays through a second
`initial_state`/`apply` walk, checking each gold action against the legal
set before taking its example as a `TrainExample` of `Action`s.  `pack`
turns those into arrays, one inventory lookup per feasible action and one
search for the gold one per example.  `synlin.corpus.derive_oracle` must
give the same actions, and `synlin.ffnn.make_training_examples` the arrays
that `pack` makes of the reference examples (`test_oracle_equivalence.py`).
The replay steps the LM as a decode does, from the sentence's `input_rows`.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from reference_features import block_ids, features
from reference_rows import inventory
from synlin.corpus import to_bag
from synlin.errors import ConfigError, DataError
from synlin.ffnn import TrainingExamples
from synlin.lstm_lm import input_rows, lm_step, start_state, step_weights
from synlin.optim import pad_rows
from synlin.transition import (
    END,
    FULL,
    LEFT_ARC,
    POS,
    RIGHT_ARC,
    SHIFT,
    Action,
    apply,
    derivation_length,
    initial_state,
    legal_actions,
)


def derive_oracle(sentence, variant):
    """Action sequence that rebuilds the gold order and gold arc set."""
    full = variant == FULL
    heads = {t.index: t.head for t in sentence.tokens}
    labels = {t.index: t.label for t in sentence.tokens}
    forms = {t.index: t.form for t in sentence.tokens}
    tags = {t.index: t.pos for t in sentence.tokens}
    n_children = Counter(heads.values())
    attached = Counter()
    n = len(sentence)

    def complete(i):
        return attached[i] == n_children[i]

    def inside_subtree(node, ancestor):
        node = heads[node]
        while node != 0:
            if node == ancestor:
                return True
            node = heads[node]
        return False

    actions = []
    stack = []
    nxt = 1
    while True:
        if len(stack) >= 2:
            top, second = stack[-1], stack[-2]
            if heads[top] == second and complete(top):
                actions.append(Action(RIGHT_ARC, labels[top] if full else None))
                attached[second] += 1
                stack.pop()
                continue
            if heads[second] == top and complete(second):
                prefer_shift = nxt <= n and inside_subtree(nxt, top)
                if not prefer_shift:
                    actions.append(Action(LEFT_ARC, labels[second] if full else None))
                    attached[top] += 1
                    del stack[-2]
                    continue
        if nxt <= n:
            actions.append(Action(SHIFT, forms[nxt]))
            if full:
                actions.append(Action(POS, tags[nxt]))
            stack.append(nxt)
            nxt += 1
            continue
        break
    assert len(stack) == 1, stack
    actions.append(Action(END))
    assert len(actions) == derivation_length(variant, n)
    return actions


def make_training_examples(sentences, model, lm=None):
    """Replay the reference oracle over each sentence, one example per action."""
    examples = []
    weights = None if lm is None else step_weights(lm)
    for k, sent in enumerate(sentences):
        actions = derive_oracle(sent, model.variant)
        tags, labels = model.indexers.content_pos_tags, model.indexers.content_labels
        state = initial_state(to_bag(sent), model.variant, tags, labels)
        lm_state = None
        if lm is not None:
            lm_state = start_state(lm, weights)
            inputs = input_rows(weights, [lm.word_id(f) for f in state.space.forms])
        for act in actions:
            feasible = tuple(map(state.space.actions.__getitem__, legal_actions(state)))
            if act not in feasible:
                raise DataError(f"sentence {k + 1}: gold action {act.name()} not feasible")
            examples.append(
                TrainExample(
                    features=features(model, state),
                    feasible=feasible,
                    gold=act,
                    lm_feat=None if lm_state is None else lm_state[-1][0][0],
                )
            )
            code = state.space.codes[act]
            state = apply(state, code)
            if lm is not None and act.kind == SHIFT:
                lm_state = lm_step(weights, lm_state, inputs[[code]])
    return examples


@dataclass
class TrainExample:
    """One oracle decision: features, the legal actions, the gold one."""

    features: dict[str, tuple[int, ...]]
    feasible: tuple[Action, ...]
    gold: Action
    lm_feat: np.ndarray | None = None


def pack(model, examples) -> TrainingExamples:
    """The examples as the arrays `synlin.ffnn.train` learns from."""
    n = len(examples)
    rows, valid = pad_rows([list(map(inventory(model).row, ex.feasible)) for ex in examples])
    gold_col = np.zeros(n, dtype=np.int64)
    lm_feats = None
    if model.lm_feat_dim is not None:
        lm_feats = np.zeros((n, model.lm_feat_dim))
    for i, ex in enumerate(examples):
        try:
            gold_col[i] = ex.feasible.index(ex.gold)
        except ValueError:
            raise DataError(
                f"example {i}: gold action {ex.gold.name()} not in its feasible set"
            ) from None
        if lm_feats is not None:
            if ex.lm_feat is None:
                raise ConfigError(f"example {i}: model expects an LM feature block")
            lm_feats[i] = ex.lm_feat
    ids = block_ids(model, [ex.features for ex in examples])
    return TrainingExamples(ids, lm_feats, rows, valid, gold_col)
