"""Feed-forward action scorer: embeddings, one tanh layer, feasible softmax.

The hidden layer is h = tanh(W1w xw + W1t xt + W1l xl [+ W1lm f] + b1) over
concatenated feature embeddings; action scores are W2 h with no output bias,
and the softmax is computed only over the rows of the actions that are legal
at the state, so illegal actions have no probability at all.  Training is
cross-entropy plus an L2 term over every trainable tensor, optimized with
Adagrad; dropout on the hidden layer is inverted so inference needs no
rescaling.  Everything is float64 numpy with hand-written gradients, checked
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from synlin.corpus import (
    DepSentence,
    Indexers,
    UNK_WORD,
    derive_oracle,
    to_bag,
)
from synlin.errors import ConfigError, DataError, TrainingError
from synlin.features import FEATURE_BLOCKS, FeatureVector, extract, extract_light
from synlin.optim import Adagrad, check_rates, log_softmax, max_grad_error, row_sums
from synlin.transition import (
    END,
    FULL,
    LEFT_ARC,
    POS,
    RIGHT_ARC,
    SHIFT,
    Action,
    apply,
    initial_state,
    legal_actions,
)

INIT_SCALE = 0.01


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    l2_lambda: float = 1e-8
    dropout: float = 0.3
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    embed_dim: int = 50
    hidden_dim: int = 200

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("embedding and hidden dimensions must be positive")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        check_rates(self.learning_rate, self.l2_lambda)


class ActionInventory:
    """The global action set; row i of the output matrix scores action i.

    Shift rows cover the whole word vocabulary (including the unknown-word
    token, to which out-of-vocabulary shifts are mapped); the padding tokens
    have no rows.
    """

    def __init__(self, actions: tuple[Action, ...], unk_word: str = UNK_WORD):
        self.actions = actions
        self._rows = {a: i for i, a in enumerate(actions)}
        self._unk_shift = self._rows.get(Action(SHIFT, unk_word))

    @classmethod
    def from_indexers(cls, indexers: Indexers, variant: str) -> "ActionInventory":
        acts = [
            Action(SHIFT, w) for w in indexers.words if w != indexers.words[1]
        ]  # every vocabulary word except the padding token
        if variant == FULL:
            acts.extend(Action(POS, p) for p in indexers.content_pos_tags)
            acts.extend(Action(LEFT_ARC, l) for l in indexers.content_labels)
            acts.extend(Action(RIGHT_ARC, l) for l in indexers.content_labels)
        else:
            acts.append(Action(LEFT_ARC))
            acts.append(Action(RIGHT_ARC))
        acts.append(Action(END))
        return cls(tuple(acts))

    def __len__(self) -> int:
        return len(self.actions)

    def __contains__(self, action: Action) -> bool:
        return action in self._rows

    def row(self, action: Action) -> int:
        """Row index of an action; unknown shift forms map to the UNK row."""
        r = self._rows.get(action)
        if r is not None:
            return r
        if action.kind == SHIFT and self._unk_shift is not None:
            return self._unk_shift
        raise DataError(f"action {action.name()} not in the inventory")

    def action(self, row: int) -> Action:
        return self.actions[row]


@dataclass
class Linearizer:
    """A trained (or initialized) scorer plus everything needed to use it.

    `params` maps each tensor name of `param_shapes` to its float64 array, in
    `param_shapes` order, which is the order of the L2 sum and of every
    gradient dict.
    """

    params: dict[str, np.ndarray]
    indexers: Indexers
    inventory: ActionInventory
    variant: str
    config: TrainConfig
    lm_feat_dim: int | None = None

    def extract_features(self, state) -> FeatureVector:
        if self.variant == FULL:
            return extract(state, self.indexers)
        return extract_light(state, self.indexers)


@dataclass
class TrainExample:
    """One oracle decision: features, the legal actions, the gold one."""

    features: FeatureVector
    feasible: tuple[Action, ...]
    gold: Action
    lm_feat: np.ndarray | None = None


def param_shapes(
    indexers: Indexers,
    inventory: ActionInventory,
    variant: str,
    config: TrainConfig,
    lm_feat_dim: int | None = None,
) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor, in `Linearizer.params` order.

    Each feature block has an embedding table `emb_<block>` and a hidden
    weight block `w1_<block>`; an LM feature block has only `w1_lm`.
    """
    d, h = config.embed_dim, config.hidden_dim
    vocab = {"word": indexers.n_words, "pos": indexers.n_pos, "label": indexers.n_labels}
    blocks = FEATURE_BLOCKS[variant]
    shapes = [(f"emb_{block}", (vocab[block], d)) for block in blocks]
    shapes += [(f"w1_{block}", (h, len(slots) * d)) for block, slots in blocks.items()]
    if lm_feat_dim is not None:
        shapes.append(("w1_lm", (h, lm_feat_dim)))
    return shapes + [("b1", (h,)), ("w2", (len(inventory), h))]


# `init_linearizer` draws these first, then the rest in `param_shapes` order.
_DRAWN_FIRST = ("emb_word", "w1_word", "b1", "w2")


def init_linearizer(
    indexers: Indexers,
    variant: str,
    config: TrainConfig,
    lm_feat_dim: int | None = None,
    rng: np.random.Generator | None = None,
) -> Linearizer:
    """Fresh parameters: uniform(-0.01, 0.01) everywhere except the zero b1."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    inventory = ActionInventory.from_indexers(indexers, variant)
    shapes = dict(param_shapes(indexers, inventory, variant, config, lm_feat_dim))
    drawn = {
        name: np.zeros(shapes[name])
        if name == "b1"
        else rng.uniform(-INIT_SCALE, INIT_SCALE, shapes[name])
        for name in [*_DRAWN_FIRST, *(n for n in shapes if n not in _DRAWN_FIRST)]
    }
    return Linearizer(
        params={name: drawn[name] for name in shapes},
        indexers=indexers,
        inventory=inventory,
        variant=variant,
        config=config,
        lm_feat_dim=lm_feat_dim,
    )


def make_training_examples(
    sentences: list[DepSentence],
    model: Linearizer,
    lm=None,
) -> list[TrainExample]:
    """Replay the oracle over each sentence, recording one example per action.

    When `lm` is given (a trained LanguageModel), each example carries the
    LM's top hidden vector for the words shifted so far, and the LM advances
    whenever the oracle shifts; its parameters are never touched.
    """
    from synlin import lstm_lm  # local import: lstm_lm is independent of this module

    examples = []
    for k, sent in enumerate(sentences):
        actions = derive_oracle(sent, model.variant)
        state = initial_state(
            to_bag(sent),
            model.variant,
            model.indexers.content_pos_tags,
            model.indexers.content_labels,
        )
        lm_state = lstm_lm.start_state(lm) if lm is not None else None
        for act in actions:
            feasible = legal_actions(state)
            if act not in feasible:
                raise DataError(
                    f"sentence {k + 1}: gold action {act.name()} not feasible at "
                    f"{state.summary()}"
                )
            examples.append(
                TrainExample(
                    features=model.extract_features(state),
                    feasible=feasible,
                    gold=act,
                    lm_feat=None if lm_state is None else lm_state.top_h,
                )
            )
            state = apply(state, act)
            if lm is not None and act.kind == SHIFT:
                lm_state = lstm_lm.lm_step(lm, [lm_state], [lm.word_id(act.arg)])[0]
    return examples


@dataclass
class _Packed:
    """Training examples as dense arrays (feasible sets padded + masked)."""

    ids: dict[str, np.ndarray]  # feature block -> (examples x slots) ids
    lm_feats: np.ndarray | None
    rows: np.ndarray
    valid: np.ndarray
    gold_col: np.ndarray


def _block_ids(model: Linearizer, features: list[FeatureVector]) -> dict[str, np.ndarray]:
    """One (items x slots) id array per feature block of the model's variant."""
    return {
        block: np.array(list(map(attrgetter(f"{block}_ids"), features)), dtype=np.int64)
        for block in FEATURE_BLOCKS[model.variant]
    }


def _pack(model: Linearizer, examples: list[TrainExample]) -> _Packed:
    n = len(examples)
    width = max(len(e.feasible) for e in examples)
    rows = np.zeros((n, width), dtype=np.int64)
    valid = np.zeros((n, width), dtype=bool)
    gold_col = np.zeros(n, dtype=np.int64)
    lm_feats = None
    if model.lm_feat_dim is not None:
        lm_feats = np.zeros((n, model.lm_feat_dim))
    for i, ex in enumerate(examples):
        m = len(ex.feasible)
        rows[i, :m] = [model.inventory.row(a) for a in ex.feasible]
        valid[i, :m] = True
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
    ids = _block_ids(model, [ex.features for ex in examples])
    return _Packed(ids, lm_feats, rows, valid, gold_col)


def _hidden(model: Linearizer, ids: dict[str, np.ndarray], lm_feats=None):
    """tanh hidden layer of a batch of examples, one row per example.

    One (b x slots*d) @ (slots*d x h) product per feature block, added in
    `FEATURE_BLOCKS` order with the LM block last; decoding (`forward`) and
    training (`_batch_pass`) both call it.  Also returns each block's input
    rows (the concatenated embeddings, or the LM features) for backprop.
    """
    p = model.params
    inputs = {
        block: p[f"emb_{block}"][block_ids].reshape(len(block_ids), -1)
        for block, block_ids in ids.items()
    }
    if "w1_lm" in p:
        inputs["lm"] = lm_feats
    first, *rest = (x @ p[f"w1_{block}"].T for block, x in inputs.items())
    return np.tanh(sum(rest, first) + p["b1"]), inputs


def _batch_pass(
    model: Linearizer,
    packed: _Packed,
    idx: np.ndarray,
    l2_lambda: float,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    want_grads: bool = True,
):
    """Objective and (optionally) gradients for the examples at `idx`."""
    p = model.params
    b = len(idx)
    ids = {block: block_ids[idx] for block, block_ids in packed.ids.items()}
    lm = packed.lm_feats[idx] if packed.lm_feats is not None else None
    a, inputs = _hidden(model, ids, lm)
    if dropout > 0.0:
        mask = (rng.random(a.shape) >= dropout) / (1.0 - dropout)
        h = a * mask
    else:
        mask = None
        h = a
    rows = packed.rows[idx]
    valid = packed.valid[idx]
    gold = np.arange(b), packed.gold_col[idx]
    logits = np.take_along_axis(h @ p["w2"].T, rows, axis=1)
    logits[~valid] = -np.inf
    logp = log_softmax(logits)
    objective = -float(np.sum(logp[gold]))
    if l2_lambda > 0.0:
        objective += 0.5 * l2_lambda * sum(float(np.vdot(t, t)) for t in p.values())
    if not want_grads:
        return objective, None

    dlogits = np.exp(logp)
    dlogits[gold] -= 1.0
    # dlogits as dense (b x |A|) rows, summed: OOV Shifts share the UNK row
    n_actions = len(p["w2"])
    flat = rows + n_actions * np.arange(b)[:, None]
    ddense = row_sums(flat, dlogits[..., None], b * n_actions).reshape(b, n_actions)
    grads = {"w2": ddense.T @ h}
    dh = ddense @ p["w2"]
    da = dh * mask if mask is not None else dh
    dpre = da * (1.0 - a * a)
    grads["b1"] = dpre.sum(axis=0)
    for block, x in inputs.items():
        grads[f"w1_{block}"] = dpre.T @ x
        if block in ids:
            dx = (dpre @ p[f"w1_{block}"]).reshape(b, -1, model.config.embed_dim)
            grads[f"emb_{block}"] = row_sums(ids[block], dx, len(p[f"emb_{block}"]))
    if l2_lambda > 0.0:
        for name, t in p.items():
            grads[name] += l2_lambda * t
    return objective, {name: grads[name] for name in p}


def forward(
    model: Linearizer,
    features: list[FeatureVector],
    feasibles: list[tuple[Action, ...]],
    lm_feats: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Log-probabilities of a batch of items, one array per item.

    Item i has feature vector `features[i]`, feasible actions `feasibles[i]`
    and, for a model with an LM feature block, the row `lm_feats[i]`.  The
    hidden layer of all items is one `_hidden` call, shared with training;
    the softmax of item i runs over the rows of its feasible actions only,
    and its array holds their log-probabilities in `feasibles[i]` order.
    """
    if len(features) != len(feasibles):
        raise DataError(f"{len(features)} feature vectors for {len(feasibles)} feasible sets")
    if not all(feasibles):
        raise DataError("feasible set is empty")
    p = model.params
    if "w1_lm" in p:
        if lm_feats is None:
            raise ConfigError("model expects an LM feature block")
        lm_feats = np.asarray(lm_feats)
        width = p["w1_lm"].shape[1]
        if lm_feats.shape != (len(features), width):
            raise ConfigError(f"LM feature rows {lm_feats.shape} != ({len(features)}, {width})")
    elif lm_feats is not None:
        raise ConfigError("model has no LM feature block but one was supplied")
    hidden, _ = _hidden(model, _block_ids(model, features), lm_feats)
    row = model.inventory.row
    return [
        log_softmax(p["w2"][[row(a) for a in feasible]] @ h)
        for h, feasible in zip(hidden, feasibles)
    ]


def loss(model: Linearizer, batch: list[TrainExample], l2_lambda: float | None = None) -> float:
    """Cross-entropy over the batch plus the L2 term over all tensors."""
    if l2_lambda is None:
        l2_lambda = model.config.l2_lambda
    packed = _pack(model, batch)
    objective, _ = _batch_pass(
        model, packed, np.arange(len(batch)), l2_lambda, want_grads=False
    )
    return objective


def train(
    model: Linearizer,
    examples: list[TrainExample],
    config: TrainConfig | None = None,
) -> list[float]:
    """Adagrad training over oracle examples; returns the per-epoch loss log.

    Deterministic under a fixed config seed.  The logged value per epoch is
    the sum of the per-batch objectives as seen during the pass (dropout
    included when configured).
    """
    if config is None:
        config = model.config
    if not examples:
        raise DataError("no training examples")
    rng = np.random.default_rng(config.seed)
    packed = _pack(model, examples)
    opt = Adagrad(model.params, config.learning_rate)
    log = []
    n = len(examples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            objective, grads = _batch_pass(
                model,
                packed,
                idx,
                config.l2_lambda,
                dropout=config.dropout,
                rng=rng,
                want_grads=True,
            )
            if not np.isfinite(objective):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch + 1}, batch offset {start}: "
                    f"{objective!r}"
                )
            opt.step(grads)
            total += objective
        log.append(total)
    return log


def grad_check(
    model: Linearizer,
    batch: list[TrainExample],
    epsilon: float = 1e-5,
    samples_per_tensor: int = 120,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic gradients and central differences.

    Dropout is off; see `optim.max_grad_error` for the error measure.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    packed = _pack(model, batch)
    idx = np.arange(len(batch))
    l2 = model.config.l2_lambda
    _, grads = _batch_pass(model, packed, idx, l2, want_grads=True)

    def objective() -> float:
        val, _ = _batch_pass(model, packed, idx, l2, want_grads=False)
        return val

    return max_grad_error(model.params, grads, objective, epsilon, samples_per_tensor, rng)
