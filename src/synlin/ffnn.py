"""Feed-forward action scorer: embeddings, one tanh layer, feasible softmax.

The hidden layer is h = tanh(W1w xw + W1t xt + W1l xl [+ W1lm f] + b1) over
concatenated feature embeddings; action scores are W2 h with no output bias,
and the softmax is computed only over the rows of the actions that are legal
at the state, so illegal actions have no probability at all.  Row r scores
action r of `output_actions`, and decoding and training find a bag's rows
by code through one offset rule, `code_rows`.  Training examples are
arrays from the start (`TrainingExamples`), filled in while the oracle
derivation is walked.  Training is cross-entropy plus an L2 term over
every trainable tensor, optimized with Adagrad; dropout on the hidden layer
is inverted so inference needs no rescaling.  Everything is float64 numpy
with hand-written gradients, checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from synlin import optim
from synlin.corpus import DepSentence, Indexers, derive_oracle
from synlin.errors import ConfigError, DataError, TrainingError
from synlin.features import FEATURE_BLOCKS, Lookup, extract, extract_light, lookup
from synlin.optim import Adagrad, masked_log_softmax, max_grad_error, pad_rows, row_sums
from synlin.transition import FULL, SHIFT, Action, ActionSpace

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
        optim.check_training(self)
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("embedding and hidden dimensions must be positive")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class Linearizer:
    """A trained (or initialized) scorer plus everything needed to use it.

    `params` maps each tensor name of `param_shapes` to its float64 array, in
    `param_shapes` order, which is the order of the L2 sum and of every
    gradient dict.
    """

    params: dict[str, np.ndarray]
    indexers: Indexers
    variant: str
    config: TrainConfig
    lm_feat_dim: int | None = None

    def extract_features(self, states, ids: Lookup) -> dict[str, np.ndarray]:
        """The features of `states`, which share one bag and its `ids`."""
        if self.variant == FULL:
            return extract(states, ids)
        return extract_light(states, ids)


def output_actions(indexers: Indexers, variant: str) -> tuple[Action, ...]:
    """The action each output row scores: a Shift of every word but the
    padding entry (id 1), then the non-Shift actions of an `ActionSpace` over
    the POS and label tables.  So code c of a bag's space scores with row
    `code_rows(model, space)[c]`."""
    words = (indexers.words[0], *indexers.words[2:])
    others = ActionSpace((), variant, indexers.content_pos_tags, indexers.content_labels).actions
    return (*(Action(SHIFT, word) for word in words), *others)


def param_shapes(
    indexers: Indexers, variant: str, config: TrainConfig, lm_feat_dim: int | None = None
) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor, in `Linearizer.params` order.

    Each feature block has an embedding table `emb_<block>` and a hidden
    weight block `w1_<block>`; an LM feature block has only `w1_lm`.  `w2`
    has one row per `output_actions` entry.
    """
    d, h = config.embed_dim, config.hidden_dim
    vocab = {"word": indexers.n_words, "pos": indexers.n_pos, "label": indexers.n_labels}
    blocks = FEATURE_BLOCKS[variant]
    shapes = [(f"emb_{block}", (vocab[block], d)) for block in blocks]
    shapes += [(f"w1_{block}", (h, len(slots) * d)) for block, slots in blocks.items()]
    if lm_feat_dim is not None:
        shapes.append(("w1_lm", (h, lm_feat_dim)))
    return shapes + [("b1", (h,)), ("w2", (len(output_actions(indexers, variant)), h))]


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
    shapes = dict(param_shapes(indexers, variant, config, lm_feat_dim))
    drawn = {
        name: np.zeros(shapes[name])
        if name == "b1"
        else rng.uniform(-INIT_SCALE, INIT_SCALE, shapes[name])
        for name in [*_DRAWN_FIRST, *(n for n in shapes if n not in _DRAWN_FIRST)]
    }
    return Linearizer(
        params={name: drawn[name] for name in shapes},
        indexers=indexers,
        variant=variant,
        config=config,
        lm_feat_dim=lm_feat_dim,
    )


@dataclass
class TrainingExamples:
    """Oracle decisions as arrays, one row each: feature ids per block, LM
    feature rows (None without an LM block), the output rows of the legal
    actions in legal order (zero-padded; `valid` marks the real ones) and the
    gold action's column.  An int array or a slice selects: `examples[:6]`."""

    ids: dict[str, np.ndarray]  # feature block -> (examples x slots) ids
    lm_feats: np.ndarray | None
    rows: np.ndarray
    valid: np.ndarray
    gold_col: np.ndarray

    def __len__(self) -> int:
        return len(self.gold_col)

    def __getitem__(self, at) -> "TrainingExamples":
        lm_feats = None if self.lm_feats is None else self.lm_feats[at]
        ids = {block: x[at] for block, x in self.ids.items()}
        return TrainingExamples(ids, lm_feats, self.rows[at], self.valid[at], self.gold_col[at])


def code_rows(model: Linearizer, space: ActionSpace) -> np.ndarray:
    """The output row of each action code of `space`, by offset: Shift code c
    takes row `max(word_id(forms[c]) - 1, 0)`, so out-of-vocabulary forms and
    the padding entry's spelling share the UNK row, and every later code c
    takes row `n_words - 1 + (c - len(forms))`."""
    n, idx = len(space.forms), model.indexers
    rows = np.arange(len(space.actions)) + (idx.n_words - 1 - n)
    rows[:n] = [max(idx.word_id(form) - 1, 0) for form in space.forms]
    return rows


def make_training_examples(sentences: list[DepSentence], model: Linearizer, lm=None) -> TrainingExamples:
    """The arrays `train` learns from, one example per gold action, filled in
    while each sentence's oracle derivation is walked.

    `lm` (a trained LanguageModel) is required exactly when the model has an
    LM feature block, and must match its width.  Each example's LM row is
    then the LM's top hidden vector for the words shifted so far, stepped
    with the `input_rows` and `lm_step` that a decode of its bag uses; the
    LM's parameters are never touched.  An underivable sentence is a
    DataError naming its `number`, or its position in `sentences` when it
    has none.
    """
    from synlin import lstm_lm  # local import: lstm_lm is independent of this module

    width = None if lm is None else lm.config.hidden_size
    if width != model.lm_feat_dim:
        takes = model.lm_feat_dim or "no"
        raise ConfigError(f"model takes {takes} LM features, LM gives {width or 'none'}")
    features, legal_rows, gold_col, lm_feats = [], [], [], []
    if lm is not None:
        weights = lstm_lm.step_weights(lm)
        start = lstm_lm.start_state(lm, weights)
    for k, sent in enumerate(sentences, start=1):
        try:
            final = derive_oracle(sent, model.variant, model.indexers)
        except DataError as exc:
            raise DataError(f"sentence {sent.number or k}: {exc}") from None
        forms, row = final.space.forms, code_rows(model, final.space).tolist()
        if lm is not None:
            lm_state, inputs = start, lstm_lm.input_rows(weights, [lm.word_id(f) for f in forms])
        nodes = final.nodes()
        states = [node.parent for node in nodes]
        features.append(model.extract_features(states, lookup(final.space, model.indexers)))
        for node in nodes:
            legal = node.parent.legal
            legal_rows.append([row[c] for c in legal])
            gold_col.append(legal.index(node.code))
            if lm is not None:
                lm_feats.append(lm_state[-1][0][0])
                if node.code < len(forms):
                    lm_state = lstm_lm.lm_step(weights, lm_state, inputs[[node.code]])
    rows, valid = pad_rows(legal_rows)
    lm_rows = None if lm is None else np.reshape(lm_feats, (len(gold_col), width))
    gold_col = np.array(gold_col, dtype=np.int64)
    blocks = {  # (0 x slots) arrays when there are no sentences
        block: np.concatenate([np.zeros((0, len(slots)), np.int64), *(f[block] for f in features)])
        for block, slots in FEATURE_BLOCKS[model.variant].items()
    }
    return TrainingExamples(blocks, lm_rows, rows, valid, gold_col)


def _batch_pass(
    model: Linearizer,
    examples: TrainingExamples,
    idx: np.ndarray,
    l2_lambda: float,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    want_grads: bool = True,
    scratch: dict[str, np.ndarray] | None = None,
):
    """Objective and (optionally) gradients for the examples at `idx`: the
    embedding gathers, the w1 and embedding gradients and the L2 terms go
    through `scratch` (`_scratch` for at least `len(idx)` examples, new if
    None).  The ids must index their tables, as `_check_examples` checks.

    The work of each feature block (its gather and product forward, its w1
    and its embedding gradient backward, each with its L2 term) and the L2
    objective are jobs that `optim.run_jobs` shares among the CPUs the process
    may use (`taskset` restricts them).  A job makes the numpy calls one thread
    would, and the caller sums the products in block order, so the CPU count
    never changes a result or a model file."""
    p = model.params
    b = len(idx)
    batch = examples[idx]
    if scratch is None:
        scratch = _scratch(p, b)
    blocks = [name.removeprefix("w1_") for name in p if name.startswith("w1_")]
    # one (b x slots*d) @ (slots*d x h) product per block, the LM block last
    inputs = {block: scratch[f"x_{block}"][:b] for block in batch.ids}
    if batch.lm_feats is not None:
        inputs["lm"] = batch.lm_feats
    jobs = [
        (block, _block_product, inputs[block], p[f"w1_{block}"], p.get(f"emb_{block}"),
         batch.ids.get(block))
        for block in blocks
    ]
    if l2_lambda > 0.0:
        jobs.append(("l2", _square_sum, list(p.values())))
    out = optim.run_jobs(jobs, scratch["l2"])
    first, *rest = (out[block] for block in blocks)
    a = np.tanh(sum(rest, first) + p["b1"])
    if dropout > 0.0:
        mask = (rng.random(a.shape) >= dropout) / (1.0 - dropout)
        h = a * mask
    else:
        mask = None
        h = a
    gold = np.arange(b), batch.gold_col
    logp = _output_layer(model, h, batch.rows, batch.valid)
    objective = -float(np.sum(logp[gold]))
    if l2_lambda > 0.0:
        objective += 0.5 * l2_lambda * out["l2"]
    if not want_grads:
        return objective, None

    dlogits = np.exp(logp)
    dlogits[gold] -= 1.0
    # dlogits as dense (b x |A|) rows, summed: OOV Shifts share the UNK row
    n_actions = len(p["w2"])
    flat = batch.rows + n_actions * np.arange(b)[:, None]
    ddense = row_sums(flat, dlogits[..., None], b * n_actions).reshape(b, n_actions)
    grads = {"w2": ddense.T @ h}
    dh = ddense @ p["w2"]
    da = dh * mask if mask is not None else dh
    dpre = da * (1.0 - a * a)
    grads["b1"] = dpre.sum(axis=0)
    # the costlier w1 products first, so the parts' last jobs are short
    jobs = [
        (f"w1_{block}", _w1_grad, l2_lambda, dpre, inputs[block], p[f"w1_{block}"],
         scratch[f"w1_{block}"])
        for block in blocks
    ]
    jobs += [
        (f"emb_{block}", _emb_grad, l2_lambda, dpre, p[f"w1_{block}"], p[f"emb_{block}"], ids,
         scratch[f"dx_{block}"][:b], scratch[f"index_{block}"][:b])
        for block, ids in batch.ids.items()
    ]
    grads |= optim.run_jobs(jobs, scratch["l2"])
    for name in ("w2", "b1"):
        _add_l2(l2_lambda, grads[name], p[name], scratch["l2"][0])
    return objective, {name: grads[name] for name in p}


# The job bodies of `_batch_pass`.  Threads other than the caller's run
# them, so they call only numpy and `row_sums`, nothing a tracer may wrap.


def _block_product(x, w1, emb, ids, row) -> np.ndarray:
    """x @ w1.T over x's rows, x first filled with the rows `ids` of `emb`
    unless `emb` is None (mode "clip" gathers without a buffer;
    `_check_examples` bounds the ids)."""
    if emb is not None:
        np.take(emb, ids, 0, x, "clip")
    return x.reshape(len(x), -1) @ w1.T


def _square_sum(tensors: list[np.ndarray], row) -> float:
    """The sum of the tensors' squared entries, tensor by tensor in order."""
    return sum(map(float, map(np.vdot, tensors, tensors)))


def _w1_grad(l2_lambda, dpre, x, w1, grad, row) -> np.ndarray:
    """dpre.T @ x into `grad`, the gradient of `w1`, plus its L2 term."""
    np.matmul(dpre.T, x.reshape(len(x), -1), out=grad)
    _add_l2(l2_lambda, grad, w1, row)
    return grad


def _emb_grad(l2_lambda, dpre, w1, emb, ids, dx, index, row) -> np.ndarray:
    """The gradient of `emb` when its rows `ids` were gathered: dpre @ w1
    into `dx`, summed by id (through `index`), plus its L2 term."""
    np.matmul(dpre, w1, out=dx.reshape(len(dx), -1))
    grad = row_sums(ids, dx, len(emb), index)
    _add_l2(l2_lambda, grad, emb, row)
    return grad


def _add_l2(l2_lambda: float, grad: np.ndarray, t: np.ndarray, row: np.ndarray):
    """Add l2_lambda * t to `grad`, t's gradient, forming the product in `row`."""
    if l2_lambda > 0.0:
        grad += np.multiply(l2_lambda, t, out=row[: t.size].reshape(t.shape))


def _scratch(params: dict[str, np.ndarray], rows: int) -> dict[str, np.ndarray]:
    """The arrays `_batch_pass` writes into, held across `train`'s batches of
    up to `rows` examples, so that a batch allocates no w1-sized array and
    none as large as its embedding gathers: one per w1 gradient, per feature
    block its (rows x slots x d) gathers and their gradients and row-sum
    index, and "l2", one row as large as the largest tensor (for the L2
    terms) per part of `optim.run_jobs`: one per CPU of `optim.cpu_count()`, but
    never more than tensors, which bounds the jobs of a pass."""
    out = {name: np.empty_like(t) for name, t in params.items() if name.startswith("w1_")}
    parts = min(optim.cpu_count(), len(params))
    out["l2"] = np.empty((parts, max(t.size for t in params.values())))
    for name in params:
        if name.startswith("emb_"):
            block, (_, d) = name.removeprefix("emb_"), params[name].shape
            shape = (rows, params[f"w1_{block}"].shape[1] // d, d)
            for key, dtype in (("x", np.float64), ("dx", np.float64), ("index", np.int64)):
                out[f"{key}_{block}"] = np.empty(shape, dtype)
    return out


# Per feature block, the sorted ids a bag's states can read and their slot
# table: entry [s, j] is the slot-s part of `w1_<block>` times the embedding
# of the j-th id, the pre-computation trick of Chen & Manning 2014.
SlotTables = dict[str, tuple[np.ndarray, np.ndarray]]


# 0, 1, ... as one held, read-only vector: a decode step's gathers take their
# index vectors as views of it (`_index`), so a step builds none.  8 KB.
_INDEX = np.arange(1024)
_INDEX.flags.writeable = False


def _index(k: int) -> np.ndarray:
    """The vector 0..k-1: a view of `_INDEX` when that is long enough."""
    return _INDEX[:k] if k <= len(_INDEX) else np.arange(k)


def slot_tables(model: Linearizer, word_ids, blocks) -> SlotTables:
    """The tables of the feature blocks `blocks`.  The word block's covers
    `word_ids` and padding, so a decode builds it per bag; the others cover
    every id and depend only on the model."""
    p, d = model.params, model.config.embed_dim
    tables = {}
    for block in blocks:
        emb, w1 = p[f"emb_{block}"], p[f"w1_{block}"]
        ids = np.arange(len(emb))
        if block == "word":
            ids = np.array(sorted({model.indexers.null_word_id, *word_ids}))
        # one (k x d) @ (d x h) product per slot, in one call
        tables[block] = ids, np.matmul(emb[ids], w1.reshape(len(w1), -1, d).transpose(1, 2, 0))
    return tables


def forward(
    model: Linearizer,
    features: dict[str, np.ndarray],
    rows: np.ndarray,
    valid: np.ndarray,
    lm_feats: np.ndarray | None,
    tables: SlotTables,
) -> np.ndarray:
    """Log-probabilities of a batch of items, one row per item.

    Item i has the columns `features[block][i]` of `tables` (`slot_tables`
    of every block; `extract` through a `Lookup` of word-table columns),
    feasible actions of the output rows `rows[i][valid[i]]` (`optim.pad_rows`
    pads row sequences) and, for a model with an LM feature block, the row
    `lm_feats[i]` (None otherwise).  Row i holds their log-probabilities in
    that order, padded with -inf.  The output layer is training's.
    """
    items = len(features["word"])
    if items != len(rows):
        raise DataError(f"{items} feature vectors for {len(rows)} feasible sets")
    if not valid.any(axis=-1).all():
        raise DataError("feasible set is empty")
    p = model.params
    shape = None if lm_feats is None else np.shape(lm_feats)
    want = None if model.lm_feat_dim is None else (items, model.lm_feat_dim)
    if shape != want:
        raise ConfigError(f"LM feature rows of shape {shape}, model takes {want}")
    pre = 0.0
    for block, columns in features.items():
        table = tables[block][1]
        pre = pre + np.add.reduce(table[_index(len(table)), columns], axis=1)
    if lm_feats is not None:
        pre += lm_feats @ p["w1_lm"].T
    return _output_layer(model, np.tanh(pre + p["b1"]), rows, valid)


def _output_layer(model: Linearizer, h: np.ndarray, rows: np.ndarray, valid: np.ndarray):
    """Log-probabilities of the output rows `rows[i][valid[i]]` of each hidden
    vector `h[i]`, padded with -inf: what decoding and training both score."""
    logits = h @ model.params["w2"].T
    return masked_log_softmax(logits[_index(len(rows))[:, None], rows], valid)


def _check_examples(model: Linearizer, examples: TrainingExamples):
    """ConfigError unless `examples` fit `model`: its feature blocks, its LM
    feature width, and ids and rows inside the tensors they index."""
    blocks = list(FEATURE_BLOCKS[model.variant])
    if list(examples.ids) != blocks:
        raise ConfigError(f"model takes blocks {blocks}, examples give {list(examples.ids)}")
    width = None if examples.lm_feats is None else examples.lm_feats.shape[-1]
    if width != model.lm_feat_dim:
        takes = model.lm_feat_dim or "no"
        raise ConfigError(f"model takes {takes} LM features, examples give {width or 'none'}")
    indexed = {f"emb_{block}": x for block, x in examples.ids.items()} | {"w2": examples.rows}
    for name, x in indexed.items():
        size = len(model.params[name])
        if x.size and not 0 <= x.min() <= x.max() < size:
            raise ConfigError(f"examples index {name} outside its {size} rows")


def loss(model: Linearizer, batch: TrainingExamples, l2_lambda: float | None = None) -> float:
    """Cross-entropy over the batch's examples plus the L2 term over all tensors.
    Examples made for another model are a ConfigError, here and in `train`
    and `grad_check`."""
    _check_examples(model, batch)
    if l2_lambda is None:
        l2_lambda = model.config.l2_lambda
    objective, _ = _batch_pass(model, batch, np.arange(len(batch)), l2_lambda, want_grads=False)
    return objective


def train(
    model: Linearizer,
    examples: TrainingExamples,
    config: TrainConfig | None = None,
) -> list[float]:
    """Adagrad training over `make_training_examples` arrays; returns the
    per-epoch loss log.

    Deterministic under a fixed config seed.  The logged value per epoch is
    the sum of the per-batch objectives as seen during the pass (dropout
    included when configured).
    """
    _check_examples(model, examples)
    if config is None:
        config = model.config
    if not len(examples):
        raise DataError("no training examples")
    rng = np.random.default_rng(config.seed)
    opt = Adagrad(model.params, config.learning_rate)
    scratch = _scratch(model.params, config.batch_size)
    log = []
    n = len(examples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            objective, grads = _batch_pass(
                model, examples, idx, config.l2_lambda, config.dropout, rng, scratch=scratch
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
    batch: TrainingExamples,
    epsilon: float = 1e-5,
    samples_per_tensor: int = 120,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic gradients and central differences
    of the objective over the batch's examples.

    Dropout is off; see `optim.max_grad_error` for the error measure.
    """
    _check_examples(model, batch)
    if rng is None:
        rng = np.random.default_rng(0)
    idx = np.arange(len(batch))
    l2 = model.config.l2_lambda
    _, grads = _batch_pass(model, batch, idx, l2, want_grads=True)

    def objective() -> float:
        val, _ = _batch_pass(model, batch, idx, l2, want_grads=False)
        return val

    return max_grad_error(model.params, grads, objective, epsilon, samples_per_tensor, rng)
