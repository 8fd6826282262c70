"""Multi-layer LSTM language model, written out in numpy.

Each layer is a single weight block of shape (4n, 2n) acting on the
concatenation of the input from below and the layer's previous output;
the four gate slices are (input, forget, output, candidate) with sigmoid,
sigmoid, sigmoid, tanh activations:

    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

There are no gate biases by default (a config switch adds them), and the
word embedding width equals the layer width so the first layer typechecks.
Next-word probabilities are a softmax of output-embedding dot products with
the top layer's output, optionally restricted to an allowed word set; at
decode time the allowed set is the remaining input bag.  Training is
plain next-word cross entropy over gold-order sentences with a start symbol
prepended and an end symbol as the final target, backpropagated through the
full sentence and optimized with Adagrad.

Training runs each cell as one whole-block product (`_cell`).  Decoding
steps with `lm_step`, which takes layer 0's input term from a table built
once per bag (`input_rows`) and multiplies by weights held transposed
(`step_weights`); both share the gate math, `_gates`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from synlin.corpus import DepSentence, Indexers
from synlin.errors import ConfigError, DataError, TrainingError
from synlin.optim import Adagrad, check_training, log_softmax, log_sum_exp, max_grad_error, row_sums

START_SYMBOL = "<s>"
EOS_SYMBOL = "</s>"
LM_INIT_SCALE = 0.1


@dataclass
class LmConfig:
    num_layers: int = 2
    hidden_size: int = 128
    dropout: float = 0.5
    learning_rate: float = 0.1
    l2_lambda: float = 0.0
    epochs: int = 10
    seed: int = 0
    gate_bias: bool = False

    def __post_init__(self):
        check_training(self)
        if self.num_layers < 1 or self.hidden_size < 1:
            raise ConfigError("num_layers and hidden_size must be positive")


# A batch of LM states: per layer (h, c), each (k x n) with one row per sequence.
LmStates = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass
class LanguageModel:
    """`params` maps each tensor name of `param_shapes` to its float64 array,
    in `param_shapes` order: the input embeddings `emb`, one (4n, 2n) block
    `cell<i>` per layer, the optional gate biases `cell<i>_bias` and the
    output embeddings `out_emb`.
    """

    params: dict[str, np.ndarray]
    indexers: Indexers
    config: LmConfig

    @property
    def start_id(self) -> int:
        return self.indexers.n_words

    @property
    def eos_id(self) -> int:
        return self.indexers.n_words + 1

    def word_id(self, form: str) -> int:
        return self.indexers.word_id(form)


def param_shapes(indexers: Indexers, config: LmConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor, in `LanguageModel.params` order; `init_lm`
    draws them in this order (the zero gate biases draw nothing).
    """
    n, vocab = config.hidden_size, indexers.n_words + 2
    shapes = [("emb", (vocab, n))]
    shapes += [(f"cell{i}", (4 * n, 2 * n)) for i in range(config.num_layers)]
    if config.gate_bias:
        shapes += [(f"cell{i}_bias", (4 * n,)) for i in range(config.num_layers)]
    return shapes + [("out_emb", (vocab, n))]


def init_lm(indexers: Indexers, config: LmConfig, rng: np.random.Generator | None = None) -> LanguageModel:
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params = {
        name: np.zeros(shape)
        if name.endswith("_bias")
        else rng.uniform(-LM_INIT_SCALE, LM_INIT_SCALE, shape)
        for name, shape in param_shapes(indexers, config)
    }
    return LanguageModel(params=params, indexers=indexers, config=config)


# What backprop needs of a cell step, in the order `_cell` returns it.
_CACHED = ("u", "i", "f", "o", "g", "c_prev", "tc")


def _cell(weights, h_below, h_prev, c_prev, bias):
    """The training cell: (h, c, cache), the cache holding the `_CACHED` values.

    Inputs are vectors of width n or (b, n) batches with one row per
    sequence; a batch costs one (b x 2n) @ (2n x 4n) product.
    """
    u = np.concatenate([h_below, h_prev], axis=-1)
    z = u @ weights.T
    if bias is not None:
        z = z + bias
    h, c, (i, f, o, g, tc) = _gates(z, c_prev)
    return h, c, (u, i, f, o, g, c_prev, tc)


def _gates(z, c_prev):
    """The gate math shared by `_cell` and `lm_step`: (h, c, (i, f, o, g, tc))
    from the pre-activations z = [i, f, o, g] and the previous cell state."""
    n = c_prev.shape[-1]
    gates = _sigmoid(z[..., : 3 * n])
    i, f, o = gates[..., :n], gates[..., n : 2 * n], gates[..., 2 * n :]
    g = np.tanh(z[..., 3 * n :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, o, g, tc)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def initial_lm_state(model: LanguageModel) -> LmStates:
    """The zero state of one sequence."""
    n = model.config.hidden_size
    return tuple((np.zeros((1, n)), np.zeros((1, n))) for _ in range(model.config.num_layers))


@dataclass(frozen=True)
class StepWeights:
    """The weights of `lm_step` and `input_rows`.  Layer 0's block is split:
    `inputs` (n x 4n) is its input half transposed, a view that `input_rows`
    applies to a bag's embeddings once, and `rec0` (n x 4n) its recurrent
    half transposed.  Each layer above has its (2n x 4n) transposed block and
    its gate bias (None without) in `upper`.  What `lm_step` multiplies by is
    held contiguous, in the layout its products read: for a few rows, a
    product through a transposed view takes about twice as long.
    """

    emb: np.ndarray
    inputs: np.ndarray
    bias0: np.ndarray | None
    rec0: np.ndarray
    upper: tuple[tuple[np.ndarray, np.ndarray | None], ...]


def step_weights(model: LanguageModel) -> StepWeights:
    """The model's `StepWeights`; the contiguous ones are copies, built once per decode session."""
    p, n = model.params, model.config.hidden_size
    upper = tuple(
        (np.ascontiguousarray(p[f"cell{layer}"].T), p.get(f"cell{layer}_bias"))
        for layer in range(1, model.config.num_layers)
    )
    cell0 = p["cell0"]
    return StepWeights(
        p["emb"],
        cell0[:, :n].T,
        p.get("cell0_bias"),
        np.ascontiguousarray(cell0[:, n:].T),
        upper,
    )


def input_rows(weights: StepWeights, word_ids) -> np.ndarray:
    """Layer 0's input term, with its gate bias, of each word in `word_ids`:
    one product over the distinct ids, the input GEMM that Appleyard et al.
    2016 take out of the recurrence, so equal ids get equal rows bit for bit.
    A decode builds it once per bag.  (Not `np.unique`: under numpy 2.4 its
    first call imports `numpy.ma`, about 3 MB of resident memory.)"""
    word_ids = np.asarray(word_ids, dtype=np.int64)
    ids = np.array(sorted(set(word_ids.tolist())), dtype=np.int64)
    rows = weights.emb[ids] @ weights.inputs
    if weights.bias0 is not None:
        rows += weights.bias0
    return rows[np.searchsorted(ids, word_ids)]


def lm_step(weights: StepWeights, states: LmStates, inputs: np.ndarray) -> LmStates:
    """Feed the word whose `input_rows` row is `inputs[k]` to row k of
    `states`; returns the new states.

    All rows advance together: layer 0 adds one (k x n) @ (n x 4n) recurrent
    product to its input rows, each layer above takes one (k x 2n) @ (2n x 4n)
    product, and every layer runs `_gates`.  A row's new state can differ in
    its last bits with the rows stepped beside it: BLAS blocks a product by
    its row count, and one row is a matrix-vector product.
    """
    (h_prev, c_prev), *above = states
    h, c, _ = _gates(inputs + h_prev @ weights.rec0, c_prev)
    layers = [(h, c)]
    for (block, bias), (h_prev, c_prev) in zip(weights.upper, above):
        z = np.concatenate([h, h_prev], axis=1) @ block
        if bias is not None:
            z += bias
        h, c, _ = _gates(z, c_prev)
        layers.append((h, c))
    return tuple(layers)


def start_state(model: LanguageModel, weights: StepWeights) -> LmStates:
    """The one-row state after consuming the start symbol, the origin of every
    decode and of every sentence's LM features; `weights` are the model's
    `step_weights`."""
    return lm_step(weights, initial_lm_state(model), input_rows(weights, [model.start_id]))


def next_word_logprobs(model: LanguageModel, top: np.ndarray, ids, valid) -> np.ndarray:
    """Next-word log-probabilities of a batch of states, one row per state.

    `top` holds the states' top-layer outputs (`states[-1][0]`).  Row k is
    normalized over the ids `ids[k]` marks `valid` (order kept; `optim.pad_rows`
    builds both from id sequences) and padded with -inf.  Duplicate ids each
    count as an outcome, which is what decoding over distinct surface forms
    wants when several map to the unknown word.

    Within one call, a state's scores do not depend on its row or on the
    order of its set: each logit is one `einsum` sum of products over the
    layer width (a batched matrix product may round a row by its position),
    and the normalizer sums the sorted logits of a row padded to the call's
    widest set.  So states equal bit for bit score an equal word equally in
    one call, and derivations that differ only in which out-of-vocabulary
    form they shifted tie exactly, which the action history then breaks.
    Across calls this does not hold: the -inf pads sort first, and numpy's
    pairwise sum rounds by the row's length, so a normalizer can move in its
    last bits with the widest set of the call it is in.
    """
    if len(top) != len(ids):
        raise DataError(f"{len(top)} LM states for {len(ids)} allowed sets")
    if not len(ids) or not valid.any(axis=-1).all():
        raise DataError("empty allowed set")
    logits = np.einsum("kjn,kn->kj", model.params["out_emb"][ids], top)
    logits[~valid] = -np.inf
    return logits - log_sum_exp(np.sort(logits, axis=-1))


def sentence_ids(model: LanguageModel, forms) -> tuple[list[int], list[int]]:
    """(inputs, targets): start + words predict words + end."""
    word_ids = [model.word_id(f) for f in forms]
    return [model.start_id] + word_ids, word_ids + [model.eos_id]


def _forward_sentence(model, inputs, targets, dropout=0.0, rng=None):
    """Run one sentence, returning (cross_entropy, caches for backprop).

    Layer by layer, like `_backward_sentence`: each layer runs its recurrence
    over all T steps and caches each `_CACHED` value and its dropout mask
    (all ones without dropout) as one (T x .) array.  The masks of every step
    and layer are one draw in step-major order.  The output layer never feeds
    back, so the softmax of all T steps is one (T x n) @ (n x V) product.
    """
    p = model.params
    n, n_layers = model.config.hidden_size, model.config.num_layers
    masks = np.ones((len(inputs), n_layers, n))
    if dropout > 0.0:
        masks = (rng.random(masks.shape) >= dropout) / (1.0 - dropout)
    below = p["emb"][inputs]
    layers = []
    for layer in range(n_layers):
        weights, bias = p[f"cell{layer}"], p.get(f"cell{layer}_bias")
        h = c = np.zeros(n)
        steps = []
        for x in below:
            h, c, step = _cell(weights, x, h, c, bias)
            steps.append(step)
        cache = dict(zip(_CACHED, map(np.array, zip(*steps))), mask=masks[:, layer])
        below = cache["o"] * cache["tc"] * cache["mask"]
        layers.append(cache)
    logp = log_softmax(below @ p["out_emb"].T)
    ce = -float(np.sum(logp[np.arange(len(targets)), targets]))
    return ce, {"inputs": inputs, "targets": targets, "layers": layers, "top": below, "logp": logp}


def _backward_sentence(model, caches):
    """Gradients of the sentence cross-entropy from forward caches.

    Layer by layer, top down, the backward recurrence runs step by step and
    writes each step's gate gradient dz as a row of dZ (T x 4n).  What does
    not feed back is then one product over all T steps (Appleyard et al.
    2016): the weight gradient dZ^T @ U and the input gradient dZ @ W_in.
    """
    p = model.params
    n = model.config.hidden_size
    dlogits = np.exp(caches["logp"])
    n_steps = len(dlogits)
    dlogits[np.arange(n_steps), caches["targets"]] -= 1.0
    grads = {"out_emb": dlogits.T @ caches["top"]}
    d_above = dlogits @ p["out_emb"]
    for layer in range(model.config.num_layers - 1, -1, -1):
        weights = p[f"cell{layer}"]
        cache = caches["layers"][layer]
        i, f, o, g, c_prev, tc = (cache[key] for key in _CACHED[1:])
        d_above = d_above * cache["mask"]
        dz = np.empty((n_steps, 4 * n))
        dh_next = dc_next = np.zeros(n)
        for t in range(n_steps - 1, -1, -1):
            dh = d_above[t] + dh_next
            dc = dh * o[t] * (1.0 - tc[t] ** 2) + dc_next
            do = dh * tc[t]
            df = dc * c_prev[t]
            di = dc * g[t]
            dg = dc * i[t]
            dz[t] = np.concatenate(
                [
                    di * i[t] * (1.0 - i[t]),
                    df * f[t] * (1.0 - f[t]),
                    do * o[t] * (1.0 - o[t]),
                    dg * (1.0 - g[t] ** 2),
                ]
            )
            dh_next = weights[:, n:].T @ dz[t]
            dc_next = dc * f[t]
        grads[f"cell{layer}"] = dz.T @ cache["u"]
        grads[f"cell{layer}_bias"] = dz.sum(axis=0)
        d_above = dz @ weights[:, :n]
    grads["emb"] = row_sums(caches["inputs"], d_above, len(p["emb"]))
    return {name: grads[name] for name in p}


def train_lm(
    model: LanguageModel,
    sentences: list[DepSentence],
    config: LmConfig | None = None,
) -> list[float]:
    """Train in place; returns per-epoch training perplexities.

    One Adagrad update per sentence, the gradient backpropagated through the
    whole sentence.  Perplexity is computed from the losses observed during
    the epoch's pass.
    """
    if config is None:
        config = model.config
    if not sentences:
        raise DataError("no training sentences")
    rng = np.random.default_rng(config.seed)
    data = [sentence_ids(model, s.forms()) for s in sentences]
    opt = Adagrad(model.params, config.learning_rate)
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(data))
        total_ce = 0.0
        total_targets = 0
        for k in order:
            inputs, targets = data[k]
            ce, caches = _forward_sentence(
                model, inputs, targets, dropout=config.dropout, rng=rng
            )
            if not np.isfinite(ce):
                raise TrainingError(f"non-finite LM loss at epoch {epoch + 1}")
            grads = _backward_sentence(model, caches)
            if config.l2_lambda > 0.0:
                for name, t in model.params.items():
                    grads[name] += config.l2_lambda * t
            opt.step(grads)
            total_ce += ce
            total_targets += len(targets)
        log.append(float(np.exp(total_ce / total_targets)))
    return log


def lm_grad_check(
    model: LanguageModel,
    sentences: list[DepSentence],
    epsilon: float = 1e-5,
    samples_per_tensor: int = 120,
    rng: np.random.Generator | None = None,
) -> float:
    """Analytic BPTT gradients vs central differences; max relative error."""
    if rng is None:
        rng = np.random.default_rng(0)
    data = [sentence_ids(model, s.forms()) for s in sentences]

    def total_loss() -> float:
        return sum(
            _forward_sentence(model, inp, tgt)[0] for inp, tgt in data
        )

    analytic = {name: np.zeros_like(t) for name, t in model.params.items()}
    for inputs, targets in data:
        _, caches = _forward_sentence(model, inputs, targets)
        for name, g in _backward_sentence(model, caches).items():
            analytic[name] += g
    return max_grad_error(model.params, analytic, total_loss, epsilon, samples_per_tensor, rng)
