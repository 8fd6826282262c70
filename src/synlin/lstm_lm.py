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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from synlin.corpus import DepSentence, Indexers
from synlin.errors import ConfigError, DataError, TrainingError
from synlin.optim import Adagrad, check_rates, log_softmax, max_grad_error, row_sums

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
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.num_layers < 1 or self.hidden_size < 1:
            raise ConfigError("num_layers and hidden_size must be positive")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        check_rates(self.learning_rate, self.l2_lambda)


@dataclass(frozen=True)
class LmState:
    """Per-layer (h, c) pairs for a consumed prefix.  Never mutated in place."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    consumed: int = 0

    @property
    def top_h(self) -> np.ndarray:
        return self.layers[-1][0]


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
    def vocab_size(self) -> int:
        """Word vocabulary plus the start and end symbols."""
        return self.indexers.n_words + 2

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


def _cell(weights, h_below, h_prev, c_prev, bias):
    """The cell math: (h, c, cache), the cache holding what backprop needs.

    Inputs are vectors of width n or (b, n) batches with one row per
    sequence; a batch costs one (b x 2n) @ (2n x 4n) product.
    """
    n = h_prev.shape[-1]
    u = np.concatenate([h_below, h_prev], axis=-1)
    z = u @ weights.T
    if bias is not None:
        z = z + bias
    gates = _sigmoid(z[..., : 3 * n])
    i, f, o = gates[..., :n], gates[..., n : 2 * n], gates[..., 2 * n :]
    g = np.tanh(z[..., 3 * n :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, {"u": u, "i": i, "f": f, "o": o, "g": g, "c_prev": c_prev, "tc": tc}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def initial_lm_state(model: LanguageModel) -> LmState:
    n = model.config.hidden_size
    zero = np.zeros(n)
    return LmState(
        layers=tuple((zero.copy(), zero.copy()) for _ in range(model.config.num_layers)),
        consumed=0,
    )


def lm_step(model: LanguageModel, states: list[LmState], word_ids) -> list[LmState]:
    """Feed word_ids[k] to states[k]; returns the new states, in order.

    All states advance together: one batched `_cell` per layer.
    """
    p = model.params
    below = p["emb"][np.asarray(word_ids, dtype=np.int64)]
    layers = []
    for layer in range(model.config.num_layers):
        h_prev = np.stack([s.layers[layer][0] for s in states])
        c_prev = np.stack([s.layers[layer][1] for s in states])
        h, c, _ = _cell(p[f"cell{layer}"], below, h_prev, c_prev, p.get(f"cell{layer}_bias"))
        layers.append((h, c))
        below = h
    return [
        LmState(layers=tuple((h[k], c[k]) for h, c in layers), consumed=s.consumed + 1)
        for k, s in enumerate(states)
    ]


def start_state(model: LanguageModel) -> LmState:
    """State after consuming the start symbol; the decode-time origin."""
    return lm_step(model, [initial_lm_state(model)], [model.start_id])[0]


def next_word_logprobs(model: LanguageModel, state: LmState, ids) -> np.ndarray:
    """Log-probabilities normalized over the given id sequence (order kept).

    Duplicate ids each count as an outcome, which is what decoding over
    distinct surface forms wants when several map to the unknown word.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise DataError("empty allowed set")
    return log_softmax(model.params["out_emb"][ids] @ state.top_h)


def sentence_ids(model: LanguageModel, forms) -> tuple[list[int], list[int]]:
    """(inputs, targets): start + words predict words + end."""
    word_ids = [model.word_id(f) for f in forms]
    return [model.start_id] + word_ids, word_ids + [model.eos_id]


def _forward_sentence(model, inputs, targets, dropout=0.0, rng=None):
    """Run one sentence, returning (cross_entropy, caches for backprop).

    The output layer never feeds back, so after the step-by-step recurrence
    the softmax of all T steps is one (T x n) @ (n x V) product.
    """
    p = model.params
    n = model.config.hidden_size
    n_layers = model.config.num_layers
    h_prev = [np.zeros(n) for _ in range(n_layers)]
    c_prev = [np.zeros(n) for _ in range(n_layers)]
    steps, top = [], []
    for wid in inputs:
        below = p["emb"][wid]
        layers = []
        for layer in range(n_layers):
            h, c, cache = _cell(
                p[f"cell{layer}"], below, h_prev[layer], c_prev[layer], p.get(f"cell{layer}_bias")
            )
            if dropout > 0.0:
                cache["mask"] = (rng.random(n) >= dropout) / (1.0 - dropout)
                below = h * cache["mask"]
            else:
                cache["mask"] = None
                below = h
            layers.append(cache)
            h_prev[layer] = h
            c_prev[layer] = c
        steps.append(layers)
        top.append(below)
    top = np.array(top)
    logp = log_softmax(top @ p["out_emb"].T)
    ce = -float(np.sum(logp[np.arange(len(targets)), targets]))
    return ce, {"inputs": inputs, "targets": targets, "steps": steps, "top": top, "logp": logp}


def _backward_sentence(model, caches):
    """Gradients of the sentence cross-entropy from forward caches.

    Layer by layer, top down, the backward recurrence runs step by step and
    writes each step's gate gradient dz as a row of dZ (T x 4n).  What does
    not feed back is then one product over all T steps (Appleyard et al.
    2016): the weight gradient dZ^T @ U and the input gradient dZ @ W_in.
    """
    p = model.params
    n = model.config.hidden_size
    steps = caches["steps"]
    dlogits = np.exp(caches["logp"])
    dlogits[np.arange(len(steps)), caches["targets"]] -= 1.0
    grads = {"out_emb": dlogits.T @ caches["top"]}
    d_above = dlogits @ p["out_emb"]
    for layer in range(model.config.num_layers - 1, -1, -1):
        weights = p[f"cell{layer}"]
        dz = np.empty((len(steps), 4 * n))
        dh_next = dc_next = np.zeros(n)
        for t in range(len(steps) - 1, -1, -1):
            cache = steps[t][layer]
            d_from_above = d_above[t] if cache["mask"] is None else d_above[t] * cache["mask"]
            dh = d_from_above + dh_next
            dc = dh * cache["o"] * (1.0 - cache["tc"] ** 2) + dc_next
            do = dh * cache["tc"]
            df = dc * cache["c_prev"]
            di = dc * cache["g"]
            dg = dc * cache["i"]
            dz[t] = np.concatenate(
                [
                    di * cache["i"] * (1.0 - cache["i"]),
                    df * cache["f"] * (1.0 - cache["f"]),
                    do * cache["o"] * (1.0 - cache["o"]),
                    dg * (1.0 - cache["g"] ** 2),
                ]
            )
            dh_next = weights[:, n:].T @ dz[t]
            dc_next = dc * cache["f"]
        grads[f"cell{layer}"] = dz.T @ np.array([step[layer]["u"] for step in steps])
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
