"""Test-only references: the row-at-a-time gradient code that training used
before it was written as matrix products.

`lm_sentence_grads` is the per-step BPTT of the LSTM LM, one `np.outer` per
step and weight block; `batch_pass` is the scorer pass with the per-item
`w2[rows]` gather and `np.add.at` scatters.  `test_grad_equivalence.py`
checks the fast paths in `synlin` against them.

The gradient oracle: `grad_check` and `lm_grad_check` compare the analytic
gradients of `ffnn._batch_pass` and of the LM's BPTT with central finite
differences (`max_grad_error`), and `loss` is the scorer objective they
difference: a whole `ffnn._batch_pass` whose gradients it drops, since the
package has no objective-only pass.
"""

import numpy as np

from synlin.ffnn import _batch_pass, _check_examples
from synlin.lstm_lm import _CACHED, _backward_sentence, _cell, _forward_sentence, sentence_ids
from synlin.optim import log_softmax


def hidden(model, ids, lm_feats=None):
    """tanh hidden layer of a batch, and each block's input rows for backprop.

    One (b x slots*d) @ (slots*d x h) product per feature block, added in
    `FEATURE_BLOCKS` order with the LM block last, as training computes it.
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


def lm_sentence_grads(model, inputs, targets, dropout=0.0, rng=None):
    """(cross_entropy, gradients) of one sentence, one timestep at a time."""
    p = model.params
    n = model.config.hidden_size
    n_layers = model.config.num_layers
    h_prev = [np.zeros(n) for _ in range(n_layers)]
    c_prev = [np.zeros(n) for _ in range(n_layers)]
    caches = []
    ce = 0.0
    for wid, target in zip(inputs, targets):
        below = p["emb"][wid]
        step = {"wid": wid, "target": target, "layers": []}
        for layer in range(n_layers):
            h, c, cached = _cell(
                p[f"cell{layer}"], below, h_prev[layer], c_prev[layer], p.get(f"cell{layer}_bias")
            )
            cache = dict(zip(_CACHED, cached))
            if dropout > 0.0:
                cache["mask"] = (rng.random(n) >= dropout) / (1.0 - dropout)
                below = h * cache["mask"]
            else:
                cache["mask"] = None
                below = h
            step["layers"].append(cache)
            h_prev[layer] = h
            c_prev[layer] = c
        logp = log_softmax(p["out_emb"] @ below)
        step["probs"] = np.exp(logp)
        step["top_dropped"] = below
        ce -= float(logp[target])
        caches.append(step)

    grads = {name: np.zeros_like(t) for name, t in p.items()}
    dh_next = [np.zeros(n) for _ in range(n_layers)]
    dc_next = [np.zeros(n) for _ in range(n_layers)]
    for step in reversed(caches):
        dlogits = step["probs"].copy()
        dlogits[step["target"]] -= 1.0
        grads["out_emb"] += np.outer(dlogits, step["top_dropped"])
        d_from_above = p["out_emb"].T @ dlogits
        for layer in range(n_layers - 1, -1, -1):
            cache = step["layers"][layer]
            if cache["mask"] is not None:
                d_from_above = d_from_above * cache["mask"]
            dh = d_from_above + dh_next[layer]
            dc = dh * cache["o"] * (1.0 - cache["tc"] ** 2) + dc_next[layer]
            do = dh * cache["tc"]
            df = dc * cache["c_prev"]
            di = dc * cache["g"]
            dg = dc * cache["i"]
            dz = np.concatenate(
                [
                    di * cache["i"] * (1.0 - cache["i"]),
                    df * cache["f"] * (1.0 - cache["f"]),
                    do * cache["o"] * (1.0 - cache["o"]),
                    dg * (1.0 - cache["g"] ** 2),
                ]
            )
            grads[f"cell{layer}"] += np.outer(dz, cache["u"])
            if f"cell{layer}_bias" in grads:
                grads[f"cell{layer}_bias"] += dz
            du = p[f"cell{layer}"].T @ dz
            d_from_above = du[:n]
            dh_next[layer] = du[n:]
            dc_next[layer] = dc * cache["f"]
        grads["emb"][step["wid"]] += d_from_above
    return ce, grads


def batch_pass(model, examples, idx, l2_lambda, dropout=0.0, rng=None):
    """(objective, gradients) of the scorer on the examples at `idx`."""
    p = model.params
    b = len(idx)
    ids = {block: block_ids[idx] for block, block_ids in examples.ids.items()}
    lm = examples.lm_feats[idx] if examples.lm_feats is not None else None
    a, inputs = hidden(model, ids, lm)
    if dropout > 0.0:
        mask = (rng.random(a.shape) >= dropout) / (1.0 - dropout)
        h = a * mask
    else:
        mask = None
        h = a
    rows = examples.rows[idx]
    valid = examples.valid[idx]
    logits = np.einsum("bfh,bh->bf", p["w2"][rows], h)
    logits[~valid] = -np.inf
    m = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - m)
    z = exp.sum(axis=1, keepdims=True)
    logz = (m + np.log(z)).ravel()
    gold_logits = logits[np.arange(b), examples.gold_col[idx]]
    objective = float(np.sum(logz - gold_logits))
    if l2_lambda > 0.0:
        objective += 0.5 * l2_lambda * sum(float(np.sum(t * t)) for t in p.values())

    grads = {name: np.zeros_like(t) for name, t in p.items()}
    dlogits = exp / z
    dlogits[np.arange(b), examples.gold_col[idx]] -= 1.0
    np.add.at(
        grads["w2"],
        rows.reshape(-1),
        (dlogits[:, :, None] * h[:, None, :]).reshape(-1, h.shape[1]),
    )
    dh = np.einsum("bfh,bf->bh", p["w2"][rows], dlogits)
    da = dh * mask if mask is not None else dh
    dpre = da * (1.0 - a * a)
    grads["b1"] += dpre.sum(axis=0)
    for block, x in inputs.items():
        grads[f"w1_{block}"] += dpre.T @ x
        if block in ids:
            dx = (dpre @ p[f"w1_{block}"]).reshape(b, -1, model.config.embed_dim)
            np.add.at(grads[f"emb_{block}"], ids[block], dx)
    if l2_lambda > 0.0:
        for name, t in p.items():
            grads[name] += l2_lambda * t
    return objective, grads


def max_grad_error(tensors, grads, objective, epsilon, samples_per_tensor, rng):
    """Max relative error between `grads` and central differences of `objective()`.

    Each tensor is perturbed in place at every coordinate, or at
    `samples_per_tensor` coordinates drawn from `rng` when it is larger.  The
    error is relative for large gradients and absolute near zero
    (denominator max(1, |a|, |n|)).
    """
    worst = 0.0
    for name, tensor in tensors.items():
        flat, gflat = tensor.reshape(-1), grads[name].reshape(-1)
        coords = np.arange(flat.size)
        if flat.size > samples_per_tensor:
            coords = rng.choice(flat.size, size=samples_per_tensor, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + epsilon
            f_plus = objective()
            flat[c] = orig - epsilon
            f_minus = objective()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            worst = max(worst, abs(gflat[c] - numeric) / max(1.0, abs(gflat[c]), abs(numeric)))
    return worst


def loss(model, batch, l2_lambda=None):
    """Cross-entropy over the batch's examples plus the L2 term over all tensors.
    Examples made for another model are a ConfigError, here and in `ffnn.train`
    and `grad_check`."""
    _check_examples(model, batch)
    if l2_lambda is None:
        l2_lambda = model.config.l2_lambda
    objective, _ = _batch_pass(model, batch, np.arange(len(batch)), l2_lambda)
    return objective


def grad_check(model, batch, epsilon=1e-5, samples_per_tensor=120, rng=None):
    """Max relative error between the analytic gradients of `ffnn._batch_pass`
    and central differences of `loss` over the batch's examples, dropout off."""
    _check_examples(model, batch)
    _, grads = _batch_pass(model, batch, np.arange(len(batch)), model.config.l2_lambda)
    rng = np.random.default_rng(0) if rng is None else rng
    return max_grad_error(
        model.params, grads, lambda: loss(model, batch), epsilon, samples_per_tensor, rng
    )


def lm_grad_check(model, sentences, epsilon=1e-5, samples_per_tensor=120, rng=None):
    """Max relative error between the LM's analytic BPTT gradients and
    central differences of its cross-entropy over `sentences`."""
    data = [sentence_ids(model, s.forms()) for s in sentences]
    analytic = {name: np.zeros_like(t) for name, t in model.params.items()}
    for inputs, targets in data:
        _, caches = _forward_sentence(model, inputs, targets)
        for name, g in _backward_sentence(model, caches).items():
            analytic[name] += g
    rng = np.random.default_rng(0) if rng is None else rng
    def total():
        return sum(_forward_sentence(model, inputs, targets)[0] for inputs, targets in data)

    return max_grad_error(model.params, analytic, total, epsilon, samples_per_tensor, rng)
