"""Test-only references: the row-at-a-time gradient code that training used
before it was written as matrix products.

`lm_sentence_grads` is the per-step BPTT of the LSTM LM, one `np.outer` per
step and weight block; `batch_pass` is the scorer pass with the per-item
`w2[rows]` gather and `np.add.at` scatters.  `test_grad_equivalence.py`
checks the fast paths in `synlin` against them.
"""

import numpy as np

from synlin.ffnn import _hidden
from synlin.lstm_lm import _cell
from synlin.optim import log_softmax


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
            h, c, cache = _cell(
                p[f"cell{layer}"], below, h_prev[layer], c_prev[layer], p.get(f"cell{layer}_bias")
            )
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


def batch_pass(model, packed, idx, l2_lambda, dropout=0.0, rng=None):
    """(objective, gradients) of the scorer on the examples at `idx`."""
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
    logits = np.einsum("bfh,bh->bf", p["w2"][rows], h)
    logits[~valid] = -np.inf
    m = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - m)
    z = exp.sum(axis=1, keepdims=True)
    logz = (m + np.log(z)).ravel()
    gold_logits = logits[np.arange(b), packed.gold_col[idx]]
    objective = float(np.sum(logz - gold_logits))
    if l2_lambda > 0.0:
        objective += 0.5 * l2_lambda * sum(float(np.sum(t * t)) for t in p.values())

    grads = {name: np.zeros_like(t) for name, t in p.items()}
    dlogits = exp / z
    dlogits[np.arange(b), packed.gold_col[idx]] -= 1.0
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
