"""Test-only reference for `synlin.ffnn._batch_pass`.

`batch_pass` here is the scorer's batch pass from before its per-block work
was shared among CPUs: every gather, product and L2 term on the calling
thread, one block after another.  The shared pass makes the same numpy calls
on the same operands and sums the products in the same order, so its
objective and every gradient must equal these bit for bit, whatever the CPU
count (`test_optim.py`).
"""

import numpy as np

from synlin.ffnn import _output_layer
from synlin.optim import row_sums


def batch_pass(model, examples, idx, l2_lambda, dropout=0.0, rng=None):
    """Objective and gradients for the examples at `idx`."""
    p = model.params
    b = len(idx)
    batch = examples[idx]
    inputs = {
        block: np.take(p[f"emb_{block}"], x, 0, mode="clip").reshape(b, -1)
        for block, x in batch.ids.items()
    }
    if batch.lm_feats is not None:
        inputs["lm"] = batch.lm_feats
    first, *rest = (x @ p[f"w1_{block}"].T for block, x in inputs.items())
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
        objective += 0.5 * l2_lambda * sum(float(np.vdot(t, t)) for t in p.values())

    dlogits = np.exp(logp)
    dlogits[gold] -= 1.0
    n_actions = len(p["w2"])
    flat = batch.rows + n_actions * np.arange(b)[:, None]
    ddense = row_sums(flat, dlogits[..., None], b * n_actions).reshape(b, n_actions)
    grads = {"w2": ddense.T @ h}
    dh = ddense @ p["w2"]
    da = dh * mask if mask is not None else dh
    dpre = da * (1.0 - a * a)
    grads["b1"] = dpre.sum(axis=0)
    for block, x in inputs.items():
        grads[f"w1_{block}"] = dpre.T @ x
        if block in batch.ids:
            dx = (dpre @ p[f"w1_{block}"]).reshape(*batch.ids[block].shape, -1)
            grads[f"emb_{block}"] = row_sums(batch.ids[block], dx, len(p[f"emb_{block}"]))
    if l2_lambda > 0.0:
        for name, t in p.items():
            grads[name] += l2_lambda * t
    return objective, {name: grads[name] for name in p}
