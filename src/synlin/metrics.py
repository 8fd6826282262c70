"""Corpus BLEU, length-bucketed BLEU, and action-embedding neighbors.

BLEU is the standard case-sensitive 4-gram corpus score on pre-tokenized
input: clipped modified n-gram precisions pooled over the corpus, their
geometric mean, and the brevity penalty.  No smoothing is applied; orders
with no candidate n-grams anywhere in the corpus (all sentences shorter
than the order) are simply excluded from the geometric mean, so an
identical single-token pair still scores 100.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from synlin.errors import ConfigError, DataError

MAX_ORDER = 4

# Reference-length buckets for the per-length report.
LENGTH_BUCKETS = ((1, 10), (11, 15), (16, 20), (21, 25), (26, 30), (31, 35), (36, None))


@dataclass
class BleuReport:
    bleu: float
    precisions: tuple[float | None, ...]  # None: no candidate n-grams of that order
    brevity_penalty: float
    hyp_length: int
    ref_length: int
    n_pairs: int
    buckets: tuple[tuple[str, int, float | None], ...] = ()  # (range, n_pairs, bleu)

    def to_text(self) -> str:
        precs = " ".join(
            "-" if p is None else f"{100 * p:.1f}" for p in self.precisions
        )
        lines = [
            f"BLEU = {self.bleu:.2f} ({precs}) "
            f"BP={self.brevity_penalty:.3f} hyp_len={self.hyp_length} ref_len={self.ref_length}",
        ]
        if self.buckets:
            lines.append("length-bucket BLEU:")
            for name, count, score in self.buckets:
                val = "-" if score is None else f"{score:.2f}"
                lines.append(f"  {name:>6}  n={count:<4d} {val}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        parts = [
            f"bleu={self.bleu:.4f}",
            f"bp={self.brevity_penalty:.6f}",
            f"hyp_len={self.hyp_length}",
            f"ref_len={self.ref_length}",
            f"pairs={self.n_pairs}",
        ]
        for i, p in enumerate(self.precisions, start=1):
            parts.append(f"p{i}={'na' if p is None else f'{p:.6f}'}")
        for name, count, score in self.buckets:
            parts.append(f"bleu[{name}]={'na' if score is None else f'{score:.4f}'}")
        return " ".join(parts)


def _ngrams(tokens, order: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def _pooled_counts(refs, hyps):
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for ref, hyp in zip(refs, hyps):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for k in range(1, MAX_ORDER + 1):
            hyp_counts = _ngrams(hyp, k)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, k)
            totals[k - 1] += sum(hyp_counts.values())
            matches[k - 1] += sum(
                min(c, ref_counts[g]) for g, c in hyp_counts.items()
            )
    return matches, totals, hyp_len, ref_len


def _score(matches, totals, hyp_len, ref_len) -> tuple[float, tuple, float]:
    precisions: list[float | None] = []
    logs = []
    for m, t in zip(matches, totals):
        if t == 0:
            precisions.append(None)
        else:
            precisions.append(m / t)
            logs.append(np.log(m / t) if m > 0 else -np.inf)
    if hyp_len == 0:
        return 0.0, tuple(precisions), 0.0
    bp = 1.0 if hyp_len >= ref_len else float(np.exp(1.0 - ref_len / hyp_len))
    if not logs:
        return 0.0, tuple(precisions), bp
    mean = np.mean(logs)
    bleu = 0.0 if mean == -np.inf else float(100.0 * bp * np.exp(mean))
    return bleu, tuple(precisions), bp


def corpus_bleu(refs, hyps) -> BleuReport:
    """Corpus BLEU of aligned token-list pairs, with length-bucket scores.

    Buckets group pairs by reference length and score each group as its own
    corpus; empty buckets report None.
    """
    refs = [list(r) for r in refs]
    hyps = [list(h) for h in hyps]
    if len(refs) != len(hyps):
        raise DataError(f"got {len(refs)} references but {len(hyps)} hypotheses")
    if not refs:
        raise DataError("empty evaluation set")
    matches, totals, hyp_len, ref_len = _pooled_counts(refs, hyps)
    bleu, precisions, bp = _score(matches, totals, hyp_len, ref_len)
    buckets = []
    for lo, hi in LENGTH_BUCKETS:
        name = f"{lo}+" if hi is None else f"{lo}-{hi}"
        group = [
            (r, h)
            for r, h in zip(refs, hyps)
            if len(r) >= lo and (hi is None or len(r) <= hi)
        ]
        if not group:
            buckets.append((name, 0, None))
            continue
        g_refs, g_hyps = zip(*group)
        m, t, hl, rl = _pooled_counts(g_refs, g_hyps)
        g_bleu, _, _ = _score(m, t, hl, rl)
        buckets.append((name, len(group), g_bleu))
    return BleuReport(
        bleu=bleu,
        precisions=precisions,
        brevity_penalty=bp,
        hyp_length=hyp_len,
        ref_length=ref_len,
        n_pairs=len(refs),
        buckets=tuple(buckets),
    )


def action_neighbors(linearizer, action, k: int = 5) -> list[tuple]:
    """Top-k actions by cosine similarity of output-matrix rows, self excluded.

    The output matrix has one row per action, so it doubles as an action
    embedding table.  Returns (action, cosine) pairs, best first; ties break
    on row order.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    inv = linearizer.inventory
    if action not in inv:
        raise DataError(f"action {action.name()} not in the inventory")
    w2 = linearizer.params.w2
    row = inv.row(action)
    target = w2[row]
    t_norm = float(np.linalg.norm(target))
    norms = np.linalg.norm(w2, axis=1)
    denom = norms * t_norm
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 0, w2 @ target / np.where(denom > 0, denom, 1.0), 0.0)
    order = sorted(
        (i for i in range(len(inv)) if i != row),
        key=lambda i: (-cos[i], i),
    )
    return [(inv.action(i), float(cos[i])) for i in order[:k]]
