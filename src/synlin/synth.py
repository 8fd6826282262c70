"""Deterministic synthetic dependency corpora for tests and demos.

Sentences come from a tiny projective grammar (clauses with noun phrases,
prepositional phrases, adverbs and the occasional one-word imperative), so
generated trees are projective by construction, duplicate forms occur
naturally ("the" in particular), and lengths span 1-15 tokens.

Run as a module to write a corpus:

    python -m synlin.synth out.conll --sentences 200 --seed 13
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from synlin.corpus import DepSentence, Token, to_conll
from synlin.errors import ConfigError

_DETS = ["the", "a"]
_ADJS = ["big", "red", "old", "small", "young", "lazy"]
_NOUNS = [
    "dog",
    "cat",
    "man",
    "woman",
    "park",
    "bone",
    "house",
    "bird",
    "boy",
    "girl",
    "river",
    "garden",
]
_TRANS_VERBS = ["saw", "bit", "chased", "liked", "found", "took"]
_INTRANS_VERBS = ["ran", "slept", "smiled", "fell", "jumped"]
_IMPERATIVES = ["go", "run", "stop", "wait"]
_PREPS = ["in", "on", "near", "with"]
_ADVS = ["quickly", "quietly", "often", "today"]


class _Node:
    def __init__(self, form, pos, label):
        self.form = form
        self.pos = pos
        self.label = label
        self.left: list[_Node] = []
        self.right: list[_Node] = []

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.left + self.right)


def _noun_phrase(rng, label, pp_depth) -> _Node:
    head = _Node(str(rng.choice(_NOUNS)), "NN", label)
    if rng.random() < 0.85:
        head.left.append(_Node(str(rng.choice(_DETS)), "DT", "det"))
    n_adj = int(rng.choice([0, 0, 0, 1, 1, 2]))
    for _ in range(n_adj):
        head.left.insert(1 if head.left else 0, _Node(str(rng.choice(_ADJS)), "JJ", "amod"))
    if pp_depth > 0 and rng.random() < 0.3:
        head.right.append(_prep_phrase(rng, pp_depth - 1))
    return head


def _prep_phrase(rng, pp_depth) -> _Node:
    prep = _Node(str(rng.choice(_PREPS)), "IN", "prep")
    prep.right.append(_noun_phrase(rng, "pobj", pp_depth))
    return prep


def _clause(rng) -> _Node:
    transitive = rng.random() < 0.7
    verbs = _TRANS_VERBS if transitive else _INTRANS_VERBS
    root = _Node(str(rng.choice(verbs)), "VBD", "root")
    root.left.append(_noun_phrase(rng, "nsubj", pp_depth=1))
    if rng.random() < 0.25:
        root.left.insert(0, _Node(str(rng.choice(_ADVS)), "RB", "advmod"))
    if transitive:
        root.right.append(_noun_phrase(rng, "dobj", pp_depth=1))
    if rng.random() < 0.35:
        root.right.append(_prep_phrase(rng, pp_depth=1))
    if rng.random() < 0.15:
        root.right.append(_Node(str(rng.choice(_ADVS)), "RB", "advmod"))
    return root


def _flatten(root: _Node) -> DepSentence:
    order: list[_Node] = []

    def visit(node: _Node):
        for c in node.left:
            visit(c)
        order.append(node)
        for c in node.right:
            visit(c)

    visit(root)
    index = {id(node): i for i, node in enumerate(order, start=1)}
    tokens = []
    head_of = {id(root): 0}
    for node in order:
        for c in node.left + node.right:
            head_of[id(c)] = index[id(node)]
    for node in order:
        tokens.append(
            Token(
                index=index[id(node)],
                form=node.form,
                pos=node.pos,
                head=head_of[id(node)],
                label=node.label,
            )
        )
    return DepSentence(tokens=tuple(tokens))


def toy_corpus(n_sentences: int, seed: int, max_len: int = 15) -> list[DepSentence]:
    """Generate `n_sentences` projective sentences, deterministic in `seed`.

    Every clause has at least two tokens, so `max_len` must be at least 2.
    """
    if n_sentences < 0 or seed < 0:
        raise ConfigError(f"sentence count and seed must be >= 0, got {n_sentences} and {seed}")
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    rng = np.random.default_rng(seed)
    sentences = []
    while len(sentences) < n_sentences:
        if len(sentences) % 12 == 5:
            root = _Node(str(rng.choice(_IMPERATIVES)), "VB", "root")
        else:
            root = _clause(rng)
        if root.size() > max_len:
            continue
        sentences.append(_flatten(root))
    return sentences


def main(argv=None):
    parser = argparse.ArgumentParser(description="generate a synthetic CoNLL corpus")
    parser.add_argument("out", help="output CoNLL path")
    parser.add_argument("--sentences", type=int, default=200)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--max-len", type=int, default=15)
    args = parser.parse_args(argv)
    try:
        corpus = toy_corpus(args.sentences, args.seed, args.max_len)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(to_conll(corpus))
    except ConfigError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(corpus)} sentences to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
