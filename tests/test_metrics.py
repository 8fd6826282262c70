import math

import numpy as np
import pytest

from conftest import small_linearizer
from reference_rows import ActionInventory
from synlin.corpus import build_indexers
from synlin.errors import DataError
from synlin.metrics import LENGTH_BUCKETS, action_neighbors, corpus_bleu
from synlin.synth import toy_corpus
from synlin.transition import Action


def naive_corpus_bleu(refs, hyps):
    """Independent reference implementation, written directly from the
    definition: clipped corpus-pooled modified precisions, uniform-weight
    geometric mean over orders that have any candidate n-grams, exponential
    brevity penalty.  Deliberately shares no code with the package."""
    match = {1: 0, 2: 0, 3: 0, 4: 0}
    total = {1: 0, 2: 0, 3: 0, 4: 0}
    c = 0
    r = 0
    for ref, hyp in zip(refs, hyps):
        c += len(hyp)
        r += len(ref)
        for n in (1, 2, 3, 4):
            hgrams = {}
            for i in range(len(hyp) - n + 1):
                g = tuple(hyp[i : i + n])
                hgrams[g] = hgrams.get(g, 0) + 1
            rgrams = {}
            for i in range(len(ref) - n + 1):
                g = tuple(ref[i : i + n])
                rgrams[g] = rgrams.get(g, 0) + 1
            for g, cnt in hgrams.items():
                total[n] += cnt
                match[n] += min(cnt, rgrams.get(g, 0))
    log_sum = 0.0
    orders = 0
    for n in (1, 2, 3, 4):
        if total[n] == 0:
            continue
        orders += 1
        if match[n] == 0:
            return 0.0
        log_sum += math.log(match[n] / total[n])
    if orders == 0 or c == 0:
        return 0.0
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_sum / orders)


class TestBleu:
    def test_identity_is_100(self):
        corpus = toy_corpus(12, seed=5)
        rep = corpus_bleu([s.forms() for s in corpus], [s.forms() for s in corpus])
        assert rep.bleu == 100.0
        assert rep.brevity_penalty == 1.0

    def test_hand_derived_permutation(self):
        rep = corpus_bleu([["I", "love", "NLP"]], [["NLP", "love", "I"]])
        assert rep.precisions[0] == 1.0  # 3/3 unigrams
        assert rep.precisions[1] == 0.0  # 0/2 bigrams
        assert rep.bleu == 0.0

    def test_single_token_identity(self):
        rep = corpus_bleu([["Go"]], [["Go"]])
        assert rep.bleu == 100.0
        assert rep.precisions == (1.0, None, None, None)

    def test_permutation_gives_p1_one_and_bp_one(self):
        rng = np.random.default_rng(3)
        corpus = toy_corpus(10, seed=6)
        hyps = []
        for s in corpus:
            forms = s.forms()
            hyps.append(list(rng.permutation(forms)))
        rep = corpus_bleu([s.forms() for s in corpus], hyps)
        assert rep.precisions[0] == 1.0
        assert rep.brevity_penalty == 1.0

    def test_pair_reordering_invariance(self):
        corpus = toy_corpus(8, seed=7)
        refs = [s.forms() for s in corpus]
        hyps = [list(reversed(s.forms())) for s in corpus]
        a = corpus_bleu(refs, hyps)
        b = corpus_bleu(list(reversed(refs)), list(reversed(hyps)))
        assert a.bleu == b.bleu and a.precisions == b.precisions

    def test_brevity_penalty(self):
        rep = corpus_bleu([["a", "b", "c", "d"]], [["a", "b"]])
        assert rep.brevity_penalty == pytest.approx(math.exp(1 - 4 / 2))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_empty(self):
        with pytest.raises(DataError):
            corpus_bleu([], [])

    def test_buckets_group_by_reference_length(self):
        refs = [["w"] * 3, ["w"] * 12, ["w"] * 40]
        hyps = [["w"] * 3, ["w"] * 12, ["w"] * 40]
        rep = corpus_bleu(refs, hyps)
        table = {name: (count, score) for name, count, score in rep.buckets}
        assert table["1-10"] == (1, 100.0)
        assert table["11-15"] == (1, 100.0)
        assert table["36+"] == (1, 100.0)
        assert table["16-20"][0] == 0 and table["16-20"][1] is None

    def test_each_bucket_scores_its_pairs_alone(self):
        rng = np.random.default_rng(21)
        vocab = ["a", "b", "c", "d"]
        pairs = []
        for _ in range(40):
            ref = [vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(1, 45)))]
            pairs.append((ref, list(rng.permutation(ref))[: len(ref) - int(rng.integers(0, 3))]))
        rep = corpus_bleu(*zip(*pairs))
        scored = []
        for (lo, hi), (name, count, score) in zip(LENGTH_BUCKETS, rep.buckets):
            group = [(r, h) for r, h in pairs if lo <= len(r) and (hi is None or len(r) <= hi)]
            assert count == len(group)
            if group:
                refs, hyps = zip(*group)
                assert score == corpus_bleu(refs, hyps).bleu
                assert score == pytest.approx(naive_corpus_bleu(refs, hyps), abs=0.01)
                scored.append(score)
        assert sum(score > 0.0 for score in scored) >= 4

    def test_against_independent_reference(self):
        rng = np.random.default_rng(20)
        vocab = ["a", "b", "c", "d", "e", "f"]
        pairs = []
        for _ in range(20):
            n = int(rng.integers(1, 15))
            ref = [vocab[rng.integers(0, len(vocab))] for _ in range(n)]
            m = max(1, n + int(rng.integers(-2, 3)))
            if rng.random() < 0.5:
                hyp = list(rng.permutation(ref))[:m]
            else:
                hyp = [vocab[rng.integers(0, len(vocab))] for _ in range(m)]
            pairs.append((ref, hyp))
        refs = [p[0] for p in pairs]
        hyps = [p[1] for p in pairs]
        assert corpus_bleu(refs, hyps).bleu == pytest.approx(
            naive_corpus_bleu(refs, hyps), abs=0.01
        )
        # and pairwise, one at a time
        for ref, hyp in pairs:
            assert corpus_bleu([ref], [hyp]).bleu == pytest.approx(
                naive_corpus_bleu([ref], [hyp]), abs=0.01
            )

    def test_report_serialization(self):
        corpus = toy_corpus(5, seed=8)
        rep = corpus_bleu([s.forms() for s in corpus], [s.forms() for s in corpus])
        assert "BLEU = 100.00" in rep.to_text()
        assert "bleu=100.0000" in rep.to_kv()


@pytest.fixture(scope="module")
def model():
    idx = build_indexers(toy_corpus(6, seed=9))
    return small_linearizer(idx, "light", seed=10, scale=None, embed_dim=4, hidden_dim=2)


@pytest.fixture(scope="module")
def inventory(model):
    """The reference row map that `action_neighbors` must agree with."""
    return ActionInventory.from_indexers(model.indexers, model.variant)


class TestActionNeighbors:
    def test_identical_rows_cosine_one(self, model, inventory):
        w2 = model.params["w2"]
        w2[...] = 0.0
        a = inventory.actions[0]
        b = inventory.actions[1]
        w2[inventory.row(a)] = [1.0, 0.0]
        w2[inventory.row(b)] = [1.0, 0.0]
        top = action_neighbors(model, a, k=1)
        assert top[0][0] == b and top[0][1] == pytest.approx(1.0)

    def test_hand_computed_ranking(self, model, inventory):
        w2 = model.params["w2"]
        w2[...] = 0.0
        a, b, c = inventory.actions[:3]
        w2[inventory.row(a)] = [2.0, 1.0]
        w2[inventory.row(b)] = [1.0, 2.0]
        w2[inventory.row(c)] = [-1.0, 2.0]  # orthogonal to a
        ranked = action_neighbors(model, a, k=2)
        assert ranked[0][0] == b
        assert ranked[0][1] == pytest.approx(4 / 5)
        assert ranked[1][1] == pytest.approx(0.0)

    def test_ranking_scale_invariance(self, model, inventory):
        rng = np.random.default_rng(11)
        model.params["w2"][...] = rng.normal(size=model.params["w2"].shape)
        a = inventory.actions[0]
        before = [x[0] for x in action_neighbors(model, a, k=8)]
        model.params["w2"] *= 3.7
        after = [x[0] for x in action_neighbors(model, a, k=8)]
        assert before == after

    def test_self_excluded(self, model, inventory):
        a = inventory.actions[0]
        assert a not in [x[0] for x in action_neighbors(model, a, k=len(inventory))]

    def test_unknown_action(self, model):
        with pytest.raises(DataError):
            action_neighbors(model, Action("Pos", "ZZ"), k=3)
