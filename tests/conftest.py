import numpy as np
import pytest

from reference_decode import check_enumerable
from synlin import ffnn, lstm_lm
from synlin.corpus import DepSentence, Token, build_indexers, parse_conll_lenient
from synlin.decoder import MODE_LSTM, _is_terminal, _successors
from synlin.features import FEATURE_BLOCKS, lookup
from synlin.synth import toy_corpus
from synlin.transition import LIGHT, apply, initial_state

# Filled by the acceptance module; echoed after the run so the one-line
# verdicts are visible without -s.
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)

TABLE2_CONLL = (
    "1\tI\t_\t_\tPRP\t_\t2\tnsubj\n"
    "2\tlove\t_\t_\tVBP\t_\t0\troot\n"
    "3\tNLP\t_\t_\tNNP\t_\t2\tdobj\n"
)


def parse_valid(text) -> list[DepSentence]:
    """The sentences of CoNLL text whose every tree is valid."""
    sentences, skipped = parse_conll_lenient(text)
    assert skipped == []
    return sentences


@pytest.fixture(scope="session")
def table2() -> DepSentence:
    return parse_valid(TABLE2_CONLL)[0]


@pytest.fixture(scope="session")
def synth220():
    """The bundled synthetic corpus: >= 200 projective sentences, lengths 1-15."""
    return toy_corpus(220, seed=13)


@pytest.fixture(scope="session")
def synth220_indexers(synth220):
    return build_indexers(synth220)


def randomize_params(params, rng, scale=0.5):
    """Overwrite tensors in place with moderate-scale uniform noise."""
    for t in params.values():
        t[...] = rng.uniform(-scale, scale, size=t.shape)


def small_linearizer(indexers, variant, seed=0, lm_feat_dim=None, scale=0.5, **cfg_kw):
    defaults = dict(embed_dim=8, hidden_dim=12, dropout=0.0, l2_lambda=0.0, seed=seed)
    defaults.update(cfg_kw)
    model = ffnn.init_linearizer(
        indexers, variant, ffnn.TrainConfig(**defaults), lm_feat_dim=lm_feat_dim
    )
    if scale is not None:
        randomize_params(model.params, np.random.default_rng(seed), scale)
    return model


def extract(model, states):
    """The features of `states` (one bag) as word, POS and label ids."""
    return model.extract_features(states, lookup(states[0].space, model.indexers))


def score(model, features, rows, valid, lm_feats=None):
    """`ffnn.forward` on features given as ids (`extract`), from slot tables
    of every block, the word block's over the word ids that `features` read."""
    tables = ffnn.slot_tables(model, np.unique(features["word"]), FEATURE_BLOCKS[model.variant])
    columns = {block: np.searchsorted(tables[block][0], ids) for block, ids in features.items()}
    return ffnn.forward(model, columns, rows, valid, lm_feats, tables)


def small_lm(indexers, seed=0, hidden_size=8, scale=0.5, **cfg_kw):
    defaults = dict(hidden_size=hidden_size, num_layers=2, dropout=0.0, seed=seed)
    defaults.update(cfg_kw)
    model = lstm_lm.init_lm(indexers, lstm_lm.LmConfig(**defaults))
    if scale is not None:
        randomize_params(model.params, np.random.default_rng(seed + 1), scale)
    return model


def random_projective_sentence(rng, n) -> DepSentence:
    """Uniform-ish random projective tree with colliding word forms."""
    heads = {}

    def build(lo, hi, parent):
        if lo > hi:
            return
        r = int(rng.integers(lo, hi + 1))
        heads[r] = parent
        for side_lo, side_hi in ((lo, r - 1), (r + 1, hi)):
            i = side_lo
            while i <= side_hi:
                j = int(rng.integers(i, side_hi + 1))
                build(i, j, r)
                i = j + 1

    build(1, n, 0)
    toks = tuple(
        Token(
            index=i,
            form=f"w{rng.integers(0, max(2, n // 2))}",
            pos=f"P{i % 3}",
            head=heads[i],
            label=f"L{i % 4}",
        )
        for i in range(1, n + 1)
    )
    return DepSentence(tokens=toks)


def count_derivations(bag, mode, variant=LIGHT, pos_tags=(), arc_labels=()) -> int:
    """Number of legal derivations for a bag (no models, structure only).

    Walks the same successors and terminal test as `exhaustive_decode`.
    """
    check_enumerable(len(bag), mode)
    state = initial_state(bag, LIGHT if mode == MODE_LSTM else variant, pos_tags, arc_labels)

    def walk(st) -> int:
        if _is_terminal(st, mode):
            return 1
        return sum(walk(apply(st, a)) for a in _successors(st, mode))

    return walk(state)
