"""Acceptance suite: one test per release criterion.

Every test prints a single [PASS]/[FAIL] line (run with `pytest -s` to see
them live); the directional-trend check is report-only and prints [INFO].
All randomness is pinned: corpus seeds 13 (shared synthetic set), 21
(training set), 100 (dev set), 77 (LM overfit set); model seeds are noted
inline.  Trained models are session fixtures so several criteria share one
training run, and wall-clock budgets are asserted where the criterion
states one.
"""

import time

import numpy as np
import pytest

import conftest
from conftest import count_derivations, small_linearizer, small_lm
from reference_decode import exhaustive_decode
from reference_grads import grad_check, lm_grad_check
from test_metrics import naive_corpus_bleu
from synlin import decoder, ffnn, lstm_lm, metrics
from synlin.cli import main as cli_main
from synlin.corpus import (
    build_indexers,
    derive_oracle,
    gold_arcs,
    to_bag,
    to_conll,
)
from synlin.decoder import DecodeConfig, Models, beam_decode
from synlin.lstm_lm import next_word_logprobs, start_state, step_weights
from synlin.optim import pad_rows
from synlin.synth import toy_corpus
from synlin.transition import apply, initial_state, legal_actions, realized_sentence

TRAIN_SEED = 21
DEV_SEED = 100
LM_OVERFIT_SEED = 77


def report(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, f"{name}: {detail}"


def info(line: str):
    print(line)
    conftest.CRITERION_LINES.append(line)


@pytest.fixture(scope="module")
def toy50():
    return toy_corpus(50, seed=TRAIN_SEED)


@pytest.fixture(scope="module")
def dev20():
    return toy_corpus(20, seed=DEV_SEED)


@pytest.fixture(scope="module")
def trained_syn(toy50):
    """The pinned overfit scorer: full variant, defaults d=50 / H=200."""
    idx = build_indexers(toy50)
    config = ffnn.TrainConfig(
        learning_rate=0.05,
        dropout=0.1,
        epochs=120,
        batch_size=32,
        seed=42,
        embed_dim=50,
        hidden_dim=200,
    )
    model = ffnn.init_linearizer(idx, "full", config)
    examples = ffnn.make_training_examples(toy50, model)
    t0 = time.time()
    ffnn.train(model, examples, config)
    return {"model": model, "train_seconds": time.time() - t0}


@pytest.fixture(scope="module")
def trained_lm50(toy50):
    idx = build_indexers(toy50)
    config = lstm_lm.LmConfig(
        hidden_size=64, num_layers=2, dropout=0.0, learning_rate=0.5, epochs=200, seed=11
    )
    model = lstm_lm.init_lm(idx, config)
    lstm_lm.train_lm(model, toy50, config)
    return model


def test_oracle_round_trip(synth220, synth220_indexers):
    t0 = time.time()
    n_checked = 0
    for variant, factor in (("full", 3), ("light", 2)):
        for sent in synth220:
            state = derive_oracle(sent, variant, synth220_indexers)
            assert len(state.history) == factor * len(sent)
            assert [t.form for t in realized_sentence(state)] == sent.forms()
            assert state.arcs == gold_arcs(sent, variant)
            n_checked += 1
    elapsed = time.time() - t0
    dupes = sum(1 for s in synth220 if len(set(s.forms())) < len(s))
    report(
        "oracle-round-trip",
        elapsed < 5.0,
        f"{n_checked} derivations over {len(synth220)} sentences "
        f"({dupes} with duplicate forms), 100% rebuilt, {elapsed:.2f}s (< 5s)",
    )


def test_gradient_correctness(synth220):
    t0 = time.time()
    corpus = synth220[:3]
    idx = build_indexers(synth220)
    errs = {}

    model = small_linearizer(idx, "full", seed=301, scale=0.5, l2_lambda=1e-6)
    exs = ffnn.make_training_examples(corpus[:2], model)[:8]
    errs["ffnn"] = grad_check(
        model, exs, epsilon=1e-5, samples_per_tensor=120, rng=np.random.default_rng(1)
    )

    lm = small_lm(idx, seed=302, hidden_size=8, scale=0.5)
    model_lm = small_linearizer(idx, "light", seed=303, scale=0.5, lm_feat_dim=8)
    exs_lm = ffnn.make_training_examples(corpus[:2], model_lm, lm=lm)[:8]
    errs["ffnn+lmfeat"] = grad_check(
        model_lm, exs_lm, epsilon=1e-5, samples_per_tensor=120, rng=np.random.default_rng(2)
    )

    errs["lstm"] = lm_grad_check(
        lm, corpus[:2], epsilon=1e-5, samples_per_tensor=120, rng=np.random.default_rng(3)
    )
    elapsed = time.time() - t0
    worst = max(errs.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
    report(
        "gradient-correctness",
        worst < 1e-4 and elapsed < 60.0,
        f"{detail} (all < 1e-4), {elapsed:.1f}s (< 60s)",
    )


def test_distribution_laws(synth220):
    idx = build_indexers(synth220)
    lin = small_linearizer(idx, "full", seed=311, scale=0.5)
    lm = small_lm(idx, seed=312, hidden_size=8, scale=0.5)
    rng = np.random.default_rng(313)
    worst_softmax = 0.0
    worst_lm = 0.0
    joint_zero_ok = True
    checked = 0
    while checked < 1000:
        sent = synth220[rng.integers(0, len(synth220))]
        state = initial_state(to_bag(sent), "full", idx.content_pos_tags, idx.content_labels)
        for _ in range(int(rng.integers(0, 3 * len(sent)))):
            acts = legal_actions(state)
            if not acts:
                break
            state = apply(state, acts[rng.integers(0, len(acts))])
        if not legal_actions(state):
            continue
        # the scorer's distribution from a syn-mode step on the one-item beam,
        # which runs the same products as the joint step below
        models = Models(linearizer=lin, lm=lm)
        syn_config = DecodeConfig(mode="syn")
        syn = decoder.step_scores(decoder._start(state, models, syn_config), models, syn_config)
        logp = dict(zip(syn.codes[syn.valid].tolist(), syn.scores[syn.valid].tolist()))
        worst_softmax = max(worst_softmax, abs(sum(np.exp(v) for v in logp.values()) - 1.0))
        if state.remaining:
            allowed = pad_rows([[idx.word_id(state.space.forms[k]) for k in state.shifts]])
            start = start_state(lm, step_weights(lm))
            dist = np.exp(next_word_logprobs(lm, start[-1][0], *allowed)[0])
            worst_lm = max(worst_lm, abs(sum(dist) - 1.0))
        config = DecodeConfig(mode="syn+lstm", alpha=0.4)
        joint = decoder.step_scores(decoder._start(state, models, config), models, config)
        for value, code in zip(joint.scores[joint.valid], joint.codes[joint.valid].tolist()):
            action = state.space.actions[code]
            if action.kind != "Shift" and value != logp[code]:
                joint_zero_ok = False
        checked += 1
    report(
        "distribution-laws",
        worst_softmax < 1e-9 and worst_lm < 1e-9 and joint_zero_ok,
        f"1000 states: max |softmax sum - 1| = {worst_softmax:.1e}, "
        f"max |bag-restricted sum - 1| = {worst_lm:.1e}, "
        f"non-shift joint LM term identically 0: {joint_zero_ok}",
    )


def test_search_oracle_equivalence(synth220):
    t0 = time.time()
    idx = build_indexers(synth220)
    lin = small_linearizer(idx, "light", seed=321, scale=0.3)
    lin_feat = small_linearizer(idx, "light", seed=322, scale=0.3, lm_feat_dim=8)
    lm = small_lm(idx, seed=323, hidden_size=8, scale=0.3)
    bags = {}
    for sent in synth220:
        if len(sent) <= 4:
            bags.setdefault(tuple(sorted(sent.forms())), to_bag(sent))
    checked = 0
    for mode in ("syn", "syn+lstm", "synxlstm", "lstm"):
        models = Models(
            linearizer={"syn": lin, "syn+lstm": lin, "synxlstm": lin_feat}.get(mode),
            lm=None if mode == "syn" else lm,
        )
        for bag in bags.values():
            space = count_derivations(bag, mode)
            config = DecodeConfig(mode=mode, alpha=0.4, beam_size=space)
            exact = exhaustive_decode(bag, models, config)
            beamed = beam_decode(bag, models, config)
            assert beamed.tokens == exact.tokens, (mode, bag.forms())
            assert beamed.actions == exact.actions, (mode, bag.forms())
            assert abs(beamed.score - exact.score) < 1e-9, (mode, bag.forms())
            checked += 1
    elapsed = time.time() - t0
    report(
        "search-oracle-equivalence",
        elapsed < 120.0,
        f"{checked} (bag, mode) pairs over {len(bags)} bags with n <= 4, "
        f"beam(|space|) == exhaustive at 1e-9, {elapsed:.1f}s (< 2min)",
    )


def test_beam_monotonicity(trained_syn, dev20):
    models = Models(linearizer=trained_syn["model"])
    violations = []
    for i, sent in enumerate(dev20):
        bag = to_bag(sent)
        scores = [
            beam_decode(bag, models, DecodeConfig(mode="syn", beam_size=b)).score
            for b in (1, 4, 16, 64)
        ]
        if not all(a <= b + 1e-12 for a, b in zip(scores, scores[1:])):
            violations.append((i, scores))
    report(
        "beam-monotonicity",
        not violations,
        f"scores non-decreasing over beams (1, 4, 16, 64) for all "
        f"{len(dev20)} dev sentences (seed {DEV_SEED})" if not violations
        else f"violations at {violations}",
    )


def test_overfit_linearization(trained_syn, toy50):
    t0 = time.time()
    models = Models(linearizer=trained_syn["model"])
    config = DecodeConfig(mode="syn", beam_size=10)
    hyps = [beam_decode(to_bag(s), models, config).tokens for s in toy50]
    bleu = metrics.corpus_bleu([s.forms() for s in toy50], hyps).bleu
    total = trained_syn["train_seconds"] + (time.time() - t0)
    report(
        "overfit-linearization",
        bleu >= 90.0 and total < 900.0,
        f"train-set BLEU at beam 10 = {bleu:.2f} (>= 90), "
        f"train+decode {total:.0f}s (< 15min), seed 42, 120 epochs",
    )


def test_joint_decoding_degeneracy(trained_syn, trained_lm50, dev20):
    syn_models = Models(linearizer=trained_syn["model"])
    joint_models = Models(linearizer=trained_syn["model"], lm=trained_lm50)
    mism_alpha0 = 0
    diff_alpha4 = 0
    for sent in dev20:
        bag = to_bag(sent)
        syn_out = beam_decode(bag, syn_models, DecodeConfig(mode="syn", beam_size=4)).tokens
        alpha0 = beam_decode(
            bag, joint_models, DecodeConfig(mode="syn+lstm", alpha=0.0, beam_size=4)
        ).tokens
        alpha4 = beam_decode(
            bag, joint_models, DecodeConfig(mode="syn+lstm", alpha=0.4, beam_size=4)
        ).tokens
        mism_alpha0 += syn_out != alpha0
        diff_alpha4 += syn_out != alpha4
    report(
        "joint-decoding-degeneracy",
        mism_alpha0 == 0 and diff_alpha4 >= 1,
        f"alpha=0 output identical to syn on 20/20 dev sentences; "
        f"alpha=0.4 changes {diff_alpha4}/20 (>= 1)",
    )


def test_lm_overfit():
    corpus = toy_corpus(10, seed=LM_OVERFIT_SEED)
    idx = build_indexers(corpus)
    config = lstm_lm.LmConfig(
        hidden_size=64, num_layers=2, dropout=0.0, learning_rate=0.5, epochs=500, seed=11
    )
    model = lstm_lm.init_lm(idx, config)
    log = lstm_lm.train_lm(model, corpus, config)
    models = Models(lm=model)
    dconf = DecodeConfig(mode="lstm", beam_size=16)
    exact = sum(
        1 for s in corpus if list(beam_decode(to_bag(s), models, dconf).tokens) == s.forms()
    )
    report(
        "lm-overfit",
        log[-1] < 1.3 and exact >= 9,
        f"perplexity {log[-1]:.4f} (< 1.3) after {config.epochs} epochs (<= 500), "
        f"lstm-only beam-16 recovers {exact}/10 exact orders (>= 9), seed 11",
    )


def test_bleu_correctness(synth220):
    identity = metrics.corpus_bleu(
        [s.forms() for s in synth220[:20]], [s.forms() for s in synth220[:20]]
    ).bleu
    hand = metrics.corpus_bleu([["I", "love", "NLP"]], [["NLP", "love", "I"]])
    # hand derivation: p1 = 3/3, p2 = 0/2 -> geometric mean 0 -> BLEU 0
    hand_ok = hand.precisions[0] == 1.0 and hand.precisions[1] == 0.0 and hand.bleu == 0.0
    rng = np.random.default_rng(20)
    vocab = ["a", "b", "c", "d", "e", "f"]
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 15))
        ref = [vocab[rng.integers(0, len(vocab))] for _ in range(n)]
        m = max(1, n + int(rng.integers(-2, 3)))
        if rng.random() < 0.5:
            hyp = list(rng.permutation(ref))[:m]
        else:
            hyp = [vocab[rng.integers(0, len(vocab))] for _ in range(m)]
        worst = max(
            worst,
            abs(metrics.corpus_bleu([ref], [hyp]).bleu - naive_corpus_bleu([ref], [hyp])),
        )
    report(
        "bleu-correctness",
        identity == 100.0 and hand_ok and worst <= 0.01,
        f"identity = {identity:.2f}, hand-derived permutation = {hand.bleu:.2f} "
        f"(p1=1, p2=0), max |ours - independent reference| over 20 random pairs "
        f"= {worst:.4f} (<= 0.01)",
    )


def test_directional_trend(trained_syn, trained_lm50, toy50, dev20):
    """Report-only: echoes the expected beam-1 ordering, never gates."""
    idx = build_indexers(toy50)
    feat_config = ffnn.TrainConfig(
        learning_rate=0.05,
        dropout=0.1,
        epochs=120,
        batch_size=32,
        seed=43,
        embed_dim=50,
        hidden_dim=200,
    )
    feat = ffnn.init_linearizer(idx, "full", feat_config, lm_feat_dim=64)
    ffnn.train(feat, ffnn.make_training_examples(toy50, feat, lm=trained_lm50), feat_config)

    refs = [s.forms() for s in dev20]

    def beam1_bleu(mode, models):
        hyps = [
            beam_decode(to_bag(s), models, DecodeConfig(mode=mode, beam_size=1)).tokens
            for s in dev20
        ]
        return metrics.corpus_bleu(refs, hyps).bleu

    b_lstm = beam1_bleu("lstm", Models(lm=trained_lm50))
    b_syn = beam1_bleu("syn", Models(linearizer=trained_syn["model"]))
    b_feat = beam1_bleu("synxlstm", Models(linearizer=feat, lm=trained_lm50))
    trend_holds = b_syn >= b_lstm and b_feat >= b_lstm
    info(
        f"[INFO] directional-trend (report-only): beam-1 BLEU on 20 held-out "
        f"sentences (train seed {TRAIN_SEED}, dev seed {DEV_SEED}, model seeds "
        f"42/43/11): lstm={b_lstm:.2f} syn={b_syn:.2f} synxlstm={b_feat:.2f}; "
        f"syntactic >= lstm-only holds: {trend_holds}"
    )


def test_end_to_end_determinism(tmp_path):
    corpus_path = tmp_path / "train.conll"
    corpus_path.write_text(to_conll(toy_corpus(10, seed=61)))
    fast_lm = ["--epochs", "3", "--hidden-size", "12", "--dropout", "0.2", "--lr", "0.3",
               "--seed", "5"]
    fast_syn = ["--epochs", "3", "--embed-dim", "10", "--hidden-dim", "12",
                "--dropout", "0.3", "--seed", "5"]

    def run_twice(cmd, out_name, extra):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{out_name}.{tag}"
            assert cli_main([cmd, "--corpus", str(corpus_path), "--out", str(out), *extra]) == 0
            outs.append(out.read_bytes())
        return outs[0] == outs[1]

    lm_ok = run_twice("train-lm", "lm.slm", fast_lm)
    syn_ok = run_twice("train", "syn.slm", fast_syn)
    comb_ok = run_twice("train", "comb.slm", fast_syn + ["--lm", str(tmp_path / "lm.slm.a")])
    for tag in ("a", "b"):
        assert (
            cli_main(
                ["decode", "--model", str(tmp_path / "syn.slm.a"), "--input",
                 str(corpus_path), "--beam", "4", "--output", str(tmp_path / f"d.{tag}")]
            )
            == 0
        )
    decode_ok = (tmp_path / "d.a").read_bytes() == (tmp_path / "d.b").read_bytes()
    report(
        "determinism",
        lm_ok and syn_ok and comb_ok and decode_ok,
        "byte-identical artifacts across repeated runs: "
        f"train-lm={lm_ok}, train={syn_ok}, train+lm-features={comb_ok}, decode={decode_ok}",
    )
