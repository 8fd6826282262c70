"""Fast tests of the benchmark itself, at tiny sizes.

    python -m pytest -q perfbench
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from checks import check_record  # noqa: E402
from synlin import ffnn, lstm_lm  # noqa: E402
from workloads import WORKLOADS, Run, Sizes  # noqa: E402

TINY = Sizes(
    train_sentences=12,
    max_len=5,
    bags_per_length=1,
    setup_repeats=2,
    setup_processes=2,
    scorer=replace(ffnn.TrainConfig(), embed_dim=4, hidden_dim=8),
    lm=replace(lstm_lm.LmConfig(), num_layers=1, hidden_size=8),
)

# "I love NLP" with love as the root: 3n actions, two labeled arcs.
BAG = ["I", "love", "NLP"]
GOOD = (
    "I love NLP\t-1.250000\t"
    "Shift-I Pos-PRP Shift-love Pos-VBP LArc-nsubj Shift-NLP Pos-NNP RArc-dobj End\t"
    "2>1:nsubj 2>3:dobj"
)


def test_checker_accepts_a_well_formed_record():
    assert check_record(GOOD, BAG, "syn", "full") == []


def test_checker_rejects_a_dropped_token():
    record = GOOD.replace("I love NLP\t", "I love\t", 1)
    assert any("permutation" in p for p in check_record(record, BAG, "syn", "full"))


def test_checker_rejects_a_crossing_arc():
    bag = ["a", "b", "c", "d"]
    shifts = " ".join(f"Shift-{w}" for w in bag)
    record = f"a b c d\t-2.0\t{shifts} RArc RArc RArc End\t1>2 1>3 2>4"
    problems = check_record(record, bag, "syn", "light")
    assert problems == ["arc 2>4 crosses position 3"]


def test_checker_rejects_a_wrong_derivation_length():
    record = GOOD.replace(" End\t", "\t")
    assert any("expected 9" in p for p in check_record(record, BAG, "syn", "full"))


def test_checker_rejects_two_roots_and_a_non_finite_score():
    record = GOOD.replace("2>1:nsubj 2>3:dobj", "2>3:dobj").replace("-1.250000", "nan")
    problems = check_record(record, BAG, "syn", "full")
    assert "expected one root, found 2" in problems
    assert any("finite" in p for p in problems)


def test_checker_lstm_records_carry_no_arcs():
    record = "NLP I love\t-3.0\tShift-I Shift-NLP Shift-love\t-"
    assert check_record(record, BAG, "lstm", "light") == []
    assert check_record(record.replace("\t-", "\t1>2"), BAG, "lstm", "light")


def make_run(workload, tmp_path):
    run = Run(workload, tmp_path, TINY)
    run.write_inputs(seed=3, train_seed=4)
    return run


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree(workload, tmp_path):
    run = make_run(workload, tmp_path)
    args = argparse.Namespace(seconds=0.0, spans=str(tmp_path / "spans.npz"))
    values, _ = bench.per_layer(run, args)
    assert run.problems == [] and run.failed == 0
    # one request per (bag, kind), one bag per length
    assert values["decoder.beam_decode.calls"] == TINY.max_len * len(WORKLOADS[workload].kinds)
    assert values["ffnn.batch_pass.calls"] > 0
    assert values["trace.spans"] > 0 and (tmp_path / "spans.npz").exists()
    assert set(values) == set(bench.per_layer_units())


def test_decode_layers_count_only_decoding(tmp_path):
    # At beam 1 each decode step applies one action, so oracle replay during
    # training would show as extra transition.apply calls.
    values, _ = bench.per_layer(make_run("decode-greedy", tmp_path), argparse.Namespace(spans=None))
    assert values["transition.apply.calls"] == values["decoder.step_scores.calls"]
    assert values["corpus.derive_oracle.calls"] > 0


def test_a_missing_layer_fails_the_traced_run(monkeypatch):
    from spans import Tracer
    from synlin import features

    monkeypatch.delattr(features, "extract_light")
    tracer = Tracer()
    try:
        with pytest.raises(AttributeError):
            bench.install_spans(tracer)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_are_reported(workload, tmp_path):
    run = make_run(workload, tmp_path)
    values, _ = bench.end_to_end(run, argparse.Namespace(seconds=0.0))
    assert run.failed == 0
    # one training round per slice, the first of them training every fixture
    assert len(run.rounds) == bench.SLICES
    assert list(run.rounds[0]) == list(WORKLOADS[workload].fixtures)
    assert set(values) == set(bench.END_TO_END)
    assert all(v > 0 for name, v in values.items() if name != "bleu")  # tiny models may score 0


def test_a_run_leaves_no_process_behind(tmp_path):
    run = make_run("decode-beam10", tmp_path)
    run.train(0.0)
    run.setup(1, processes=1)
    # waitpid raises ChildProcessError once this process has no child left.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
