import argparse
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from synlin import errors
from synlin.cli import build_parser, main
from synlin.container import container_from_linearizer, linearizer_from_container, load, save
from synlin.corpus import to_conll
from synlin.decoder import DecodeConfig
from synlin.ffnn import TrainConfig
from synlin.lstm_lm import LmConfig
from synlin.synth import toy_corpus

FAST_TRAIN = [
    "--epochs", "2", "--embed-dim", "8", "--hidden-dim", "10",
    "--lr", "0.05", "--dropout", "0",
]
FAST_LM = ["--epochs", "2", "--hidden-size", "8", "--dropout", "0", "--lr", "0.3"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    (d / "train.conll").write_text(to_conll(toy_corpus(12, seed=51)))
    (d / "dev.conll").write_text(to_conll(toy_corpus(4, seed=52)))
    return d


@pytest.fixture(scope="module")
def models_dir(tmp_path_factory, data_dir):
    d = tmp_path_factory.mktemp("models")
    corpus = str(data_dir / "train.conll")
    assert main(["train", "--corpus", corpus, "--out", str(d / "syn.slm"), *FAST_TRAIN]) == 0
    assert main(["train-lm", "--corpus", corpus, "--out", str(d / "lm.slm"), *FAST_LM]) == 0
    assert (
        main(
            [
                "train", "--corpus", corpus, "--out", str(d / "comb.slm"),
                "--variant", "light", "--lm", str(d / "lm.slm"), *FAST_TRAIN,
            ]
        )
        == 0
    )
    return d


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def assert_one_error(capsys, code):
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {code}: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured


# Flags that name files or data choices; every other flag of these commands
# sets a field of the command's config dataclass.
CONFIG_COMMANDS = {
    "train": (TrainConfig, {"help", "config", "corpus", "out", "variant", "lm", "min_count"}),
    "train-lm": (LmConfig, {"help", "config", "corpus", "out", "min_count"}),
    "decode": (
        DecodeConfig,
        {"help", "config", "model", "lm", "input", "input_format", "output"},
    ),
}


class TestConfigFlags:
    @pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
    def test_every_field_has_exactly_one_flag(self, command):
        cls, other = CONFIG_COMMANDS[command]
        _, subparsers = build_parser()
        flags = [a for a in subparsers[command]._actions if a.dest not in other]
        assert sorted(a.dest for a in flags) == sorted(f.name for f in fields(cls))
        for action in flags:
            # the dataclass owns the default
            assert action.default is None or isinstance(action, argparse._StoreTrueAction)

    def test_no_flags_write_the_dataclass_defaults(self, tmp_path):
        corpus = tmp_path / "c.conll"
        corpus.write_text(to_conll(toy_corpus(2, seed=53)))
        for command, section, cls in (
            ("train", "linearizer", TrainConfig),
            ("train-lm", "lm", LmConfig),
        ):
            out = tmp_path / f"{command}.slm"
            assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 0
            assert load(out).config[section] == asdict(cls())

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--batch-size", "0"],
            ["train", "--epochs", "-1"],
            ["train-lm", "--epochs", "-1"],
            ["decode", "--alpha", "nan"],
            ["decode", "--alpha", "inf"],
            ["decode", "--alpha=-inf"],
            ["train", "--lr", "nan"],
            ["train", "--lr", "-0.1"],
            ["train", "--l2", "inf"],
            ["train", "--l2", "-1"],
            ["train-lm", "--lr", "-0.1"],
            ["train-lm", "--lr", "inf"],
            ["train-lm", "--l2", "-1"],
            ["train-lm", "--l2", "nan"],
            ["train", "--seed", "-1"],
            ["train-lm", "--seed", "-1"],
            ["train", "--min-count", "0"],
            ["train-lm", "--min-count", "0"],
            ["decode", "--beam", "1000000"],
        ],
        ids=[
            "train-batch-size-0", "train-epochs-negative", "train-lm-epochs-negative",
            "decode-alpha-nan", "decode-alpha-inf", "decode-alpha-minus-inf",
            "train-lr-nan", "train-lr-negative", "train-l2-inf", "train-l2-negative",
            "train-lm-lr-negative", "train-lm-lr-inf", "train-lm-l2-negative", "train-lm-l2-nan",
            "train-seed-negative", "train-lm-seed-negative", "train-min-count-0",
            "train-lm-min-count-0", "decode-beam-over-max",
        ],
    )
    def test_out_of_range_values_are_config_errors(
        self, argv, data_dir, models_dir, tmp_path, capsys
    ):
        out = tmp_path / "x.slm"
        if argv[0] == "decode":
            files = ["--model", str(models_dir / "syn.slm"), "--mode", "syn+lstm",
                     "--lm", str(models_dir / "lm.slm"), "--input", str(data_dir / "dev.conll"),
                     "--output", str(out)]
        else:
            files = ["--corpus", str(data_dir / "train.conll"), "--out", str(out)]
        assert main([*argv, *files]) == 1
        assert_one_error(capsys, "config")
        assert not out.exists()

    def test_beam_is_checked_before_any_file_is_read(self, tmp_path, capsys):
        # the model and input files do not exist: the bound on --beam is
        # checked before anything is loaded, so no decode is attempted
        missing = [str(tmp_path / name) for name in ("syn.slm", "lm.slm", "dev.conll")]
        argv = ["decode", "--mode", "syn+lstm", "--beam", "1000000", "--model", missing[0],
                "--lm", missing[1], "--input", missing[2]]
        assert main(argv) == 1
        message = assert_one_error(capsys, "config").err
        assert "beam_size must be in [1, 4096], got 1000000" in message


def test_readme_lists_every_error_code():
    # `main` prints the code of each error class (the base class's is never
    # raised), "usage" for argparse errors and "io" for an OSError
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"`([a-z]+)`", re.search(r"\(codes: ([^)]*)\)", readme).group(1))
    raised = {
        cls.code
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.SynlinError)
        and cls is not errors.SynlinError
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == raised | {"usage", "io"}


class TestNonUtf8Input:
    @pytest.mark.parametrize("flag", ["--corpus", "--input", "--config", "--refs", "--hyps"])
    def test_one_data_error_naming_the_file(self, flag, data_dir, models_dir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00")
        files = {
            "--corpus": ["train", "--out", str(tmp_path / "x.slm")],
            "--input": ["decode", "--model", str(models_dir / "syn.slm")],
            "--config": ["train", "--corpus", str(data_dir / "train.conll"),
                         "--out", str(tmp_path / "x.slm")],
            "--refs": ["evaluate", "--hyps", str(data_dir / "dev.conll")],
            "--hyps": ["evaluate", "--refs", str(data_dir / "dev.conll")],
        }
        assert main([*files[flag], flag, str(bad)]) == 1
        assert str(bad) in assert_one_error(capsys, "data").err


class TestByteOrderMark:
    # editors on some platforms start a UTF-8 file with U+FEFF; it is not text
    def write_with_bom(self, path, text):
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return str(path)

    def test_evaluate_refs(self, data_dir, tmp_path, capsys):
        text = "\n".join(" ".join(s.forms()) for s in toy_corpus(4, seed=52)) + "\n"
        refs = self.write_with_bom(tmp_path / "refs.txt", text)
        (tmp_path / "hyps.txt").write_text(text)
        assert main(["evaluate", "--refs", refs, "--hyps", str(tmp_path / "hyps.txt")]) == 0
        assert "BLEU = 100.00" in capsys.readouterr().out

    def test_decode_bags(self, models_dir, tmp_path, capsys):
        bags = self.write_with_bom(tmp_path / "bags.txt", "dog the ran\n")
        assert main(["decode", "--model", str(models_dir / "syn.slm"), "--input", bags,
                     "--input-format", "bags"]) == 0
        assert sorted(capsys.readouterr().out.split("\t")[0].split()) == ["dog", "ran", "the"]

    def test_config_file(self, data_dir, tmp_path):
        cfg = self.write_with_bom(tmp_path / "run.cfg", "seed=3\nepochs=1\nhidden-dim=10\n")
        out = tmp_path / "a.slm"
        assert main(["train", "--corpus", str(data_dir / "train.conll"), "--out", str(out),
                     "--config", cfg]) == 0
        assert load(out).config["linearizer"]["seed"] == 3


class TestTraining:
    def test_deterministic_model_files(self, data_dir, tmp_path):
        corpus = str(data_dir / "train.conll")
        for cmd, extra in (
            ("train", FAST_TRAIN + ["--dropout", "0.3"]),
            ("train-lm", FAST_LM + ["--dropout", "0.4"]),
        ):
            a, b = tmp_path / "a.slm", tmp_path / "b.slm"
            assert main([cmd, "--corpus", corpus, "--out", str(a), "--seed", "9", *extra]) == 0
            assert main([cmd, "--corpus", corpus, "--out", str(b), "--seed", "9", *extra]) == 0
            assert read(a) == read(b)

    def test_zero_epochs_writes_init(self, data_dir, tmp_path):
        out = tmp_path / "init.slm"
        code = main(
            ["train-lm", "--corpus", str(data_dir / "train.conll"), "--out", str(out),
             "--epochs", "0", "--hidden-size", "8"]
        )
        assert code == 0
        assert load(out).component == "lm"

    def test_missing_corpus_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(tmp_path / "x.slm")])
        assert exc.value.code == 2
        assert "error: usage:" in capsys.readouterr().err

    def test_nonexistent_corpus_io_error(self, tmp_path, capsys):
        code = main(["train", "--corpus", "/nonexistent.conll", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: io:" in capsys.readouterr().err

    def test_pos_free_corpus(self, tmp_path, capsys):
        # underscores in the POS column: light trains, full aborts
        text = (
            "1\tb\t_\t_\t_\t_\t2\tl\n2\ta\t_\t_\t_\t_\t0\troot\n\n"
            "1\tc\t_\t_\t_\t_\t2\tl\n2\ta\t_\t_\t_\t_\t0\troot\n"
        )
        corpus = tmp_path / "nopos.conll"
        corpus.write_text(text)
        assert main(
            ["train", "--corpus", str(corpus), "--out", str(tmp_path / "l.slm"),
             "--variant", "light", *FAST_TRAIN]
        ) == 0
        code = main(
            ["train", "--corpus", str(corpus), "--out", str(tmp_path / "f.slm"),
             "--variant", "full", *FAST_TRAIN]
        )
        assert code == 1
        assert "error: config:" in capsys.readouterr().err

    def test_reserved_spellings_train_models_that_load(self, tmp_path, capsys):
        # corpus forms spelled like the unknown-word and padding entries take
        # those entries' ids, so the word table lists each word once
        corpus = tmp_path / "reserved.conll"
        corpus.write_text(
            "1\t<unk>\t_\t_\tNN\t_\t2\tnsubj\n2\tgo\t_\t_\tVB\t_\t0\troot\n"
            "3\t<null_w>\t_\t_\tNN\t_\t2\tdobj\n"
        )
        bags = tmp_path / "bags.txt"
        bags.write_text("<null_w> go <unk>\n")
        model, lm = tmp_path / "m.slm", tmp_path / "lm.slm"
        assert main(["train", "--corpus", str(corpus), "--out", str(model), *FAST_TRAIN]) == 0
        assert main(["train-lm", "--corpus", str(corpus), "--out", str(lm), *FAST_LM]) == 0
        assert load(model).indexers["linearizer"]["words"] == ["<unk>", "<null_w>", "go"]
        capsys.readouterr()
        assert main(["decode", "--model", str(model), "--lm", str(lm), "--mode", "syn+lstm",
                     "--input", str(bags), "--input-format", "bags"]) == 0
        assert sorted(capsys.readouterr().out.split("\t")[0].split()) == ["<null_w>", "<unk>", "go"]
        assert main(["inspect", "--model", str(model), "--action", "Shift-<unk>"]) == 0

    def test_config_file_and_override(self, data_dir, tmp_path):
        corpus = str(data_dir / "train.conll")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=2\nhidden-dim=10\nembed_dim=8\nlr=0.05\ndropout=0\nseed=3\n")
        a, b = tmp_path / "a.slm", tmp_path / "b.slm"
        assert main(["train", "--corpus", corpus, "--out", str(a), "--config", str(cfg)]) == 0
        # flag overrides file
        assert main(
            ["train", "--corpus", corpus, "--out", str(b), "--config", str(cfg), "--seed", "4"]
        ) == 0
        assert read(a) != read(b)
        assert load(a).config["linearizer"]["seed"] == 3
        assert load(b).config["linearizer"]["seed"] == 4

    def test_unknown_config_key_rejected(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed=9\n")
        code = main(
            ["train", "--corpus", str(data_dir / "train.conll"),
             "--out", str(tmp_path / "x.slm"), "--config", str(cfg)]
        )
        assert code == 1
        assert "error: config:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key",
        [("train", "variant"), ("oracle-check", "variant"), ("decode", "mode"),
         ("decode", "input_format"), ("evaluate", "refs_format")],
    )
    def test_a_config_value_outside_the_choices_is_rejected(
        self, command, key, data_dir, models_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}=bogus\n")
        conll, out = str(data_dir / "dev.conll"), tmp_path / "out.txt"
        files = {
            "train": ["--corpus", conll, "--out", str(out), *FAST_TRAIN],
            "oracle-check": ["--corpus", conll],
            "decode": ["--model", str(models_dir / "syn.slm"), "--input", conll,
                       "--output", str(out)],
            "evaluate": ["--refs", conll, "--hyps", conll],
        }[command]
        assert main([command, *files, "--config", str(cfg)]) == 1
        message = assert_one_error(capsys, "config").err
        assert f"config key '{key}': expected one of " in message and "'bogus'" in message
        assert not out.exists()


class TestDecode:
    def test_all_modes_produce_records(self, data_dir, models_dir, tmp_path, capsys):
        dev = str(data_dir / "dev.conll")
        for mode, flags in [
            ("syn", ["--model", str(models_dir / "syn.slm")]),
            ("lstm", ["--lm", str(models_dir / "lm.slm")]),
            ("syn+lstm", ["--model", str(models_dir / "syn.slm"), "--lm", str(models_dir / "lm.slm")]),
            ("synxlstm", ["--model", str(models_dir / "comb.slm")]),
        ]:
            assert main(["decode", "--mode", mode, "--input", dev, "--beam", "2", *flags]) == 0
            out = capsys.readouterr().out
            lines = [l for l in out.strip().split("\n")]
            assert len(lines) == 4
            for line in lines:
                cols = line.split("\t")
                assert len(cols) == 4
                float(cols[1])  # score parses

    def test_rerun_identical(self, data_dir, models_dir, tmp_path):
        dev = str(data_dir / "dev.conll")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["decode", "--model", str(models_dir / "syn.slm"), "--input", dev,
                "--beam", "1"]
        assert main([*args, "--output", str(a)]) == 0
        assert main([*args, "--output", str(b)]) == 0
        assert read(a) == read(b)

    def test_nan_weights_are_a_search_error(self, data_dir, models_dir, tmp_path, capsys):
        model = linearizer_from_container(load(str(models_dir / "syn.slm")))
        for tensor in model.params.values():
            tensor[...] = np.nan
        path = tmp_path / "nan.slm"
        save(container_from_linearizer(model), str(path))
        capsys.readouterr()
        code = main(["decode", "--model", str(path), "--input", str(data_dir / "dev.conll")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: search: ") and captured.err.count("\n") == 1

    def test_alpha_zero_matches_syn(self, data_dir, models_dir, tmp_path):
        dev = str(data_dir / "dev.conll")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["decode", "--model", str(models_dir / "syn.slm"), "--input", dev,
                     "--beam", "4", "--output", str(a)]) == 0
        assert main(["decode", "--mode", "syn+lstm", "--alpha", "0",
                     "--model", str(models_dir / "syn.slm"), "--lm", str(models_dir / "lm.slm"),
                     "--input", dev, "--beam", "4", "--output", str(b)]) == 0
        sents_a = [l.split("\t")[0] for l in read(a).decode().strip().split("\n")]
        sents_b = [l.split("\t")[0] for l in read(b).decode().strip().split("\n")]
        assert sents_a == sents_b

    def test_beam_64_scores_at_least_beam_10(self, data_dir, models_dir, tmp_path):
        dev = str(data_dir / "dev.conll")
        scores = {}
        for beam in (10, 64):
            out = tmp_path / f"b{beam}.txt"
            assert main(["decode", "--model", str(models_dir / "syn.slm"), "--input", dev,
                         "--beam", str(beam), "--output", str(out)]) == 0
            scores[beam] = [float(l.split("\t")[1]) for l in read(out).decode().strip().split("\n")]
        assert all(b64 >= b10 - 1e-9 for b10, b64 in zip(scores[10], scores[64]))

    def test_bags_input_format(self, models_dir, tmp_path, capsys):
        bags = tmp_path / "bags.txt"
        bags.write_text("dog the ran\nthe cat a saw dog the\n")
        assert main(["decode", "--model", str(models_dir / "syn.slm"), "--input", str(bags),
                     "--input-format", "bags"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert sorted(lines[0].split("\t")[0].split()) == ["dog", "ran", "the"]

    def test_mode_model_mismatch(self, data_dir, models_dir, capsys):
        code = main(["decode", "--mode", "synxlstm", "--model", str(models_dir / "syn.slm"),
                     "--input", str(data_dir / "dev.conll")])
        assert code == 1
        assert "error: config:" in capsys.readouterr().err

    def test_lstm_mode_requires_lm_flag(self, data_dir, models_dir, capsys):
        code = main(["decode", "--mode", "lstm", "--model", str(models_dir / "syn.slm"),
                     "--input", str(data_dir / "dev.conll")])
        assert code == 1
        assert "error: config:" in capsys.readouterr().err


class TestEvaluateInspectOracle:
    def test_evaluate_identity_is_100(self, data_dir, tmp_path, capsys):
        dev = data_dir / "dev.conll"
        refs_as_text = tmp_path / "refs.txt"
        refs_as_text.write_text(
            "\n".join(" ".join(s.forms()) for s in toy_corpus(4, seed=52)) + "\n"
        )
        assert main(["evaluate", "--refs", str(dev), "--refs-format", "conll",
                     "--hyps", str(refs_as_text)]) == 0
        out = capsys.readouterr().out
        assert "BLEU = 100.00" in out
        assert "bleu=100.0000" in out

    def test_evaluate_reads_decode_records(self, data_dir, models_dir, tmp_path, capsys):
        dev = str(data_dir / "dev.conll")
        hyps = tmp_path / "hyps.txt"
        assert main(["decode", "--model", str(models_dir / "syn.slm"), "--input", dev,
                     "--output", str(hyps)]) == 0
        assert main(["evaluate", "--refs", dev, "--refs-format", "conll",
                     "--hyps", str(hyps)]) == 0
        assert "bleu=" in capsys.readouterr().out

    def test_inspect(self, models_dir, capsys):
        assert main(["inspect", "--model", str(models_dir / "syn.slm"),
                     "--action", "Shift-the", "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "neighbors of Shift-the:"
        assert len(lines) == 4

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_inspect_k_below_one(self, models_dir, k, capsys):
        assert main(["inspect", "--model", str(models_dir / "syn.slm"),
                     "--action", "Shift-the", "--k", k]) == 1
        assert assert_one_error(capsys, "config").out == ""

    def test_inspect_unknown_action(self, models_dir, capsys):
        assert main(["inspect", "--model", str(models_dir / "syn.slm"),
                     "--action", "Pos-ZZZ"]) == 1
        assert "error: data:" in capsys.readouterr().err

    def test_inspect_unparsable_action(self, models_dir, capsys):
        assert main(["inspect", "--model", str(models_dir / "syn.slm"),
                     "--action", "Jump-now"]) == 1
        assert "Jump-now" in assert_one_error(capsys, "data").err

    def test_oracle_check(self, data_dir, capsys):
        assert main(["oracle-check", "--corpus", str(data_dir / "train.conll"),
                     "--variant", "full"]) == 0
        assert "pass 12/12 skip 0" in capsys.readouterr().out

    def test_oracle_check_table2(self, tmp_path, capsys):
        conll = tmp_path / "t2.conll"
        conll.write_text(
            "1\tI\t_\t_\tPRP\t_\t2\tnsubj\n2\tlove\t_\t_\tVBP\t_\t0\troot\n"
            "3\tNLP\t_\t_\tNNP\t_\t2\tdobj\n"
        )
        assert main(["oracle-check", "--corpus", str(conll), "--variant", "light"]) == 0
        assert "pass 1/1" in capsys.readouterr().out

    def test_oracle_check_reports_skips(self, tmp_path, capsys):
        conll = tmp_path / "mix.conll"
        conll.write_text(
            "1\tGo\t_\t_\tVB\t_\t0\troot\n\n"
            "1\ta\t_\t_\tX\t_\t3\tl\n2\tb\t_\t_\tX\t_\t4\tl\n"
            "3\tc\t_\t_\tX\t_\t0\troot\n4\td\t_\t_\tX\t_\t3\tl\n"
        )
        assert main(["oracle-check", "--corpus", str(conll), "--variant", "light"]) == 0
        captured = capsys.readouterr()
        assert "pass 1/1 skip 1" in captured.out
        assert "skipped 1 sentence(s)" in captured.err and "sentence 2: " in captured.err

    @pytest.mark.parametrize(
        "text", ["", "1\ta\t_\t_\tX\t_\t2\tl\n2\tb\t_\t_\tX\t_\t1\tl\n"], ids=["empty", "all-skipped"]
    )
    def test_oracle_check_needs_a_usable_sentence(self, tmp_path, text, capsys):
        conll = tmp_path / "none.conll"
        conll.write_text(text)
        assert main(["oracle-check", "--corpus", str(conll)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == f"error: data: {conll}: no usable sentences"

    @pytest.mark.parametrize("command", ["train", "oracle-check"])
    def test_underivable_gold_action_names_its_sentence(self, tmp_path, command, capsys):
        # sentence 2 has a "_" POS tag, which no Pos action carries
        conll = tmp_path / "gap.conll"
        conll.write_text(
            "1\tGo\t_\t_\tVB\t_\t0\troot\n\n"
            "1\tdogs\t_\t_\t_\t_\t2\tnsubj\n2\tbark\t_\t_\tVBP\t_\t0\troot\n"
        )
        argv = {"train": ["--out", str(tmp_path / "m.slm"), *FAST_TRAIN], "oracle-check": []}
        assert main([command, "--corpus", str(conll), "--variant", "full", *argv[command]]) == 1
        err = assert_one_error(capsys, "data").err
        assert err.startswith("error: data: sentence 2: gold action Pos-_ not feasible at ")

    @pytest.mark.parametrize("command", ["train", "oracle-check"])
    def test_sentences_are_numbered_by_conll_block(self, tmp_path, command, capsys):
        # block 2 has no root and is skipped; block 3 has a "_" POS tag
        conll = tmp_path / "blocks.conll"
        conll.write_text(
            "1\tGo\t_\t_\tVB\t_\t0\troot\n\n"
            "1\ta\t_\t_\tX\t_\t2\tl\n2\tb\t_\t_\tX\t_\t1\tl\n\n"
            "1\tdogs\t_\t_\t_\t_\t2\tnsubj\n2\tbark\t_\t_\tVBP\t_\t0\troot\n"
        )
        argv = {"train": ["--out", str(tmp_path / "m.slm"), *FAST_TRAIN], "oracle-check": []}
        assert main([command, "--corpus", str(conll), "--variant", "full", *argv[command]]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "skipped 1 sentence(s) with unusable trees:"
        assert lines[1].startswith("  sentence 2: ")
        assert lines[2].startswith("error: data: sentence 3: gold action Pos-_ not feasible at ")
        assert len(lines) == 3


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(code, **blas):
    """Run `code` in a fresh interpreter whose environment sets the BLAS
    thread variables in `blas` and no others; its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env | blas,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestBlasThreads:
    # The command pins BLAS to one thread before numpy loads, so a model file
    # does not depend on the core count; an explicit setting wins.
    READ = "import os, synlin.cli\nprint(*(os.environ[k] for k in {names}))\n"

    def test_the_default_is_one_thread(self):
        out = fresh_python(self.READ.format(names=BLAS_THREADS))
        assert out.split() == ["1"] * 4

    def test_an_explicit_value_is_kept(self):
        out = fresh_python(self.READ.format(names=BLAS_THREADS), OPENBLAS_NUM_THREADS="2",
                           OMP_NUM_THREADS="3")
        assert out.split() == ["2", "3", "1", "1"]

    def test_numpy_is_not_loaded_before_the_default(self):
        code = "import sys, synlin\nprint('numpy' in sys.modules)\n"
        assert fresh_python(code).split() == ["False"]

    def test_train_writes_the_same_model_unset_and_at_one_thread(self, tmp_path):
        # Default sizes: the scorer's products are then large enough that
        # OpenBLAS would split them on a host with two or more cores.
        corpus = tmp_path / "train.conll"
        corpus.write_text(to_conll(toy_corpus(20, seed=21)))
        train = (
            "import sys\nfrom synlin.cli import main\n"
            "sys.exit(main(['train', '--corpus', {corpus!r}, '--out', {out!r}, '--epochs', '1']))\n"
        )
        models = []
        for name, blas in (("unset", {}), ("one", dict.fromkeys(BLAS_THREADS, "1"))):
            out = tmp_path / f"{name}.slm"
            fresh_python(train.format(corpus=str(corpus), out=str(out)), **blas)
            models.append(read(out))
        assert models[0] == models[1]
