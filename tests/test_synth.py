import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synlin.corpus import to_conll
from synlin.errors import ConfigError
from synlin.synth import main, toy_corpus

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*args, timeout=60):
    """`python -m synlin.synth` in a child, so a generator that never returns fails the test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "synlin.synth", *map(str, args)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


# sha256 of `to_conll(toy_corpus(*args))`, taken before the argument checks
# were added: the benchmark corpora come from these generators.
PINNED = {
    (220, 13, 15): "c2708f8435ed1576c4087de5d2e59bfc5cc71bb10e878229afa277ede0f36620",
    (300, 100, 15): "499d83e00077cf3a36b542063ef9acd89778348e749cc1c1e64b96cbf46f75d8",
    (200, 21, 15): "54022b70bc442b3d5f7db11260326f30100d672e587a7b8da106866ac508b5d2",
    (40, 7, 2): "6e47c683c2e5fcf7def445b6f2b1b915b0a5f665b962503e388c27edd4064cfb",
}


@pytest.mark.parametrize("args", sorted(PINNED))
def test_valid_arguments_keep_their_output(args):
    text = to_conll(toy_corpus(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[args]


@pytest.mark.parametrize("n_sentences,seed", [(-3, 0), (1, -1)])
def test_negative_count_or_seed_is_a_config_error(n_sentences, seed):
    with pytest.raises(ConfigError):
        toy_corpus(n_sentences, seed)


@pytest.mark.parametrize(
    "flags",
    [
        ["--sentences", "1", "--seed", "0", "--max-len", "1"],
        ["--max-len", "0"],
        ["--sentences", "-3"],
        ["--seed", "-1"],
    ],
    ids=["max-len-1", "max-len-0", "sentences-negative", "seed-negative"],
)
def test_module_rejects_bad_arguments(tmp_path, flags):
    out = tmp_path / "out.conll"
    proc = run_module(out, *flags)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: config: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_main_writes_a_corpus(tmp_path, capsys):
    out = tmp_path / "out.conll"
    assert main([str(out), "--sentences", "40", "--seed", "7", "--max-len", "2"]) == 0
    assert capsys.readouterr().out == f"wrote 40 sentences to {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[(40, 7, 2)]


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    assert main([str(tmp_path / "missing" / "out.conll"), "--sentences", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: io: ") and err.count("\n") == 1
