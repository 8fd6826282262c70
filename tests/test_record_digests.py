"""Pinned sha256 digests of `synlin decode` records.

Seeded random models (conftest's `small_linearizer` / `small_lm` at their
default scale of 0.5) decode the same bags in every mode at beams 1 and 4,
and in syn and syn+lstm mode (plain and renormalized) at beam 10, where
selection cuts among many candidates.
The bags include out-of-vocabulary forms, which share the UNK word, and
repeated forms.  Records print scores to six decimals, so a change to the
decode arithmetic that moves only the last bits of a score keeps these
digests; one that moves a score, or flips a ranking, does not.
"""

import hashlib

import pytest

from conftest import small_linearizer, small_lm
from synlin.cli import main
from synlin.container import container_from_linearizer, container_from_lm, save
from synlin.corpus import build_indexers
from synlin.synth import toy_corpus

EXTRA_BAGS = [
    "qqq the dog zebra",
    "the the the cat saw a a dog",
    "zebra zebra",
    "go",
]

# Pinned from the per-item scoring path of `reference_decode.py`; scoring each
# step from slot tables reproduces every one.
DIGESTS = {
    ("syn", "full", 1): "f5c0b041ebaf3697a630d1cab16b99069b74ca779b025fe20d12e9b287e41941",
    ("syn", "full", 4): "78d549a3a624770d0ec0d41ec8be349e85de4ea395d79b7cd88fd76a3b6feae5",
    ("syn", "full", 10): "3acc6e5d3ae206274ca7c0e5a8787e6860d20c76259fff6b40713fb992dc981b",
    ("syn", "light", 1): "f15668bd0ab0d7eacf2d9c9e12f00ed1529b76a36b8387625e74c30648969ae1",
    ("syn", "light", 4): "13123a8ddcf5ac5f273d1cd49ae87a6c6a2ddd08351623ff283c7dd4bb16c7d1",
    ("syn+lstm", "full", 1): "4a90bf8703cf037d32976cec438be872ac1a6cea389076264a8d66284db2f862",
    ("syn+lstm", "full", 4): "0a8401e0f27644001fc1378d94a1a093420ec090d7a74bd818e93dcd747cc437",
    ("syn+lstm", "full", 10): "b684f4a0be059f4010ff08bd05efdcdc4a796ce71e9da3013756c4330fc1fabd",
    ("synxlstm", "light", 1): "bb7720ab80c49f864c021d862098ee52c8bca86ccd86d7624a9a189c7abc5fa4",
    ("synxlstm", "light", 4): "6d64273fb2e43bb396d7d0223c71d34ed8d0b23305e8c51ae5d099fadce2e31b",
    ("lstm", None, 1): "ec4b9c93fae946e1a5aa3c70bed1022b65109d80bfe3a861d2b87a2f0c113212",
    ("lstm", None, 4): "3f4a717b8bed91b667e91759d43d6e16a67060b0caf06ff56ba741041ec3f6af",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("records")
    idx = build_indexers(toy_corpus(40, seed=61))
    lm = small_lm(idx, seed=73)
    save(container_from_lm(lm), str(d / "lm.slm"))
    save(container_from_linearizer(small_linearizer(idx, "full", seed=71)), str(d / "full.slm"))
    save(container_from_linearizer(small_linearizer(idx, "light", seed=72)), str(d / "light.slm"))
    feat = small_linearizer(idx, "light", seed=74, lm_feat_dim=lm.config.hidden_size)
    save(container_from_linearizer(feat, lm=lm), str(d / "feat.slm"))
    bags = [" ".join(s.forms()) for s in toy_corpus(12, seed=62)] + EXTRA_BAGS
    (d / "bags.txt").write_text("\n".join(bags) + "\n")
    return d


# `--renormalize` records, pinned like DIGESTS.
RENORMALIZED = {
    ("syn+lstm", "full", 10): "e900fafceb0c444c4afaf8036468b9a78b1827cd56665baa251e5e284c01cf20",
}


def records_digest(files, out, mode, variant, beam, *extra):
    model = {"syn": f"{variant}.slm", "syn+lstm": f"{variant}.slm", "synxlstm": "feat.slm"}
    flags = ["--lm", str(files / "lm.slm")] if mode in ("lstm", "syn+lstm") else []
    if mode in model:
        flags += ["--model", str(files / model[mode])]
    argv = ["decode", "--mode", mode, "--beam", str(beam), "--input", str(files / "bags.txt")]
    assert main([*argv, "--input-format", "bags", "--output", str(out), *flags, *extra]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode,variant,beam", sorted(DIGESTS, key=str))
def test_decode_records_are_pinned(files, tmp_path, mode, variant, beam):
    digest = records_digest(files, tmp_path / "records.txt", mode, variant, beam)
    assert digest == DIGESTS[mode, variant, beam]


@pytest.mark.parametrize("mode,variant,beam", sorted(RENORMALIZED, key=str))
def test_renormalized_records_are_pinned(files, tmp_path, mode, variant, beam):
    digest = records_digest(files, tmp_path / "records.txt", mode, variant, beam, "--renormalize")
    assert digest == RENORMALIZED[mode, variant, beam]
