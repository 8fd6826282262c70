import hashlib
import json

import numpy as np
import pytest

from conftest import small_linearizer, small_lm
from reference_rows import inventory
from synlin import container as cont
from synlin import ffnn, lstm_lm
from synlin.cli import main
from synlin.corpus import UNK_WORD, build_indexers
from synlin.errors import ModelFormatError
from synlin.synth import toy_corpus


@pytest.fixture(scope="module")
def idx():
    return build_indexers(toy_corpus(10, seed=23))


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def combined_file(idx, tmp_path_factory):
    """The bytes of a saved full-variant model with its LM feature block."""
    lm = small_lm(idx, seed=15, hidden_size=6)
    model = small_linearizer(idx, "full", seed=16, lm_feat_dim=6)
    path = tmp_path_factory.mktemp("combined") / "m.slm"
    cont.save(cont.container_from_linearizer(model, lm=lm), path)
    return _bytes(path)


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _set(section, key, value):
    def edit(header):
        header["config"][section][key] = value
        return header

    return edit


def _edit_indexer(section, key, edit_table):
    def edit(header):
        table = header["indexers"][section][key]
        header["indexers"][section][key] = edit_table(table)
        return header

    return edit


def _rename_tensor(old, new):
    def edit(header):
        header["tensors"] = [[new if n == old else n, shape] for n, shape in header["tensors"]]
        return header

    return edit


def _reshape_tensor(name, edit_shape):
    def edit(header):
        header["tensors"] = [
            [n, edit_shape(shape) if n == name else shape] for n, shape in header["tensors"]
        ]
        return header

    return edit


# Header edits that leave the payload in place; each must be a model error.
MALFORMED_HEADERS = {
    "no-indexers": ("linearizer", _without("indexers")),
    "no-tensors": ("linearizer", _without("tensors")),
    "list-header": ("linearizer", lambda header: [header]),
    "tensor-table-not-a-list": ("linearizer", lambda header: {**header, "tensors": 5}),
    "tensor-shape-not-numbers": (
        "linearizer",
        lambda header: {**header, "tensors": [[n, ["a"]] for n, _ in header["tensors"]]},
    ),
    "unknown-linearizer-config-key": ("linearizer", _set("linearizer", "warp_speed", 9)),
    "missing-linearizer-tensor": ("linearizer", _rename_tensor("lin.w2", "lin.w9")),
    "unknown-lm-config-key": ("lm", _set("lm", "warp_speed", 9)),
    # values the config dataclasses reject: the file is at fault, not the flags
    "linearizer-dropout-out-of-range": ("linearizer", _set("linearizer", "dropout", 1.5)),
    "linearizer-seed-negative": ("linearizer", _set("linearizer", "seed", -1)),
    "lm-no-layers": ("lm", _set("lm", "num_layers", 0)),
    "lm-seed-negative": ("lm", _set("lm", "seed", -1)),
    "missing-lm-tensor": ("lm", _rename_tensor("lm.cell1", "lm.cell9")),
    # same payload size, dimensions swapped: only a shape check catches these
    "transposed-w1-word": ("linearizer", _reshape_tensor("lin.w1_word", lambda s: s[::-1])),
    "transposed-lm-cell": ("lm", _reshape_tensor("lm.cell0", lambda s: s[::-1])),
    "word-table-without-padding": (
        "linearizer",
        _edit_indexer("linearizer", "words", lambda _: [UNK_WORD]),
    ),
    # same table sizes: only the table rules catch these
    "unsorted-pos-table": (
        "linearizer",
        _edit_indexer("linearizer", "pos_tags", lambda tags: [tags[0], *tags[:0:-1]]),
    ),
    "repeated-label": (
        "linearizer",
        _edit_indexer("linearizer", "labels", lambda labels: [*labels[:-1], labels[-2]]),
    ),
    "repeated-word": (
        "linearizer",
        _edit_indexer("linearizer", "words", lambda words: [*words[:-1], words[-2]]),
    ),
    # 800 TB declared: rejected before anything is read
    "huge-shape": ("linearizer", _reshape_tensor("lin.w1_word", lambda s: [10**7, 10**7])),
}


def _split(data):
    header, payload = data.split(b"\n", 1)
    return json.loads(header), payload


def _join(header, payload):
    return json.dumps(header).encode() + b"\n" + payload


def _header_len(data):
    return data.index(b"\n")


def _truncate(offset):
    return lambda data: data[: offset(data)]


def _flip(offset):
    """XOR 0x80 turns an ASCII header byte into one that is not UTF-8."""

    def corrupt(data):
        k = offset(data)
        return data[:k] + bytes([data[k] ^ 0x80]) + data[k + 1 :]

    return corrupt


def _edit_header(edit):
    def corrupt(data):
        header, payload = _split(data)
        return _join(edit(header), payload)

    return corrupt


def _duplicate_last_tensor(data):
    """List the last tensor twice, its payload too, so every size adds up."""
    header, payload = _split(data)
    name, shape = header["tensors"][-1]
    size = 8 * int(np.prod(shape))
    header["tensors"].append([name, shape])
    return _join(header, payload + payload[-size:])


# Byte-level corruptions of a saved combined model; each must be one model
# error, whatever part of the loader it reaches.
CORRUPTIONS = {
    "truncated-to-empty": _truncate(lambda data: 0),
    "truncated-after-1-byte": _truncate(lambda data: 1),
    "truncated-mid-header": _truncate(lambda data: _header_len(data) // 2),
    "truncated-before-newline": _truncate(_header_len),
    "truncated-after-newline": _truncate(lambda data: _header_len(data) + 1),
    "truncated-mid-first-tensor": _truncate(lambda data: _header_len(data) + 13),
    "truncated-by-one-byte": _truncate(lambda data: len(data) - 1),
    "flipped-first-byte": _flip(lambda data: 0),
    "flipped-byte-at-quarter": _flip(lambda data: _header_len(data) // 4),
    "flipped-byte-at-half": _flip(lambda data: _header_len(data) // 2),
    "flipped-last-header-byte": _flip(lambda data: _header_len(data) - 1),
    "flipped-newline": _flip(_header_len),
    "tensor-name-not-a-string": _edit_header(
        lambda header: {**header, "tensors": [[7, shape] for _, shape in header["tensors"]]}
    ),
    "tensor-listed-twice": _duplicate_last_tensor,
}
# Every header key given each JSON type it does not have, and every key but
# the optional `feature_slots` dropped.
HEADER_TYPES = {
    "format_version": int,
    "component": str,
    "variant": str,
    "config": dict,
    "indexers": dict,
    "feature_slots": dict,
    "tensors": list,
}
WRONG_VALUES = {int: 7, str: "x", list: [7], dict: {"k": 7}}
for _key, _type in HEADER_TYPES.items():
    if _key != "feature_slots":
        CORRUPTIONS[f"no-{_key}"] = _edit_header(_without(_key))
    for _other, _value in WRONG_VALUES.items():
        if _other is not _type:
            CORRUPTIONS[f"{_key}-as-{_other.__name__}"] = _edit_header(
                lambda header, key=_key, value=_value: {**header, key: value}
            )


class TestRoundTrip:
    def test_linearizer_bytes_stable(self, idx, tmp_path):
        model = small_linearizer(idx, "full", seed=1)
        p1, p2 = tmp_path / "a.slm", tmp_path / "b.slm"
        cont.save(cont.container_from_linearizer(model), p1)
        cont.save(cont.load(p1), p2)
        assert _bytes(p1) == _bytes(p2)

    def test_lm_bytes_stable(self, idx, tmp_path):
        lm = small_lm(idx, seed=2)
        p1, p2 = tmp_path / "a.slm", tmp_path / "b.slm"
        cont.save(cont.container_from_lm(lm), p1)
        cont.save(cont.load(p1), p2)
        assert _bytes(p1) == _bytes(p2)

    def test_combined_bytes_stable(self, idx, tmp_path):
        lm = small_lm(idx, seed=3, hidden_size=6)
        model = small_linearizer(idx, "light", seed=4, lm_feat_dim=6)
        p1, p2 = tmp_path / "a.slm", tmp_path / "b.slm"
        cont.save(cont.container_from_linearizer(model, lm=lm), p1)
        cont.save(cont.load(p1), p2)
        assert _bytes(p1) == _bytes(p2)

    def test_tensors_exact(self, idx, tmp_path):
        model = small_linearizer(idx, "full", seed=5)
        path = tmp_path / "m.slm"
        cont.save(cont.container_from_linearizer(model), path)
        again = cont.linearizer_from_container(cont.load(path))
        for name, t in model.params.items():
            assert np.array_equal(again.params[name], t)
        assert again.indexers == model.indexers
        assert ffnn.output_actions(again.indexers, again.variant) == inventory(model).actions
        assert again.variant == model.variant
        assert again.config == model.config

    def test_lm_reload_behaves_identically(self, idx, tmp_path):
        from synlin.lstm_lm import next_word_logprobs, start_state, step_weights
        from synlin.optim import pad_rows

        lm = small_lm(idx, seed=6)
        path = tmp_path / "m.slm"
        cont.save(cont.container_from_lm(lm), path)
        again = cont.lm_from_container(cont.load(path))
        d1, d2 = (
            next_word_logprobs(m, start_state(m, step_weights(m))[-1][0], *pad_rows([[2, 3, 4]]))
            for m in (lm, again)
        )
        assert np.array_equal(d1, d2)

    def test_combined_loads_both(self, idx, tmp_path):
        lm = small_lm(idx, seed=7, hidden_size=6)
        model = small_linearizer(idx, "light", seed=8, lm_feat_dim=6)
        path = tmp_path / "m.slm"
        cont.save(cont.container_from_linearizer(model, lm=lm), path)
        box = cont.load(path)
        assert box.component == "combined"
        lin2 = cont.linearizer_from_container(box)
        lm2 = cont.lm_from_container(box)
        assert lin2.lm_feat_dim == 6
        assert lm2.config.hidden_size == 6


class TestFormatErrors:
    def test_wrong_component_for_linearizer(self, idx, tmp_path):
        lm = small_lm(idx, seed=9)
        path = tmp_path / "m.slm"
        cont.save(cont.container_from_lm(lm), path)
        with pytest.raises(ModelFormatError):
            cont.linearizer_from_container(cont.load(path))

    def test_wrong_component_for_lm(self, idx, tmp_path):
        model = small_linearizer(idx, "full", seed=10)
        path = tmp_path / "m.slm"
        cont.save(cont.container_from_linearizer(model), path)
        with pytest.raises(ModelFormatError):
            cont.lm_from_container(cont.load(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.slm"
        path.write_bytes(b"not json\n")
        with pytest.raises(ModelFormatError):
            cont.load(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.slm"
        path.write_bytes(b'{"format_version":99,"tensors":[]}\n')
        with pytest.raises(ModelFormatError, match="version"):
            cont.load(path)

    def test_truncated_payload(self, idx, tmp_path):
        model = small_linearizer(idx, "full", seed=11)
        path = tmp_path / "m.slm"
        cont.save(cont.container_from_linearizer(model), path)
        data = _bytes(path)
        path.write_bytes(data[:-16])
        with pytest.raises(ModelFormatError, match="truncated"):
            cont.load(path)

    def test_trailing_garbage(self, idx, tmp_path):
        model = small_linearizer(idx, "full", seed=12)
        path = tmp_path / "m.slm"
        cont.save(cont.container_from_linearizer(model), path)
        with open(path, "ab") as fh:
            fh.write(b"xx")
        with pytest.raises(ModelFormatError, match="trailing"):
            cont.load(path)

    def test_feature_model_requires_lm(self, idx):
        model = small_linearizer(idx, "light", seed=13, lm_feat_dim=6)
        with pytest.raises(ModelFormatError):
            cont.container_from_linearizer(model)

    def test_header_lists_every_key(self, combined_file):
        assert sorted(_split(combined_file)[0]) == sorted(HEADER_TYPES)

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupted_file(self, case, combined_file, tmp_path, capsys):
        path = tmp_path / "m.slm"
        path.write_bytes(CORRUPTIONS[case](combined_file))
        bags = tmp_path / "bags.txt"
        bags.write_text("the dog ran\n")
        capsys.readouterr()
        argv = ["decode", "--mode", "synxlstm", "--model", str(path), "--input", str(bags),
                "--input-format", "bags"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: model: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header(self, case, idx, tmp_path, capsys):
        kind, edit = MALFORMED_HEADERS[case]
        path = tmp_path / "m.slm"
        if kind == "lm":
            cont.save(cont.container_from_lm(small_lm(idx, seed=14)), path)
            from_container = cont.lm_from_container
            decode = ["--mode", "lstm", "--lm", str(path)]
        else:
            cont.save(cont.container_from_linearizer(small_linearizer(idx, "full", seed=14)), path)
            from_container = cont.linearizer_from_container
            decode = ["--model", str(path)]
        header, payload = _bytes(path).split(b"\n", 1)
        path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + payload)
        with pytest.raises(ModelFormatError):
            from_container(cont.load(path))
        bags = tmp_path / "bags.txt"
        bags.write_text("the dog ran\n")
        capsys.readouterr()
        for argv in (
            ["decode", *decode, "--input", str(bags), "--input-format", "bags"],
            ["inspect", "--model", str(path), "--action", "End"],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: model: ") and err.count("\n") == 1
            assert "Traceback" not in err


# sha256 of freshly initialized model files as `container.save` writes them.
# Initialization draws from numpy's PCG64 and multiplies no matrices, so the
# bytes are the same on every machine; a change to the draw order, the
# tensor order or the file layout changes them.
FRESH_MODEL_SHA256 = {
    "full": "0a3fa832642a7151bd33cc96619fd50d37926aa6af1e0bd46c0db64bbcea3808",
    "light": "5e6c99b9bc7671d88d67217db9361609cf71cb6fa32b4d286c0b18de3c1c352b",
    "combined": "2496d063b3188b93f91c8f5e27dd3862d1792fbd3f6f36066915dc35113f84da",
    "lm": "75a8b82e18e9a2eaa5c4c434bcfc0d2ac540ccb5f6d6c9ff41071c5ed015ced5",
    "lm-gate-bias": "7ecbb1c340b0f287a64fe2fb6802a62fdbf5eedc1ab6f5c7dbb798cd9f9d8505",
}


# Order of each model's params dict: the order of the L2 sum, of Adagrad's
# updates and of the coordinates the gradient checks draw.
PARAMS_ORDER = {
    "full": ["emb_word", "emb_pos", "emb_label", "w1_word", "w1_pos", "w1_label", "b1", "w2"],
    "light": ["emb_word", "w1_word", "b1", "w2"],
    "combined": ["emb_word", "w1_word", "w1_lm", "b1", "w2"],
    "lm": ["emb", "cell0", "cell1", "out_emb"],
    "lm-gate-bias": ["emb", "cell0", "cell1", "cell0_bias", "cell1_bias", "out_emb"],
}


def _fresh(kind, indexers):
    """A freshly initialized model of `kind` and its container."""
    if kind.startswith("lm"):
        config = lstm_lm.LmConfig(hidden_size=6, seed=31, gate_bias=kind == "lm-gate-bias")
        lm = lstm_lm.init_lm(indexers, config)
        return lm, cont.container_from_lm(lm)
    lm = None
    if kind == "combined":
        lm = lstm_lm.init_lm(indexers, lstm_lm.LmConfig(hidden_size=6, seed=32))
    model = ffnn.init_linearizer(
        indexers,
        "light" if kind == "combined" else kind,
        ffnn.TrainConfig(embed_dim=8, hidden_dim=12, seed=33),
        lm_feat_dim=6 if lm is not None else None,
    )
    return model, cont.container_from_linearizer(model, lm=lm)


class TestFreshModelBytes:
    @pytest.mark.parametrize("kind", sorted(FRESH_MODEL_SHA256))
    def test_pinned_digest(self, kind, idx, tmp_path):
        path = tmp_path / "m.slm"
        cont.save(_fresh(kind, idx)[1], path)
        assert hashlib.sha256(_bytes(path)).hexdigest() == FRESH_MODEL_SHA256[kind]

    @pytest.mark.parametrize("kind", sorted(PARAMS_ORDER))
    def test_params_order_survives_reload(self, kind, idx, tmp_path):
        model, box = _fresh(kind, idx)
        path = tmp_path / "m.slm"
        cont.save(box, path)
        if kind.startswith("lm"):
            again = cont.lm_from_container(cont.load(path))
        else:
            again = cont.linearizer_from_container(cont.load(path))
        assert list(model.params) == list(again.params) == PARAMS_ORDER[kind]


# sha256 of small model files saved after two epochs of training with
# dropout on: the LMs exercise the forward and backward recurrences (the
# gate-bias one with three layers and L2), the scorers their forward and
# backward passes, the LM-feature one also `make_training_examples`' LM
# states.  A moved bit anywhere in training changes them.
TRAINED_MODEL_SHA256 = {
    "full": "d44a4989a673e92c82fc4cdbc36d3dbec4b037be21ca168f660c1079d3537dbe",
    "light": "c91a86180a32486089ebde3e796fe18fb15e04805c7ce17d0b4c02eb79f6941b",
    "combined": "8f9930ffc461cdcb45f6a28d5b522ca1ed7d8be73f0a71e61d9dbe33f28d5a40",
    "lm": "7240b0d1ec66b4a35f730e769a55c9cd91d6b50880dd9edeffaf9597043dabd1",
    "lm-gate-bias-l2": "f8c39e7afaafc0489d3f5b4b373ab395659c05e1ae13ccaca86b33d535b1e5ca",
}


def _trained(kind, indexers, sentences):
    """The container of a model of `kind` trained for two epochs on `sentences`."""
    lm_config = lstm_lm.LmConfig(hidden_size=6, dropout=0.5, epochs=2, seed=41)
    if kind == "lm-gate-bias-l2":
        lm_config = lstm_lm.LmConfig(
            num_layers=3, hidden_size=6, dropout=0.5, epochs=2, seed=42, gate_bias=True,
            l2_lambda=1e-3,
        )
    lm = None
    if kind.startswith("lm") or kind == "combined":
        lm = lstm_lm.init_lm(indexers, lm_config)
        lstm_lm.train_lm(lm, sentences)
        if kind.startswith("lm"):
            return cont.container_from_lm(lm)
    config = ffnn.TrainConfig(embed_dim=8, hidden_dim=12, dropout=0.3, epochs=2, seed=43)
    model = ffnn.init_linearizer(
        indexers,
        "light" if kind == "light" else "full",
        config,
        lm_feat_dim=6 if lm is not None else None,
    )
    ffnn.train(model, ffnn.make_training_examples(sentences, model, lm=lm))
    return cont.container_from_linearizer(model, lm=lm)


class TestTrainedModelBytes:
    @pytest.mark.parametrize("kind", sorted(TRAINED_MODEL_SHA256))
    def test_pinned_digest(self, kind, idx, tmp_path):
        path = tmp_path / "m.slm"
        cont.save(_trained(kind, idx, toy_corpus(10, seed=23)), path)
        assert hashlib.sha256(_bytes(path)).hexdigest() == TRAINED_MODEL_SHA256[kind]
