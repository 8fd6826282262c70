import json

import numpy as np
import pytest

from conftest import small_linearizer, small_lm
from synlin import container as cont
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


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _set(section, key, value):
    def edit(header):
        header["config"][section][key] = value
        return header

    return edit


def _set_indexer(section, key, value):
    def edit(header):
        header["indexers"][section][key] = value
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
    "missing-lm-tensor": ("lm", _rename_tensor("lm.cell1", "lm.cell9")),
    # same payload size, dimensions swapped: only a shape check catches these
    "transposed-w1-word": ("linearizer", _reshape_tensor("lin.w1_word", lambda s: s[::-1])),
    "transposed-lm-cell": ("lm", _reshape_tensor("lm.cell0", lambda s: s[::-1])),
    "word-table-without-padding": ("linearizer", _set_indexer("linearizer", "words", [UNK_WORD])),
}


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
        for name, t in model.params.named_tensors().items():
            assert np.array_equal(again.params.named_tensors()[name], t)
        assert again.indexers == model.indexers
        assert again.inventory.actions == model.inventory.actions
        assert again.variant == model.variant
        assert again.config == model.config

    def test_lm_reload_behaves_identically(self, idx, tmp_path):
        from synlin.lstm_lm import next_word_distribution, start_state

        lm = small_lm(idx, seed=6)
        path = tmp_path / "m.slm"
        cont.save(cont.container_from_lm(lm), path)
        again = cont.lm_from_container(cont.load(path))
        d1 = next_word_distribution(lm, start_state(lm), allowed=[2, 3, 4])
        d2 = next_word_distribution(again, start_state(again), allowed=[2, 3, 4])
        assert d1 == d2

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
        assert main(["decode", *decode, "--input", str(bags), "--input-format", "bags"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model: ") and err.count("\n") == 1
        assert "Traceback" not in err
