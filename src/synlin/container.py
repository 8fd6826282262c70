"""Single-file model persistence.

Layout: one canonical JSON header line (sorted keys, compact separators)
terminated by a newline, followed by the raw little-endian float64 payloads
of the tensors in exactly the order listed in the header.  The header also
carries the symbol tables, the config snapshot, and the feature slot layout,
so a saved model is self-describing; save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from synlin import ffnn, lstm_lm
from synlin.corpus import Indexers
from synlin.errors import ConfigError, ModelFormatError
from synlin.features import FEATURE_BLOCKS
from synlin.ffnn import Linearizer, TrainConfig
from synlin.lstm_lm import LanguageModel, LmConfig
from synlin.transition import FULL, VARIANTS

FORMAT_VERSION = 1

COMPONENT_LINEARIZER = "linearizer"
COMPONENT_LM = "lm"
COMPONENT_COMBINED = "combined"

_REQUIRED_KEYS = ("component", "config", "indexers", "tensors")


@dataclass
class ModelContainer:
    component: str
    config: dict
    indexers: dict  # section name -> indexer payload
    tensors: dict[str, np.ndarray]
    variant: str | None = None
    feature_slots: dict | None = None


def _indexers_payload(indexers: Indexers) -> dict:
    return {
        "words": list(indexers.words),
        "pos_tags": list(indexers.pos_tags),
        "labels": list(indexers.labels),
        "counts": {k: int(v) for k, v in sorted(indexers.counts.items())},
    }


def _indexers_from_payload(payload: dict) -> Indexers:
    """The indexers of a header section: a TypeError unless each table is a
    list of strings and `counts`, if given, an object of string ->
    non-negative int."""
    tables = {key: payload[key] for key in ("words", "pos_tags", "labels")}
    for key, table in tables.items():
        if type(table) is not list or not all(type(entry) is str for entry in table):
            raise TypeError(f"{key} is not a list of strings")
    counts = payload.get("counts", {})
    if type(counts) is not dict or not all(
        type(k) is str and type(v) is int and v >= 0 for k, v in counts.items()
    ):
        raise TypeError("counts is not an object of string -> non-negative int")
    return Indexers(**{key: tuple(table) for key, table in tables.items()}, counts=dict(counts))


def save(container: ModelContainer, path: str):
    names = sorted(container.tensors)
    header = {
        "format_version": FORMAT_VERSION,
        "component": container.component,
        "variant": container.variant,
        "config": container.config,
        "indexers": container.indexers,
        "feature_slots": container.feature_slots,
        "tensors": [[name, list(container.tensors[name].shape)] for name in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(b"\n")
        for name in names:
            fh.write(np.ascontiguousarray(container.tensors[name], dtype="<f8").tobytes())


def load(path: str) -> ModelContainer:
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"{path}: bad container header ({exc})") from None
        if not isinstance(header, dict):
            raise ModelFormatError(f"{path}: container header is not a JSON object")
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"{path}: unsupported format version {version!r} (expected {FORMAT_VERSION})"
            )
        missing = [key for key in _REQUIRED_KEYS if key not in header]
        if missing:
            raise ModelFormatError(f"{path}: container header lacks {', '.join(missing)}")
        tensors = {}
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        try:
            for name, shape in header["tensors"]:
                if type(name) is not str:
                    raise ModelFormatError(f"{path}: tensor name {name!r} is not a string")
                if name in tensors:
                    raise ModelFormatError(f"{path}: tensor {name} is listed twice")
                if not all(type(k) is int and k >= 0 for k in shape):
                    raise ModelFormatError(f"{path}: tensor {name} has shape {shape!r}")
                size = math.prod(shape) * 8
                if size > left:
                    raise ModelFormatError(
                        f"{path}: truncated payload for tensor {name} "
                        f"({size} bytes declared, {left} left)"
                    )
                left -= size
                payload = fh.read(size)
                if len(payload) != size:  # the file shrank while read
                    raise ModelFormatError(f"{path}: truncated payload for tensor {name}")
                # Copied, not read into the array: freeing a large payload raises
                # glibc's mmap threshold, and without that a beam-10 decode's
                # per-step gathers each map fresh pages (2-3% slower decoding).
                tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"{path}: bad tensor table ({exc})") from None
        if fh.read(1):
            raise ModelFormatError(f"{path}: trailing bytes after tensor payloads")
    return ModelContainer(
        component=header["component"],
        config=header["config"],
        indexers=header["indexers"],
        tensors=tensors,
        variant=header.get("variant"),
        feature_slots=header.get("feature_slots"),
    )


def _feature_slots(variant: str) -> dict:
    return {block: list(slots) for block, slots in FEATURE_BLOCKS[variant].items()}


def container_from_linearizer(model: Linearizer, lm: LanguageModel | None = None) -> ModelContainer:
    """Pack a linearizer (and, for feature-integrated models, its LM)."""
    tensors = {f"lin.{k}": v for k, v in model.params.items()}
    config = {"linearizer": asdict(model.config)}
    indexers = {"linearizer": _indexers_payload(model.indexers)}
    component = COMPONENT_LINEARIZER
    if model.lm_feat_dim is not None:
        if lm is None:
            raise ModelFormatError("feature-integrated model requires its language model")
        component = COMPONENT_COMBINED
        tensors.update({f"lm.{k}": v for k, v in lm.params.items()})
        config["lm"] = asdict(lm.config)
        indexers["lm"] = _indexers_payload(lm.indexers)
    return ModelContainer(
        component=component,
        config=config,
        indexers=indexers,
        tensors=tensors,
        variant=model.variant,
        feature_slots=_feature_slots(model.variant),
    )


def container_from_lm(lm: LanguageModel) -> ModelContainer:
    return ModelContainer(
        component=COMPONENT_LM,
        config={"lm": asdict(lm.config)},
        indexers={"lm": _indexers_payload(lm.indexers)},
        tensors={f"lm.{k}": v for k, v in lm.params.items()},
    )


def _section(container: ModelContainer, section: str, prefix: str, config_cls):
    """Indexers, config and prefix-stripped tensors of one component, whose
    tables must be as `build_indexers` writes them (output rows follow them):
    each word once, POS tags and labels strictly increasing after padding."""
    try:
        indexers = _indexers_from_payload(container.indexers[section])
        config = config_cls(**container.config[section])
        tables = {"POS": indexers.content_pos_tags, "label": indexers.content_labels}
        unsorted = [name for name, table in tables.items() if table != tuple(sorted(set(table)))]
    except (KeyError, TypeError, ConfigError) as exc:
        raise ModelFormatError(
            f"unusable {section} section in the model header ({type(exc).__name__}: {exc})"
        ) from None
    if indexers.n_words < 2:
        raise ModelFormatError(f"{section} word table lacks the unknown and padding entries")
    if len(set(indexers.words)) < indexers.n_words:
        raise ModelFormatError(f"{section} word table lists a word twice")
    if unsorted:
        raise ModelFormatError(f"{section} {unsorted[0]} table is not strictly increasing")
    tensors = {k[len(prefix) :]: v for k, v in container.tensors.items() if k.startswith(prefix)}
    return indexers, config, tensors


def _check_shapes(section: str, tensors: dict[str, np.ndarray], shapes: list) -> dict:
    """Exactly the tensors of the (name, shape) list `shapes`, each with its
    shape; returns them in `shapes` order, the order of the model's params.
    """
    expected = dict(shapes)
    missing = sorted(set(expected) - set(tensors))
    if missing:
        raise ModelFormatError(f"{section} tensor(s) {', '.join(missing)} missing")
    extra = sorted(set(tensors) - set(expected))
    if extra:
        raise ModelFormatError(f"unexpected {section} tensor(s) {', '.join(extra)}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ModelFormatError(
                f"{section} tensor {name} has shape {list(tensors[name].shape)}, "
                f"expected {list(shape)} from the indexers, config and feature slots"
            )
    return {name: tensors[name] for name in expected}


def linearizer_from_container(container: ModelContainer) -> Linearizer:
    if container.component not in (COMPONENT_LINEARIZER, COMPONENT_COMBINED):
        raise ModelFormatError(
            f"container holds {container.component!r}, not a linearizer"
        )
    variant = container.variant
    if variant not in VARIANTS:
        raise ModelFormatError(f"unknown linearizer variant {variant!r}")
    if container.feature_slots is not None and container.feature_slots != _feature_slots(variant):
        raise ModelFormatError("feature slot layout differs from this version's")
    indexers, config, tensors = _section(container, "linearizer", "lin.", TrainConfig)
    if variant == FULL and (indexers.n_pos < 1 or indexers.n_labels < 1):
        raise ModelFormatError("POS or label table lacks its padding entry")
    lm_feat_dim = None
    if container.component == COMPONENT_COMBINED:
        lm_feat_dim = _section(container, "lm", "lm.", LmConfig)[1].hidden_size
    shapes = ffnn.param_shapes(indexers, variant, config, lm_feat_dim)
    return Linearizer(
        params=_check_shapes("linearizer", tensors, shapes),
        indexers=indexers,
        variant=variant,
        config=config,
        lm_feat_dim=lm_feat_dim,
    )


def lm_from_container(container: ModelContainer) -> LanguageModel:
    if container.component not in (COMPONENT_LM, COMPONENT_COMBINED):
        raise ModelFormatError(
            f"container holds {container.component!r}, not a language model"
        )
    indexers, config, tensors = _section(container, "lm", "lm.", LmConfig)
    shapes = lstm_lm.param_shapes(indexers, config)
    return LanguageModel(
        params=_check_shapes("language model", tensors, shapes), indexers=indexers, config=config
    )
