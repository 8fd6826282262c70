"""Command-line surface: train-lm, train, decode, evaluate, inspect, oracle-check.

Every command accepts --config FILE holding flat key=value lines whose keys
are the long option names (dashes or underscores); explicit command-line
flags override file values.  A hyper-parameter flag stores into a field of
its command's config dataclass (`TrainConfig`, `LmConfig`, `DecodeConfig`)
and has no default of its own: the dataclass supplies it.  Errors exit
nonzero with a single "error: <code>: <message>" line on stderr.

Importing this module sets the BLAS thread count to one unless the
environment sets it: training already shares its work among the CPUs
(`optim.run_jobs`), BLAS threads would compete with it, and they round the
products by the core count, so a model file would depend on the host.  The
setting takes effect only before numpy is first imported, which holds for
the `synlin` command; a library caller pins BLAS itself.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

# before any synlin module imports numpy (see the module docstring)
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from synlin import container as cont
from synlin import corpus as cp
from synlin import decoder as dec
from synlin import ffnn, lstm_lm, metrics
from synlin.errors import ConfigError, DataError, SynlinError
from synlin.transition import FULL, LIGHT, Action, realized_sentence


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    for no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_file(parser: argparse.ArgumentParser, subparser, argv) -> argparse.Namespace:
    """Parse argv, folding in --config file values as overridable defaults."""
    args = parser.parse_args(argv)
    path = getattr(args, "config", None)
    if not path:
        return args
    values = _load_config_file(path)
    actions = {
        option[2:].replace("-", "_"): a
        for a in subparser._actions
        for option in a.option_strings
        if option.startswith("--") and option not in ("--config", "--help")
    }
    converted = {}
    for key, value in values.items():
        if key not in actions:
            raise ConfigError(f"unknown config key {key!r} in {path}")
        action = actions[key]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            lowered = value.lower()
            if lowered not in ("true", "false", "1", "0"):
                raise ConfigError(f"config key {key!r}: expected a boolean, got {value!r}")
            converted[action.dest] = lowered in ("true", "1")
        elif action.type is not None:
            try:
                converted[action.dest] = action.type(value)
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad value {value!r}") from None
        else:
            converted[action.dest] = value
        if action.choices is not None and converted[action.dest] not in action.choices:
            allowed = ", ".join(map(str, action.choices))
            raise ConfigError(f"config key {key!r}: expected one of {allowed}, got {value!r}")
    subparser.set_defaults(**converted)
    return parser.parse_args(argv)


def _config(cls, args):
    """A `cls` config from the flags that were set; the dataclass supplies the rest."""
    given = {f.name: getattr(args, f.name) for f in fields(cls)}
    return cls(**{name: value for name, value in given.items() if value is not None})


def _read_corpus(path: str) -> tuple[list[cp.DepSentence], int]:
    """The usable sentences of a CoNLL file and how many were skipped."""
    sentences, skipped = cp.parse_conll_lenient(_read_text(path))
    if skipped:
        print(f"skipped {len(skipped)} sentence(s) with unusable trees:", file=sys.stderr)
        for msg in skipped[:10]:
            print(f"  {msg}", file=sys.stderr)
    if not sentences:
        raise DataError(f"{path}: no usable sentences")
    return sentences, len(skipped)


def cmd_train_lm(args) -> int:
    config = _config(lstm_lm.LmConfig, args)
    sentences, _ = _read_corpus(args.corpus)
    indexers = cp.build_indexers(sentences, args.min_count)
    model = lstm_lm.init_lm(indexers, config)
    log = lstm_lm.train_lm(model, sentences, config)
    for epoch, ppl in enumerate(log, start=1):
        print(f"epoch {epoch}: perplexity {ppl:.4f}")
    cont.save(cont.container_from_lm(model), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _config(ffnn.TrainConfig, args)
    sentences, _ = _read_corpus(args.corpus)
    indexers = cp.build_indexers(sentences, args.min_count)
    if args.variant == FULL:
        if not indexers.content_pos_tags:
            raise ConfigError("full variant needs POS tags, but the corpus has none")
        if not indexers.content_labels:
            raise ConfigError("full variant needs arc labels, but the corpus has none")
    lm = None
    if args.lm:
        lm = cont.lm_from_container(cont.load(args.lm))
    model = ffnn.init_linearizer(
        indexers,
        args.variant,
        config,
        lm_feat_dim=lm.config.hidden_size if lm is not None else None,
    )
    examples = ffnn.make_training_examples(sentences, model, lm=lm)
    print(f"{len(sentences)} sentences, {len(examples)} oracle decisions")
    log = ffnn.train(model, examples, config)
    for epoch, value in enumerate(log, start=1):
        print(f"epoch {epoch}: loss {value:.4f}")
    cont.save(cont.container_from_linearizer(model, lm=lm), args.out)
    print(f"wrote {args.out}")
    return 0


def _load_decode_models(args, mode: str) -> dec.Models:
    """The models `mode` reads, from the files given; `beam_decode` checks them."""
    linearizer = lm = None
    if mode != dec.MODE_LSTM and args.model:
        loaded = cont.load(args.model)
        linearizer = cont.linearizer_from_container(loaded)
        if mode == dec.MODE_FEATURE and loaded.component == cont.COMPONENT_COMBINED:
            lm = cont.lm_from_container(loaded)
    if mode in (dec.MODE_LSTM, dec.MODE_JOINT) and args.lm:
        lm = cont.lm_from_container(cont.load(args.lm))
    return dec.Models(linearizer, lm)


def _read_bags(args) -> list[cp.WordBag]:
    text = _read_text(args.input)
    if args.input_format == "conll":
        bags = [cp.bag_from_forms(forms) for forms in cp.parse_conll_forms(text)]
    else:
        bags = [
            cp.bag_from_forms(line.split()) for line in text.splitlines() if line.strip()
        ]
    if not bags:
        raise DataError(f"{args.input}: no input sentences")
    return bags


def _format_record(result: dec.DecodeResult) -> str:
    tokens = " ".join(result.tokens)
    derivation = " ".join(a.name() for a in result.actions)
    if result.arcs is None:
        arcs = "-"
    else:
        position = {tid: i + 1 for i, tid in enumerate(result.tids)}
        parts = []
        for head, dep, label in sorted(result.arcs, key=lambda a: (position[a[0]], position[a[1]])):
            suffix = f":{label}" if label is not None else ""
            parts.append(f"{position[head]}>{position[dep]}{suffix}")
        arcs = " ".join(parts) if parts else "-"
    return f"{tokens}\t{result.score:.6f}\t{derivation}\t{arcs}"


def cmd_decode(args) -> int:
    config = _config(dec.DecodeConfig, args)
    models = _load_decode_models(args, config.mode)
    lines = [_format_record(dec.beam_decode(bag, models, config)) for bag in _read_bags(args)]
    out = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(out)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    return 0


def _read_token_lines(path: str, conll: bool) -> list[list[str]]:
    text = _read_text(path)
    if conll:
        return cp.parse_conll_forms(text)
    rows = []
    for line in text.splitlines():
        if line.strip():
            rows.append(line.split("\t", 1)[0].split())
    return rows


def cmd_evaluate(args) -> int:
    refs = _read_token_lines(args.refs, args.refs_format == "conll")
    hyps = _read_token_lines(args.hyps, False)
    report = metrics.corpus_bleu(refs, hyps)
    print(report.to_text())
    print(report.to_kv())
    return 0


def cmd_inspect(args) -> int:
    loaded = cont.load(args.model)
    model = cont.linearizer_from_container(loaded)
    action = Action.parse(args.action)
    neighbors = metrics.action_neighbors(model, action, args.k)
    print(f"neighbors of {action.name()}:")
    for rank, (other, cos) in enumerate(neighbors, start=1):
        print(f"{rank}\t{other.name()}\t{cos:.4f}")
    return 0


def cmd_oracle_check(args) -> int:
    sentences, skipped = _read_corpus(args.corpus)
    indexers = cp.build_indexers(sentences)
    failures = []
    for sent in sentences:
        try:
            state = cp.derive_oracle(sent, args.variant, indexers)
        except DataError as exc:
            raise DataError(f"sentence {sent.number}: {exc}") from None
        realized = [t.form for t in realized_sentence(state)]
        if realized != sent.forms() or state.arcs != cp.gold_arcs(sent, args.variant):
            failures.append(sent.number)
    print(f"pass {len(sentences) - len(failures)}/{len(sentences)} skip {skipped}")
    if failures:
        raise DataError(f"oracle round-trip failed for sentences {failures}")
    return 0


def build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="synlin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.set_defaults(func=func)
        subparsers[name] = p
        return p

    p = add("train-lm", cmd_train_lm, "train the LSTM language model")
    p.add_argument("--corpus", required=True, help="CoNLL training corpus")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--epochs", dest="epochs", type=int)
    p.add_argument("--layers", dest="num_layers", type=int)
    p.add_argument("--hidden-size", dest="hidden_size", type=int)
    p.add_argument("--dropout", dest="dropout", type=float)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--l2", dest="l2_lambda", type=float)
    p.add_argument("--seed", dest="seed", type=int)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--gate-bias", dest="gate_bias", action="store_true")

    p = add("train", cmd_train, "train the transition scorer")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=(FULL, LIGHT), default=FULL)
    p.add_argument("--lm", help="LM model file; trains with LM feature integration")
    p.add_argument("--epochs", dest="epochs", type=int)
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--l2", dest="l2_lambda", type=float)
    p.add_argument("--dropout", dest="dropout", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", dest="seed", type=int)
    p.add_argument("--min-count", type=int, default=1)

    p = add("decode", cmd_decode, "order bags of words")
    p.add_argument("--model", help="linearizer (or combined) model file")
    p.add_argument("--lm", help="language model file (lstm and syn+lstm modes)")
    p.add_argument("--mode", dest="mode", choices=dec.MODES)
    p.add_argument("--beam", dest="beam_size", type=int)
    p.add_argument("--alpha", dest="alpha", type=float)
    p.add_argument("--renormalize", dest="renormalize_joint", action="store_true")
    p.add_argument("--input", required=True)
    p.add_argument("--input-format", choices=("conll", "bags"), default="conll")
    p.add_argument("--output", default="-")

    p = add("evaluate", cmd_evaluate, "corpus BLEU of hypotheses against references")
    p.add_argument("--refs", required=True)
    p.add_argument("--refs-format", choices=("text", "conll"), default="text")
    p.add_argument("--hyps", required=True, help="token lines or decode records")

    p = add("inspect", cmd_inspect, "nearest actions by output-embedding cosine")
    p.add_argument("--model", required=True)
    p.add_argument("--action", required=True, help='e.g. "Shift-love"')
    p.add_argument("--k", type=int, default=5, help="neighbours to list (at least 1)")

    p = add("oracle-check", cmd_oracle_check, "verify oracle round-trips on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--variant", choices=(FULL, LIGHT), default=FULL)

    return parser, subparsers


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(parser, subparsers[args.command], argv)
        return args.func(args)
    except SynlinError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
