"""Command-line surface: train-lm, train, decode, evaluate, inspect, oracle-check.

Every command accepts --config FILE holding flat key=value lines whose keys
are the long option names (dashes or underscores); explicit command-line
flags override file values.  Errors exit nonzero with a single
"error: <code>: <message>" line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from synlin import container as cont
from synlin import corpus as cp
from synlin import decoder as dec
from synlin import ffnn, lstm_lm, metrics
from synlin.errors import ConfigError, DataError, SynlinError
from synlin.transition import FULL, LIGHT, Action, derivation_length, realized_sentence


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
    actions = {a.dest: a for a in subparser._actions}
    converted = {}
    for key, value in values.items():
        if key in ("config", "help") or key not in actions:
            raise ConfigError(f"unknown config key {key!r} in {path}")
        action = actions[key]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            lowered = value.lower()
            if lowered not in ("true", "false", "1", "0"):
                raise ConfigError(f"config key {key!r}: expected a boolean, got {value!r}")
            converted[key] = lowered in ("true", "1")
        elif action.type is not None:
            try:
                converted[key] = action.type(value)
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad value {value!r}") from None
        else:
            converted[key] = value
    subparser.set_defaults(**converted)
    return parser.parse_args(argv)


def _read_corpus(path: str) -> list[cp.DepSentence]:
    sentences, skipped = cp.parse_conll_lenient(_read_text(path))
    if skipped:
        print(f"skipped {len(skipped)} sentence(s) with unusable trees:", file=sys.stderr)
        for msg in skipped[:10]:
            print(f"  {msg}", file=sys.stderr)
    if not sentences:
        raise DataError(f"{path}: no usable sentences")
    return sentences


def cmd_train_lm(args) -> int:
    sentences = _read_corpus(args.corpus)
    indexers = cp.build_indexers(sentences, args.min_count)
    config = lstm_lm.LmConfig(
        num_layers=args.layers,
        hidden_size=args.hidden_size,
        dropout=args.dropout,
        learning_rate=args.lr,
        l2_lambda=args.l2,
        epochs=args.epochs,
        seed=args.seed,
        gate_bias=args.gate_bias,
    )
    model = lstm_lm.init_lm(indexers, config)
    log = lstm_lm.train_lm(model, sentences, config)
    for epoch, ppl in enumerate(log, start=1):
        print(f"epoch {epoch}: perplexity {ppl:.4f}")
    cont.save(cont.container_from_lm(model), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    sentences = _read_corpus(args.corpus)
    indexers = cp.build_indexers(sentences, args.min_count)
    if args.variant == FULL:
        if not indexers.content_pos_tags:
            raise ConfigError("full variant needs POS tags, but the corpus has none")
        if not indexers.content_labels:
            raise ConfigError("full variant needs arc labels, but the corpus has none")
    lm = None
    if args.lm:
        lm = cont.lm_from_container(cont.load(args.lm))
    config = ffnn.TrainConfig(
        learning_rate=args.lr,
        l2_lambda=args.l2,
        dropout=args.dropout,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
    )
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


def _load_decode_models(args) -> dec.Models:
    models = dec.Models()
    if args.mode == dec.MODE_LSTM:
        if not args.lm:
            raise ConfigError("--lm is required for lstm mode")
        models.lm = cont.lm_from_container(cont.load(args.lm))
        return models
    if not args.model:
        raise ConfigError(f"--model is required for {args.mode} mode")
    loaded = cont.load(args.model)
    models.linearizer = cont.linearizer_from_container(loaded)
    if args.mode == dec.MODE_FEATURE:
        if loaded.component != cont.COMPONENT_COMBINED:
            raise ConfigError(
                "synxlstm mode needs a combined model (train with --lm); "
                f"{args.model} holds {loaded.component!r}"
            )
        models.lm = cont.lm_from_container(loaded)
    elif args.mode == dec.MODE_JOINT:
        if not args.lm:
            raise ConfigError("--lm is required for syn+lstm mode")
        models.lm = cont.lm_from_container(cont.load(args.lm))
    return models


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
    models = _load_decode_models(args)
    config = dec.DecodeConfig(
        mode=args.mode,
        beam_size=args.beam,
        alpha=args.alpha,
        renormalize_joint=args.renormalize,
    )
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
    text = _read_text(args.corpus)
    sentences, skipped = cp.parse_conll_lenient(text)
    failures = []
    for i, sent in enumerate(sentences, start=1):
        actions = cp.derive_oracle(sent, args.variant)
        state = cp.replay_oracle(sent, args.variant, actions)
        realized = [t.form for t in realized_sentence(state)]
        ok = (
            len(actions) == derivation_length(args.variant, len(sent))
            and realized == sent.forms()
            and state.arcs == cp.gold_arcs(sent, args.variant)
        )
        if not ok:
            failures.append(i)
    print(f"pass {len(sentences) - len(failures)}/{len(sentences)} skip {len(skipped)}")
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
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden-size", type=int, default=128)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--gate-bias", action="store_true")

    p = add("train", cmd_train, "train the transition scorer")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=(FULL, LIGHT), default=FULL)
    p.add_argument("--lm", help="LM model file; trains with LM feature integration")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--embed-dim", type=int, default=50)
    p.add_argument("--hidden-dim", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--l2", type=float, default=1e-8)
    p.add_argument("--dropout", type=float, default=0.3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-count", type=int, default=1)

    p = add("decode", cmd_decode, "order bags of words")
    p.add_argument("--model", help="linearizer (or combined) model file")
    p.add_argument("--lm", help="language model file (lstm and syn+lstm modes)")
    p.add_argument("--mode", choices=dec.MODES, default=dec.MODE_SYN)
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--renormalize", action="store_true")
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
    p.add_argument("--k", type=int, default=5)

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
