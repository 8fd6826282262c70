"""synlin benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload decode-beam10 --seed 100 --seconds 20 --trace 0

Run from the root of a source checkout; synlin is imported from `src/`.
`--trace 0` measures the end-to-end metrics with nothing installed in the
program, over SLICES slices that each hold one share of training, set-up
and decoding.  `--trace 1` runs one pass of training, set-up and decoding three
times, in this process: untraced, with span wrappers installed around each
layer's functions, and untraced again.  It reports per-layer counts and
self times from the traced pass, each layer counted only in the phase it
belongs to (training, or set-up plus decoding), and the tracing overhead as
traced wall time over the mean untraced wall time; all three passes must
produce the same output digests.  A layer the program no longer has, or
whose signature changed, makes the traced run fail.

`--seed` seeds the decode bags; `--train-seed` seeds the training corpus.
Every decode record and training log is checked (see checks.py); the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, and the exit code is nonzero when any check failed.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Pin BLAS to one thread before numpy is first imported (in main): with the
# default thread count, small-matrix training throughput swings by a third
# from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SLICES = 3

END_TO_END = {
    "decode_tok_s": "tok/s",
    "sent_ms_p50": "ms",
    "sent_ms_p90": "ms",
    "bleu": "BLEU",
    "train_ex_s": "ex/s",
    "lm_train_tok_s": "tok/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit, span name, statistic, phase).  Statistic "work" is the
# span's work tally.  A layer is counted only inside the phase whose
# end-to-end metrics it moves: "train" (fixture or measured training) or
# "decode" (set-up and decode requests).  On `train` the transition and
# feature layers also run during oracle replay; those calls land in "train"
# and are not reported.
PER_LAYER = [
    ("ffnn.forward.calls", "count", "ffnn.forward", "calls", "decode"),
    ("ffnn.forward.self_s", "s", "ffnn.forward", "self_s", "decode"),
    ("ffnn.forward.rows", "count", "ffnn.forward", "work", "decode"),
    ("lstm_lm.lm_step.calls", "count", "lstm_lm.lm_step", "calls", "decode"),
    ("lstm_lm.lm_step.self_s", "s", "lstm_lm.lm_step", "self_s", "decode"),
    ("lstm_lm.next_word_logprobs.calls", "count", "lstm_lm.next_word_logprobs", "calls", "decode"),
    ("lstm_lm.next_word_logprobs.self_s", "s", "lstm_lm.next_word_logprobs", "self_s", "decode"),
    ("lstm_lm.next_word_logprobs.ids", "count", "lstm_lm.next_word_logprobs", "work", "decode"),
    ("transition.legal_actions.calls", "count", "transition.legal_actions", "calls", "decode"),
    ("transition.legal_actions.self_s", "s", "transition.legal_actions", "self_s", "decode"),
    ("transition.apply.calls", "count", "transition.apply", "calls", "decode"),
    ("transition.apply.self_s", "s", "transition.apply", "self_s", "decode"),
    ("features.extract.calls", "count", "features.extract", "calls", "decode"),
    ("features.extract.self_s", "s", "features.extract", "self_s", "decode"),
    ("features.extract_light.calls", "count", "features.extract_light", "calls", "decode"),
    ("decoder.beam_decode.calls", "count", "decoder.beam_decode", "calls", "decode"),
    ("decoder.beam_decode.self_s", "s", "decoder.beam_decode", "self_s", "decode"),
    ("decoder.step_scores.calls", "count", "decoder.step_scores", "calls", "decode"),
    ("decoder.step_scores.self_s", "s", "decoder.step_scores", "self_s", "decode"),
    ("decoder.candidates", "count", "decoder.step_scores", "work", "decode"),
    ("ffnn.make_training_examples.self_s", "s", "ffnn.make_training_examples", "self_s", "train"),
    ("ffnn.batch_pass.calls", "count", "ffnn.batch_pass", "calls", "train"),
    ("ffnn.batch_pass.self_s", "s", "ffnn.batch_pass", "self_s", "train"),
    ("lstm_lm.forward_sentence.self_s", "s", "lstm_lm.forward_sentence", "self_s", "train"),
    ("lstm_lm.backward_sentence.self_s", "s", "lstm_lm.backward_sentence", "self_s", "train"),
    ("container.load.self_s", "s", "container.load", "self_s", "decode"),
    ("container.save.self_s", "s", "container.save", "self_s", "train"),
    ("corpus.parse_conll_forms.self_s", "s", "corpus.parse_conll_forms", "self_s", "decode"),
    ("corpus.parse_conll_lenient.self_s", "s", "corpus.parse_conll_lenient", "self_s", "train"),
    ("corpus.derive_oracle.calls", "count", "corpus.derive_oracle", "calls", "train"),
    ("corpus.derive_oracle.self_s", "s", "corpus.derive_oracle", "self_s", "train"),
    ("metrics.corpus_bleu.self_s", "s", "metrics.corpus_bleu", "self_s", "decode"),
]
# Adagrad steps split by the training loop that made them.
ADAGRAD_CALLERS = {"ffnn": "ffnn.train", "lstm_lm": "lstm_lm.train_lm"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="synlin benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=100, help="seed of the decode bags")
    p.add_argument("--train-seed", type=int, default=21, help="seed of the training corpus")
    p.add_argument("--seconds", type=float, default=20.0, help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="traced run: write the raw spans to this .npz file")
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of a nonempty sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run, args) -> tuple[dict, list[str]]:
    from workloads import Decoding

    # On a shared host another tenant can slow this core by a quarter or
    # more, in spells of tens of seconds, so a phase timed in one stretch of
    # the run reads the spell it landed in.  The window is cut into SLICES
    # slices, each with a training round or more, set-ups and a share of the
    # decode requests, so every metric samples the whole run.  Training
    # reports the median rate over rounds; set-up reports the fastest repeat,
    # which is the cost of the code itself.
    share = run.workload.train_share
    setups = []
    decoding = None
    for _ in range(SLICES):
        run.train(args.seconds * share / SLICES)
        setups += run.setup(run.sizes.setup_repeats, run.sizes.setup_processes)
        if decoding is None:
            decoding = Decoding(run, *run.load())
        decoding.run_for(args.seconds * (1 - share) / SLICES)
    dec = decoding.result()
    rounds = run.rounds
    lat = dec["latencies"]
    full = [r["full"] for r in rounds]
    lm = [r["lm"] for r in rounds]
    values = {
        "decode_tok_s": dec["tokens"] / sum(lat),
        "sent_ms_p50": 1e3 * quantile(lat, 50),
        "sent_ms_p90": 1e3 * quantile(lat, 90),
        "bleu": dec["bleu"],
        "train_ex_s": statistics.median(f["examples"] / f["train_s"] for f in full),
        "lm_train_tok_s": statistics.median(f["tokens"] / f["train_s"] for f in lm),
        "setup_s": min(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"decode requests {len(lat)} (p90 has {len(lat) - int(0.9 * len(lat))} samples beyond it)",
        f"slices {SLICES}; training rounds {len(rounds)}; set-up repeats {run.sizes.setup_repeats} "
        f"in each of {run.sizes.setup_processes} processes per slice, "
        f"median {statistics.median(setups):.6f} s",
    ]
    notes += [
        f"kind {name}: {tok / sec:.1f} tok/s over {n} requests"
        for name, (n, tok, sec) in dec["per_kind"].items()
    ]
    notes += [f"sha256 model {n} {s['sha256']}" for n, s in rounds[0].items()]
    notes += [f"sha256 records {k} {d}" for k, d in dec["digests"].items()]
    return values, notes


def install_spans(tracer):
    from synlin import container, corpus, decoder, features, ffnn, lstm_lm, metrics, optim
    from synlin import transition

    def third_arg(args, result):
        return len(args[2])

    for owner, attr, name, work in [
        (decoder, "beam_decode", "decoder.beam_decode", None),
        (decoder, "step_scores", "decoder.step_scores", lambda args, result: len(result)),
        (ffnn, "forward", "ffnn.forward", third_arg),
        (features, "extract", "features.extract", None),
        (features, "extract_light", "features.extract_light", None),
        (transition, "legal_actions", "transition.legal_actions", None),
        (transition, "apply", "transition.apply", None),
        (lstm_lm, "lm_step", "lstm_lm.lm_step", None),
        (lstm_lm, "next_word_logprobs", "lstm_lm.next_word_logprobs", third_arg),
        (lstm_lm, "train_lm", "lstm_lm.train_lm", None),
        (lstm_lm, "_forward_sentence", "lstm_lm.forward_sentence", None),
        (lstm_lm, "_backward_sentence", "lstm_lm.backward_sentence", None),
        (ffnn, "make_training_examples", "ffnn.make_training_examples", None),
        (ffnn, "train", "ffnn.train", None),
        (ffnn, "_batch_pass", "ffnn.batch_pass", third_arg),
        (optim.Adagrad, "step", "optim.Adagrad.step", None),
        (container, "load", "container.load", None),
        (container, "save", "container.save", None),
        (container, "linearizer_from_container", "container.linearizer_from_container", None),
        (container, "lm_from_container", "container.lm_from_container", None),
        (corpus, "parse_conll_forms", "corpus.parse_conll_forms", None),
        (corpus, "parse_conll_lenient", "corpus.parse_conll_lenient", None),
        (corpus, "build_indexers", "corpus.build_indexers", None),
        (corpus, "derive_oracle", "corpus.derive_oracle", None),
        (metrics, "corpus_bleu", "metrics.corpus_bleu", None),
        (decoder, "_advance", "decoder.advance", None),
    ]:
        tracer.install(owner, attr, name, work)


def one_pass(run, tracer=None) -> tuple[float, dict]:
    """Train every fixture, set up and decode once; wall time and every output digest.

    With a `tracer`, each phase is recorded as an outermost span.
    """
    from workloads import Decoding

    phase = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()
    t0 = time.perf_counter()
    with phase("train"):
        rounds = run.train_rounds(0.0)
    with phase("decode"):
        run.setup(1)
        dec = Decoding(run, *run.load()).result()
    wall = time.perf_counter() - t0
    digests = {f"model {n}": s["sha256"] for n, s in rounds[0].items()}
    digests.update({f"records {k}": d for k, d in dec["digests"].items()})
    return wall, digests


def per_layer(run, args) -> tuple[dict, list[str]]:
    from spans import Tracer

    # Untraced passes on both sides of the traced one, so warm-up and drift
    # do not land on one side of the overhead ratio.
    before_wall, plain = one_pass(run)
    tracer = Tracer()
    try:
        install_spans(tracer)
        traced_wall, traced = one_pass(run, tracer)
    finally:
        tracer.uninstall()
    after_wall, again = one_pass(run)
    plain_wall = (before_wall + after_wall) / 2
    run.attempted += 1
    if not plain == traced == again:
        run.fail("traced run", ["output digests differ between the traced and untraced passes"])
    summary = {phase: tracer.summary(within=phase) for phase in ("train", "decode")}
    values = {}
    for metric, _, span, stat, phase in PER_LAYER:
        values[metric] = summary[phase][span][stat]
    adagrad = tracer.by_caller("optim.Adagrad.step", within="train")
    for label, caller in ADAGRAD_CALLERS.items():
        for stat in ("calls", "self_s"):
            values[f"optim.Adagrad.step.{label}.{stat}"] = adagrad[caller][stat]
    decode = summary["decode"]
    candidates = decode["decoder.step_scores"]["work"]
    advanced = decode["decoder.advance"]["calls"]
    values["decoder.kept_ratio"] = advanced / candidates
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values["trace.spans"] = len(tracer)
    if args.spans:
        tracer.save(args.spans)
    notes = [
        f"untraced passes {before_wall:.3f} s and {after_wall:.3f} s, traced pass {traced_wall:.3f} s"
    ]
    notes += [f"sha256 {k} {d}" for k, d in traced.items()]
    notes += [
        f"span {phase} {name}: calls {s['calls']} total_s {s['total_s']:.6f} self_s {s['self_s']:.6f}"
        for phase, spans in summary.items()
        for name, s in sorted(spans.items())
        if s["calls"]
    ]
    return values, notes


def per_layer_units() -> dict:
    units = {metric: unit for metric, unit, _, _, _ in PER_LAYER}
    for label in ADAGRAD_CALLERS:
        units[f"optim.Adagrad.step.{label}.calls"] = "count"
        units[f"optim.Adagrad.step.{label}.self_s"] = "s"
    units.update({"decoder.kept_ratio": "ratio", "trace.overhead_ratio": "ratio", "trace.spans": "count"})
    return units


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import synlin
    except ImportError as exc:
        print(f"error: cannot import synlin from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(synlin.__file__).resolve().parents:
        print(f"error: synlin was imported from {synlin.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Run, Sizes

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    print(f"# workload {args.workload} seed {args.seed} train_seed {args.train_seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        run = Run(args.workload, Path(workdir), Sizes())
        run.write_inputs(args.seed, args.train_seed)
        print(f"# bags {sum(run.length_histogram.values())} by length {run.length_histogram}")
        if args.trace:
            values, notes = per_layer(run, args)
            units = per_layer_units()
        else:
            values, notes = end_to_end(run, args)
            units = END_TO_END
    for note in notes:
        print(f"# {note}")
    for problem in run.problems[:50]:
        print(f"# FAILED {problem}")
    failed = run.failed
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {failed / run.attempted:.6g} ({failed} failed of {run.attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
