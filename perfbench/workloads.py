"""The benchmark's workloads, run against synlin's public functions.

Every run has the same three phases:

  train   train the models the run needs with the code under test, the way
          `synlin train` / `synlin train-lm` do, and save them with
          `container.save`.  The run's first round trains every fixture;
          later rounds retrain only the fixtures the training rates come
          from, and must save the same bytes.  In `train` this is the
          measured work, repeated for most of the window.  The decode
          workloads train in child processes, so that the measuring
          process's peak memory covers only set-up and decoding;
  setup   what a command pays before any work: for decode, reading the bags
          and loading every model (`container.load` and `*_from_container`);
          for train, parsing the corpus and building the indexers.  Timed
          by repeats in fresh processes;
  decode  closed-loop requests from one client: each request decodes one bag
          as one request kind and formats the record `synlin decode` prints.
          The first pass over the bags always completes (BLEU and the output
          digests come from it); requests then keep cycling through the bags
          until the window ends, and every repeat must reproduce its
          first-pass record.

A timed run (run.py) cuts its window into slices and runs a share of each
phase in every slice.

Inputs: the training corpus is `toy_corpus(TRAIN_SENTENCES, train_seed)`;
the decode bags are drawn from `toy_corpus(..., seed)` with a fixed number
of bags per length 1..MAX_LEN, so every seed has the same length histogram
and only the words and trees change.
"""

from __future__ import annotations

import hashlib
import pickle
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from synlin import cli, container, corpus, decoder, ffnn, lstm_lm, metrics, synth

from checks import check_finite, check_record

TRAIN_SENTENCES = 200
MAX_LEN = 15
BAGS_PER_LENGTH = 10
SETUP_REPEATS = 30
SETUP_PROCESSES = 2
EPOCHS = 1
RATED_FIXTURES = ("full", "lm")  # train_ex_s and lm_train_tok_s are measured on these
ALPHA = 0.4
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 150  # subprocess.run kills and waits for a child that overruns


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes; the defaults are the benchmark's."""

    train_sentences: int = TRAIN_SENTENCES
    max_len: int = MAX_LEN
    bags_per_length: int = BAGS_PER_LENGTH
    setup_repeats: int = SETUP_REPEATS
    setup_processes: int = SETUP_PROCESSES
    scorer: ffnn.TrainConfig = field(default_factory=ffnn.TrainConfig)
    lm: lstm_lm.LmConfig = field(default_factory=lstm_lm.LmConfig)


@dataclass(frozen=True)
class Kind:
    """One request kind: decode mode, scorer variant, beam, and its models."""

    mode: str
    variant: str
    beam: int
    scorer: str | None  # fixture holding the linearizer
    lm: str | None  # fixture holding the language model

    @property
    def name(self) -> str:
        return f"{self.mode}/{self.variant}/beam{self.beam}"


@dataclass(frozen=True)
class Workload:
    fixtures: tuple[str, ...]  # trained in this order
    kinds: tuple[Kind, ...]
    # Share of the --seconds window spent repeating training rounds; decode
    # requests fill the rest.  A workload that measures training (share > 0)
    # times the set-up of `synlin train`, the others that of `synlin decode`.
    train_share: float = 0.0

    @property
    def measures_training(self) -> bool:
        return self.train_share > 0


JOINT = Kind("syn+lstm", "full", 10, "full", "lm")
WORKLOADS = {
    "decode-beam10": Workload(("full", "lm"), (JOINT,)),
    "decode-greedy": Workload(
        ("full", "light", "lm", "combined"),
        (
            Kind("syn", "full", 1, "full", None),
            Kind("syn", "light", 1, "light", None),
            Kind("synxlstm", "full", 1, "combined", "combined"),
            Kind("lstm", "light", 1, None, "lm"),
        ),
    ),
    "train": Workload(("full", "lm"), (replace(JOINT, beam=1),), train_share=0.75),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dev_corpus(seed: int, sizes: Sizes) -> list[corpus.DepSentence]:
    """`bags_per_length` sentences of each length 1..max_len, in generation order."""
    need = sizes.bags_per_length * sizes.max_len
    pool = 40 * need
    for _ in range(4):
        taken: Counter = Counter()
        out = []
        for sent in synth.toy_corpus(pool, seed, sizes.max_len):
            if taken[len(sent)] < sizes.bags_per_length:
                taken[len(sent)] += 1
                out.append(sent)
        if len(out) == need:
            return out
        pool *= 4
    raise RuntimeError(f"seed {seed}: could not fill every length 1..{sizes.max_len}")


def read_train_corpus(path: Path):
    """What `synlin train` does before training: parse the corpus, build the indexers."""
    sentences, _ = corpus.parse_conll_lenient(path.read_text(encoding="utf-8"))
    return sentences, corpus.build_indexers(sentences, 1)


def load_inputs(workdir: Path, kinds):
    """What `synlin decode` does before decoding: read the bags, load every model."""
    text = (workdir / "dev.conll").read_text(encoding="utf-8")
    bags = [corpus.bag_from_forms(forms) for forms in corpus.parse_conll_forms(text)]
    loaded = {}
    for kind in kinds:
        for fixture in (kind.scorer, kind.lm):
            if fixture is not None and fixture not in loaded:
                loaded[fixture] = container.load(str(workdir / f"{fixture}.slm"))
    models = {
        kind: decoder.Models(
            linearizer=container.linearizer_from_container(loaded[kind.scorer])
            if kind.scorer
            else None,
            lm=container.lm_from_container(loaded[kind.lm]) if kind.lm else None,
        )
        for kind in kinds
    }
    return bags, models


def in_child(fn, *args):
    """`fn(*args)` in a fresh interpreter, which has exited when this returns.

    A plain child process rather than a multiprocessing pool: the pool also
    starts a resource tracker process that outlives the run.
    """
    done = subprocess.run(
        [sys.executable, str(CHILD)],
        input=pickle.dumps((fn, args)),
        stdout=subprocess.PIPE,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return pickle.loads(done.stdout)


def time_setup(workload: str, workdir: Path, repeats: int) -> list[float]:
    """Seconds taken by each of `repeats` back-to-back set-ups in this process."""
    spec = WORKLOADS[workload]
    times = []
    for _ in range(repeats):
        # Free the previous repeat's objects before the clock starts: a
        # command pays for loading, not for dropping an earlier load.
        result = None
        t0 = time.perf_counter()
        if spec.measures_training:
            result = read_train_corpus(workdir / "train.conll")
        else:
            result = load_inputs(workdir, spec.kinds)
        times.append(time.perf_counter() - t0)
    del result
    return times


def train_rounds(workload: str, workdir: Path, sizes: Sizes, seconds: float, every_fixture: bool):
    """Training rounds of a run whose inputs are already under `workdir`, with its tallies."""
    run = Run(workload, workdir, sizes)
    rounds = run.train_rounds(seconds, every_fixture)
    return rounds, run.attempted, run.failed, run.problems


class Run:
    """One benchmark run: inputs on disk under `workdir`, phase results, failures."""

    def __init__(self, workload: str, workdir: Path, sizes: Sizes):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.sizes = sizes
        self.workdir = workdir
        self.train_path = workdir / "train.conll"
        self.dev_path = workdir / "dev.conll"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[dict] = []  # every training round of `train`, in order

    def write_inputs(self, seed: int, train_seed: int):
        """The training corpus and the decode bags, as CoNLL files under `workdir`."""
        sizes = self.sizes
        self.train_path.write_text(
            corpus.to_conll(synth.toy_corpus(sizes.train_sentences, train_seed, sizes.max_len)),
            encoding="utf-8",
        )
        dev = dev_corpus(seed, sizes)
        self.dev_path.write_text(corpus.to_conll(dev), encoding="utf-8")
        self.refs = [s.forms() for s in dev]
        self.length_histogram = dict(sorted(Counter(len(s) for s in dev).items()))

    def fail(self, what: str, problems: list[str]):
        """Count one failed operation when `problems` is nonempty."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    # -- train ------------------------------------------------------------

    def _train_fixture(self, name: str, sentences, indexers, lm) -> tuple[dict, object]:
        """Train, save and check one fixture; its stats and the trained model.

        `lm` is the trained language model, which the `combined` scorer uses.
        """
        sizes = self.sizes
        path = self.workdir / f"{name}.slm"
        if name == "lm":
            config = replace(sizes.lm, epochs=EPOCHS)
            model = lstm_lm.init_lm(indexers, config)
            t0 = time.perf_counter()
            log = lstm_lm.train_lm(model, sentences, config)
            seconds = time.perf_counter() - t0
            container.save(container.container_from_lm(model), str(path))
            stats = {"tokens": sum(len(s) + 1 for s in sentences) * EPOCHS, "train_s": seconds}
        else:
            config = replace(sizes.scorer, epochs=EPOCHS)
            variant = "light" if name == "light" else "full"
            model = ffnn.init_linearizer(
                indexers, variant, config, lm_feat_dim=None if lm is None else lm.config.hidden_size
            )
            examples = ffnn.make_training_examples(sentences, model, lm=lm)
            t0 = time.perf_counter()
            log = ffnn.train(model, examples, config)
            seconds = time.perf_counter() - t0
            container.save(container.container_from_linearizer(model, lm=lm), str(path))
            stats = {"examples": len(examples) * EPOCHS, "train_s": seconds}
        self.attempted += 1
        self.fail(f"training {name}", check_finite(log, "loss/perplexity log"))
        stats["sha256"] = sha256(path.read_bytes())
        return stats, model

    def train(self, seconds: float) -> list[dict]:
        """Training rounds: in this process on `train`, in a child on the decode workloads.

        The run's first round trains every fixture; every round must save
        the same model bytes as the first.
        """
        every_fixture = not self.rounds
        if self.workload.measures_training:
            rounds = self.train_rounds(seconds, every_fixture)
        else:
            rounds, attempted, failed, problems = in_child(
                train_rounds, self.name, self.workdir, self.sizes, seconds, every_fixture
            )
            self.attempted += attempted
            self.failed += failed
            self.problems.extend(problems)
        self.rounds += rounds
        for later in rounds:
            for name, stats in later.items():
                if stats["sha256"] != self.rounds[0][name]["sha256"]:
                    self.fail(f"training {name}", ["model bytes differ between rounds"])
        return rounds

    def train_rounds(self, seconds: float, every_fixture: bool = True) -> list[dict]:
        """Rounds of training: at least one, and more while another round as
        long as the last would end within `seconds`.

        With `every_fixture` the first round trains every fixture; other
        rounds retrain only the fixtures the training rates come from.
        """
        rounds = []
        t0 = time.perf_counter()
        last = 0.0
        while not rounds or time.perf_counter() - t0 + last <= seconds:
            start = time.perf_counter()
            sentences, indexers = read_train_corpus(self.train_path)
            built: dict = {}
            models: dict = {}
            names = self.workload.fixtures if every_fixture and not rounds else RATED_FIXTURES
            for name in names:
                lm = models["lm"] if name == "combined" else None
                built[name], models[name] = self._train_fixture(name, sentences, indexers, lm)
            rounds.append(built)
            last = time.perf_counter() - start
        return rounds

    # -- setup ------------------------------------------------------------

    def setup(self, repeats: int, processes: int = 0) -> list[float]:
        """Seconds of each set-up: `repeats` one after another in each of
        `processes` fresh interpreters, or in this process with 0, which is
        what the traced run needs."""
        if processes:
            times = [
                t for _ in range(processes) for t in in_child(time_setup, self.name, self.workdir, repeats)
            ]
        else:
            times = time_setup(self.name, self.workdir, repeats)
        self.attempted += len(times)
        return times

    def load(self):
        """The bags and models to decode with."""
        return load_inputs(self.workdir, self.workload.kinds)



class Decoding:
    """Closed-loop decode requests of one run, cycling through every (bag, kind).

    `run_for` may be called several times, each call carrying on where the
    last one stopped.  `result` first completes the pass over every request
    if the calls so far have not, since BLEU and the digests come from it.
    """

    def __init__(self, run: Run, bags, models):
        self.run = run
        self.bags = bags
        self.models = models
        kinds = run.workload.kinds
        self.configs = {
            k: decoder.DecodeConfig(mode=k.mode, beam_size=k.beam, alpha=ALPHA) for k in kinds
        }
        self.requests = [(i, k) for i in range(len(bags)) for k in kinds]
        self.first: dict = {}
        self.latencies: list[float] = []
        self.tokens = 0
        self.per_kind = {k.name: [0, 0, 0.0] for k in kinds}  # requests, tokens, seconds
        self.sent = 0

    def run_for(self, seconds: float):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            self._request()

    def _request(self):
        run, bags = self.run, self.bags
        i, kind = self.requests[self.sent % len(self.requests)]
        self.sent += 1
        run.attempted += 1
        start = time.perf_counter()
        try:
            record = cli._format_record(decoder.beam_decode(bags[i], self.models[kind], self.configs[kind]))
        except Exception as exc:  # a failed request is counted, and the run goes on
            run.fail(f"bag {i} {kind.name}", [f"{type(exc).__name__}: {exc}"])
            return
        self.latencies.append(time.perf_counter() - start)
        self.tokens += len(bags[i])
        tally = self.per_kind[kind.name]
        tally[0] += 1
        tally[1] += len(bags[i])
        tally[2] += self.latencies[-1]
        if (i, kind) in self.first:
            if record != self.first[i, kind]:
                run.fail(f"bag {i} {kind.name}", ["repeat differs from the first pass"])
        else:
            self.first[i, kind] = record
            run.fail(
                f"bag {i} {kind.name}",
                check_record(record, bags[i].forms(), kind.mode, kind.variant),
            )

    def result(self) -> dict:
        while self.sent < len(self.requests):
            self._request()
        kinds, first = self.run.workload.kinds, self.first
        n = len(self.bags)
        records = {k: [first[i, k] for i in range(n) if (i, k) in first] for k in kinds}
        hyps = [r.split("\t", 1)[0].split(" ") for k in kinds for r in records[k]]
        refs = [self.run.refs[i] for k in kinds for i in range(n) if (i, k) in first]
        return {
            "latencies": self.latencies,
            "tokens": self.tokens,
            "per_kind": self.per_kind,
            "bleu": metrics.corpus_bleu(refs, hyps).bleu,
            "digests": {
                k.name: sha256(("\n".join(records[k]) + "\n").encode("utf-8")) for k in kinds
            },
        }
