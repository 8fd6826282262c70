"""Dependency corpora: CoNLL reading, symbol tables, word bags, and oracles.

The interchange format is 8+ column CoNLL-X (id, form, lemma, cpos, pos,
feats, head, deprel), blank-line separated; CoNLL-U reads the same, its
multiword-token ranges and empty nodes skipped.  Sentences must be
single-rooted projective trees; anything else is rejected at ingestion
because the left-to-right adjacent-reduction system cannot derive it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from synlin.errors import ConfigError, ConllError, DataError, NonProjectiveError, TreeError
from synlin.transition import (
    END,
    FULL,
    LEFT_ARC,
    POS,
    RIGHT_ARC,
    SHIFT,
    VARIANTS,
    Action,
    StackItem,
    State,
    TokenRef,
    apply,
    initial_state,
)

UNK_WORD = "<unk>"
NULL_WORD = "<null_w>"
NULL_POS = "<null_t>"
NULL_LABEL = "<null_l>"

# CoNLL convention for an absent column value; such POS tags / labels are
# excluded from the inventories.
MISSING = "_"

# The id column of a CoNLL-U multiword-token range or empty node.
_CONLLU_EXTRA_ID = re.compile(r"\s*\d+[-.]\d+(\s|$)")


@dataclass(frozen=True)
class Token:
    """One token line: 1-based position, surface form, tag, head, arc label.

    head is 0 for the root token, otherwise the 1-based index of the parent.
    """

    index: int
    form: str
    pos: str
    head: int
    label: str


@dataclass(frozen=True)
class DepSentence:
    """A sentence whose heads form a single projective tree.

    Construction validates the tree; TreeError / NonProjectiveError are
    raised for anything the transition system cannot rebuild.  `number` is
    the 1-based CoNLL block the sentence was read from (0 when it was not
    read from a file); errors about the sentence name it.
    """

    tokens: tuple[Token, ...]
    number: int = field(default=0, compare=False)

    def __post_init__(self):
        _validate_tree(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]


def _validate_tree(tokens: tuple[Token, ...]):
    n = len(tokens)
    if n < 1:
        raise TreeError("sentence has no tokens")
    for i, t in enumerate(tokens, start=1):
        if t.index != i:
            raise TreeError(f"token indices not contiguous at position {i}")
        if not 0 <= t.head <= n:
            raise TreeError(f"token {i}: head {t.head} out of range")
        if t.head == t.index:
            raise TreeError(f"token {i} is its own head")
    roots = [t.index for t in tokens if t.head == 0]
    if len(roots) != 1:
        raise TreeError(f"expected exactly one root, found {len(roots)}")
    heads = {t.index: t.head for t in tokens}
    # Cycle check: every node must reach the artificial root (0).
    for t in tokens:
        seen = set()
        node = t.index
        while node != 0:
            if node in seen:
                raise TreeError(f"cycle through token {t.index}")
            seen.add(node)
            node = heads[node]
    # Projectivity: every word between a head and its dependent must be a
    # descendant of that head.
    for t in tokens:
        if t.head == 0:
            continue
        lo, hi = sorted((t.index, t.head))
        for k in range(lo + 1, hi):
            node = k
            while node != 0 and node != t.head:
                node = heads[node]
            if node != t.head:
                raise NonProjectiveError(
                    f"arc {t.head}->{t.index} crosses token {k}"
                )


@dataclass(frozen=True)
class Indexers:
    """Dense symbol tables for words, POS tags, and arc labels.

    Word id 0 is the unknown-word token and id 1 the padding token for
    absent feature slots; POS and label tables reserve id 0 for padding.
    """

    words: tuple[str, ...]
    pos_tags: tuple[str, ...]
    labels: tuple[str, ...]
    counts: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_word_ids", {w: i for i, w in enumerate(self.words)})
        object.__setattr__(self, "_pos_ids", {p: i for i, p in enumerate(self.pos_tags)})
        object.__setattr__(self, "_label_ids", {l: i for i, l in enumerate(self.labels)})

    unk_id = 0
    null_word_id = 1
    null_pos_id = 0
    null_label_id = 0

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_pos(self) -> int:
        return len(self.pos_tags)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def content_pos_tags(self) -> tuple[str, ...]:
        """Real POS tags (padding excluded); the Pos action inventory."""
        return self.pos_tags[1:]

    @property
    def content_labels(self) -> tuple[str, ...]:
        """Real arc labels (padding excluded); the arc action inventory."""
        return self.labels[1:]

    def word_id(self, form: str) -> int:
        return self._word_ids.get(form, self.unk_id)

    def pos_id(self, tag: str) -> int:
        try:
            return self._pos_ids[tag]
        except KeyError:
            raise DataError(f"POS tag {tag!r} not in the index") from None

    def label_id(self, label: str) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise DataError(f"arc label {label!r} not in the index") from None


def build_indexers(corpus: Iterable[DepSentence], min_count: int = 1) -> Indexers:
    """Symbol tables from a corpus; words rarer than `min_count` map to UNK.
    Forms spelled like the unknown-word or padding entry take its id, so no
    word is listed twice.

    All POS tags and labels are retained (the root token's label and "_"
    placeholders excluded from the label inventory, "_" from the POS one).
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts: Counter = Counter()
    pos_set: set[str] = set()
    label_set: set[str] = set()
    empty = True
    for sent in corpus:
        empty = False
        for t in sent.tokens:
            counts[t.form] += 1
            if t.pos != MISSING:
                pos_set.add(t.pos)
            if t.head != 0 and t.label != MISSING:
                label_set.add(t.label)
    if empty:
        raise DataError("cannot build indexers from an empty corpus")
    kept = [w for w, c in counts.items() if c >= min_count and w not in (UNK_WORD, NULL_WORD)]
    kept.sort(key=lambda w: (-counts[w], w))
    return Indexers(
        words=(UNK_WORD, NULL_WORD, *kept),
        pos_tags=(NULL_POS, *sorted(pos_set)),
        labels=(NULL_LABEL, *sorted(label_set)),
        counts=dict(counts),
    )


@dataclass(frozen=True)
class WordBag:
    """An unordered multiset of input tokens.

    `token_ids` individuates duplicates and is kept in canonical
    (form, tid) order, so nothing downstream depends on surface order.
    """

    token_ids: tuple[TokenRef, ...]

    def __len__(self) -> int:
        return len(self.token_ids)

    def forms(self) -> list[str]:
        return [t.form for t in self.token_ids]


def to_bag(sentence: DepSentence) -> WordBag:
    """Strip the order from a sentence, keeping gold indices as token ids."""
    return bag_from_forms(sentence.forms())


def bag_from_forms(forms: Iterable[str]) -> WordBag:
    """Bag from plain forms; ids number the forms in their given order."""
    refs = sorted(
        (TokenRef(i, f) for i, f in enumerate(forms, start=1)),
        key=lambda r: (r.form, r.tid),
    )
    if not refs:
        raise DataError("empty word bag")
    return WordBag(token_ids=tuple(refs))


def _blocks(lines: Iterable[str]) -> Iterator[list[tuple[int, str]]]:
    """(line number, line) of each sentence's token lines.

    Comments are dropped, and so are CoNLL-U multiword-token ranges (`1-2`)
    and empty nodes (`1.1`): the syntactic words the ranges span, which the
    trees are built over, follow as ordinary token lines.
    """
    block: list[tuple[int, str]] = []
    for no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.strip() == "":
            if block:
                yield block
                block = []
        elif line.lstrip().startswith("#") or _CONLLU_EXTRA_ID.match(line):
            continue
        else:
            block.append((no, line))
    if block:
        yield block


def _parse_block(block: list[tuple[int, str]], number: int) -> DepSentence:
    tokens = []
    for position, (no, line) in enumerate(block, start=1):
        cols = line.split("\t") if "\t" in line else line.split()
        if len(cols) < 8:
            raise ConllError(f"line {no}: expected >= 8 columns, got {len(cols)}")
        try:
            idx = int(cols[0])
            head = int(cols[6])
        except ValueError as exc:
            raise ConllError(f"line {no}: non-integer id or head ({exc})") from None
        if idx != position:
            raise ConllError(f"line {no}: token id {idx}, expected {position}")
        tokens.append(Token(index=idx, form=cols[1], pos=cols[4], head=head, label=cols[7]))
    return DepSentence(tuple(tokens), number)


def parse_conll_lenient(text) -> tuple[list[DepSentence], list[str]]:
    """Parse CoNLL text (a string or line iterable), skipping invalid trees.

    Returns (sentences, skip messages), each message naming the 1-based
    sentence index of a tree the system cannot rebuild.  Malformed lines
    raise ConllError: they indicate file corruption, not data quality.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    sentences = []
    skipped = []
    for sent_no, block in enumerate(_blocks(lines), start=1):
        try:
            sentences.append(_parse_block(block, sent_no))
        except TreeError as exc:
            skipped.append(f"sentence {sent_no}: {exc}")
    return sentences, skipped


def parse_conll_forms(text) -> list[list[str]]:
    """Token forms per CoNLL block, without tree validation.

    Decode input only needs the words; tree quality is irrelevant there.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    out = []
    for block in _blocks(lines):
        forms = []
        for no, line in block:
            cols = line.split("\t") if "\t" in line else line.split()
            if len(cols) < 2:
                raise ConllError(f"line {no}: expected at least id and form columns")
            forms.append(cols[1])
        out.append(forms)
    return out


def to_conll(sentences: Iterable[DepSentence]) -> str:
    """Render sentences back to 8-column CoNLL text."""
    out = []
    for sent in sentences:
        for t in sent.tokens:
            out.append(
                f"{t.index}\t{t.form}\t_\t_\t{t.pos}\t_\t{t.head}\t{t.label}"
            )
        out.append("")
    return "\n".join(out) + "\n"


def gold_arcs(sentence: DepSentence, variant: str) -> frozenset:
    """The n-1 arcs among real tokens, labels dropped in the light variant."""
    return frozenset(
        (t.head, t.index, t.label if variant == FULL else None)
        for t in sentence.tokens
        if t.head != 0
    )


def derive_oracle(sentence: DepSentence, variant: str, indexers: Indexers) -> State:
    """Terminal state of the derivation that rebuilds the gold order and arcs.

    The arc-standard policy walks `transition.State` over the inventories of
    `indexers`; the derivation is the returned state's `history`.  An arc
    fires only once the dependent's stack item holds all of its gold
    children; RArc is taken the moment it is valid (deferring it is never
    recoverable).  When LArc and Shift are both derivable -- the next gold
    word sits inside the prospective head's subtree -- Shift wins.  A gold
    action outside the inventories is a DataError.
    """
    if variant not in VARIANTS:
        raise DataError(f"unknown variant {variant!r}")
    gold = {t.index: t for t in sentence.tokens}
    n_children = Counter(t.head for t in sentence.tokens)
    n = len(sentence)

    def head(item: StackItem) -> int:
        return gold[item.root.tid].head

    def complete(item: StackItem) -> bool:
        return item.children == n_children[item.root.tid]

    def label(item: StackItem) -> str | None:
        return gold[item.root.tid].label if variant == FULL else None

    def inside_subtree(node: int, ancestor: int) -> bool:
        node = gold[node].head
        while node != 0:
            if node == ancestor:
                return True
            node = gold[node].head
        return False

    state = initial_state(to_bag(sentence), variant, indexers.content_pos_tags, indexers.content_labels)
    while not state.terminal:
        top, second = state.peek(2)
        nxt = n - state.left.bit_count() + 1  # tokens are shifted in gold order
        shifted = top is not None and state.code < len(state.space.forms)
        if variant == FULL and shifted:  # a Pos follows each Shift
            action = Action(POS, gold[top.root.tid].pos)
        elif second is not None and head(top) == second.root.tid and complete(top):
            action = Action(RIGHT_ARC, label(top))
        elif (
            second is not None
            and head(second) == top.root.tid
            and complete(second)
            and not (nxt <= n and inside_subtree(nxt, top.root.tid))
        ):
            action = Action(LEFT_ARC, label(second))
        elif nxt <= n:
            action = Action(SHIFT, gold[nxt].form)
        else:
            action = Action(END)
        code = state.space.codes.get(action)
        if code not in state.legal:
            raise DataError(f"gold action {action.name()} not feasible at {state.summary()}")
        state = apply(state, code)
    return state
