"""Output checks on decode records and training logs.

A decode record is the line `synlin decode` prints for one bag:

    tokens <TAB> score <TAB> derivation <TAB> arcs

The checks read that text, so they judge exactly what a user receives.
Each function returns a list of problems; an empty list means the output
is well formed.
"""

from __future__ import annotations

import math


def derivation_length(mode: str, variant: str, n: int) -> int:
    """Actions in a complete derivation: n in lstm mode, else 3n (full) or 2n."""
    if mode == "lstm":
        return n
    return 3 * n if variant == "full" else 2 * n


def check_record(record: str, bag_forms, mode: str, variant: str) -> list[str]:
    """Problems with one decode record for a bag with the given forms."""
    fields = record.split("\t")
    if len(fields) != 4:
        return [f"expected 4 tab-separated fields, got {len(fields)}"]
    tokens, score, derivation, arcs = fields
    bag = sorted(bag_forms)
    n = len(bag)
    problems = []
    if sorted(tokens.split(" ")) != bag:
        problems.append("output tokens are not a permutation of the bag")
    try:
        finite = math.isfinite(float(score))
    except ValueError:
        finite = False
    if not finite:
        problems.append(f"score {score!r} is not a finite number")
    actions = derivation.split(" ")
    want = derivation_length(mode, variant, n)
    if len(actions) != want:
        problems.append(f"derivation has {len(actions)} actions, expected {want}")
    shifted = sorted(a[len("Shift-") :] for a in actions if a.startswith("Shift-"))
    if shifted != bag:
        problems.append("shifted words are not the bag")
    if mode == "lstm":
        if arcs != "-":
            problems.append("lstm mode record carries arcs")
    else:
        problems.extend(check_tree(arcs, n, labeled=variant == "full"))
    return problems


def check_tree(arcs: str, n: int, labeled: bool) -> list[str]:
    """Problems with an arcs field as one single-rooted projective tree over 1..n."""
    head: dict[int, int] = {}
    for part in ([] if arcs == "-" else arcs.split(" ")):
        pair, sep, label = part.partition(":")
        if labeled != bool(sep and label):
            return [f"arc {part!r}: label {'missing' if labeled else 'unexpected'}"]
        h, _, d = pair.partition(">")
        try:
            h, d = int(h), int(d)
        except ValueError:
            return [f"malformed arc {part!r}"]
        if not (1 <= h <= n and 1 <= d <= n) or h == d:
            return [f"arc {part!r} outside positions 1..{n}"]
        if d in head:
            return [f"position {d} has two heads"]
        head[d] = h
    roots = [i for i in range(1, n + 1) if i not in head]
    if len(roots) != 1:
        return [f"expected one root, found {len(roots)}"]
    for i in range(1, n + 1):
        seen = set()
        node = i
        while node in head:
            if node in seen:
                return [f"cycle through position {i}"]
            seen.add(node)
            node = head[node]

    def dominated(k: int, h: int) -> bool:
        while k in head:
            k = head[k]
            if k == h:
                return True
        return False

    for d, h in head.items():
        for k in range(min(h, d) + 1, max(h, d)):
            if not dominated(k, h):
                return [f"arc {h}>{d} crosses position {k}"]
    return []


def check_finite(values, what: str) -> list[str]:
    """Problems when any training loss or perplexity is not finite."""
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{what} has non-finite values {bad}"] if bad else []
