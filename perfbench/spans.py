"""In-memory span tracing installed from outside the program.

`Tracer.install` replaces a function with a recording wrapper under every
name a loaded `synlin` module binds it to, so callers that imported the
function by name (`from synlin.ffnn import forward`) see the wrapper too.
Each call records one span: name id, start, end, the index of the span
that was open when it started, and a work count.  `Tracer.span` records a
span around a block, which marks a phase of the run.  Spans live in flat
arrays until the run ends; `summary` turns them into per-name calls, total
time, self time and work, where self time is a span's duration minus the
time its child spans cover, and `by_caller` splits one name by the span
that enclosed each call.  Both can count only the spans inside one phase.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self._open = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, work=None):
        """A span-recording stand-in for `fn`.

        `work(args, result)` returns the count recorded with the span.
        """
        nid = self._intern(name)
        clock = time.perf_counter
        name_id, start, end, parent, tally, opened = (
            self.name_id,
            self.start,
            self.end,
            self.parent,
            self.work,
            self._open,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(opened[-1])
            end.append(0.0)
            tally.append(0)
            opened.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                opened.pop()
            if work is not None:
                tally[idx] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around the block."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self.work.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._open.pop()

    def install(self, owner, attr: str, name: str, work=None):
        """Replace `owner.attr` wherever a synlin module binds the same object.

        `owner` is a module or a class; for a class only the class attribute
        is replaced, which every instance looks up.  A missing `attr` raises.
        """
        original = getattr(owner, attr)
        stand_in = self.wrap(original, name, work)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [
                mod
                for key, mod in list(sys.modules.items())
                if (key == "synlin" or key.startswith("synlin.")) and mod is not None
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, key, original))
                    setattr(holder, key, stand_in)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.start)

    def _arrays(self, within: str | None):
        """Name ids, parents, durations, self times and work; a mask of the spans inside `within`."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        nid = np.array(self.name_id, dtype=np.int32)
        work = np.array(self.work, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        if within is None:
            keep = np.ones(len(dur), dtype=bool)
        else:
            # Follow parents up to each span's outermost ancestor.
            root = np.where(has_parent, parent, np.arange(len(dur), dtype=np.int32))
            while len(root) and (root[root] != root).any():
                root = root[root]
            keep = nid[root] == self._name_ids[within]
        return nid, parent, dur, dur - child, work, keep

    def summary(self, within: str | None = None) -> dict[str, dict[str, float]]:
        """Per installed span name: calls, total_s, self_s and work (zeros if never called).

        With `within`, only spans inside an outermost span of that name count.
        """
        nid, _, dur, own, work, keep = self._arrays(within)
        nid, dur, own, work = nid[keep], dur[keep], own[keep], work[keep]
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=own, minlength=n)
        tally = np.bincount(nid, weights=work, minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
                "work": int(tally[i]),
            }
            for i, name in enumerate(self.names)
        }

    def by_caller(self, name: str, within: str | None = None) -> dict[str, dict[str, float]]:
        """Calls and self time of `name`, keyed by the enclosing span's name."""
        nid, parent, _, own, _, keep = self._arrays(within)
        mask = (nid == self._name_ids[name]) & keep
        callers = np.where(parent[mask] >= 0, nid[np.maximum(parent[mask], 0)], -1)
        out = {}
        for c in np.unique(callers):
            sel = callers == c
            key = self.names[c] if c >= 0 else "top"
            out[key] = {"calls": int(sel.sum()), "self_s": float(own[mask][sel].sum())}
        return out

    def save(self, path: str):
        """Write the raw spans (compressed numpy archive)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32),
            work=np.array(self.work, dtype=np.int64),
        )
