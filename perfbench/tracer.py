"""Spans taken from outside the package, around calls into its modules.

A ``Tracer`` replaces a function at the name its caller looks up (a module
global such as ``ixsim.engine.compute_all_spf``, or a class attribute such
as ``Fabric.inject``) with a wrapper that records a span, and puts every
original back on ``restore()``.  The package's own files are never edited.

A span is (name, start, end, parent index); all spans of one tracer share
its run id.  They are kept in memory and written out by ``write()``.  Self
time is a span's duration minus the durations of its direct children, which
never overlap because the simulator is single-threaded.

Very hot functions can be wrapped with ``count()`` instead, which only
counts calls; their time then lands in the caller's self time.
"""

from __future__ import annotations

import csv
import itertools
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Optional[Span]] = []
        self.stack: List[Tuple[int, str]] = []  # open spans: (index, name)
        self.counts: Counter = Counter()
        self._saved: List[Tuple[object, str, object]] = []
        self._tallies: Dict[str, "itertools.count"] = {}

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]  # raises if the name moved
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a callable of the call's arguments
        returning it.  ``before(args)`` runs ahead of the call and its value
        goes to ``after(args, result, token)``, which returns counter
        increments keyed by suffix: ``{"cells": 12}`` adds 12 to
        ``<span name>.cells``.
        """
        fn = getattr(owner, attr)
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            token = before(args) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, label))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if after is not None:
                for key, value in after(args, result, token).items():
                    counts["%s.%s" % (label, key)] += value
            return result

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``<name>.calls``, no span.
        The count reaches ``counts`` on ``restore()``."""
        fn = getattr(owner, attr)
        tick = itertools.count(1)
        self._tallies[name + ".calls"] = tick
        bump = tick.__next__

        def wrapper(*args, **kwargs):
            bump()
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(label == name for _, label in self.stack)

    def restore(self) -> None:
        """Put every wrapped name back and collect the call counts."""
        for key, tick in self._tallies.items():
            self.counts[key] = next(tick) - 1
        self._tallies.clear()
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_s (inclusive) and self_s."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def roots(self) -> List[int]:
        """Index of each span's outermost ancestor.  Parents are appended
        before their children, so one forward pass suffices."""
        root: List[int] = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(("run_id", "index", "name", "start", "end", "parent"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow((self.run_id, i, name, repr(start), repr(end), parent))
