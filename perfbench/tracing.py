"""In-memory spans and counters recorded from outside the program.

A Tracer replaces a public papsim function with a wrapper at the place
where its caller looks it up (a module attribute or a dict entry such as
the CLI runner table), records one span per call, and puts the original
back on restore(). Spans keep name, start, end and parent; self time is
a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for ch in sorted(children[i], key=lambda c: c.start):
            lo = max(ch.start, reach)
            hi = min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.duration - covered)
    return out


def self_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for sp, s in zip(spans, self_times(spans)):
        totals[sp.name] += s
    return dict(totals)


class Tracer:
    """Span recorder for one single-threaded traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, observe=None):
        """fn with a span per call; observe(span, args, kwargs, result) after it."""
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(sp, args, kwargs, result)
            return result
        return traced

    def count(self, fn, name: str):
        """fn with a call counter and no span, for calls too short to span."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def patch(self, owner, key: str, name: str, *, observe=None,
              counter: bool = False) -> None:
        """Replace owner.key (or owner[key] for a dict) by a recording wrapper."""
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        wrapped = (self.count(original, name) if counter
                   else self.wrap(original, name, observe))
        if is_dict:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._patches.append((owner, key, original, is_dict))

    def restore(self) -> None:
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def dump(self) -> list[dict]:
        return [{"name": sp.name, "start": sp.start, "end": sp.end,
                 "parent": sp.parent} for sp in self.spans]
