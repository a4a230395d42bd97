"""Outside-in layer tracing for the beepsim benchmark.

Spans are recorded around the public names each beepsim module calls
(``waves.simulate``, ``engine.distances``, ``Graph.adjacency``, ...) by
temporarily rebinding those names; the package itself is not modified.
A span is (name, start, end, parent index).  Codec work is too fine-grained
for spans and is counted instead.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from beepsim import codec, engine, graphs, multicast, traversal, waves

# (module or class, attribute, span name).  Every binding a runner reaches
# is listed: the protocol modules import the engine names into their own
# namespace, so each binding is wrapped separately under one span name.
WRAPPED = (
    (waves, "simulate", "engine.simulate"),
    (traversal, "simulate", "engine.simulate"),
    (multicast, "simulate", "engine.simulate"),
    (waves, "distances", "engine.distances"),
    (engine, "distances", "engine.distances"),
    (waves, "diameter", "engine.diameter"),
    (engine, "diameter", "engine.diameter"),
    (traversal, "reference_dfs", "graphs.reference_dfs"),
    (graphs, "reference_dfs", "graphs.reference_dfs"),
    (graphs, "generate", "graphs.generate"),
    (engine, "verify_reception", "engine.verify_reception"),
    (engine.Graph, "adjacency", "engine.adjacency"),
)

# Which share of the timed region a span's self time belongs to.  Spans
# not listed (Graph.adjacency) inherit the category of their caller.
CATEGORY = {
    "engine.simulate": "simulate",
    "engine.distances": "oracle",
    "engine.diameter": "oracle",
    "graphs.reference_dfs": "oracle",
    "waves.runner": "runner",
    "traversal.runner": "runner",
    "multicast.runner": "runner",
}


class Tracer:
    """Span and counter store for one traced call tree."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def inclusive(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def summary(self) -> tuple[dict[str, float], Counter[str], dict[str, float]]:
        """(self seconds per span name, calls per span name, self seconds
        per category).  A span's self time is its duration minus its direct
        children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        by_cat: dict[str, float] = defaultdict(float)
        cats: list[str] = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[i]
            cat = CATEGORY.get(name) or (cats[parent] if parent >= 0 else "bench")
            cats.append(cat)
            self_s[name] += own
            calls[name] += 1
            by_cat[cat] += own
        return self_s, calls, by_cat


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Rebind every wrapped name (and the codec parser) for the duration."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
    saved += [(codec, "encode", codec.encode), (codec, "CodewordParser", codec.CodewordParser)]
    counts = tracer.counts
    base_parser = codec.CodewordParser
    base_encode = codec.encode

    class CountingParser(base_parser):  # type: ignore[misc, valid-type]
        def __init__(self) -> None:
            counts["codec.parsers_created"] += 1
            super().__init__()

        def push(self, bit: int) -> str | None:
            counts["codec.parser_pushes"] += 1
            return super().push(bit)

    def counting_encode(m: str) -> str:
        counts["codec.encode_calls"] += 1
        return base_encode(m)

    try:
        for owner, attr, name in WRAPPED:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        codec.CodewordParser = CountingParser  # type: ignore[misc]
        codec.encode = counting_encode
        yield tracer
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
