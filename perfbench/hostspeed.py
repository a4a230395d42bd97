"""Host-speed probe, sampled through every timed region.

The hosts this benchmark runs on are shared.  The same instance can take
20% longer from one minute to the next while the process gets no less CPU,
and whole 40-s runs land in fast or slow spells.  Medians within a run do
not remove a spell that lasts the whole run, so the benchmark measures the
host's speed alongside the work and divides it out.

The probe is a fixed pure-Python task of the kinds of work the simulator
does: it rebuilds an adjacency map from a frozenset edge set, runs BFS from
several sources, and steps generator programs through synchronous beep
rounds.  It uses no beepsim code, so a change to the package cannot move
it, and its inputs do not depend on the workload seed.

``timed`` runs the probe once before a call, every ``INTERVAL_S`` during it
(from a SIGALRM handler in the same thread, so no second thread or process
competes for a core), and once after it.  The call's host time excludes the
probes.  Scaled by ``NOMINAL_S / mean(probe times)`` it reads as seconds on
a host where one probe takes ``NOMINAL_S``.  On a 2-vCPU shared VM, this
cut the spread of 40-s window medians of BFS and kernel work from 7-10% to
1-3%.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from collections import deque
from typing import Any, Callable, Generator, NamedTuple

# Median probe time on a 2.1 GHz Xeon vCPU under CPython 3.11.  Only the
# ratio to it matters; it fixes the scale of the normalised host times.
NOMINAL_S = 0.020
INTERVAL_S = 0.25

_N = 300
_SOURCES = 10
_PROGRAMS = 150
_ROUNDS = 160


def _edges(n: int, extra: int, rng: random.Random) -> frozenset[frozenset[int]]:
    out = {frozenset((v, rng.randrange(v))) for v in range(1, n)}
    while len(out) < n - 1 + extra:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            out.add(frozenset((a, b)))
    return frozenset(out)


_RNG = random.Random(1505)
_EDGES = _edges(_N, 2 * _N, _RNG)
_PATTERNS = tuple(tuple(_RNG.random() < 0.1 for _ in range(_ROUNDS)) for _ in range(_PROGRAMS))


def _bfs_part() -> int:
    total = 0
    for source in range(_SOURCES):
        lists: dict[int, list[int]] = {u: [] for u in range(_N)}
        for e in _EDGES:
            u, v = tuple(e)
            lists[u].append(v)
            lists[v].append(u)
        adj = {u: tuple(sorted(vs)) for u, vs in lists.items()}
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += max(dist.values())
    return total


def _program(pattern: tuple[bool, ...]) -> Generator[int, "bool | None", int]:
    heard = 0
    for beep in pattern:
        feedback = yield 1 if beep else 0
        heard += feedback is True
    return heard


def _rounds_part() -> int:
    live = {u: _program(p) for u, p in enumerate(_PATTERNS)}
    actions = {u: next(gen) for u, gen in live.items()}
    total = 0
    while live:
        beepers = frozenset(u for u, a in actions.items() if a)
        heard: set[int] = set()
        for b in beepers:
            heard.update(((b + 1) % _PROGRAMS, (b - 1) % _PROGRAMS, (b * 7) % _PROGRAMS))
        heard -= beepers
        nxt = {}
        for u, gen in list(live.items()):
            try:
                nxt[u] = gen.send(None if u in beepers else u in heard)
            except StopIteration as stop:
                total += stop.value
                del live[u]
        actions = nxt
    return total


def probe() -> float:
    """Seconds one fixed probe task took."""
    start = time.perf_counter()
    _bfs_part()
    _rounds_part()
    return time.perf_counter() - start


class Timed(NamedTuple):
    result: Any
    host_s: float  # seconds the call took, probes excluded
    probe_s: float  # mean probe time before, during and after the call

    @property
    def nominal_s(self) -> float:
        """``host_s`` at the host speed where one probe takes NOMINAL_S."""
        return self.host_s * NOMINAL_S / self.probe_s


def timed(fn: Callable[..., Any], *args: Any) -> Timed:
    """Call ``fn(*args)`` with the probe sampled before, during and after."""
    samples = [probe()]
    paused = 0.0

    def on_alarm(signum: int, frame: Any) -> None:
        nonlocal paused
        start = time.perf_counter()
        samples.append(probe())
        paused += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        # Disarm before reading the clock: every probe then lies inside
        # [start, end] and ``paused`` subtracts exactly.
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    samples.append(probe())
    return Timed(result, end - start - paused, statistics.fmean(samples))
