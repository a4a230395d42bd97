"""Round-synchronous beep-model simulation kernel.

Each round every live node either beeps or listens; a listener hears a
beep iff at least one neighbor beeped that same round, with no sender
identification (OR reception).  A beeping node learns nothing that round.

Node programs are Python generators: they yield an action for the current
round and receive back what they heard (True/False for listeners, None for
beepers).  A program terminates by returning; the return value is its
terminal output.  The kernel is single-threaded and bit-deterministic.

A program that only listens for the next beep yields WAIT (or
``wait(until)``) instead of one LISTEN per round.  The kernel then resumes it
only in the round it hears a beep, or after the deadline round, so each round
costs work for the nodes that act or hear and not for every live node.  A
sleeping node is still a listener: reception and the trace are unchanged.

A program that only relays a beep wave yields ``Echo(until, gate)``.  Until
round ``until`` the kernel beeps for it in round r + 1 iff it heard a beep in
round r, r is ``gate`` mod 3 (any r if ``gate`` is None), and it did not beep
in round r - 1: one bitset rule for all echoing nodes per round.  The node is
resumed after round ``until`` as after a LISTEN or BEEP.

In the armed form the node sleeps like WAIT until the round a in which it
first hears a beep, relays that beep in round a + 1 whatever it did in round
a - 1, and then echoes by the rule.  Its window is read as SLOT_PERIOD-round
slots from round a, slot q ending in round a + 3q - 1.  It has three forms.
``Echo.armed()`` ends at the slot that ends its codeword or shows it
malformed: every round r, one ``codec.word_step`` moves all such open
readers whose slots end in rounds = r mod 3 on by the OR of the last three
heard masks.  ``Echo.armed(until=until)`` and ``Echo.armed(length, until)``
relay through their phase end ``until`` only and are resumed once after it,
armed or not; the first one's window runs to ``until``, the second one's
ends in round a + length and raises if that passes ``until``.  A length
without a phase end raises.  ``Echo.slots`` reads the node's word back from
the trace, once for the nodes armed in one round that end in one round.

A ``Trace`` holds a run's rounds as one list of (beepers, hearers) pairs
of int bitsets.  Node i is ``graph.nodes[i]``, the i-th smallest label: bit
i set means node i is in the set.  A round's reception is the OR of its
beepers' neighbour masks less the beepers, worked out once per distinct
beeper set in a run, and every round with those beepers holds that one
pair.  ``verify_reception`` and ``write_trace`` read the pairs, each
distinct pair once.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Generator, Iterable, Iterator, Mapping, TextIO

from . import codec

# Per-round node action.  Plain ints keep the hot send loop cheap.
Action = int
LISTEN: Action = 0
BEEP: Action = 1
# Listen until a neighbour beeps; the node resumes with True in that round.
WAIT: Action = 2

SLOT_PERIOD = 3  # rounds per codeword position of a beep wave
_NO_DATA: dict[str, Any] = {}  # the data of every recorder event logged without any

# A node program yields Actions and receives heard-feedback each round.
NodeProgram = Generator[Action, "bool | None", Any]


class SimulationError(RuntimeError):
    pass


class ProtocolError(SimulationError):
    """A node program observed something its protocol forbids.

    Programs raise it with a reason only; ``simulate`` fills in the node
    whose program raised it and the round the kernel was running.
    """

    def __init__(self, reason: str):
        self.reason = reason
        self.node: int | None = None
        self.round: int | None = None
        super().__init__(reason)

    def __str__(self) -> str:
        if self.node is None:
            return self.reason
        return f"node {self.node}, round {self.round}: {self.reason}"


class SimulationTimeout(SimulationError):
    """maxRounds elapsed before every program terminated.

    Carries the partial ``Trace``, the set of still-running nodes and ``phases``,
    which maps each of them to the innermost generator it is suspended in.
    """

    def __init__(self, max_rounds: int, trace: "Trace", programs: dict[int, NodeProgram]):
        self.max_rounds = max_rounds
        self.trace = trace
        self.live = set(programs)
        self.phases: dict[int, str] = {}
        for u, program in programs.items():  # follow each yield from chain to its end
            name = type(program).__name__
            while hasattr(program, "gi_code"):
                name, program = program.gi_code.co_name, program.gi_yieldfrom
            self.phases[u] = name
        super().__init__(
            f"{len(self.live)} node(s) still running after {max_rounds} rounds: "
            f"{sorted(self.live)[:8]}{'...' if len(self.live) > 8 else ''}; "
            f"in {', '.join(sorted(set(self.phases.values())))}"
        )


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph with unique non-negative node labels,
    stored as its adjacency: ``adj`` maps every node to the ascending tuple
    of its neighbours."""

    nodes: tuple[int, ...]
    adj: Mapping[int, tuple[int, ...]] = field(hash=False)
    label_range: int

    @staticmethod
    def from_edges(
        edges: Iterable[tuple[int, int]],
        nodes: Iterable[int] | None = None,
        label_range: int | None = None,
    ) -> "Graph":
        adj: dict[int, list[int]] = {u: [] for u in nodes} if nodes is not None else {}
        seen_edges: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                raise ValueError(f"duplicate edge {u}-{v}")
            seen_edges.add(key)
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        if not adj:
            raise ValueError("graph has no nodes")
        order = sorted(adj)
        if order[0] < 0:
            raise ValueError("node labels must be non-negative")
        lr = label_range if label_range is not None else order[-1] + 1
        if lr <= order[-1]:
            raise ValueError(f"label range {lr} does not cover max id {order[-1]}")
        frozen = MappingProxyType({u: tuple(sorted(adj[u])) for u in order})
        g = Graph(tuple(order), frozen, lr)
        if not g.is_connected():
            raise ValueError("graph is not connected")
        return g

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def max_id(self) -> int:
        return self.nodes[-1]

    @property
    def edges(self) -> frozenset[frozenset[int]]:
        """Every edge as the frozenset of its two ends, derived from ``adj``."""
        return frozenset(
            frozenset((u, v)) for u, vs in self.adj.items() for v in vs if u < v
        )

    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        return self.adj

    def is_connected(self) -> bool:
        return len(distances(self, self.nodes[0])) == self.n

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Node i's neighbours as an int bitset, bit j for ``nodes[j]``.
        Built by the first ``simulate`` on this graph and kept."""
        index = {u: i for i, u in enumerate(self.nodes)}
        adj = self.adjacency()
        masks = []
        for u in self.nodes:
            mask = 0
            for v in adj[u]:
                mask |= 1 << index[v]
            masks.append(mask)
        return tuple(masks)


def distances(graph: Graph, source: int) -> dict[int, int]:
    """Exact BFS hop distances from ``source`` (the protocol oracle)."""
    adj = graph.adjacency()
    if source not in adj:
        raise ValueError(f"unknown source node {source}")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def diameter(graph: Graph) -> int:
    """Max eccentricity over all nodes (0 for a single-node graph).

    A double sweep bounds D from below: a BFS from node 0 finds a far node
    a, and a BFS from a gives ``lb = ecc(a)`` and a far node b.  Let c be the
    node ``lb // 2`` steps from b on a shortest a-b path, and call x a
    candidate if ``2 d(c, x) > lb``.  Lemma: if ``d(x, y) > lb`` then
    ``d(c, x) + d(c, y) >= d(x, y) > lb``, so x or y is a candidate.  Hence
    D is the larger of lb and the largest eccentricity among the candidates
    other than a, whose eccentricity is lb.

    The candidates advance together: ``reach[i]`` is the int bitset of the
    candidates within d hops of node i, and the next level ORs in the
    level-d sets of i's neighbours.  Every set holds every candidate first
    at d = the candidates' largest eccentricity.
    """
    adj = graph.adjacency()
    index = {u: i for i, u in enumerate(graph.nodes)}
    nbrs = [[index[v] for v in adj[u]] for u in graph.nodes]

    def bfs(source: int) -> tuple[list[int], int]:
        """Hop distances from node ``source`` and the last node reached."""
        dist = [-1] * graph.n
        dist[source] = 0
        order = [source]
        for i in order:
            for j in nbrs[i]:
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    order.append(j)
        return dist, order[-1]

    dist, a = bfs(0)
    if -1 in dist:
        raise ValueError("graph is not connected")
    dist, b = bfs(a)
    lb = dist[b]
    c = b
    for _ in range(lb // 2):
        c = next(j for j in nbrs[c] if dist[j] == dist[c] - 1)
    dist, _ = bfs(c)
    full = sum(1 << i for i in range(graph.n) if 2 * dist[i] > lb and i != a)
    reach = [(1 << i) & full for i in range(graph.n)]
    todo = [i for i in range(graph.n) if reach[i] != full]
    d = 0
    while todo:
        d += 1
        level = reach[:]
        for i in todo:
            r = level[i]
            for j in nbrs[i]:
                r |= level[j]
            reach[i] = r
        todo = [i for i in todo if reach[i] != full]
    return max(lb, d)


# The round ``simulate`` is running: 0 while it primes the programs, r while
# it hands them round r's reception.  Only the kernel writes it.
_round = 0


def now() -> int:
    """The round whose reception the running program was just handed (0
    before round 1); its next action is for round ``now() + 1``."""
    return _round


def wait(until: int) -> Action:
    """WAIT with a deadline: listen until a neighbour beeps or round
    ``until`` has passed.  The node resumes with True in the round it hears a
    beep, else with False after round ``until``.  Encoded as WAIT + until."""
    return WAIT + until


class Echo:
    """Relay action: the kernel acts for the node by the relay rule (module
    docstring) in every round after the one it yields this in, up to and
    including round ``until``, and resumes it after round ``until``.
    ``Echo.armed`` starts in the round the node is armed in instead."""

    __slots__ = ("until", "gate", "length", "end", "_view")

    def __init__(self, until: int, gate: int | None = None):
        self.until = until
        self.gate = gate
        self.length: int | None = None
        self.end: int | None = None  # an armed echo's last window round, set by simulate
        # (node bit, its _Arming group), set by simulate when it arms the node
        self._view: tuple[int, _Arming] | None = None

    @classmethod
    def armed(cls, length: int | None = None, until: int | None = None) -> "Echo":
        """The armed form (module docstring); ``until`` is its phase end, or 0."""
        if length is not None and length <= 0:
            raise ProtocolError(f"armed echo length must be positive, got {length}")
        if length and not until:
            raise ProtocolError(f"armed echo length {length} without a phase end")
        echo = cls(until or 0)
        echo.length = length or 0
        return echo

    def slots(self) -> str:
        """An ended armed echo's window, one '1' per slot with a beep heard,
        else '0', read back from the trace."""
        if self.end is None:
            raise ProtocolError("slots() of an echo that was never armed")
        if 0 < self.until < self.end:
            raise ProtocolError(f"armed window end {self.end} passes its phase end {self.until}")
        b, group = self._view
        return group.read(self.end, b)


class _Arming:
    """The nodes armed in round ``start``, and ``last``, the last readback:
    its end round, its slot masks over the members and their shared word
    ('' if the members' words differ)."""

    __slots__ = ("start", "members", "trace", "last")

    def __init__(self, start: int, members: int, trace: Trace) -> None:
        self.start, self.members, self.trace, self.last = start, members, trace, (0, [], "")

    def read(self, end: int, b: int) -> str:
        """Member ``b``'s window that ended in round ``end``, one bit per slot
        from ``start``; a slot that ``end`` cuts short ORs the rounds up to it."""
        last, masks, word = self.last
        if last != end:
            members = self.members
            # three rounds a slot: zip takes each pair from one iterator in turn
            pairs = iter(self.trace.rounds[self.start - 1:end] + [(0, 0), (0, 0)])
            masks = [(x[1] | y[1] | z[1]) & members for x, y, z in zip(pairs, pairs, pairs)]
            shared = set(masks) <= {0, members}
            word = "".join(["1" if m else "0" for m in masks]) if shared else ""
            self.last = (end, masks, word)
        return word or "".join(["1" if m & b else "0" for m in masks])


@dataclass
class ProtocolRecorder:
    """Optional side-channel protocols use to expose internal events to
    invariant tests (token tenures, decoded words, per-node schedules).

    Events are (event, node, round, data) tuples; ``round`` is the round the
    kernel was running when the node program logged the event.  Events logged
    without data share one empty dict: no reader may mutate an event's data."""

    events: list[tuple] = field(default_factory=list)

    def log(self, event: str, node: int, **data: Any) -> None:
        self.events.append((event, node, _round, data or _NO_DATA))

    def of_kind(self, event: str) -> list[tuple]:
        return [e for e in self.events if e[0] == event]


class RoundRecord:
    """One round of a trace as label sets, built on access from its bitset
    pair: ``beepers`` the nodes that beeped, ``heard`` the listeners that
    heard a beep.  ``Trace`` iteration hands these out; their one reader is
    perfbench's ``exact_facts``, which counts beeps and hearers."""

    __slots__ = ("_beeps", "_heard", "_nodes")

    def __init__(self, beep_mask: int, heard_mask: int, nodes: tuple[int, ...]):
        self._beeps = beep_mask
        self._heard = heard_mask
        self._nodes = nodes

    @property
    def beepers(self) -> frozenset[int]:
        return frozenset(_labels(self._beeps, self._nodes))

    @property
    def heard(self) -> frozenset[int]:
        return frozenset(_labels(self._heard, self._nodes))


def _indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending.  Taking the top
    bit off first keeps every step cheap on a wide, sparse mask."""
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return out


def _labels(mask: int, nodes: tuple[int, ...]) -> list[int]:
    """The labels a node bitset stands for, ascending."""
    return [nodes[i] for i in _indices(mask)] if mask else []


class Trace:
    """A run's rounds over the node tuple ``nodes``: ``rounds[k]`` is the
    (beepers, hearers) bitset pair of round k + 1, shared by every round
    with those beepers.  Two traces are equal when their nodes and rounds
    are."""

    __slots__ = ("nodes", "rounds")

    def __init__(self, nodes: tuple[int, ...]) -> None:
        self.nodes = nodes
        self.rounds: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self) -> Iterator[RoundRecord]:
        nodes = self.nodes
        return (RoundRecord(beeps, heard, nodes) for beeps, heard in self.rounds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.nodes, self.rounds) == (other.nodes, other.rounds)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    measured: float
    bound: float
    passed: bool


@dataclass
class RunReport:
    outputs: dict[int, Any] = field(default_factory=dict)
    total_rounds: int = 0
    bound_checks: list[BoundCheck] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, measured: float, bound: float, lower: bool = False) -> None:
        passed = measured >= bound if lower else measured <= bound
        self.bound_checks.append(BoundCheck(name, measured, bound, passed))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.bound_checks)


def simulate(
    graph: Graph,
    programs: dict[int, NodeProgram],
    max_rounds: int,
) -> tuple[Trace, RunReport]:
    """Run programs round-synchronously until all terminate.

    Raises SimulationTimeout (carrying the partial trace) if any program is
    still live after ``max_rounds`` rounds.
    """
    if max_rounds <= 0:
        raise ValueError("max_rounds must be positive")
    missing = set(graph.nodes) - set(programs)
    if missing:
        raise ValueError(f"nodes without a program: {sorted(missing)}")

    nodes = graph.nodes
    bits = [1 << i for i in range(len(nodes))]
    reach = graph.neighbour_masks
    report = RunReport()
    trace = Trace(nodes)
    rounds = trace.rounds

    # Node i is nodes[i], and a set of nodes is an int with bit i for node i,
    # so the nodes a round's beeps reach are the OR of the beepers' ``reach``
    # masks.  Round 0 primes every program with None, as if it had beeped,
    # to get its round-1 action; a program may terminate there, contributing
    # an output but no rounds.  Each round resumes, in ascending node order,
    # the nodes in ``step``: those that did not wait last round, the waiting
    # nodes that heard a beep and those whose deadline has passed.
    # ``waiting`` is the set of sleeping nodes and ``until[i]`` node i's
    # deadline (0 for none, and for every node that is not waiting); ``due``
    # lists the nodes whose deadline is each round, and keeps stale entries
    # of nodes that woke early until that round comes.  ``echo_at[k]`` holds
    # the echoing nodes that may relay a beep heard in a round r = k mod 3,
    # ``echoing`` all of them; they sleep on ``until`` and ``due`` too.
    # ``armed`` holds the nodes asleep in an armed echo (``arming[i]``, kept
    # until it is armed, or until its word ends if it has no phase end; a
    # node's next armed echo replaces one never armed) and ``fresh`` those
    # armed in the last round, whose relay is unconditional unless they woke
    # in that round; they share one ``_Arming`` readback group.  An armed
    # echo with a phase end sleeps on ``until`` and ``due`` from its yield.
    # ``reading`` holds the open ones without one, and ``words[c]`` the
    # grammar state of those whose slots end in rounds = c mod 3
    # (``codec.word_step``).
    # ``heard_of`` maps each beeper set seen in this run (BEEP actions, echo
    # relays and ``fresh`` relays) to the pair of it and its heard set, so
    # each is ORed once and every round with it appends that same pair.
    global _round
    live: dict[int, NodeProgram] = {i: programs[u] for i, u in enumerate(nodes)}
    step: list[int] = list(live)
    beeps = (1 << len(nodes)) - 1
    heard = 0
    heard_of = {0: (0, 0)}
    waiting = 0
    echoing = 0
    echo_at = [0, 0, 0]
    armed = fresh = 0
    arming: dict[int, Echo] = {}
    reading = 0
    words = [[0] * 5 for _ in range(3)]
    until = [0] * len(nodes)
    due: dict[int, list[int]] = {}
    round_no = 0
    try:
        while True:
            _round = round_no
            sent = 0
            awake: list[int] = []
            for i in step:
                b = bits[i]
                try:
                    action = live[i].send(None if beeps & b else heard & b != 0)
                    if action == LISTEN:
                        awake.append(i)
                    elif action == BEEP:
                        awake.append(i)
                        sent |= b
                    elif action == WAIT:
                        waiting |= b
                    elif type(action) is Echo and action.length is not None:
                        armed |= b
                        arming[i] = action
                        if action.until:
                            deadline = until[i] = _deadline(action, round_no)
                            due.setdefault(deadline, []).append(i)
                    else:
                        deadline = until[i] = _deadline(action, round_no)
                        if type(action) is Echo:
                            echoing |= b
                            for k in (0, 1, 2) if action.gate is None else (action.gate % 3,):
                                echo_at[k] |= b
                        else:
                            waiting |= b
                        due.setdefault(deadline, []).append(i)
                except StopIteration as stop:
                    report.outputs[nodes[i]] = stop.value
                    del live[i]
                except ProtocolError as err:
                    err.node, err.round = nodes[i], round_no
                    raise
            if echoing:
                relays = echo_at[round_no % 3] & heard & ~(rounds[-2][0] if round_no > 1 else 0)
                sent |= relays | fresh
            if not live:
                break
            if round_no >= max_rounds:
                raise SimulationTimeout(max_rounds, trace, {nodes[i]: p for i, p in live.items()})
            round_no += 1
            pair = heard_of.get(sent)
            if pair is None:
                reached = 0
                for i in _indices(sent):
                    reached |= reach[i]
                pair = heard_of[sent] = (sent, reached & ~sent)
            beeps, heard = pair
            rounds.append(pair)
            woken = waiting & heard
            fresh = armed & heard
            if fresh:
                armed ^= fresh
                echoing |= fresh
                echo_at = [m | fresh for m in echo_at]
                group = _Arming(round_no, fresh, trace)
                new = 0
                for i in _indices(fresh):
                    echo = arming.pop(i)
                    echo._view = (bits[i], group)
                    if echo.until:
                        echo.end = round_no + echo.length if echo.length else echo.until
                    else:
                        arming[i] = echo
                        new |= bits[i]
                if new:
                    reading |= new
                    words[(round_no + 2) % 3][0] |= new
            if reading:
                state = words[round_no % 3]
                if state[0] or state[1] or state[2] or state[3]:
                    stop = codec.word_step(state, heard | rounds[-2][1] | rounds[-3][1])
                    if stop:
                        reading ^= stop
                        woken |= stop
                        for i in _indices(stop):
                            arming.pop(i).end = round_no
            for i in due.pop(round_no, ()):
                if until[i] == round_no:
                    woken |= bits[i]
            if woken:
                waiting &= ~woken
                fresh &= ~woken
                armed &= ~woken
                if echoing & woken:
                    echoing &= ~woken
                    echo_at = [m & ~woken for m in echo_at]
                for i in _indices(woken):
                    until[i] = 0
                    awake.append(i)
                awake.sort()
            step = awake
    finally:
        _round = 0

    report.total_rounds = round_no
    return trace, report


def _deadline(action: Any, round_no: int) -> int:
    """The deadline round of a ``wait(until)`` or ``Echo`` action.  Any other
    action that is not LISTEN, BEEP or WAIT, and a deadline that is not after
    the current round, is invalid."""
    if type(action) is Echo:
        until = action.until
    elif type(action) is int and action > WAIT:
        until = action - WAIT
    else:
        raise ProtocolError(f"invalid action {action!r}")
    if until <= round_no:
        raise ProtocolError(f"wait deadline {until} is not after round {round_no}")
    return until


def verify_reception(trace: Trace, graph: Graph) -> None:
    """Check that ``trace`` is over ``graph``'s nodes and that each round's
    heard set is the OR-reception of its beepers, re-derived from adjacency;
    raises on any mismatch, naming the first bad round.

    A round is bad exactly when its pair is, so each distinct pair is
    checked once, at its first round, in the order the pairs first occur."""
    nodes = graph.nodes
    if trace.nodes != nodes:
        raise SimulationError("trace indexes other nodes than the graph")
    bit = {u: 1 << i for i, u in enumerate(nodes)}
    adj = graph.adjacency()
    reach = []
    for u in nodes:
        mask = 0
        for v in adj[u]:
            mask |= bit[v]
        reach.append(mask)
    first: dict[tuple[int, int], int] = {}
    for round_no, pair in enumerate(trace.rounds, 1):
        first.setdefault(pair, round_no)
    for (beeps, heard), round_no in first.items():
        if (beeps | heard) >> len(nodes):
            raise SimulationError(
                f"round {round_no}: record has node bits past the graph's {len(nodes)} nodes")
        if beeps & heard:
            raise SimulationError(
                f"round {round_no}: beeping node(s) {_labels(beeps & heard, nodes)} "
                "carry a heard flag"
            )
        expected = 0
        for i in _indices(beeps):
            expected |= reach[i]
        expected &= ~beeps
        if expected != heard:
            raise SimulationError(
                f"round {round_no}: heard set {_labels(heard, nodes)} != OR-reception "
                f"{_labels(expected, nodes)}"
            )


# ---------------------------------------------------------------------------
# External formats: edge-list graph files and line-delimited trace records.

def write_graph(graph: Graph, fh: TextIO) -> None:
    fh.write(f"n {graph.n}\n")
    for u in graph.nodes:
        if not graph.adj[u]:  # only the node of a one-node graph
            fh.write(f"{u}\n")
    for e in sorted(tuple(sorted(edge)) for edge in graph.edges):
        fh.write(f"{e[0]} {e[1]}\n")


def read_graph(fh: TextIO) -> Graph:
    header = fh.readline().split()
    if len(header) != 2 or header[0] != "n":
        raise ValueError("graph file must start with a 'n <count>' header line")
    if not header[1].isdecimal():
        raise ValueError(f"line 1: header count {header[1]!r} is not a number")
    count = int(header[1])
    edges: list[tuple[int, int]] = []
    nodes: set[int] = set()
    for number, line in enumerate(fh, 2):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) > 2 or not all(tok.isdecimal() for tok in tokens):
            # a line is one edge "u v" or one lone node "u"
            raise ValueError(f"line {number}: expected 'u v' or 'u', got {line!r}")
        ends = [int(tok) for tok in tokens]
        nodes.update(ends)
        if len(ends) == 2:
            edges.append((ends[0], ends[1]))
    if len(nodes) != count:
        raise ValueError(f"header says {count} nodes, edge list mentions {len(nodes)}")
    return Graph.from_edges(edges, nodes=nodes)


def write_trace(trace: Trace, fh: TextIO) -> None:
    """One JSON object per round: its number, beepers and heard labels."""
    nodes = trace.nodes
    # Each distinct pair's labels are rendered once: the object's text after
    # its opening brace, written after the round number.
    rest: dict[tuple[int, int], str] = {}
    for round_no, pair in enumerate(trace.rounds, 1):
        text = rest.get(pair)
        if text is None:
            beeps, heard = pair
            text = rest[pair] = json.dumps({"beepers": _labels(beeps, nodes),
                                            "heard": _labels(heard, nodes)})[1:]
        fh.write(f'{{"round": {round_no}, {text}\n')
