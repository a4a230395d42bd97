"""Workload definitions: seeded instance set-up, one timed execution, and
the exact per-instance facts the correctness checks and counters use.

Every name the benchmark calls is looked up on its module at call time
(``graphs.generate``, ``engine.diameter``, ``waves.broadcast``, ...), so a
traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, NamedTuple

from beepsim import bounds, engine, graphs, multicast, traversal, waves


class Plan(NamedTuple):
    protocol: str
    family: str
    n: int
    edge_p: float | None = None  # None: the generator's default density
    k: int = 1  # sources (collect, msglen, multi-broadcast)
    bits: int = 4  # message width (the longest one for msglen)


_MB = [
    Plan(proto, "erConnected", 150, edge_p, k, bits)
    for edge_p in (0.1, 0.2)  # mean degree about 15 and 30
    for k, bits in ((2, 2), (4, 3), (8, 4), (16, 6))
    for proto in ("mb-prov", "mb-noprov")
]

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, list[Plan]] = {
    "sweep-sparse-large": [
        Plan("broadcast", "erConnected", 1000),
        Plan("broadcast", "path", 1000),
        Plan("collect", "erConnected", 400, k=8, bits=6),
        Plan("msglen", "erConnected", 400, k=8, bits=8),
    ],
    "traversal-sparse": [
        Plan("dfs", "erConnected", 100),
        Plan("dfs", "erConnected", 150),
        Plan("gossip", "erConnected", 100),
    ],
    "multicast-scheduled": [
        Plan("elect", "erConnected", 150, 0.1),
        Plan("elect", "erConnected", 150, 0.2),
        *_MB,
    ],
}

RUNNER_MODULE = {
    "broadcast": "waves",
    "collect": "waves",
    "msglen": "waves",
    "elect": "waves",
    "dfs": "traversal",
    "gossip": "traversal",
    "mb-prov": "multicast",
    "mb-noprov": "multicast",
}


@dataclass(frozen=True)
class Instance:
    plan: Plan
    graph: engine.Graph
    source: int  # broadcast source; the leader otherwise
    msgs: tuple[tuple[int, str], ...]

    @property
    def messages(self) -> dict[int, str]:
        return dict(self.msgs)


def _bits(rng: random.Random, width: int) -> str:
    return "".join(rng.choice("01") for _ in range(width))


def set_up(workload: str, seed: int, small: bool = False) -> list[Instance]:
    """Generate every graph, source set and message of one workload."""
    rng = random.Random(seed)
    out = []
    for plan in WORKLOADS[workload]:
        if small:  # the self-test's scaled-down instances
            n = max(30, plan.n // 5)
            plan = plan._replace(n=n, edge_p=None, k=min(plan.k, n // 3))
        spec = graphs.GraphSpec(plan.family, plan.n, rng.randrange(1 << 30), plan.edge_p)
        g = graphs.generate(spec)
        source = g.max_id
        msgs: dict[int, str] = {}
        if plan.protocol == "broadcast":
            # A least-degree node: a path endpoint, so the wave depth (and
            # the simulated round count) does not depend on the draw.
            adj = g.adjacency()
            source = min(g.nodes, key=lambda u: (len(adj[u]), u))
            msgs = {source: _bits(rng, plan.bits)}
        elif plan.protocol == "gossip":
            msgs = {u: _bits(rng, plan.bits) for u in g.nodes}
        elif plan.protocol in ("collect", "mb-prov", "mb-noprov"):
            msgs = {u: _bits(rng, plan.bits) for u in sorted(rng.sample(g.nodes, plan.k))}
        elif plan.protocol == "msglen":
            msgs = {
                u: _bits(rng, rng.randint(1, plan.bits))
                for u in sorted(rng.sample(g.nodes, plan.k))
            }
        out.append(Instance(plan, g, source, tuple(sorted(msgs.items()))))
    return out


def run_protocol(inst: Instance) -> waves.ProtocolRun:
    """Call the public runner exactly as ``beepsim run`` would."""
    g, proto, msgs = inst.graph, inst.plan.protocol, inst.messages
    if proto == "broadcast":
        return waves.broadcast(g, inst.source, msgs[inst.source])
    if proto == "elect":
        return waves.elect_leader(g)
    if proto == "collect":
        return waves.collect_messages(g, inst.source, set(msgs), msgs)
    if proto == "msglen":
        return waves.get_message_length(g, inst.source, set(msgs), msgs)
    if proto == "dfs":
        return traversal.dfs(g)
    if proto == "gossip":
        return traversal.gossip(g, msgs)
    return multicast.multi_broadcast(g, set(msgs), msgs, provenance=proto == "mb-prov")


@dataclass
class Row:
    """The row facts ``beepsim bench`` computes for one run."""

    rounds: int
    upper: float
    floor: int


def row_facts(inst: Instance, run: waves.ProtocolRun) -> Row:
    g, proto, msgs = inst.graph, inst.plan.protocol, inst.messages
    d = engine.diameter(g)
    p, k = 4, 1  # the bench defaults for protocols that carry no payload
    if msgs:
        p = max(len(m) for m in msgs.values())
    if proto in ("gossip", "collect", "msglen", "mb-prov", "mb-noprov"):
        k = len(msgs)
    lhat = run.report.extras.get("lhat", 1 << g.max_id.bit_length())
    upper = bounds.upper_rounds(proto, g.n, d, p, lhat, None, k)
    floor = bounds.floor_rounds(proto, d, g.label_range, 2**p, k)
    return Row(run.report.total_rounds, upper, floor)


class _Sha256Sink:
    """File-like sink for ``write_trace`` that only hashes what it gets."""

    def __init__(self) -> None:
        self.h = hashlib.sha256()

    def write(self, text: str) -> int:
        self.h.update(text.encode())
        return len(text)


def trace_digest(trace: engine.Trace) -> str:
    sink = _Sha256Sink()
    engine.write_trace(trace, sink)  # type: ignore[arg-type]
    return sink.h.hexdigest()


def check(inst: Instance, run: waves.ProtocolRun, row: Row) -> str | None:
    """Post-run correctness checks; returns why the run failed, or None."""
    if not run.report.all_passed:
        bad = [c.name for c in run.report.bound_checks if not c.passed]
        return f"oracle checks failed: {bad}"
    if row.rounds < row.floor:
        return f"{row.rounds} rounds below the floor {row.floor}"
    try:
        engine.verify_reception(run.trace, inst.graph)
    except engine.SimulationError as err:
        return f"reception check: {err}"
    return None


_SPAN_INDEX = re.compile(r"_\d+$")


def exact_facts(inst: Instance, run: waves.ProtocolRun, row: Row) -> dict[str, Any]:
    """Simulated-side counts of one run: they must repeat exactly."""
    trace = run.trace
    facts: dict[str, Any] = {
        "n": inst.graph.n,
        "rounds": row.rounds,
        "engine.node_rounds": inst.graph.n * row.rounds,
        "engine.trace_records": len(trace),
        "engine.beeps": sum(len(r.beepers) for r in trace),
        "engine.heard": sum(len(r.heard) for r in trace),
    }
    recorder = run.report.extras.get("recorder")
    if recorder is not None and inst.plan.protocol in ("dfs", "gossip"):
        kinds = Counter(e[0] for e in recorder.events)
        facts["traversal.token_moves"] = kinds["token_acquire"] - 1
        facts["traversal.words_overheard"] = kinds["word"]
        facts["traversal.gossip_decodes"] = kinds["gossip_decode"]
    for span in run.report.extras.get("schedule", ()):
        name = "multicast.rounds." + _SPAN_INDEX.sub("", span.name)
        facts[name] = facts.get(name, 0) + span.length
    facts["upper_ratio"] = row.rounds / row.upper
    facts["floor_margin"] = row.rounds - row.floor
    facts["digest"] = trace_digest(trace)
    return facts

