"""Multi-broadcast with and without provenance, the common phase scheduler,
and the explicit-constant lower-bound floors.

Both variants run the same set-up (leader election, diameter estimation,
message-length determination) and then one primitive, iterative prefix
search (``_prefix_search``): per round, each source marks the child of its
known-prefix list that matches its own word in a 2k-wide indicator string,
the leader collects the OR, and broadcasts it back, doubling the
community's prefix knowledge.  The search runs first over IDs.  With
provenance it runs to full width and a final k*p-bit table wave ships the
messages in ID order; without provenance it stops as soon as the prefix
count exceeds the diameter estimate, and then the same search runs over
message bits, whose surviving prefixes after p rounds are exactly the
distinct messages.  If the ID search does not stop early, the table wave
ships the messages then too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Generator

from . import codec
from .engine import Graph, ProtocolError, ProtocolRecorder, simulate
from .waves import (
    ProtocolRun,
    _bounds,
    _cap,
    _checked_messages,
    _dtilde_bound,
    broadcast_value_phase,
    ceil_log2,
    collect_phase,
    collect_phase_len,
    diameter_phase,
    election_len,
    election_phase,
    estimate_len,
    msglen_phase,
    msglen_phase_len,
    wave_phase_len,
)

TASKS = ("broadcast", "mbProv", "mbNoProv")


@dataclass(frozen=True)
class PhaseSpan:
    name: str
    start_round: int
    length: int

    @property
    def end_round(self) -> int:
        return self.start_round + self.length - 1


def lower_bound(task: str, d: int, l: int, m: int, k: int) -> int:
    """Round floors with the explicit constants from the counting arguments.

    broadcast: max(ceil(D/2), ceil(log2 M)); with-provenance:
    ceil((D + k log2(LM/k))/8); without: ceil((D + k log2(M/k))/8) when
    M > k, else ceil((D + M)/4).  k=1 multi-broadcast reduces to broadcast,
    and M=1 without provenance needs no communication at all, so both are
    domain errors here.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; choose from {TASKS}")
    if min(d, l, m, k) < 0 or l < 1 or m < 1 or k < 1:
        raise ValueError("parameters must be positive (D may be 0)")
    if task == "broadcast":
        return max(math.ceil(d / 2), math.ceil(math.log2(m)))
    if k <= 1:
        raise ValueError("multi-broadcast floors assume k > 1")
    if task == "mbProv":
        return math.ceil((d + k * math.log2(l * m / k)) / 8)
    if m == 1:
        raise ValueError("without provenance the floor assumes M > 1")
    if m > k:
        return math.ceil((d + k * math.log2(m / k)) / 8)
    return math.ceil((d + m) / 4)


@lru_cache(maxsize=256)
def compute_schedule(
    dhat: int,
    lhat: int,
    dtilde: int,
    p: int,
    id_round_ks: tuple[int, ...] = (),
    final_k: int | None = None,
    msg_round_ks: tuple[int, ...] = (),
) -> tuple[PhaseSpan, ...]:
    """Pure phase timetable of a whole run with estimate ``dtilde`` and width ``p``.

    ``id_round_ks[i]`` is the prefix count k_i at the start of ID round
    i+1; ``msg_round_ks`` likewise for the message-prefix rounds of the
    no-provenance fallback; ``final_k`` schedules the closing table wave.
    Identical inputs yield identical schedules, which is the whole point,
    so every node of a run shares one cached tuple.
    """
    elect_width = ceil_log2(lhat)
    spans: list[PhaseSpan] = []
    cursor = 1

    def add(name: str, length: int) -> None:
        nonlocal cursor
        spans.append(PhaseSpan(name, cursor, length))
        cursor += length

    add("elect", election_len(elect_width, dhat))
    add("estimate", estimate_len(dtilde))
    add("msglen", msglen_phase_len(p, dtilde))
    for i, k_i in enumerate(id_round_ks, 1):
        add(f"id_collect_{i}", collect_phase_len(2 * k_i, dtilde))
        add(f"id_wave_{i}", wave_phase_len(2 * k_i, dtilde))
    if final_k is not None:
        add("table_collect", collect_phase_len(final_k * p, dtilde))
        add("table_wave", wave_phase_len(final_k * p, dtilde))
    for i, k_i in enumerate(msg_round_ks, 1):
        add(f"msg_collect_{i}", collect_phase_len(2 * k_i, dtilde))
        add(f"msg_wave_{i}", wave_phase_len(2 * k_i, dtilde))
    return tuple(spans)


def _indicator(prefixes: list[str], own: str) -> str:
    """2k-bit string with the single 1 naming own = some prefix + one bit."""
    parent, last = own[:-1], own[-1]
    j = prefixes.index(parent)
    bits = ["0"] * (2 * len(prefixes))
    bits[2 * j + (1 if last == "1" else 0)] = "1"
    return "".join(bits)


@lru_cache(maxsize=256)
def _expand(prefixes: tuple[str, ...], z: str) -> tuple[str, ...]:
    """The children px + b of prefix j with bit 2j + b of ``z`` set.  Every
    node of a round expands the same list by the same OR, so it is cached."""
    return tuple(px + b for j, px in enumerate(prefixes) for b in "01"
                 if z[2 * j + int(b)] == "1")


def _collect_and_share(
    is_leader: bool,
    dtilde: int,
    width: int,
    own_bits: str | None,
) -> Generator[Any, Any, str]:
    """Collect the OR of every node's ``own_bits`` at the leader, then wave
    it to every node; returns the OR."""
    z = yield from collect_phase(dtilde, width, own_bits, is_leader)
    return (yield from broadcast_value_phase(dtilde, width, z))


def _prefix_search(
    node: int, is_leader: bool, dtilde: int, word: str | None, width: int,
    ks: list[int], recorder: ProtocolRecorder, event: str, cap: float = math.inf,
) -> Generator[Any, Any, tuple[str, ...]]:
    """Iterative prefix search over ``width``-bit words, one bit per round.

    Each round a source marks the child of the known prefix list that its
    own ``word`` extends (a non-source passes None), the leader collects the
    OR of these 2k-bit indicators and waves it back, and every node expands
    its list.  The round's prefix count k is appended to ``ks`` and the new
    list is logged as ``event``.  Returns the surviving prefixes after
    ``width`` rounds, or as soon as more than ``cap`` survive."""
    prefixes: tuple[str, ...] = ("",)
    for i in range(1, width + 1):
        ks.append(len(prefixes))
        own = _indicator(prefixes, word[:i]) if word is not None else None
        z = yield from _collect_and_share(is_leader, dtilde, 2 * len(prefixes), own)
        prefixes = _expand(prefixes, z)
        if not 0 < len(prefixes) <= 2 * ks[-1]:
            raise ProtocolError("prefix count outside the doubling cap")
        recorder.log(event, node, round=i, value=prefixes)
        if len(prefixes) > cap:
            break
    return prefixes


def _mb_program(
    node: int,
    my_msg: str | None,
    dhat: int,
    lhat: int,
    provenance: bool,
    recorder: ProtocolRecorder,
) -> Generator[Any, Any, frozenset]:
    """One node's multi-broadcast; ``my_msg`` is None at a non-source.

    A source's table row is its message after ``rank * p`` zeros: the
    collection pads every node's bits to the table width."""
    leader = yield from election_phase(node, ceil_log2(lhat), dhat)
    is_leader = node == leader
    dtilde = yield from diameter_phase(is_leader)
    p = yield from msglen_phase(dtilde, len(my_msg or ""), is_leader)
    if my_msg is not None and len(my_msg) != p:
        raise ProtocolError("multi-broadcast needs uniform-width messages")
    id_width = leader.bit_length()
    my_id_bits = codec.fixed_width_bits(node, id_width) if my_msg is not None else None

    id_ks: list[int] = []
    msg_ks: list[int] = []
    final_k = None
    prefixes = yield from _prefix_search(
        node, is_leader, dtilde, my_id_bits, id_width, id_ks, recorder, "id_prefixes",
        math.inf if provenance else dtilde,
    )
    if provenance or len(prefixes) <= dtilde:
        ids = [codec.bits_to_int(px) for px in prefixes] if id_width else [node]
        final_k = k = len(ids)
        own_table = None if my_msg is None else "0" * (ids.index(node) * p) + my_msg
        table = yield from _collect_and_share(is_leader, dtilde, k * p, own_table)
        pairs = frozenset(
            (ids[j], table[j * p : (j + 1) * p]) for j in range(k)
        )
        result = pairs if provenance else frozenset(m for _, m in pairs)
    else:
        distinct = yield from _prefix_search(
            node, is_leader, dtilde, my_msg, p, msg_ks, recorder, "msg_prefixes"
        )
        result = frozenset(distinct)
    spans = compute_schedule(dhat, lhat, dtilde, p, tuple(id_ks), final_k, tuple(msg_ks))
    recorder.log("schedule", node, spans=spans)
    return result


def multi_broadcast(
    graph: Graph,
    sources: set[int],
    msgs: dict[int, str],
    dhat: int | None = None,
    lhat: int | None = None,
    provenance: bool = True,
    max_rounds: int | None = None,
) -> ProtocolRun:
    """Run the full multi-broadcast stack; every node outputs the result set.
    The run's events are in ``report.extras["recorder"]``."""
    sources = set(sources)
    p = _checked_messages(graph, sources, msgs)
    if any(len(m) != p for m in msgs.values()):
        raise ValueError(
            "multi-broadcast treats messages as fixed-width words; "
            "provide messages of one common width"
        )
    dhat, lhat = _bounds(graph, dhat, lhat)
    recorder = ProtocolRecorder()
    programs = {u: _mb_program(u, msgs.get(u), dhat, lhat, provenance, recorder)
                for u in graph.nodes}

    # Every prefix count is at most k, so this timetable outlasts the run.
    k = len(sources)
    longest = compute_schedule(dhat, lhat, _dtilde_bound(graph), p,
                               (k,) * graph.max_id.bit_length(), k, (k,) * p)
    trace, report = simulate(graph, programs, _cap(longest[-1].end_round, max_rounds))

    if provenance:
        expected: frozenset = frozenset((s, msgs[s]) for s in sources)
    else:
        expected = frozenset(msgs.values())
    ok = all(report.outputs[u] == expected for u in graph.nodes)
    report.check("mb_output_exactness", 0 if ok else 1, 0)
    schedules = [e[3]["spans"] for e in recorder.of_kind("schedule")]
    schedule = schedules[0] if schedules else ()
    agreed = bool(schedules) and all(s == schedule for s in schedules)
    report.check("mb_schedule_agreement", 0 if agreed else 1, 0)
    end_round = schedule[-1].end_round if schedule else 0
    report.check("mb_schedule_exact", abs(report.total_rounds - end_round), 0)
    report.extras.update(
        dhat=dhat,
        lhat=lhat,
        recorder=recorder,
        schedule=schedule,
    )
    return ProtocolRun(trace, report)

