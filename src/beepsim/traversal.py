"""Token-based distributed depth-first search and pipelined gossip.

DFS runs entirely token-locally: the active node exchanges fixed-format
control words with its neighbors at one round per codeword bit (no relay
framing is needed since every participant is adjacent).  Presence votes and
ID-bit bids are two-round ``11`` pulses: a lone pulse overheard two hops
away malforms immediately in a stream decoder, which is what keeps
bystanders from ever assembling a phantom control word.  Listeners decode
the codec's codewords in their own loops, a payload pair per two rounds, and
gossip's waves are ``waves.relay_decode`` relays.  Since every word's length
follows from the reference DFS tree, ``dfs_round_count`` and
``gossip_round_count`` give a run's exact round count.

Control codebook (payload layouts inside one self-delimiting codeword):

    000                       child-acknowledge (probe for unvisited)
    001                       child-search (start ID bidding)
    010 / 011                 bit verdict 0 / 1
    100 sender target count   token handoff  (IDs fixed-width, count minimal)
    101 sender count          count returned to parent

Global termination: visited nodes cannot locally rule out the token's
return, so the root announces completion with an all-beep burst longer than
any 1-run a control exchange can produce; each node re-broadcasts the burst
once, flooding the signal in O(K) rounds per hop.  Gossip then runs the
count broadcast and the pipelined per-node waves on top of this: a node
starts its own wave three rounds after decoding its predecessor's message,
which provably keeps consecutive waves from ever overlapping in anyone's
decoder window.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Generator, Mapping

from . import codec
from .engine import (
    BEEP,
    LISTEN,
    WAIT,
    Graph,
    ProtocolError,
    ProtocolRecorder,
    distances,
    now,
    simulate,
)
from .graphs import reference_dfs
from .waves import (
    Phase,
    ProtocolRun,
    _bounds,
    _cap,
    _checked_messages,
    _leader,
    await_quiet,
    ceil_log2,
    codeword_rounds,
    election_phase,
    election_len,
    idle_until,
    relay_decode,
    source_wave_phase,
)

OPCODES = {
    "CHILD_ACK": "000",
    "CHILD_SEARCH": "001",
    "ACK0": "010",
    "ACK1": "011",
    "HANDOFF": "100",
    "RETURN": "101",
}
_KIND_OF = {v: k for k, v in OPCODES.items()}

ARM_SILENCE = 4  # silent rounds between the last flood burst and the count wave


def flood_threshold(bit_width: int) -> int:
    """Beep-burst length strictly above any audible control-word 1-run."""
    return 6 * bit_width + 16


def control_word(kind: str, bit_width: int = 0, sender: int | None = None,
                 target: int | None = None, count: int | None = None) -> str:
    payload = OPCODES[kind]
    if kind == "HANDOFF":
        payload += codec.fixed_width_bits(sender, bit_width)
        payload += codec.fixed_width_bits(target, bit_width)
        payload += codec.int_to_bits(count)
    elif kind == "RETURN":
        payload += codec.fixed_width_bits(sender, bit_width)
        payload += codec.int_to_bits(count)
    return codec.encode(payload)


@lru_cache(maxsize=256)
def parse_control_payload(payload: str, bit_width: int) -> tuple[str, MappingProxyType[str, int]]:
    """(kind, fields) of a control payload.  Memoized, since every neighbour
    of the token holder parses the same word, so the fields are read-only."""
    if len(payload) < 3:
        raise ValueError(f"control payload too short: {payload!r}")
    kind = _KIND_OF.get(payload[:3])
    rest = payload[3:]
    if kind is None:
        raise ValueError(f"unknown opcode {payload[:3]}")
    if kind == "HANDOFF":
        if len(rest) < 2 * bit_width + 1:
            raise ValueError("handoff payload truncated")
        return kind, MappingProxyType({
            "sender": codec.bits_to_int(rest[:bit_width]),
            "target": codec.bits_to_int(rest[bit_width : 2 * bit_width]),
            "count": codec.bits_to_int(rest[2 * bit_width :]),
        })
    if kind == "RETURN":
        if len(rest) < bit_width + 1:
            raise ValueError("return payload truncated")
        return kind, MappingProxyType({
            "sender": codec.bits_to_int(rest[:bit_width]),
            "count": codec.bits_to_int(rest[bit_width:]),
        })
    if rest:
        raise ValueError(f"{kind} carries unexpected payload bits")
    return kind, MappingProxyType({})


def _transmit(bits: str) -> Phase:
    for b in bits:
        yield BEEP if b == "1" else LISTEN


def _parsed(payload: str, bit_width: int) -> tuple[str, MappingProxyType[str, int]]:
    try:
        return parse_control_payload(payload, bit_width)
    except ValueError as bad:
        raise ProtocolError(str(bad)) from None


def _listen_word(bit_width: int) -> Generator[Any, Any, tuple[str, MappingProxyType[str, int]]]:
    """Decode one control word that is guaranteed to start next round: the
    ``10`` start marker, then one payload pair per two rounds up to the
    ``10`` end marker.  A bad position raises in the round it is heard."""
    if (yield LISTEN) is not True:
        raise ProtocolError("control word parse: position 1: codeword must start with 1")
    if (yield LISTEN) is True:
        raise ProtocolError("control word parse: position 2: start marker must be 10")
    payload = ""
    while True:
        first = (yield LISTEN) is True
        second = (yield LISTEN) is True
        if first == second:
            payload += "1" if first else "0"
        elif first:
            return _parsed(payload, bit_width)
        else:
            pos = 2 * len(payload) + 4
            raise ProtocolError(f"control word parse: position {pos}: invalid 01 pair")


def _overheard_word(
    ctx: _DfsShared, flood: int | None = None
) -> Generator[Any, Any, tuple[str, MappingProxyType[str, int]] | None]:
    """Listen until an overheard control word completes, log and return it.

    Locks on the first heard beep.  A 1 at position 2 or a ``01`` pair
    drops the lock, and that bit does not start a new word.  With
    ``flood``, returns None instead once that many consecutive rounds
    carried a beep; that test comes before the decode step.  Unlocked
    after a silent round, it sleeps until the next beep."""
    limit = sys.maxsize if flood is None else flood
    pos = 0  # positions of the locked word heard so far; 0 while unlocked
    streak = 0
    while True:
        if pos or streak:
            heard = (yield LISTEN) is True
        else:
            heard = yield WAIT
        if heard:
            streak += 1
            if streak >= limit:
                return None
        else:
            streak = 0
        if pos == 0:
            if heard:
                pos = 1
                payload = ""
            continue
        pos += 1
        if pos & 1:
            first = heard  # the first bit of a payload pair
        elif pos == 2:
            if heard:
                pos = 0
        elif first == heard:
            payload += "1" if heard else "0"
        elif first:
            kind, fields = _parsed(payload, ctx.bit_width)
            # ** takes a dict's fast path and a read-only proxy's slow one.
            ctx.recorder.log("word", ctx.node, kind=kind, **fields.copy())
            return kind, fields
        else:
            pos = 0


@dataclass
class _DfsShared:
    """Per-node wiring the DFS sub-generators need."""

    node: int
    bit_width: int
    recorder: ProtocolRecorder


def _token_script(ctx: _DfsShared, my_count: int, is_root: bool) -> Generator[Any, Any, int]:
    """Run the token at this node; returns the count after its subtree.

    A non-root's tenure extends through the RETURN word it transmits after
    this script ends, so its final release is logged by the caller."""
    ctx.recorder.log("token_acquire", ctx.node)
    count = my_count
    while True:
        yield from _transmit(control_word("CHILD_ACK"))
        h1 = yield LISTEN
        h2 = yield LISTEN
        if not (h1 is True or h2 is True):
            break
        yield from _transmit(control_word("CHILD_SEARCH"))
        verdict: list[str] = []
        for _ in range(ctx.bit_width):
            b1 = yield LISTEN
            b2 = yield LISTEN
            bit = b1 is True or b2 is True
            verdict.append("1" if bit else "0")
            yield from _transmit(control_word("ACK1" if bit else "ACK0"))
        target = codec.bits_to_int("".join(verdict))
        yield from _transmit(
            control_word("HANDOFF", ctx.bit_width, sender=ctx.node, target=target,
                         count=count + 1)
        )
        ctx.recorder.log("token_release", ctx.node)
        while True:  # wait for RETURN(target); the child's own exchanges pass by
            kind, fields = yield from _overheard_word(ctx)
            if kind == "RETURN" and fields["sender"] == target:
                break
        count = fields["count"]
        ctx.recorder.log("token_acquire", ctx.node)
    if is_root:
        ctx.recorder.log("token_release", ctx.node)
    return count


def _candidate_block(ctx: _DfsShared, my_bits: str) -> Generator[Any, Any, tuple[bool, int]]:
    """Respond to a child-acknowledge and run the ID bidding.

    Returns (won, my_number_if_won)."""
    yield BEEP
    yield BEEP
    kind, _ = yield from _listen_word(ctx.bit_width)
    if kind != "CHILD_SEARCH":
        raise ProtocolError(f"expected CHILD_SEARCH, got {kind}")
    in_running = True
    for i in range(ctx.bit_width):
        my_bit = my_bits[i] == "1"
        bid = in_running and my_bit
        yield BEEP if bid else LISTEN
        yield BEEP if bid else LISTEN
        kind, _ = yield from _listen_word(ctx.bit_width)
        if kind == "ACK1":
            if not my_bit:
                in_running = False
        elif kind == "ACK0":
            if bid:
                raise ProtocolError("token missed an adjacent bid")
        else:
            raise ProtocolError(f"expected verdict word, got {kind}")
    kind, fields = yield from _listen_word(ctx.bit_width)
    if kind != "HANDOFF":
        raise ProtocolError(f"expected HANDOFF, got {kind}")
    ctx.recorder.log("word", ctx.node, kind=kind, **fields.copy())
    won = fields["target"] == ctx.node
    if won != in_running:
        raise ProtocolError("handoff target disagrees with bidding")
    return won, fields["count"]


def _dfs_root(ctx: _DfsShared, threshold: int) -> Generator[Any, Any, tuple[int, int]]:
    """Root side: run the token from count 1, then start the done-flood."""
    final_count = yield from _token_script(ctx, 1, is_root=True)
    yield LISTEN  # one quiet boundary round after the last silent probe
    ctx.recorder.log("flood_start", ctx.node)
    for _ in range(threshold):
        yield BEEP
    return 1, final_count


def _dfs_non_root(ctx: _DfsShared, my_bits: str, threshold: int) -> Generator[Any, Any, int]:
    """Passive/candidate/token life of a non-root node.

    Returns this node's DFS number once the done-flood has been detected
    and re-broadcast."""
    visited = False
    number = -1
    while True:
        word = yield from _overheard_word(ctx, flood=threshold)
        if word is None:
            break
        if word[0] == "CHILD_ACK" and not visited:
            won, cnt = yield from _candidate_block(ctx, my_bits)
            if won:
                visited = True
                number = cnt
                final = yield from _token_script(ctx, cnt, is_root=False)
                yield from _transmit(
                    control_word("RETURN", ctx.bit_width, sender=ctx.node, count=final)
                )
                ctx.recorder.log("token_release", ctx.node)
    if number < 0:
        raise ProtocolError("done-flood before this node was visited")
    for _ in range(threshold):
        yield BEEP
    return number


# ---------------------------------------------------------------------------
# Public operations.


def dfs(
    graph: Graph,
    leader: int | None = None,
    lhat: int | None = None,
    max_rounds: int | None = None,
) -> ProtocolRun:
    """Distributed DFS from the leader; every node outputs its number.
    The run's events are in ``report.extras["recorder"]``."""
    leader = _leader(graph, leader)
    _, lhat = _bounds(graph, None, lhat)
    width = ceil_log2(lhat)
    threshold = flood_threshold(width)
    recorder = ProtocolRecorder()

    programs = {}
    for u in graph.nodes:
        ctx = _DfsShared(u, width, recorder)
        if u == leader:
            programs[u] = _dfs_root(ctx, threshold)
        else:
            programs[u] = _dfs_non_root(ctx, codec.fixed_width_bits(u, width), threshold)

    expected = reference_dfs(graph, leader)
    rounds = dfs_round_count(graph, expected, width)
    trace, report = simulate(graph, programs, _cap(rounds, max_rounds))
    numbering = {
        u: (out[0] if u == leader else out) for u, out in report.outputs.items()
    }
    report.check("dfs_matches_reference", 0 if numbering == expected else 1, 0)
    report.check("dfs_count_equals_n", abs(report.outputs[leader][1] - graph.n), 0)
    report.check("dfs_round_count", abs(report.total_rounds - rounds), 0)
    report.extras.update(
        leader=leader,
        lhat=lhat,
        bit_width=width,
        numbering=numbering,
        recorder=recorder,
    )
    return ProtocolRun(trace, report)


def dfs_round_count(graph: Graph, numbering: dict[int, int], bit_width: int) -> int:
    """The exact round count of ``dfs`` from the reference ``numbering``.

    A node's parent is its earlier-numbered neighbour with the highest
    number.  Over the children c of v, with |x| = 2 len(payload) + 4,
        T(v) = 12 + sum_c [22 + 12 w + |HANDOFF| + T(c) + |RETURN|],
    where HANDOFF carries num(c) and RETURN the last number in c's subtree,
    and the run takes T(root) + 1 + (ecc(root) + 1) * flood_threshold(w)."""
    adj = graph.adjacency()
    order = sorted(numbering, key=numbering.__getitem__)
    t = dict.fromkeys(order, 12)
    last = dict(numbering)
    for c in reversed(order[1:]):  # every child before its parent
        num = numbering[c]
        v = max((u for u in adj[c] if numbering[u] < num), key=numbering.__getitem__)
        last[v] = max(last[v], last[c])
        handoff = 2 * (3 + 2 * bit_width + num.bit_length()) + 4
        ret = 2 * (3 + bit_width + last[c].bit_length()) + 4
        t[v] += 22 + 12 * bit_width + handoff + t[c] + ret
    ecc = max(distances(graph, order[0]).values())
    return t[order[0]] + 1 + (ecc + 1) * flood_threshold(bit_width)


def gossip_round_count(graph: Graph, numbering: dict[int, int], msgs: dict[int, str],
                       dhat: int, lhat: int) -> int:
    """The exact round count of ``gossip`` from the reference ``numbering``.
    With |x| = codeword_rounds(x) and s_i the node numbered i, wave 1 starts
    E + dfs_round_count(w) + (dhat + 1 - ecc(s_1)) th + 5 + |bits(n)| rounds
    in, and wave i + 1 |m_i| + d(s_i, s_{i+1}) + 1 rounds after wave i; the
    run ends |m_n| + ecc(s_n) rounds after wave n starts (n = 1: one sooner)."""
    order = sorted(numbering, key=numbering.__getitem__)
    w = order[0].bit_length()
    ecc_first, ecc_last = (max(distances(graph, s).values()) for s in (order[0], order[-1]))
    rounds = (election_len(ceil_log2(lhat), dhat) + dfs_round_count(graph, numbering, w)
              + (dhat + 1 - ecc_first) * flood_threshold(w) + 5
              + codeword_rounds(codec.int_to_bits(len(order))))
    rounds += sum(codeword_rounds(msgs[s]) for s in order) + ecc_last
    adj = graph.adjacency()
    rounds += sum(_hops(adj, s, t) + 1 for s, t in zip(order, order[1:]))
    return rounds - (len(order) == 1)


def _hops(adj: Mapping[int, tuple[int, ...]], source: int, target: int) -> int:
    """d(source, target) by a BFS from ``source`` that stops once it reaches
    ``target``; consecutive DFS numbers are near, so each search is small."""
    dist = {source: 0}
    queue = deque([source])
    while target not in dist:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist[target]


def _gossip_root(
    ctx: _DfsShared, threshold: int, dhat: int
) -> Generator[Any, Any, tuple[int, int]]:
    _, n = yield from _dfs_root(ctx, threshold)
    yield from idle_until(now() + (dhat + 1) * threshold + 3)
    yield from source_wave_phase(codec.int_to_bits(n))
    yield LISTEN  # slack so every trailing-zero window closes before our wave
    return 1, n


def _gossip_non_root(
    ctx: _DfsShared, my_bits: str, threshold: int
) -> Generator[Any, Any, tuple[int, int]]:
    g = yield from _dfs_non_root(ctx, my_bits, threshold)
    yield from await_quiet(ARM_SILENCE)
    count_bits = yield from relay_decode()
    ctx.recorder.log("gossip_decode", ctx.node)
    n = codec.bits_to_int(count_bits)
    if not 1 <= g <= n:
        raise ProtocolError(f"number {g} outside 1..{n}")
    return g, n


def _gossip_waves(ctx: _DfsShared, g: int, n: int, message: str) -> Generator[Any, Any, list[str]]:
    """One wave per node in DFS order: decode waves 1..g-1, send this node's
    ``message`` as wave g, decode waves g+1..n; returns the n messages."""
    messages: list[str] = []
    for i in range(1, n + 1):
        if i == g:
            yield from source_wave_phase(message)
            messages.append(message)
        else:
            payload = yield from relay_decode()
            ctx.recorder.log("gossip_decode", ctx.node)
            messages.append(payload)
    return messages


def gossip(
    graph: Graph,
    msgs: dict[int, str],
    dhat: int | None = None,
    lhat: int | None = None,
    max_rounds: int | None = None,
) -> ProtocolRun:
    """All-to-all message dissemination: election, DFS, count broadcast, then
    one pipelined wave per node in DFS order; every node outputs the n messages
    in that order.  The run's events are in ``report.extras["recorder"]``."""
    _checked_messages(graph, set(graph.nodes), msgs)
    dhat, lhat = _bounds(graph, dhat, lhat)
    elect_width = ceil_log2(lhat)
    recorder = ProtocolRecorder()

    def program(u: int) -> Phase:
        leader = yield from election_phase(u, elect_width, dhat)
        width = leader.bit_length()
        threshold = flood_threshold(width)
        ctx = _DfsShared(u, width, recorder)
        if u == leader:
            g, n = yield from _gossip_root(ctx, threshold, dhat)
        else:
            g, n = yield from _gossip_non_root(ctx, codec.fixed_width_bits(u, width), threshold)
        # run from the program itself, so a wave decoder stays two generator frames deep
        return tuple((yield from _gossip_waves(ctx, g, n, msgs[u])))

    programs = {u: program(u) for u in graph.nodes}
    leader = graph.max_id
    numbering = reference_dfs(graph, leader)
    rounds = gossip_round_count(graph, numbering, msgs, dhat, lhat)
    trace, report = simulate(graph, programs, _cap(rounds, max_rounds))

    expected = tuple(msgs[u] for u in sorted(numbering, key=numbering.__getitem__))
    ok = all(report.outputs[u] == expected for u in graph.nodes)
    report.check("gossip_outputs_match_oracle", 0 if ok else 1, 0)
    report.check("gossip_round_count", abs(report.total_rounds - rounds), 0)
    report.extras.update(
        leader=leader,
        dhat=dhat,
        lhat=lhat,
        numbering=numbering,
        recorder=recorder,
    )
    return ProtocolRun(trace, report)
