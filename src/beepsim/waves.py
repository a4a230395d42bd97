"""Wave-based primitives: broadcast, leader election, diameter estimation,
message collection, and message-length determination.

All multi-phase protocols here are chains of phase generators that share one
clock, the kernel round ``now()``.  A phase takes ``start = now()`` on entry,
so its first yield is phase round 1 (absolute round start + 1).  A phase of
fixed length ends with ``idle_until(start + <its *_len>)`` or a relay window
with that phase end: every node evaluates the length from values it has
already learned, so every node leaves the phase in the same round, and a
phase that overran its length raises ``ProtocolError``.  Phases return only
what a node learns.

Slot arithmetic in phase rounds (same-round OR reception):
  * a wave source beeps codeword bit i at phase round 3i;
  * a node at hop distance d first hears the wave at round d + 2 and hears
    bit i at round 3i + d - 1, so a 3-round slot absorbs the one-round
    echo jitter from same-layer and deeper-layer relays;
  * upward collection reverses this: bit i leaves a source at round
    3i + D' - dist and every residue class (2 + D' - dist) mod 3 admits
    only leaderward relays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Generator

from . import codec
from .engine import (
    BEEP,
    LISTEN,
    SLOT_PERIOD,
    WAIT,
    Action,
    Echo,
    Graph,
    ProtocolError,
    RunReport,
    Trace,
    distances,
    diameter,
    now,
    simulate,
    wait,
)
from .graphs import or_oracle

CALIBRATION_PAYLOAD = "1"

Phase = Generator[Action, "bool | None", Any]


@dataclass
class ProtocolRun:
    trace: Trace
    report: RunReport


@dataclass(frozen=True)
class BroadcastOutput:
    message: str
    completed_round: int


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs a positive argument")
    return (x - 1).bit_length()


def codeword_rounds(payload: str) -> int:
    return _width_rounds(len(codec.check_bits(payload, "payload")))


def _width_rounds(width: int) -> int:
    return SLOT_PERIOD * (2 * width + 4)


CALIBRATION_ROUNDS = codeword_rounds(CALIBRATION_PAYLOAD)


def value_codeword_rounds(value: int) -> int:
    return _width_rounds(len(codec.int_to_bits(value)))


# Phase length formulas.  Every node evaluates these from values it has
# already learned, which is what keeps schedules identical network-wide.

def election_len(bit_width: int, dhat: int) -> int:
    return bit_width * (dhat + 1)


def estimate_len(dtilde: int) -> int:
    return 2 * dtilde + value_codeword_rounds(dtilde) + 1


def calibration_len(dtilde: int) -> int:
    return dtilde + CALIBRATION_ROUNDS + 1


def collection_len(width: int, dtilde: int) -> int:
    return 3 * width + dtilde


def collect_phase_len(width: int, dtilde: int) -> int:
    return calibration_len(dtilde) + collection_len(width, dtilde)


def wave_phase_len(nbits: int, dtilde: int) -> int:
    return _width_rounds(nbits) + dtilde + 2


def msglen_phase_len(p: int, dtilde: int) -> int:
    return calibration_len(dtilde) + 3 * p + 2 * dtilde + value_codeword_rounds(p) + 4


# ---------------------------------------------------------------------------
# Building-block phase generators.


def idle_until(end: int) -> Phase:
    """Listen until round ``end``, asleep between the beeps it hears.  A
    phase that reaches its end round late has overrun: ProtocolError."""
    if end < now():
        raise ProtocolError(f"phase end {end} has already passed")
    while now() < end:
        yield wait(end)


def await_quiet(rounds: int) -> Phase:
    """Listen until ``rounds`` consecutive rounds carry no beep."""
    quiet = 0
    while quiet < rounds:
        quiet = 0 if (yield LISTEN) is True else quiet + 1


def source_wave_phase(m: str) -> Phase:
    """Transmit one codeword: bit i of encode(m) in phase round 3i."""
    cw = codec.encode(m)
    for bit in cw:
        yield LISTEN
        yield LISTEN
        yield BEEP if bit == "1" else LISTEN


def relay_decode(width: int | None = None,
                 until: int | None = None) -> Generator[Action, "bool | None", str]:
    """Relay-and-decode one wave codeword, of any width or of a ``width``-bit
    payload with a phase end ``until``, in one armed ``Echo``: it relays the
    arming beep, and then a heard beep one round later unless this node
    beeped two rounds before.  Returns the payload ``codeword_rounds(payload)
    - 1`` rounds after the arming round, or for a width, after round
    ``until``.  There a word that is no codeword raises, naming this node's
    word for a width, and otherwise its first malformed position."""
    if (width is None) != (until is None):
        raise ProtocolError("relay_decode takes a width with a phase end, or neither")
    window = Echo.armed() if width is None else Echo.armed(_width_rounds(width) - 1, until)
    yield window
    word = window.slots()
    payload = codec.match_word(word)
    if payload is None and width is None:
        parser = codec.CodewordParser()
        try:
            for bit in word:
                parser.push(int(bit))
        except codec.MalformedWord as bad:
            raise ProtocolError(f"wave decode failed: {bad}") from None
    if payload is None:
        raise ProtocolError(f"expected a {width}-bit wave, heard {word}")
    return payload


# ---------------------------------------------------------------------------
# Leader election: binary search over ID bits, one network flood per bit.


def election_phase(my_id: int, bit_width: int, dhat: int) -> Generator[Action, "bool | None", int]:
    """Vote on each ID bit MSB-first; every node flood-relays each phase.

    A candidate beeps in the bit's first round and then echoes; every other
    node relays in one armed window that ends with the bit, and its verdict
    is whether the window was armed, that is whether it heard any beep.
    Consumes exactly bit_width * (dhat + 1) rounds and returns the max ID.
    """
    in_running = True
    verdicts: list[str] = []
    for b in range(bit_width):
        my_bit = (my_id >> (bit_width - 1 - b)) & 1
        end = now() + dhat + 1
        if in_running and my_bit == 1:
            yield BEEP
            if dhat:
                yield Echo(end)
            verdict = True
        else:
            window = Echo.armed(until=end)
            yield window
            verdict = window.end is not None
        verdicts.append("1" if verdict else "0")
        if verdict and my_bit == 0:
            in_running = False
    return codec.bits_to_int("".join(verdicts))


# ---------------------------------------------------------------------------
# Diameter estimation: leader pulse, mod-3 gated echo, broadcast of the
# estimate.  Every node consumes estimate_len(dtilde) rounds.


def diameter_phase(is_leader: bool) -> Generator[Action, "bool | None", int]:
    start = now()
    if is_leader:
        yield BEEP  # round 1
        quiet = 1  # round 1, its own beep, heard nothing
        while quiet < 3:
            quiet = 0 if (yield LISTEN) is True else quiet + 1
        dtilde = now() - start
        yield from source_wave_phase(codec.int_to_bits(dtilde))
    else:
        yield WAIT  # asleep until the leader's pulse arrives, in phase round j
        r = j = now() - start
        ack = j + 1 + ((-j - (j + 1)) % 3)  # next round > j in class (-j) mod 3
        trigger = (2 - j) % 3
        heard_prev = True
        quiet = 0
        while quiet < 3:
            r += 1
            will_beep = r == j + 1 or r == ack or (heard_prev and (r - 1) % 3 == trigger)
            heard_prev = (yield (BEEP if will_beep else LISTEN)) is True
            quiet = 0 if heard_prev else quiet + 1
        # Quiesce before arming the wave decoder: relays of this node's own
        # acknowledgment (and late echoes passing its neighbors) may still
        # arrive; once the node stops beeping, live echo streams are heard
        # at gaps of at most two silent rounds, so three fully quiet rounds
        # mean the estimate traffic is over locally.
        yield from await_quiet(3)
        dtilde = codec.bits_to_int((yield from relay_decode()))
    yield from idle_until(start + estimate_len(dtilde))
    return dtilde


# ---------------------------------------------------------------------------
# Message collection (fixed width) and message length determination.


@lru_cache(maxsize=256)
def _collection_slots(bits: str, dtilde: int, dist: int) -> frozenset[int]:
    """A node's collection slots.  Memoized: nodes at one distance with the
    same bits share them."""
    return frozenset(3 * i + dtilde - dist for i, b in enumerate(bits, 1) if b == "1")


def _calibrate(dtilde: int, is_leader: bool) -> Generator[Action, "bool | None", int]:
    """Run the calibration wave; returns this node's hop distance to the
    leader (arrival round of the wave's first beep fixes it)."""
    start = now()
    end = start + calibration_len(dtilde)
    if is_leader:
        yield from source_wave_phase(CALIBRATION_PAYLOAD)
        yield from idle_until(end)
        return 0
    window = Echo.armed(CALIBRATION_ROUNDS - 1, end)
    yield window
    word = window.slots()
    if codec.match_word(word) != CALIBRATION_PAYLOAD:
        raise ProtocolError(f"bad calibration word {word}")
    # The first beep arrives in phase round dist + 2, and the window ends
    # codeword_rounds(payload) - 1 rounds after that.
    dist = window.end - start - CALIBRATION_ROUNDS - 1
    if dist < 1:  # with dist > dtilde the window passed its phase end, and slots() raised
        raise ProtocolError(f"calibration distance {dist} out of range")
    return dist


def collect_phase(
    dtilde: int,
    width: int,
    own_bits: str | None,
    is_leader: bool,
) -> Generator[Action, "bool | None", str | None]:
    """Calibration wave + one fixed-width upward OR collection.

    Every node passes its own bits, or None if it has none: at most
    ``width`` bits, read as right-padded to width.  A non-leader transmits
    its bits and relays leaderward inside its residue class; the leader
    starts the OR from its own bits, reads the rest and returns the OR
    string.  Consumes collect_phase_len(width, dtilde).
    """
    if own_bits is not None and len(own_bits) > width:
        raise ProtocolError("transmit bits wider than collection width")
    dist = yield from _calibrate(dtilde, is_leader)
    if not is_leader:
        # Every beep of this node, slot or relay, falls in one residue class
        # mod 3, so the echo rule's "not beeped two rounds before" never
        # blocks a relay here.  No slot comes before round 3 (dist <= dtilde),
        # and the calibration's last round is silent, so windows start there.
        start = now()
        gate = (start + 2 + dtilde - dist) % 3
        for slot in sorted(_collection_slots(own_bits or "", dtilde, dist)):
            yield Echo(start + slot - 1, gate)
            yield BEEP
        yield Echo(start + collection_len(width, dtilde), gate)
        return None
    leader_class = (dtilde + 2) % 3
    ones = {i for i, b in enumerate(own_bits or "", 1) if b == "1"}
    for local in range(1, collection_len(width, dtilde) + 1):
        if (yield LISTEN) is True:
            if local % 3 != leader_class:
                raise ProtocolError("collection beep outside leader class")
            slot = (local - dtilde + 1) // 3
            if not 1 <= slot <= width:
                raise ProtocolError(f"collection slot {slot} out of range")
            ones.add(slot)
    return "".join("1" if i in ones else "0" for i in range(1, width + 1))


def msglen_phase(
    dtilde: int,
    own_len: int,
    is_leader: bool,
) -> Generator[Action, "bool | None", int]:
    """All-ones collection with open width; the leader reads off the max
    length p at the first silent slot and broadcasts it.  Every node
    consumes msglen_phase_len(p, dtilde) rounds."""
    start = now()
    dist = yield from _calibrate(dtilde, is_leader)
    if is_leader:
        local = 0
        q = 1
        while True:
            local += 1
            fb = yield LISTEN
            if local == 3 * q + dtilde - 1:
                if fb is True or q <= own_len:
                    q += 1
                else:
                    p = q - 1
                    break
        if p < 1:
            raise ProtocolError("no source transmitted any bit")
        yield from source_wave_phase(codec.int_to_bits(p))
    else:
        my_slots = _collection_slots("1" * own_len, dtilde, dist)
        trigger = (2 + dtilde - dist) % 3
        eligible = dtilde - dist + 5
        heard_prev = False
        quiet = 0
        local = 0
        while True:
            local += 1
            beep = local in my_slots or (heard_prev and (local - 1) % 3 == trigger)
            fb = yield (BEEP if beep else LISTEN)
            heard_prev = fb is True
            # A round spent beeping proves nothing about neighbors, so only
            # fully quiet rounds count toward the switch window.
            quiet = 0 if (beep or heard_prev) else quiet + 1
            if local >= eligible and quiet >= 3:
                break
        p = codec.bits_to_int((yield from relay_decode()))
    yield from idle_until(start + msglen_phase_len(p, dtilde))
    return p


def broadcast_value_phase(
    dtilde: int,
    expected_bits: int,
    value_bits: str | None,
) -> Generator[Action, "bool | None", str]:
    """Scheduled network-wide wave of a known-width bit string.  The single
    source passes value_bits; everyone else relays and decodes a word of
    that width.  Consumes wave_phase_len(expected_bits, dtilde)."""
    end = now() + wave_phase_len(expected_bits, dtilde)
    if value_bits is None:
        return (yield from relay_decode(expected_bits, end))
    if len(value_bits) != expected_bits:
        raise ProtocolError("source value has unexpected width")
    yield from source_wave_phase(value_bits)
    yield from idle_until(end)
    return value_bits


# ---------------------------------------------------------------------------
# Public single-protocol runners.


def _bounds(graph: Graph, dhat: int | None, lhat: int | None) -> tuple[int, int]:
    """Resolve and check a runner's (dhat, lhat).  Defaults: dhat = n,
    lhat = least power of two > max ID."""
    dhat = dhat if dhat is not None else graph.n
    lhat = lhat if lhat is not None else 1 << graph.max_id.bit_length()
    if lhat < graph.max_id + 1:
        raise ValueError(f"lhat {lhat} below max id {graph.max_id} + 1")
    if dhat < 1 and graph.n > 1:
        raise ValueError("dhat must be >= 1")
    return dhat, lhat


def _leader(graph: Graph, leader: int | None) -> int:
    """Resolve and check a runner's leader.  Default: the max ID."""
    leader = leader if leader is not None else graph.max_id
    if leader not in graph.adj:
        raise ValueError(f"unknown leader {leader}")
    return leader


def _checked_messages(graph: Graph, sources: set[int], msgs: dict[int, str]) -> int:
    """Check a runner's source set and its messages; returns the longest
    message length."""
    if not sources:
        raise ValueError("sources must be nonempty")
    unknown = sources - graph.adj.keys()
    if unknown:
        raise ValueError(f"unknown sources {sorted(unknown)}")
    if set(msgs) != sources:
        raise ValueError(f"sources without a message {sorted(sources - msgs.keys())}, "
                         f"messages of non-sources {sorted(msgs.keys() - sources)}")
    for s, m in msgs.items():
        codec.check_bits(m, f"message of {s}")
        if not m:
            raise ValueError(f"source {s} has an empty message")
    return max(len(m) for m in msgs.values())


def _dtilde_bound(graph: Graph) -> int:
    """An upper bound on any diameter estimate over ``graph`` that needs no
    diameter: estimates are at most 2D + 7, and D < n."""
    return 2 * graph.n + 9


def _cap(rounds: int, override: int | None) -> int:
    """Round cap of every runner: ``override`` if given, else four times an
    exact round count, and at least 2000.  It is the count that the runner
    checks, or, where that count depends on what the run learns, the count
    at the largest values: D~ = ``_dtilde_bound`` and, in multi-broadcast,
    k for every prefix count."""
    return override if override is not None else max(2000, 4 * rounds)


def broadcast(
    graph: Graph,
    source: int,
    message: str,
    max_rounds: int | None = None,
) -> ProtocolRun:
    """Beep-wave broadcast of ``message`` from ``source`` to every node."""
    _checked_messages(graph, {source}, {source: message})

    def relay() -> Phase:
        payload = yield from relay_decode()
        return BroadcastOutput(payload, now())

    programs = {u: source_wave_phase(message) if u == source else relay() for u in graph.nodes}
    end = 1 + codeword_rounds(message)  # a relay d hops away returns in end + d
    dist = distances(graph, source)
    trace, report = simulate(graph, programs, _cap(end + max(dist.values()), max_rounds))
    ok = all(report.outputs[u] == BroadcastOutput(message, end + dist[u])
             for u in graph.nodes if u != source)
    report.check("broadcast_exactness", 0 if ok else 1, 0)
    return ProtocolRun(trace, report)


def elect_leader(
    graph: Graph,
    dhat: int | None = None,
    lhat: int | None = None,
    max_rounds: int | None = None,
) -> ProtocolRun:
    """Binary-search leader election; every node outputs the max ID."""
    dhat, lhat = _bounds(graph, dhat, lhat)
    width = ceil_log2(lhat)
    programs = {u: election_phase(u, width, dhat) for u in graph.nodes}
    expected = election_len(width, dhat)
    trace, report = simulate(graph, programs, _cap(expected, max_rounds))
    report.check("election_round_count", abs(report.total_rounds - expected), 0)
    agreed = {report.outputs[u] for u in graph.nodes}
    report.check("leader_is_max_id", 0 if agreed == {graph.max_id} else 1, 0)
    report.extras.update(dhat=dhat, lhat=lhat, leader=graph.max_id, bit_width=width)
    return ProtocolRun(trace, report)


def estimate_diameter(
    graph: Graph,
    leader: int | None = None,
    max_rounds: int | None = None,
) -> ProtocolRun:
    """Leader-coordinated diameter estimate; every node outputs D-tilde."""
    leader = _leader(graph, leader)
    programs = {u: diameter_phase(u == leader) for u in graph.nodes}
    trace, report = simulate(graph, programs, _cap(estimate_len(_dtilde_bound(graph)), max_rounds))
    d = diameter(graph)
    values = {report.outputs[u] for u in graph.nodes}
    dtilde = report.outputs[leader]
    report.check("estimate_agreement", 0 if len(values) == 1 else 1, 0)
    report.check("estimate_lower", dtilde, d, lower=True)
    report.check("estimate_upper", dtilde, 2 * d + 7)
    report.check("estimate_round_count", abs(report.total_rounds - estimate_len(dtilde)), 0)
    report.extras.update(leader=leader, dtilde=dtilde, true_diameter=d)
    return ProtocolRun(trace, report)


def collect_messages(
    graph: Graph,
    leader: int | None,
    sources: set[int],
    msgs: dict[int, str],
    p: int | None = None,
    max_rounds: int | None = None,
) -> ProtocolRun:
    """Leader collects the OR-superimposition of all source messages, each
    padded to ``p`` bits (default: the longest), after a diameter estimate as
    in the composed protocols.  A node outputs (D~, the OR at the leader, else None)."""
    leader = _leader(graph, leader)
    sources = set(sources)
    longest = _checked_messages(graph, sources, msgs)
    p = p if p is not None else longest
    if longest > p:
        raise ValueError(f"a source message exceeds p={p}")

    def rounds(dt: int) -> int:
        return estimate_len(dt) + collect_phase_len(p, dt)

    def program(u: int) -> Phase:
        dt = yield from diameter_phase(u == leader)
        return dt, (yield from collect_phase(dt, p, msgs.get(u), u == leader))

    programs = {u: program(u) for u in graph.nodes}
    trace, report = simulate(graph, programs, _cap(rounds(_dtilde_bound(graph)), max_rounds))
    dt, collected = report.outputs[leader]
    expected = or_oracle([msgs[s] for s in sources], p)
    report.check("collect_equals_or_oracle", 0 if collected == expected else 1, 0)
    report.check("collect_round_count", abs(report.total_rounds - rounds(dt)), 0)
    report.extras.update(
        leader=leader,
        collection_start=rounds(dt) - collection_len(p, dt),
        collection_rounds=collection_len(p, dt),
    )
    return ProtocolRun(trace, report)


def get_message_length(
    graph: Graph,
    leader: int | None,
    sources: set[int],
    msgs: dict[int, str],
    max_rounds: int | None = None,
) -> ProtocolRun:
    """Inform every node of p = max source message length, after a diameter
    estimate as in the composed protocols; every node outputs (D~, p)."""
    leader = _leader(graph, leader)
    sources = set(sources)
    pmax = _checked_messages(graph, sources, msgs)

    def rounds(dt: int) -> int:
        return estimate_len(dt) + msglen_phase_len(pmax, dt)

    def program(u: int) -> Phase:
        dt = yield from diameter_phase(u == leader)
        return dt, (yield from msglen_phase(dt, len(msgs.get(u, "")), u == leader))

    programs = {u: program(u) for u in graph.nodes}
    trace, report = simulate(graph, programs, _cap(rounds(_dtilde_bound(graph)), max_rounds))
    values = {p for _, p in report.outputs.values()}
    report.check("msglen_agreement", 0 if values == {pmax} else 1, 0)
    dt = report.outputs[leader][0]
    report.check("msglen_round_count", abs(report.total_rounds - rounds(dt)), 0)
    report.extras.update(leader=leader)
    return ProtocolRun(trace, report)
