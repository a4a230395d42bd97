from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc
from bisect import bisect_left, bisect_right

import pytest

from beepsim import traversal
from beepsim.engine import (
    Graph,
    ProtocolError,
    RoundRecord,
    SimulationTimeout,
    diameter,
    simulate,
    verify_reception,
)
from beepsim.graphs import GraphSpec, generate, reference_dfs
from beepsim.traversal import control_word, dfs, flood_threshold, gossip, parse_control_payload

from conftest import random_bits, random_connected_graph


def tenure_spans(recorder):
    """Reconstruct (node, first_round, last_round) token tenures."""
    acquires = [(e[2], e[1]) for e in recorder.of_kind("token_acquire")]
    releases = [(e[2], e[1]) for e in recorder.of_kind("token_release")]
    assert len(acquires) == len(releases)
    spans = []
    for (ar, an), (rr, rn) in zip(sorted(acquires), sorted(releases)):
        assert an == rn, "interleaved tenures"
        spans.append((an, ar, rr))
    return spans


def token_holders(recorder):
    """holders(r): the set of nodes whose token tenure covers round r."""
    spans = tenure_spans(recorder)
    starts = [a for _, a, _ in spans]
    ends = [b for _, _, b in spans]

    def holders(round_):
        # starts and ends both ascend, so the tenures with
        # a <= round_ <= b are exactly spans[lo:hi].
        lo, hi = bisect_left(ends, round_), bisect_right(starts, round_)
        return {n for n, _, _ in spans[lo:hi]}

    return holders


def assert_no_false_adjacency(graph, recorder):
    """A node that completed a control-word decode must be the token holder
    or one of its neighbors at that round."""
    holders_at = token_holders(recorder)
    adj = graph.adjacency()
    for event, node, round_, _ in recorder.of_kind("word"):
        holders = holders_at(round_)
        assert holders, (node, round_)
        assert any(node == h or node in adj[h] for h in holders), (node, round_)


def assert_token_isolation(graph, trace, recorder):
    """During a tenure only the token holder and its neighbors may beep;
    bystanders never assemble a well-formed control word."""
    holders_at = token_holders(recorder)
    adj = graph.adjacency()
    for rec in trace:
        holders = holders_at(rec.round)
        if not holders:
            continue  # done-flood region
        allowed = set(holders)
        for h in holders:
            allowed.update(adj[h])
        assert rec.beepers <= allowed, (rec.round, rec.beepers, holders)
    assert_no_false_adjacency(graph, recorder)


def test_control_word_roundtrip():
    for kind in ("CHILD_ACK", "CHILD_SEARCH", "ACK0", "ACK1"):
        w = control_word(kind)
        assert len(w) == 10
    w = control_word("HANDOFF", 4, sender=9, target=3, count=6)
    from beepsim import codec

    kind, fields = parse_control_payload(codec.decode(w), 4)
    assert kind == "HANDOFF" and fields == {"sender": 9, "target": 3, "count": 6}
    w = control_word("RETURN", 4, sender=2, count=11)
    kind, fields = parse_control_payload(codec.decode(w), 4)
    assert kind == "RETURN" and fields == {"sender": 2, "count": 11}


@pytest.mark.parametrize("payload, reason", [
    ("00", "control payload too short: '00'"),
    ("111", "unknown opcode 111"),
    ("100" + "1011" + "0110", "handoff payload truncated"),  # no count bit
    ("101" + "101", "return payload truncated"),
    ("0011", "CHILD_SEARCH carries unexpected payload bits"),
])
def test_parse_control_payload_rejects_malformed_payloads(payload, reason):
    with pytest.raises(ValueError) as err:
        parse_control_payload(payload, 4)
    assert str(err.value) == reason


def test_a_wrong_control_word_names_the_listening_node_and_round(monkeypatch):
    # The token sends ACK0 where CHILD_SEARCH belongs; the candidate that
    # answered its probe rejects the word in the round it ends.
    real = traversal.control_word

    def swapped(kind, *args, **kwargs):
        return real("ACK0" if kind == "CHILD_SEARCH" else kind, *args, **kwargs)

    monkeypatch.setattr(traversal, "control_word", swapped)
    with pytest.raises(ProtocolError) as err:
        dfs(Graph.from_edges([(0, 1), (1, 2)]))
    assert str(err.value) == "node 1, round 22: expected CHILD_SEARCH, got ACK0"


def test_flood_threshold_exceeds_word_runs():
    # worst in-word run of 1s: doubled all-ones sender+target+count plus the
    # end-marker 1
    for width in (1, 4, 8):
        run = 2 * (3 * width + 1) + 1
        assert flood_threshold(width) > run


def test_dfs_triangle_golden():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    run = dfs(g, leader=3, lhat=4)
    assert run.report.extras["numbering"] == {3: 1, 2: 2, 1: 3}


def test_dfs_single_node():
    g = Graph.from_edges([], nodes=[0])
    run = dfs(g, leader=0, lhat=1)
    assert run.report.extras["numbering"] == {0: 1}


def test_dfs_path_golden():
    g = Graph.from_edges([(1, 2), (2, 3)])
    run = dfs(g, leader=3, lhat=4)
    assert run.report.extras["numbering"] == {3: 1, 2: 2, 1: 3}


def test_dfs_matches_reference_and_isolation(rng):
    for _ in range(8):
        g = random_connected_graph(rng, 18)
        run = dfs(g)
        rec = run.report.extras["recorder"]
        assert run.report.extras["numbering"] == reference_dfs(g, g.max_id)
        verify_reception(run.trace, g)
        assert_token_isolation(g, run.trace, rec)


def test_dfs_wide_label_range():
    g = generate(GraphSpec("randomTree", 9, seed=4, label_range=300))
    run = dfs(g)
    assert run.report.extras["numbering"] == reference_dfs(g, g.max_id)


def test_gossip_single_node():
    g = Graph.from_edges([], nodes=[0])
    run = gossip(g, {0: "101"})
    assert run.report.outputs[0].pairs == ((1, "101"),)


def test_gossip_path_golden():
    g = Graph.from_edges([(1, 2), (2, 3)])
    run = gossip(g, {1: "0", 2: "1", 3: "0"})
    expected = ((1, "0"), (2, "1"), (3, "0"))  # numbering {3:1, 2:2, 1:3}
    for u in g.nodes:
        assert run.report.outputs[u].pairs == expected


def test_gossip_star_random_messages(rng):
    g = generate(GraphSpec("star", 6, seed=3))
    msgs = {u: random_bits(rng, 3) for u in g.nodes}
    run = gossip(g, msgs)
    numbering = reference_dfs(g, g.max_id)
    expected = tuple(sorted((num, msgs[u]) for u, num in numbering.items()))
    for u in g.nodes:
        assert tuple(sorted(run.report.outputs[u].pairs)) == expected


def test_gossip_pipelining_decode_counts(rng):
    for _ in range(6):
        g = random_connected_graph(rng, 12)
        msgs = {u: random_bits(rng, rng.randint(1, 5)) for u in g.nodes}
        run = gossip(g, msgs, dhat=diameter(g))
        for u in g.nodes:
            expect = g.n - 1 if u == g.max_id else g.n
            assert run.report.outputs[u].decoded_count == expect
        assert run.report.all_passed


def test_gossip_requires_full_message_map():
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        gossip(g, {0: "1"})
    with pytest.raises(ValueError):
        gossip(g, {0: "1", 1: ""})


def test_dfs_resumes_only_the_nodes_that_act_or_hear(monkeypatch):
    # Bystanders sleep until they hear a beep, so the kernel resumes far
    # fewer programs than n per round (every node, every round: 0.996).
    resumptions = 0

    def counted(program):
        nonlocal resumptions
        fb = None
        try:
            while True:
                action = program.send(fb)
                resumptions += 1
                fb = yield action
        except StopIteration as stop:
            return stop.value

    def counting_simulate(graph, programs, max_rounds):
        return simulate(graph, {u: counted(p) for u, p in programs.items()}, max_rounds)

    monkeypatch.setattr(traversal, "simulate", counting_simulate)
    g = generate(GraphSpec("erConnected", 60, seed=7))
    run = dfs(g)
    assert run.report.all_passed
    assert resumptions <= 0.4 * g.n * run.report.total_rounds


def test_dfs_trace_costs_at_most_256_bytes_per_record():
    # A record holds its round and two node bitsets; records of frozensets
    # cost about 840 bytes each on this run.
    g = generate(GraphSpec("erConnected", 60, seed=7))
    tracemalloc.start()
    try:
        run = dfs(g)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        records = len(run.trace)
        run.trace.clear()
        gc.collect()
        trace_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records == run.report.total_rounds == 11091
    assert 32 * records <= trace_bytes <= 256 * records


def test_dfs_trace_records_read_as_the_label_frozensets():
    # The digest of (round, beepers, heard) through the record API, taken
    # from the frozenset records this run gave before records held bitsets.
    g = generate(GraphSpec("erConnected", 60, seed=7))
    run = dfs(g)
    assert all(type(rec.beepers) is frozenset and type(rec.heard) is frozenset
               for rec in run.trace[:50])
    api = repr([(rec.round, sorted(rec.beepers), sorted(rec.heard)) for rec in run.trace])
    assert hashlib.sha256(api.encode()).hexdigest() == (
        "aeec45cf05ce534c4f857cef3ecda33d730bbc90b063a187e92752cc8045d700"
    )
    assert sum(len(rec.beepers) for rec in run.trace) == 8980
    assert sum(len(rec.heard) for rec in run.trace) == 70690
    with pytest.raises(SimulationTimeout) as err:
        dfs(g, max_rounds=5000)
    assert type(err.value.trace) is list
    assert all(type(rec) is RoundRecord for rec in err.value.trace)
    assert err.value.trace == run.trace[:5000]
