from __future__ import annotations

import gc
import hashlib
import itertools
import random
import tracemalloc
from bisect import bisect_left, bisect_right

import pytest

from beepsim import codec, traversal
from beepsim.engine import (
    LISTEN,
    WAIT,
    Graph,
    ProtocolError,
    ProtocolRecorder,
    SimulationTimeout,
    Trace,
    diameter,
    distances,
    simulate,
    verify_reception,
)
from beepsim.graphs import FAMILIES, GraphSpec, generate, reference_dfs
from beepsim.traversal import (
    control_word,
    dfs,
    dfs_round_count,
    flood_threshold,
    gossip,
    gossip_round_count,
    parse_control_payload,
)
from beepsim.waves import ceil_log2, codeword_rounds, election_len

from conftest import (
    barbell,
    capture_round_caps,
    caterpillar,
    labelled_rounds,
    lollipop,
    random_bits,
    random_connected_graph,
)


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
    for r, beepers, _ in labelled_rounds(trace):
        holders = holders_at(r)
        if not holders:
            continue  # done-flood region
        allowed = set(holders)
        for h in holders:
            allowed.update(adj[h])
        assert allowed.issuperset(beepers), (r, beepers, holders)
    assert_no_false_adjacency(graph, recorder)


def test_control_word_roundtrip():
    for kind in ("CHILD_ACK", "CHILD_SEARCH", "ACK0", "ACK1"):
        w = control_word(kind)
        assert len(w) == 10
    w = control_word("HANDOFF", 4, sender=9, target=3, count=6)
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


def test_a_parsed_control_word_is_shared_read_only_and_a_bad_one_raises_each_time():
    # Every neighbour of the token holder gets the one cached parse of its word.
    payload = codec.decode(control_word("HANDOFF", 4, sender=9, target=3, count=6))
    kind, fields = parse_control_payload(payload, 4)
    assert parse_control_payload(payload, 4)[1] is fields
    with pytest.raises(TypeError):
        fields["target"] = 4
    assert dict(**fields) == {"sender": 9, "target": 3, "count": 6}
    texts = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            parse_control_payload("111", 4)
        texts.append(str(err.value))
    assert texts == ["unknown opcode 111"] * 2


def test_a_wrong_control_word_names_the_listening_node_and_round(monkeypatch):
    # The token sends ACK0 where CHILD_SEARCH belongs; the candidate that
    # answered its probe rejects the word in the round it ends.
    real = traversal.control_word

    def swapped(kind, *args, **kwargs):
        return real("ACK0" if kind == "CHILD_SEARCH" else kind, *args, **kwargs)

    monkeypatch.setattr(traversal, "control_word", swapped)
    with pytest.raises(ProtocolError) as err:
        dfs(Graph.from_edges([(0, 1), (1, 2)]))
    assert str(err.value) == (
        "node 1, round 22: expected CHILD_SEARCH, got ACK0 (in _dfs_non_root > _candidate_block)")


def test_a_dfs_timeout_names_the_generator_each_live_node_is_in():
    g = generate(GraphSpec("path", 6, seed=0))
    with pytest.raises(SimulationTimeout) as err:
        dfs(g, max_rounds=30)
    assert err.value.phases == {0: "_listen_word", 1: "_overheard_word", 2: "_overheard_word",
                                3: "_listen_word", 4: "_overheard_word", 5: "_transmit"}
    assert str(err.value) == ("6 node(s) still running after 30 rounds: [0, 1, 2, 3, 4, 5]; "
                              "in _listen_word, _overheard_word, _transmit")


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
    assert run.report.outputs[0] == ("101",)


def test_gossip_path_golden():
    g = Graph.from_edges([(1, 2), (2, 3)])
    run = gossip(g, {1: "0", 2: "1", 3: "0"})
    expected = ("0", "1", "0")  # numbering {3:1, 2:2, 1:3}
    for u in g.nodes:
        assert run.report.outputs[u] == expected


def test_gossip_star_random_messages(rng):
    g = generate(GraphSpec("star", 6, seed=3))
    msgs = {u: random_bits(rng, 3) for u in g.nodes}
    run = gossip(g, msgs)
    numbering = reference_dfs(g, g.max_id)
    expected = tuple(msgs[u] for u in sorted(numbering, key=numbering.__getitem__))
    for u in g.nodes:
        assert run.report.outputs[u] == expected


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


def test_dfs_trace_costs_8_to_16_bytes_per_round():
    # A round is one list slot holding a shared (beepers, hearers) pair, at
    # least 8 bytes; records of frozensets cost about 840 bytes each on this run.
    g = generate(GraphSpec("erConnected", 60, seed=7))
    tracemalloc.start()
    try:
        run = dfs(g)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        records = len(run.trace)
        del run.trace
        gc.collect()
        trace_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records == run.report.total_rounds == 11091
    assert 8 * records <= trace_bytes <= 16 * records


def test_dfs_rounds_with_one_beeper_set_share_its_two_mask_ints():
    run = dfs(generate(GraphSpec("erConnected", 60, seed=7)))
    pairs = run.trace.rounds
    assert len({id(p) for p in pairs}) == len(set(pairs)) < len(pairs)


def test_dfs_trace_records_read_as_the_label_frozensets():
    # The digest of (round, beepers, heard) through the records that trace
    # iteration hands out, taken from the frozenset records this run gave
    # before records held bitsets.
    g = generate(GraphSpec("erConnected", 60, seed=7))
    run = dfs(g)
    records = list(itertools.islice(run.trace, 50))
    assert all(type(rec.beepers) is frozenset and type(rec.heard) is frozenset for rec in records)
    api = repr([(r, sorted(rec.beepers), sorted(rec.heard)) for r, rec in enumerate(run.trace, 1)])
    assert hashlib.sha256(api.encode()).hexdigest() == (
        "aeec45cf05ce534c4f857cef3ecda33d730bbc90b063a187e92752cc8045d700"
    )
    assert sum(len(rec.beepers) for rec in run.trace) == 8980
    assert sum(len(rec.heard) for rec in run.trace) == 70690
    with pytest.raises(SimulationTimeout) as err:
        dfs(g, max_rounds=5000)
    assert type(err.value.trace) is Trace
    partial = err.value.trace
    assert partial.rounds == run.trace.rounds[:5000]


# ---------------------------------------------------------------------------
# The DFS listeners against reference loops over codec.CodewordParser.


def reference_listen_word(bit_width):
    parser = codec.CodewordParser()
    while True:
        fb = yield LISTEN
        try:
            done = parser.push(1 if fb is True else 0)
        except codec.MalformedWord as bad:
            raise ProtocolError(f"control word parse: {bad}") from None
        if done is not None:
            return traversal._parsed(done, bit_width)


def reference_overheard_word(ctx, flood=None):
    parser = None
    streak = 0
    while True:
        if parser is None and streak == 0:
            heard = yield WAIT
        else:
            heard = (yield LISTEN) is True
        streak = streak + 1 if heard else 0
        if flood is not None and streak >= flood:
            return None
        if parser is None:
            if heard:
                parser = codec.CodewordParser()
                parser.push(1)
            continue
        try:
            done = parser.push(1 if heard else 0)
        except codec.MalformedWord:
            parser = None
            continue
        if done is not None:
            kind, fields = traversal._parsed(done, ctx.bit_width)
            ctx.recorder.log("word", ctx.node, kind=kind, **fields)
            return kind, fields


def drive(decoder, bits):
    """Feed ``bits`` to a decoder as the kernel would, one heard flag per
    round and no resumption in a silent round after WAIT.  The log holds
    one entry per round: the next action, "asleep", or how and in which
    round the decoder returned or raised.  A bit string's log is therefore
    the prefix of the log of any string it begins."""
    log = []
    action = next(decoder)
    for step, b in enumerate(bits, 1):
        heard = b == "1"
        if action == WAIT and not heard:
            log.append("asleep")
            continue
        try:
            action = decoder.send(heard)
        except StopIteration as stop:
            return log + [("return", step, stop.value)]
        except ProtocolError as err:
            return log + [("raise", step, str(err))]
        log.append(action)
    return log


def overheard_log(decoder, bits, bit_width, flood):
    recorder = ProtocolRecorder()
    ctx = traversal._DfsShared(7, bit_width, recorder)
    return drive(decoder(ctx, flood), bits), recorder.events


@pytest.mark.parametrize("bit_width", [0, 2])
def test_listen_word_decodes_every_14_bit_string_like_the_parser(bit_width):
    # Width 0 lets HANDOFF and RETURN complete inside 14 rounds.  Every
    # shorter string is a prefix of one of these, with the prefix's log.
    outcomes = set()
    for bits in map("".join, itertools.product("01", repeat=14)):
        got = drive(traversal._listen_word(bit_width), bits)
        assert got == drive(reference_listen_word(bit_width), bits), bits
        outcomes.add(got[-1][0] if type(got[-1]) is tuple else "open")
    assert outcomes == {"return", "raise", "open"}


@pytest.mark.parametrize("flood", [None, 4])
def test_overheard_word_decodes_every_14_bit_string_like_the_parser(flood):
    outcomes = set()
    for bits in map("".join, itertools.product("01", repeat=14)):
        got = overheard_log(traversal._overheard_word, bits, 0, flood)
        assert got == overheard_log(reference_overheard_word, bits, 0, flood), bits
        log = got[0]
        outcomes.add(log[-1][2] is None if type(log[-1]) is tuple else "open")
    assert outcomes == {True, False, "open"} if flood else {False, "open"}


@pytest.mark.parametrize("bit_width", [0, 1, 4])
def test_overheard_word_floods_at_the_threshold_like_the_parser(bit_width):
    threshold = flood_threshold(bit_width)
    word = control_word("RETURN", bit_width, sender=(1 << bit_width) - 1, count=5)
    prefixes = ["".join(p) for k in range(7) for p in itertools.product("01", repeat=k)]
    floods = 0
    for prefix in prefixes:
        for ones in (threshold - 1, threshold):
            bits = prefix + "1" * ones + "0" + word
            got = overheard_log(traversal._overheard_word, bits, bit_width, threshold)
            assert got == overheard_log(reference_overheard_word, bits, bit_width, threshold)
            floods += got[0][-1][2] is None
    assert floods >= len(prefixes)  # every run of ``threshold`` ones floods


# ---------------------------------------------------------------------------
# Exact DFS round counts.


def assert_exact_dfs_rounds(graph, leader=None, lhat=None):
    run = dfs(graph, leader, lhat)
    extras = run.report.extras
    assert run.report.all_passed
    assert [c.measured for c in run.report.bound_checks if c.name == "dfs_round_count"] == [0]
    assert dfs_round_count(graph, extras["numbering"], extras["bit_width"]) == (
        run.report.total_rounds
    )
    return run


@pytest.mark.parametrize("family", FAMILIES)
def test_dfs_round_count_is_exact_on_every_family(family):
    for n in (2, 5, 18):
        if family == "cycle" and n < 3:
            continue
        g = generate(GraphSpec(family, n, seed=n, label_range=4 * n))
        lhat = assert_exact_dfs_rounds(g).report.extras["lhat"]
        assert_exact_dfs_rounds(g, leader=g.nodes[n // 2])
        assert_exact_dfs_rounds(g, lhat=8 * lhat)


@pytest.mark.parametrize("pairs", [barbell(5, 3), lollipop(6, 9), caterpillar(5, 3)])
def test_dfs_round_count_is_exact_on_adversarial_graphs(pairs):
    g = Graph.from_edges(pairs)
    assert_exact_dfs_rounds(g)
    assert_exact_dfs_rounds(g, leader=g.nodes[0])


def test_dfs_round_count_is_exact_on_a_single_node():
    g = generate(GraphSpec("path", 1))
    assert assert_exact_dfs_rounds(g).report.total_rounds == 12 + 1 + flood_threshold(0)
    assert assert_exact_dfs_rounds(g, lhat=8).report.total_rounds == 12 + 1 + flood_threshold(3)


def test_dfs_round_count_walks_a_long_path_without_recursion():
    n, w = 2000, 11
    g = Graph.from_edges([(i, i + 1) for i in range(n - 1)])
    t = 12  # the last node; each earlier one adds its child's exchange
    for num in range(n, 1, -1):
        handoff = 2 * (3 + 2 * w + num.bit_length()) + 4
        ret = 2 * (3 + w + n.bit_length()) + 4
        t += 12 + 22 + 12 * w + handoff + ret
    assert dfs_round_count(g, reference_dfs(g, 0), w) == t + 1 + n * flood_threshold(w)


def test_a_longer_control_word_fails_the_round_count(monkeypatch):
    # A leading 0 on RETURN's count decodes to the same number, so the DFS
    # numbering stays right, but every RETURN takes two rounds more.
    real = traversal.control_word

    def padded(kind, bit_width=0, **fields):
        word = real(kind, bit_width, **fields)
        if kind != "RETURN":
            return word
        payload = codec.decode(word)
        cut = 3 + bit_width  # opcode and sender
        return codec.encode(payload[:cut] + "0" + payload[cut:])

    monkeypatch.setattr(traversal, "control_word", padded)
    g = generate(GraphSpec("path", 5))
    run = dfs(g)
    failed = [(c.name, c.measured) for c in run.report.bound_checks if not c.passed]
    assert failed == [("dfs_round_count", 2 * (g.n - 1))]


def assert_exact_gossip_rounds(graph, rng, **bounds):
    msgs = {u: random_bits(rng, rng.randint(1, 6)) for u in graph.nodes}
    run = gossip(graph, msgs, **bounds)
    extras = run.report.extras
    assert run.report.all_passed
    assert [c.measured for c in run.report.bound_checks if c.name == "gossip_round_count"] == [0]
    rounds = gossip_round_count(graph, extras["numbering"], msgs, extras["dhat"], extras["lhat"])
    assert rounds == run.report.total_rounds
    numbering = reference_dfs(graph, graph.max_id)
    expected = tuple(msgs[u] for u in sorted(numbering, key=numbering.__getitem__))
    assert all(run.report.outputs[u] == expected for u in graph.nodes)
    # n - 1 decodes of the count wave and n - 1 of each of the n message waves
    assert len(extras["recorder"].of_kind("gossip_decode")) == graph.n ** 2 - 1


@pytest.mark.parametrize("family", FAMILIES)
def test_gossip_round_count_is_exact_on_every_family(family):
    # With the default dhat = n, with dhat = D < n and with a wider lhat.
    rng = random.Random(family)
    for n in (1, 2, 5, 13):
        if family == "cycle" and n < 3:
            continue
        g = generate(GraphSpec(family, n, seed=n, label_range=4 * n))
        assert_exact_gossip_rounds(g, rng)
        assert_exact_gossip_rounds(g, rng, dhat=max(1, diameter(g)), lhat=8 * 4 * n)


@pytest.mark.parametrize("pairs", [barbell(5, 3), lollipop(6, 9), caterpillar(5, 3)])
def test_gossip_round_count_is_exact_on_adversarial_graphs(pairs):
    assert_exact_gossip_rounds(Graph.from_edges(pairs), random.Random(len(pairs)))


def all_pairs_gossip_round_count(graph, numbering, msgs, dhat, lhat):
    """``gossip_round_count`` from a full BFS map of every node: the reference
    for the form that stops each d(s_i, s_{i+1}) search at s_{i+1}."""
    order = sorted(numbering, key=numbering.__getitem__)
    w = order[0].bit_length()
    dist = [distances(graph, s) for s in order]
    rounds = (election_len(ceil_log2(lhat), dhat) + dfs_round_count(graph, numbering, w)
              + (dhat + 1 - max(dist[0].values())) * flood_threshold(w) + 5
              + codeword_rounds(codec.int_to_bits(len(order))))
    rounds += sum(codeword_rounds(msgs[s]) for s in order) + max(dist[-1].values())
    rounds += sum(dist[i][s] + 1 for i, s in enumerate(order[1:]))
    return rounds - (len(order) == 1)


def assert_gossip_count_equals_all_pairs(graph, rng):
    numbering = reference_dfs(graph, rng.choice(graph.nodes))
    msgs = {u: random_bits(rng, rng.randint(1, 6)) for u in graph.nodes}
    dhat, lhat = graph.n + rng.randrange(3), 4 * graph.max_id + 4
    assert gossip_round_count(graph, numbering, msgs, dhat, lhat) == (
        all_pairs_gossip_round_count(graph, numbering, msgs, dhat, lhat))


@pytest.mark.parametrize("family", FAMILIES)
def test_gossip_round_count_equals_its_all_pairs_form_on_every_family(family):
    rng = random.Random(family)
    for n in (1, 2, 3, 9, 40, 300):
        if family == "cycle" and n < 3:
            continue
        assert_gossip_count_equals_all_pairs(generate(GraphSpec(family, n, seed=n)), rng)


@pytest.mark.parametrize("pairs", [barbell(5, 3), lollipop(6, 9), caterpillar(5, 3),
                                   barbell(40, 60), lollipop(30, 200), caterpillar(60, 4)])
def test_gossip_round_count_equals_its_all_pairs_form_on_adversarial_graphs(pairs):
    assert_gossip_count_equals_all_pairs(Graph.from_edges(pairs), random.Random(len(pairs)))


def test_a_later_gossip_wave_fails_the_round_count(monkeypatch):
    # One silent round before every wave, the count wave included, delays
    # each by one round and leaves every decoded message right.
    real = traversal.source_wave_phase

    def late(m):
        yield LISTEN
        return (yield from real(m))

    monkeypatch.setattr(traversal, "source_wave_phase", late)
    g = generate(GraphSpec("path", 5))
    run = gossip(g, {u: "1" * (u + 1) for u in g.nodes})
    failed = [(c.name, c.measured) for c in run.report.bound_checks if not c.passed]
    assert failed == [("gossip_round_count", g.n + 1)]


def test_dfs_and_gossip_cap_at_four_times_their_exact_round_count(monkeypatch):
    caps = capture_round_caps(monkeypatch, traversal)
    g = generate(GraphSpec("erConnected", 12, seed=4))
    numbering = reference_dfs(g, g.max_id)
    msgs = {u: "1" * (u % 3 + 1) for u in g.nodes}
    cases = [
        (lambda **kw: dfs(g, lhat=16, **kw), dfs_round_count(g, numbering, 4)),
        (lambda **kw: gossip(g, msgs, 12, 16, **kw),
         gossip_round_count(g, numbering, msgs, 12, 16)),
    ]
    for call, exact in cases:
        assert exact > 500  # so the cap is not the 2000 floor
        run = call()
        assert run.report.all_passed
        assert caps == [4 * exact] and run.report.total_rounds == exact
        call(max_rounds=123_456)
        assert caps == [4 * exact, 123_456]
        caps.clear()


def test_a_dfs_that_never_ends_times_out_at_four_times_its_exact_count(monkeypatch):
    real = traversal._dfs_root

    def endless(ctx, threshold):
        yield from real(ctx, threshold)
        while True:
            yield LISTEN

    monkeypatch.setattr(traversal, "_dfs_root", endless)
    g = generate(GraphSpec("path", 6, seed=2))
    exact = dfs_round_count(g, reference_dfs(g, g.max_id), 3)
    with pytest.raises(SimulationTimeout) as info:
        dfs(g, lhat=8)
    assert info.value.max_rounds == len(info.value.trace) == max(2000, 4 * exact)
    assert info.value.phases == {g.max_id: "endless"}
