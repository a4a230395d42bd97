from __future__ import annotations

import random
from collections import Counter

import pytest

from beepsim import codec, waves
from beepsim.engine import (
    BEEP,
    LISTEN,
    SLOT_PERIOD,
    WAIT,
    Echo,
    Graph,
    ProtocolError,
    SimulationTimeout,
    diameter,
    distances,
    now,
    simulate,
    verify_reception,
)
from beepsim.graphs import FAMILIES, GraphSpec, generate, or_oracle
from beepsim.multicast import multi_broadcast
from beepsim.waves import (
    await_quiet,
    broadcast,
    broadcast_value_phase,
    codeword_rounds,
    collect_messages,
    collect_phase_len,
    elect_leader,
    election_len,
    estimate_diameter,
    estimate_len,
    get_message_length,
    idle_until,
    msglen_phase_len,
    relay_decode,
    source_wave_phase,
)

from conftest import (
    barbell,
    beep_rounds,
    beeper_at,
    capture_round_caps,
    caterpillar,
    labelled_rounds,
    lollipop,
    random_bits,
    random_connected_graph,
)


# --- beep-wave source schedule -------------------------------------------

def collect_actions(program, rounds):
    acts = []
    try:
        acts.append(next(program))
        for _ in range(rounds - 1):
            acts.append(program.send(False))
    except StopIteration:
        pass
    return acts


def source_beep_rounds(m):
    acts = collect_actions(source_wave_phase(m), 50)
    return [i + 1 for i, a in enumerate(acts) if a == BEEP], len(acts)


def test_source_beep_rounds_m1():
    # codeword 101110: ones at slots 1, 3, 4, 5; terminates after 3|C(m)| rounds
    assert source_beep_rounds("1") == ([3, 9, 12, 15], 18)


def test_source_beep_rounds_m0():
    # codeword 100010: ones at slots 1, 5
    assert source_beep_rounds("0") == ([3, 15], 18)


# --- the phase clock --------------------------------------------------------

def test_idle_until_a_passed_round_names_node_and_round():
    g = Graph.from_edges([(0, 1)])

    def late():
        yield LISTEN
        yield LISTEN
        yield from idle_until(1)

    def early():
        yield from idle_until(2)

    with pytest.raises(ProtocolError) as err:
        simulate(g, {0: early(), 1: late()}, 10)
    assert (err.value.node, err.value.round) == (1, 2)
    assert err.value.reason == "phase end 1 has already passed"


def test_await_quiet_returns_after_the_quiet_window():
    g = Graph.from_edges([(0, 1)])

    def beeper():
        yield BEEP
        yield LISTEN
        yield BEEP

    def waiter():
        yield from await_quiet(3)
        return now()

    _, report = simulate(g, {0: beeper(), 1: waiter()}, 20)
    assert report.outputs[1] == 6  # beeps in rounds 1 and 3, quiet 4..6


def test_round_count_checks_flag_a_phase_that_overruns(monkeypatch):
    def one_round_late(phase):
        def late(*args, **kwargs):
            out = yield from phase(*args, **kwargs)
            yield LISTEN
            return out
        return late

    g = generate(GraphSpec("grid", 9, seed=2))
    sources, msgs = {g.nodes[0]}, {g.nodes[0]: "101"}
    cases = [
        ("diameter_phase", "estimate_round_count", lambda: estimate_diameter(g)),
        ("collect_phase", "collect_round_count",
         lambda: collect_messages(g, None, sources, msgs)),
        ("msglen_phase", "msglen_round_count",
         lambda: get_message_length(g, None, sources, msgs)),
    ]
    for phase, name, runner in cases:
        checks = {c.name: c for c in runner().report.bound_checks}
        assert (checks[name].measured, checks[name].passed) == (0, True)
        with monkeypatch.context() as m:
            m.setattr(waves, phase, one_round_late(getattr(waves, phase)))
            checks = {c.name: c for c in runner().report.bound_checks}
        assert (checks[name].measured, checks[name].passed) == (1, False), name


# --- broadcast ------------------------------------------------------------

def test_relay_decodes_on_path_and_heard_rounds():
    g = Graph.from_edges([(0, 1), (1, 2)])
    run = broadcast(g, 0, "1")
    # distance-2 node hears each slot beep one hop-delay later
    heard_at_2 = [r for r, _, heard in labelled_rounds(run.trace) if 2 in heard]
    assert heard_at_2 == [4, 10, 13, 16]
    assert run.report.outputs[2].message == "1"


def test_single_node_broadcast():
    g = Graph.from_edges([], nodes=[4], label_range=8)
    run = broadcast(g, 4, "101")
    assert run.report.total_rounds == codeword_rounds("101")


def test_star_broadcast_all_leaves_decode():
    g = Graph.from_edges([(9, 1), (9, 2), (9, 3), (9, 4)])
    run = broadcast(g, 9, "0110")
    for leaf in (1, 2, 3, 4):
        assert run.report.outputs[leaf].message == "0110"
        assert run.report.outputs[leaf].completed_round == codeword_rounds("0110") + 2


def test_layer_discipline_and_completion(rng):
    for _ in range(12):
        g = random_connected_graph(rng, 28)
        source = rng.choice(list(g.nodes))
        m = random_bits(rng, rng.randint(1, 9))
        run = broadcast(g, source, m)
        verify_reception(run.trace, g)
        dist = distances(g, source)
        cw = codec.encode(m)
        for r, beepers, _ in labelled_rounds(run.trace):
            for u in beepers:
                lag = r - dist[u]
                assert lag > 0 and lag % 3 == 0, (u, r)
                assert cw[lag // 3 - 1] == "1"
        for u in g.nodes:
            if u == source:
                continue
            out = run.report.outputs[u]
            assert out.message == m
            assert out.completed_round == codeword_rounds(m) + dist[u] + 1


# --- leader election --------------------------------------------------------

def test_elect_single_node_exact_rounds():
    g = Graph.from_edges([], nodes=[5], label_range=8)
    run = elect_leader(g, dhat=1, lhat=8)
    assert run.report.outputs[5] == 5
    assert run.report.total_rounds == 6


def test_elect_path_small():
    g = Graph.from_edges([(1, 2), (2, 3)])
    run = elect_leader(g, dhat=2, lhat=4)
    assert set(run.report.outputs.values()) == {3}
    assert run.report.total_rounds == election_len(2, 2)


def test_elect_random_graphs_match_max_oracle(rng):
    for _ in range(10):
        g = random_connected_graph(rng, 24)
        run = elect_leader(g)
        assert set(run.report.outputs.values()) == {g.max_id}
        width = (run.report.extras["lhat"] - 1).bit_length()
        assert run.report.total_rounds == election_len(width, run.report.extras["dhat"])


def test_elect_wide_label_range(rng):
    g = generate(GraphSpec("randomTree", 12, seed=9, label_range=500))
    run = elect_leader(g)
    assert set(run.report.outputs.values()) == {g.max_id}


def test_elect_rejects_bad_lhat():
    g = Graph.from_edges([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        elect_leader(g, lhat=3)


def test_elect_with_undersized_dhat_is_flagged():
    # dhat below the true diameter can elect the wrong node; the report's
    # max-ID oracle check turns that into a visible configuration failure.
    g = Graph.from_edges([(i, i + 1) for i in range(7)])  # path, D = 7
    run = elect_leader(g, dhat=1, lhat=8)
    leader_check = next(c for c in run.report.bound_checks if c.name == "leader_is_max_id")
    assert not leader_check.passed
    assert not run.report.all_passed


# --- diameter estimation ----------------------------------------------------

def test_estimate_two_node_golden():
    g = Graph.from_edges([(0, 1)])
    run = estimate_diameter(g, leader=1)
    assert set(run.report.outputs.values()) == {5}


def test_estimate_single_node_golden():
    g = Graph.from_edges([], nodes=[0])
    run = estimate_diameter(g, leader=0)
    assert run.report.outputs[0] == 3


def test_estimate_star_center_golden():
    g = Graph.from_edges([(5, 0), (5, 1), (5, 2), (5, 3)])
    run = estimate_diameter(g, leader=5)
    values = set(run.report.outputs.values())
    assert values == {5}  # frozen from the first simulation
    assert 2 <= values.pop() <= 2 * 2 + 7


def test_estimate_sandwich_across_families(rng):
    for family in ("path", "cycle", "star", "complete", "grid", "randomTree", "erConnected"):
        for n in (3, 9, 30):
            g = generate(GraphSpec(family, n, seed=n))
            run = estimate_diameter(g)
            d = diameter(g)
            values = set(run.report.outputs.values())
            assert len(values) == 1
            assert d <= values.pop() <= 2 * d + 7


# --- message collection -----------------------------------------------------

def test_collect_examples():
    g = Graph.from_edges([(2, 1), (1, 0)])
    run = collect_messages(g, 2, {1, 0}, {1: "10", 0: "01"}, p=2)
    assert run.report.outputs[2][1] == "11"
    run = collect_messages(g, 2, {2}, {2: "1101"}, p=4)
    assert run.report.outputs[2][1] == "1101"
    run = collect_messages(g, 2, {0, 1}, {0: "101", 1: "011"}, p=3)
    assert run.report.outputs[2][1] == "111"
    assert run.report.outputs[0] == run.report.outputs[1] == (run.report.outputs[2][0], None)


def test_collection_slots_are_one_frozen_set_per_input():
    # Nodes at one distance with the same bits share one cached slot set.
    slots = waves._collection_slots("1011", 7, 2)
    assert type(slots) is frozenset and slots == {8, 14, 17}
    assert waves._collection_slots("1011", 7, 2) is slots


def test_collect_rejects_oversized_message():
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        collect_messages(g, 1, {0}, {0: "1111"}, p=2)


def test_collect_randomized_or_and_residue_rule(rng):
    for _ in range(10):
        g = random_connected_graph(rng, 16)
        k = rng.randint(1, min(4, g.n))
        sources = set(rng.sample(list(g.nodes), k))
        msgs = {s: random_bits(rng, rng.randint(1, 6)) for s in sources}
        p = max(len(m) for m in msgs.values())
        leader = g.max_id
        run = collect_messages(g, leader, sources, msgs, p)
        dt, collected = run.report.outputs[leader]
        assert collected == or_oracle(list(msgs.values()), p)
        # residue rule: during collection, a node at distance d beeps only in
        # the class of distance d, never in the class of distance d + 1
        start = run.report.extras["collection_start"]
        length = run.report.extras["collection_rounds"]
        dist = distances(g, leader)
        for r, beepers, _ in labelled_rounds(run.trace):
            local = r - start
            if not 1 <= local <= length:
                continue
            for u in beepers:
                assert local % 3 == (dt - dist[u]) % 3
                assert local % 3 != (dt - dist[u] - 1) % 3


def test_collect_phase_budget(rng):
    for _ in range(5):
        g = random_connected_graph(rng, 12)
        sources = {g.nodes[0]}
        msgs = {g.nodes[0]: random_bits(rng, 4)}
        run = collect_messages(g, g.max_id, sources, msgs, 4)
        dt = run.report.outputs[g.max_id][0]
        assert run.report.total_rounds == estimate_len(dt) + collect_phase_len(4, dt)
        start = run.report.extras["collection_start"]
        end = start + run.report.extras["collection_rounds"]
        assert not any(beeps for beeps, _ in run.trace.rounds[end:])


# --- message length ----------------------------------------------------------

def test_msglen_examples():
    star = Graph.from_edges([(9, 1), (9, 2), (9, 3), (9, 4)])
    run = get_message_length(star, 9, {1, 2, 3}, {1: "11", 2: "11", 3: "1111"})
    assert {p for _, p in run.report.outputs.values()} == {4}
    run = get_message_length(star, 9, {4}, {4: "1"})
    assert {p for _, p in run.report.outputs.values()} == {1}


def test_msglen_mixed_lengths(rng):
    for _ in range(8):
        g = random_connected_graph(rng, 14)
        k = rng.randint(1, min(5, g.n))
        sources = set(rng.sample(list(g.nodes), k))
        msgs = {s: random_bits(rng, rng.randint(1, 7)) for s in sources}
        run = get_message_length(g, g.max_id, sources, msgs)
        assert {p for _, p in run.report.outputs.values()} == {max(len(m) for m in msgs.values())}


# --- error location ------------------------------------------------------------

def test_malformed_wave_error_names_node_and_absolute_round():
    # Node 1 idles 4 rounds, then sends slot bits 1001 (beeps at rounds 7
    # and 16).  Node 0's relay, armed from round 5, completes position 4 at
    # round 18 and finds the invalid pair 01.
    g = Graph.from_edges([(0, 1)])

    def sender():
        for _ in range(4):
            yield LISTEN
        for bit in "1001":
            yield LISTEN
            yield LISTEN
            yield BEEP if bit == "1" else LISTEN

    def relay():
        yield from idle_until(4)
        return (yield from relay_decode())

    programs = {0: relay(), 1: sender()}
    with pytest.raises(ProtocolError) as err:
        simulate(g, programs, 100)
    assert (err.value.node, err.value.round) == (0, 18)
    assert "invalid 01 pair" in err.value.reason


# --- known-width waves: an armed echo window -------------------------------------


def slot_sender(codeword, start):
    """Sends ``codeword`` one bit per 3-round slot, the first in round start + 3."""
    def gen():
        yield from idle_until(start)
        for bit in codeword:
            yield LISTEN
            yield LISTEN
            yield BEEP if bit == "1" else LISTEN
    return gen()


def per_round_relay():
    """The relay of ``relay_decode`` without a width, one step per round:
    the reference the kernel-ended echo must equal.

    Arms on the first heard beep, relays every heard beep one round later
    unless this node beeped two rounds before the relay round, and feeds
    3-round slot values into the incremental codeword parser.  Returns the
    payload ``codeword_rounds(payload) - 1`` rounds after the arming round.
    """
    yield WAIT  # silent until armed, so asleep until the first beep
    yield BEEP
    r = heard = 1  # r rounds since the arming round; heard bit j: a beep j rounds after it
    heard_prev = beeped_prev2 = False
    beeped_prev = True
    parser = codec.CodewordParser()
    slot_end = SLOT_PERIOD - 1  # position q is fully observed 3q - 1 rounds after arming
    while True:
        while r >= slot_end:
            try:
                done = parser.push(1 if heard >> (slot_end - 2) & 7 else 0)
            except codec.MalformedWord as bad:
                raise ProtocolError(f"wave decode failed: {bad}") from None
            slot_end += SLOT_PERIOD
            if done is not None:
                return done
        r += 1
        will_beep = heard_prev and not beeped_prev2
        fb = yield (BEEP if will_beep else LISTEN)
        beeped_prev2, beeped_prev = beeped_prev, will_beep
        heard_prev = fb is True
        if heard_prev:
            heard |= 1 << r


def decoder(width, until=None):
    """The kernel-ended decoder of a width with phase end ``until`` or of
    none, and for "ref" the per-round reference."""
    if width == "ref":
        return per_round_relay()
    return relay_decode() if width is None else relay_decode(width, until)


def wave_decoder(width, start, until=None):
    def gen():
        yield from idle_until(start)
        payload = yield from decoder(width, until)
        return payload, now()
    return gen()


def assert_window_end_error(err, node, width, until):
    """A ``width``-bit decoder whose word does not match raises after its
    phase end ``until``."""
    assert (err.value.node, err.value.round) == (node, until)
    assert err.value.reason.startswith(f"expected a {width}-bit wave, heard ")


def echo_cases(rng):
    for _ in range(8):
        yield random_connected_graph(rng, 200)
    for pairs in (barbell(8, 30), lollipop(12, 60), caterpillar(40, 3)):
        yield Graph.from_edges(pairs)


def test_known_width_relay_equals_the_per_round_relay(rng):
    for g in echo_cases(rng):
        source = rng.choice(g.nodes)
        payload = random_bits(rng, rng.randint(1, 8))
        # Each relay's phase end is the round its word ends in, d hops from
        # the source.  A width below the payload's is a word that does not
        # match: the source's neighbours, armed first, raise at their phase end.
        ends = {u: codeword_rounds(payload) + d + 1 for u, d in distances(g, source).items()}
        expected = rng.choice((len(payload), rng.randint(1, len(payload))))
        # Decoders that start in round 2 may be armed in their first round
        # asleep; those from round 0 sleep from the start.
        starts = {u: rng.choice((0, 2)) for u in g.nodes}
        runs = []
        for width in (expected, None, "ref"):
            programs = {u: wave_decoder(width, starts[u], ends[u]) for u in g.nodes}
            programs[source] = slot_sender(codec.encode(payload), 0)
            if type(width) is int and width != len(payload):
                with pytest.raises(ProtocolError) as err:
                    simulate(g, programs, 10_000)
                assert_window_end_error(err, min(g.adj[source]), width,
                                        codeword_rounds(payload) + 2)
                continue
            trace, report = simulate(g, programs, 10_000)
            runs.append((trace.rounds, report.outputs))
        assert all(run == runs[-1] for run in runs)
        assert all(out == (payload, ends[u]) for u, out in runs[-1][1].items() if u != source)


def test_a_relay_armed_right_after_its_own_beep_keeps_the_per_round_loop():
    # Node 1 beeps in round 2 and is armed in round 3; with a width or
    # without, it relays that beep in round 4, where the echo rule would not.
    # The word of a relay u hops from node 0 ends in round end + u.
    g = Graph.from_edges([(0, 1), (1, 2)])
    end = codeword_rounds("10") + 1

    def beeps_then_decodes(width):
        yield LISTEN
        yield BEEP
        return (yield from decoder(width, end + 1))

    runs = []
    for width in (2, None, "ref"):
        programs = {0: slot_sender(codec.encode("10"), 0), 1: beeps_then_decodes(width),
                    2: wave_decoder(width, 2, end + 2)}
        trace, report = simulate(g, programs, 100)
        runs.append((trace.rounds, report.outputs))
    assert runs[0] == runs[1] == runs[2]
    assert 4 in beep_rounds(trace, 1)


def test_a_relay_that_runs_on_past_its_window_keeps_its_own_last_beep():
    # Node 0 sends "101" to node 1.  Node 2's beeps in rounds 16 and 19 make
    # node 1 beep in round 20; it hears the source in round 21 and, having
    # beeped two rounds before, must not relay in round 22.  A node that
    # expects 1 bit has an 18-round window that ends in round 20, its phase
    # end, and the longer word does not match it.
    g = Graph.from_edges([(0, 1), (1, 2)])

    def injector():
        for r in range(1, 40):
            yield BEEP if r in (16, 19) else LISTEN

    def programs(width):
        return {0: slot_sender(codec.encode("101"), 0), 1: wave_decoder(width, 0, 20),
                2: injector()}

    with pytest.raises(ProtocolError) as err:
        simulate(g, programs(1), 100)
    assert_window_end_error(err, 1, 1, 20)
    trace, report = simulate(g, programs(None), 100)
    (_, beep_20, _), (_, _, heard_21), (_, beep_22, _) = labelled_rounds(trace)[19:22]
    assert 1 in beep_20 and 1 in heard_21 and 1 not in beep_22
    assert report.outputs[1] == ("111", 32)


def noisy_word(rng):
    """A codeword, the same with one bit flipped, one cut short (silence
    follows), or random bits after a 1."""
    word = codec.encode(random_bits(rng, rng.randint(0, 4)))
    k = rng.randrange(1, len(word))
    return rng.choice((
        word,
        word,
        word,
        word[:k] + "10"[int(word[k])] + word[k + 1:],
        word[:k],
        "1" + random_bits(rng, rng.randint(1, 12)),
    ))


def words_sender(words, gap):
    """Sends ``words`` one bit per 3-round slot from round 3, ``gap`` silent
    rounds after each."""
    def gen():
        for word in words:
            yield from slot_sender(word, now())
            for _ in range(gap):
                yield LISTEN
    return gen()


def repeated_decoder(width, start, reps):
    """Decodes ``reps`` waves in a row from round ``start``; returns each
    payload with the round it was decoded in."""
    def gen():
        yield from idle_until(start)
        decoded = []
        for _ in range(reps):
            payload = yield from decoder(width)
            decoded.append((payload, now()))
        return decoded
    return gen()


def relay_outcome(g, programs, max_rounds):
    """A run's trace and outputs, or its error, or its timeout."""
    try:
        trace, report = simulate(g, programs, max_rounds)
    except ProtocolError as err:
        return "error", err.node, err.round, err.reason
    except SimulationTimeout as err:
        return "timeout", sorted(err.live), err.trace.rounds
    return "ok", trace.rounds, report.outputs


def test_relays_of_unknown_width_equal_the_per_round_relay_on_noise():
    # Noisy words from one source, neighbours that beep at random rounds,
    # staggered starts and several decodes per node: relays armed in one
    # round end at different slots, and every run ends in success, in a
    # decode error or at the round cap, the same with either relay.
    rng = random.Random(16)
    seen = Counter()
    for _ in range(1500):
        g = random_connected_graph(rng, 10)
        source, *others = rng.sample(g.nodes, g.n)
        injectors = others[:rng.choice((0, 0, 1, 2))]
        words = [noisy_word(rng) for _ in range(rng.randint(1, 3))]
        gap = rng.randint(0, 9)
        starts = {u: rng.choice((0, 0, 0, 2, 5)) for u in g.nodes}
        reps = {u: rng.randint(1, len(words)) for u in g.nodes}
        beeps = {u: set(rng.sample(range(1, 90), rng.randint(1, 4))) for u in injectors}
        runs = []
        for width in (None, "ref"):
            programs = {u: repeated_decoder(width, starts[u], reps[u]) for u in g.nodes}
            programs[source] = words_sender(words, gap)
            programs.update({u: beeper_at(*beeps[u]) for u in injectors})
            runs.append(relay_outcome(g, programs, 200))
        assert runs[0] == runs[1]
        seen[runs[0][0]] += 1
    assert min(seen[k] for k in ("ok", "error", "timeout")) >= 150, seen


def test_relays_of_unknown_width_equal_the_per_round_relay_on_long_paths():
    # As above on paths and caterpillars of 30 - 45 nodes: a word crosses
    # many hops, so relays armed three rounds apart read their slots in one
    # residue class mod 3 at different positions of their words.
    rng = random.Random(17)
    seen = Counter()
    for case in range(150):
        if case % 2:
            g = Graph.from_edges([(i, i + 1) for i in range(rng.randint(29, 44))])
        else:
            g = Graph.from_edges(caterpillar(rng.randint(10, 15), 2))
        source, *others = rng.sample(g.nodes, g.n)
        injectors = others[:rng.choice((0, 0, 0, 1, 2))]
        words = [noisy_word(rng) for _ in range(rng.randint(1, 2))]
        gap = rng.randint(0, 9)
        starts = {u: rng.choice((0, 0, 2)) for u in g.nodes}
        reps = {u: rng.randint(1, len(words)) for u in g.nodes}
        beeps = {u: set(rng.sample(range(1, 90), rng.randint(1, 4))) for u in injectors}
        runs = []
        for width in (None, "ref"):
            programs = {u: repeated_decoder(width, starts[u], reps[u]) for u in g.nodes}
            programs[source] = words_sender(words, gap)
            programs.update({u: beeper_at(*beeps[u]) for u in injectors})
            runs.append(relay_outcome(g, programs, 300))
        assert runs[0] == runs[1]
        seen[runs[0][0]] += 1
    assert min(seen[k] for k in ("ok", "error", "timeout")) >= 20, seen


def counting(program, resumptions, u):
    """Runs ``program`` and counts in ``resumptions[u]`` how often it is
    resumed after its first action."""
    action = next(program)
    while True:
        fb = yield action
        resumptions[u] += 1
        try:
            action = program.send(fb)
        except StopIteration as stop:
            return stop.value


@pytest.mark.parametrize("short", [0, 1])
def test_a_known_width_relay_takes_no_per_round_step(short):
    # Resumed only after its phase end, the end of the word of a relay 4
    # hops from the source; a width one bit short of the word's raises
    # there, first at node 0, the first node resumed.
    payload = "1101"
    end = codeword_rounds(payload) + 5
    path, star = [(i, i + 1) for i in range(5)], [(0, i) for i in range(1, 6)]
    for g in (Graph.from_edges(path), Graph.from_edges(star)):
        resumptions = dict.fromkeys(g.nodes, 0)
        programs = {
            u: counting(relay_decode(len(payload) - short, end), resumptions, u)
            for u in g.nodes
        }
        programs[1] = slot_sender(codec.encode(payload), 0)
        if short:
            with pytest.raises(ProtocolError) as err:
                simulate(g, programs, 1000)
            assert_window_end_error(err, 0, len(payload) - short, end)
            continue
        _, report = simulate(g, programs, 1000)
        relays = [u for u in g.nodes if u != 1]
        assert all(report.outputs[u] == payload for u in relays)
        assert {resumptions[u] for u in relays} == {1}


# Source 0 sends "10" (word 10110010) to relays 1 and 2, both armed in round
# 3, whose words end in round 26; only relay 2 hears the injector 3, and a
# beep in round 3 + 3q puts a 1 in slot q of relay 2's word alone.
MIXED = Graph.from_edges([(0, 1), (0, 2), (2, 3)])


def mixed_group(injected, log):
    """Programs for MIXED with the injector beeping in slots ``injected``;
    each relay logs what it decoded.  Relay 1 is resumed first."""
    def injector():
        for r in range(1, 30):
            yield BEEP if r in {3 + 3 * q for q in injected} else LISTEN

    def relay(u):
        log[u] = yield from relay_decode(2, 26)
        return log[u]

    return {0: slot_sender(codec.encode("10"), 0), 1: relay(1), 2: relay(2), 3: injector()}


def test_relays_armed_together_decode_the_words_they_heard():
    # Without the injector both hear the source's word; slots 4 and 5 turn
    # relay 2's word into 10111110, the codeword of "11".
    for injected, decoded in (((), "10"), ((4, 5), "11")):
        log = {}
        simulate(MIXED, mixed_group(injected, log), 100)
        assert log == {1: "10", 2: decoded}
    # Slot 4 alone gives relay 2 the word 10111010, which is no codeword.
    log = {}
    with pytest.raises(ProtocolError) as err:
        simulate(MIXED, mixed_group((4,), log), 100)
    assert log == {1: "10"}
    assert (err.value.node, err.value.round) == (2, 26)
    assert err.value.reason == "expected a 2-bit wave, heard 10111010"


def test_a_word_ended_and_a_known_length_reader_armed_together_share_one_group():
    # Relay 1 reads to the end of its word, round 26, and relay 2 a 1-bit
    # window that ends in round 20 and has the injected beep in its slot 1.
    windows = {1: Echo.armed(), 2: Echo.armed(waves._width_rounds(1) - 1, 20)}

    def reader(window):
        yield window
        return now(), window.slots()

    programs = mixed_group((1,), {})
    programs.update({u: reader(window) for u, window in windows.items()})
    _, report = simulate(MIXED, programs, 100)
    assert windows[1]._view[1] is windows[2]._view[1]
    assert report.outputs == {0: None, 1: (26, "10110010"), 2: (20, "111100"), 3: None}


def test_relay_decode_takes_a_width_and_a_phase_end_together():
    g = Graph.from_edges([(0, 1)])
    for width, until in ((2, None), (None, 30)):
        with pytest.raises(ProtocolError) as err:
            simulate(g, {0: beeper_at(3), 1: relay_decode(width, until)}, 20)
        assert str(err.value) == (
            "node 1, round 0: relay_decode takes a width with a phase end, or neither"
            " (in relay_decode)")


@pytest.mark.parametrize("width", [1, 3])
def test_a_known_width_wave_with_one_flipped_bit_raises(width, rng):
    payload = random_bits(rng, width)
    codeword = codec.encode(payload)
    path, star = [(i, i + 1) for i in range(5)], [(0, i) for i in range(1, 6)]
    for g in (Graph.from_edges(path), Graph.from_edges(star)):
        for k in range(1, 2 * width + 2):  # the start marker's 0 and every payload bit
            bad = codeword[:k] + "10"[int(codeword[k])] + codeword[k + 1:]
            programs = {u: broadcast_value_phase(10, width, None) for u in g.nodes}
            programs[1] = slot_sender(bad, 0)
            with pytest.raises(ProtocolError) as err:
                simulate(g, programs, 1000)
            assert err.value.phase == "broadcast_value_phase > relay_decode"


# --- runner preamble -----------------------------------------------------------

def test_collect_and_msglen_reject_unknown_leader():
    g = Graph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        collect_messages(g, 99, {0}, {0: "1"})
    with pytest.raises(ValueError):
        get_message_length(g, 99, {0}, {0: "1"})


def phases_given_dtilde(g, dtilde, leader, source):
    """The collect and the msglen phase of every node of ``g`` from round 1,
    with a given D~ and a 1-bit message "1" at ``source``."""
    collect = {u: waves.collect_phase(dtilde, 1, "1" if u == source else None, u == leader)
               for u in g.nodes}
    msglen = {u: waves.msglen_phase(dtilde, int(u == source), u == leader) for u in g.nodes}
    return collect, msglen


def test_a_dtilde_below_the_leader_eccentricity_fails_at_the_calibration_end():
    # Node 0, 4 hops from leader 4, is armed in round 6, and its 17-round
    # calibration window would pass the phase end, calibration_len(2) = 21.
    g = Graph.from_edges([(i, i + 1) for i in range(4)])
    for phase, programs in zip(("collect_phase", "msglen_phase"),
                               phases_given_dtilde(g, 2, leader=4, source=0)):
        with pytest.raises(ProtocolError) as err:
            simulate(g, programs, 2000)
        assert str(err.value) == (
            f"node 0, round 21: armed window end 23 passes its phase end 21 (in {phase} > _calibrate)")


def test_collect_and_msglen_phases_take_their_length_under_a_loose_dtilde():
    # A loose but valid estimate, far above the 2n + 9 bound, still ends on time.
    g = Graph.from_edges([(i, i + 1) for i in range(4)])
    collect, msglen = phases_given_dtilde(g, 1000, leader=4, source=0)
    _, report = simulate(g, collect, 10**5)
    assert report.total_rounds == collect_phase_len(1, 1000)
    assert report.outputs[4] == "1"
    _, report = simulate(g, msglen, 10**5)
    assert report.total_rounds == msglen_phase_len(1, 1000)
    assert set(report.outputs.values()) == {1}


def test_collect_and_msglen_default_leader_is_max_id():
    g = Graph.from_edges([(0, 1), (1, 2)])
    run = collect_messages(g, None, {0}, {0: "101"})
    assert run.report.extras["leader"] == 2
    assert run.report.outputs[2][1] == "101"
    run = get_message_length(g, None, {0}, {0: "101"})
    assert run.report.extras["leader"] == 2
    assert {p for _, p in run.report.outputs.values()} == {3}


@pytest.mark.parametrize(
    "sources, msgs",
    [
        (set(), {}),  # no source
        ({7}, {7: "1"}),  # unknown source
        ({0, 1}, {0: "1"}),  # a source without a message
        ({0}, {0: "1", 1: "1"}),  # a message without a source
        ({0}, {0: ""}),  # empty message
        ({0}, {0: "12"}),  # not a bit string
    ],
)
def test_source_runners_share_one_input_check(sources, msgs):
    g = Graph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        collect_messages(g, 2, sources, msgs)
    with pytest.raises(ValueError):
        get_message_length(g, 2, sources, msgs)
    with pytest.raises(ValueError):
        multi_broadcast(g, sources, msgs)
    if len(sources) == 1 and len(msgs) == 1:
        (source,), (message,) = sources, msgs.values()
        with pytest.raises(ValueError):
            broadcast(g, source, message)


def test_runners_do_not_consult_the_diameter_oracle_before_simulating(monkeypatch):
    # Caps come from n; only estimate_diameter reads D, after its run, to
    # check the estimate.
    calls = []

    def counting_diameter(graph):
        calls.append(graph)
        return diameter(graph)

    def guarded_simulate(*args, **kwargs):
        assert not calls, "diameter oracle consulted before the run"
        return simulate(*args, **kwargs)

    monkeypatch.setattr(waves, "diameter", counting_diameter)
    monkeypatch.setattr(waves, "simulate", guarded_simulate)
    g = generate(GraphSpec("path", 6, seed=1))
    collect_messages(g, None, {g.nodes[0]}, {g.nodes[0]: "11"})
    get_message_length(g, None, {g.nodes[0]}, {g.nodes[0]: "11"})
    assert calls == []
    run = estimate_diameter(g)
    assert len(calls) == 1
    assert run.report.extras["true_diameter"] == 5


def test_waves_runners_cap_at_four_times_their_exact_round_count(monkeypatch):
    # Each cap is above the 2000 floor, and a caller's max_rounds replaces
    # it.  collect and msglen learn D~, so their cap is four times their
    # count at D~'s bound 2n + 9, while the run takes its count at the D~ it
    # learns.
    g = generate(GraphSpec("path", 10, seed=3))
    src = g.nodes[0]
    m = "10" * 50
    far = generate(GraphSpec("path", 120, seed=3))
    one = {far.nodes[0]: "1"}
    dt, bound = estimate_diameter(far).report.extras["dtilde"], 2 * far.n + 9
    caps = capture_round_caps(monkeypatch, waves)

    def collect_rounds(dtilde):
        return estimate_len(dtilde) + collect_phase_len(1, dtilde)

    def msglen_rounds(dtilde):
        return estimate_len(dtilde) + msglen_phase_len(1, dtilde)

    broadcast_rounds = 1 + codeword_rounds(m) + max(distances(g, src).values())
    cases = [
        (lambda **kw: broadcast(g, src, m, **kw), broadcast_rounds, broadcast_rounds),
        (lambda **kw: elect_leader(g, 40, 1 << 20, **kw), election_len(20, 40), election_len(20, 40)),
        (lambda **kw: collect_messages(far, None, set(one), one, **kw),
         collect_rounds(dt), collect_rounds(bound)),
        (lambda **kw: get_message_length(far, None, set(one), one, **kw),
         msglen_rounds(dt), msglen_rounds(bound)),
    ]
    for call, exact, worst in cases:
        assert 4 * worst > 2000
        run = call()
        assert run.report.all_passed
        assert caps == [max(2000, 4 * worst)] and run.report.total_rounds == exact
        call(max_rounds=123_456)
        assert caps == [max(2000, 4 * worst), 123_456]
        caps.clear()


def test_the_diameter_estimate_caps_at_its_worst_case_timetable(monkeypatch):
    caps = capture_round_caps(monkeypatch, waves)
    g = generate(GraphSpec("path", 120, seed=1))
    assert estimate_diameter(g).report.all_passed
    assert caps == [4 * estimate_len(2 * g.n + 9)]


# --- sleeping listeners ---------------------------------------------------------

def listening_election(my_id, bit_width, dhat):
    """``waves.election_phase`` with a LISTEN in every round it does not beep."""
    in_running = True
    verdicts = []
    for b in range(bit_width):
        my_bit = (my_id >> (bit_width - 1 - b)) & 1
        candidate = in_running and my_bit == 1
        heard_any = heard_prev = beeped_prev = beeped_prev2 = False
        for t in range(1, dhat + 2):
            will_beep = candidate if t == 1 else (heard_prev and not beeped_prev2)
            heard = (yield BEEP if will_beep else LISTEN) is True
            heard_any = heard_any or heard
            beeped_prev2, beeped_prev = beeped_prev, will_beep
            heard_prev = heard
        verdict = heard_any or candidate
        verdicts.append("1" if verdict else "0")
        if verdict and my_bit == 0:
            in_running = False
    return codec.bits_to_int("".join(verdicts))


def test_election_relays_after_a_long_sleep_like_a_listener(rng):
    # Node 1 beeps as a candidate in round 1 and hears nothing in round 2,
    # so it sleeps until node 0's scripted beep in round 4.  Having slept
    # more than one round, it beeped in neither of the last two rounds and
    # relays in round 5; a stale memory of its round-1 beep would suppress
    # that relay.  A flood that starts in round 1 never wakes a node that
    # late, so elect_leader runs alone cannot show it.
    g = Graph.from_edges([(0, 1)])
    dhat = 8

    def scripted(rounds):
        for r in range(1, dhat + 2):
            yield BEEP if r in rounds else LISTEN

    schedules = [{1, 4}] + [
        set(rng.sample(range(1, dhat + 2), rng.randrange(5))) for _ in range(100)
    ]
    for rounds in schedules:
        for my_id in (0, 1):  # with one ID bit, node ID 1 is a candidate
            sleeping = waves.election_phase(my_id, 1, dhat)
            trace, _ = simulate(g, {0: scripted(rounds), 1: sleeping}, 20)
            listening = listening_election(my_id, 1, dhat)
            want, _ = simulate(g, {0: scripted(rounds), 1: listening}, 20)
            assert trace == want
            if rounds == {1, 4} and my_id == 1:
                assert beep_rounds(trace, 1) == [1, 5]


def test_sleeping_election_beeps_exactly_like_a_listening_one(rng):
    for _ in range(40):
        g = random_connected_graph(rng, 30, label_range=rng.choice([None, 64, 1000]))
        dhat = rng.randrange(1, g.n + 3)
        run = elect_leader(g, dhat=dhat)
        width = run.report.extras["bit_width"]
        programs = {u: listening_election(u, width, dhat) for u in g.nodes}
        trace, report = simulate(g, programs, 10**6)
        assert run.trace == trace
        assert run.report.outputs == report.outputs


@pytest.mark.parametrize("family", FAMILIES)
def test_election_in_armed_windows_equals_a_listening_one_for_any_dhat(family):
    # dhat below the diameter arms some nodes in a bit's last round, or not
    # at all, and lets floods of one bit run into the next.
    rng = random.Random(family)
    for n in [1, 2, 3, 6, 11, 20, 30, 45] * 4:
        if family == "cycle" and n < 3:
            continue
        g = generate(GraphSpec(family, n, seed=rng.randrange(1 << 20),
                               label_range=rng.choice([None, 64, 1000])))
        d = diameter(g)
        for dhat in [h for h in sorted({1, d - 1, d, d + 2}) if h >= (n > 1)]:
            run = elect_leader(g, dhat=dhat)
            width = run.report.extras["bit_width"]
            programs = {u: listening_election(u, width, dhat) for u in g.nodes}
            trace, report = simulate(g, programs, 10**6)
            assert run.trace == trace
            assert run.report.outputs == report.outputs


@pytest.mark.parametrize("family", FAMILIES)
def test_data_independent_runners_take_exactly_their_phase_lengths(family):
    # The schedules of these runners depend only on D~ and p, so their round
    # counts are exact: any change to the kernel's round clock shows here.
    rng = random.Random(family)
    for n in (1, 2, 5, 17, 40):
        if family == "cycle" and n < 3:
            continue
        for seed in (0, 1):
            g = generate(GraphSpec(family, n, seed=seed))
            run = estimate_diameter(g)
            dt = run.report.extras["dtilde"]
            assert run.report.total_rounds == estimate_len(dt)
            sources = set(rng.sample(g.nodes, rng.randint(1, min(n, 4))))
            msgs = {s: random_bits(rng, rng.randint(1, 6)) for s in sources}
            p = max(len(m) for m in msgs.values())
            run = collect_messages(g, None, sources, msgs)
            assert run.report.total_rounds == estimate_len(dt) + collect_phase_len(p, dt)
            run = get_message_length(g, None, sources, msgs)
            assert run.report.total_rounds == estimate_len(dt) + msglen_phase_len(p, dt)
