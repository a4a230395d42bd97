from __future__ import annotations

import io
import itertools
import random
from types import MappingProxyType

import numpy as np
import pytest

from beepsim.engine import (
    BEEP,
    LISTEN,
    WAIT,
    Echo,
    Graph,
    ProtocolError,
    SimulationError,
    SimulationTimeout,
    Trace,
    diameter,
    distances,
    now,
    read_graph,
    simulate,
    verify_reception,
    wait,
    write_graph,
    write_trace,
)
from beepsim.graphs import FAMILIES, GraphSpec, generate

from conftest import (
    barbell,
    beep_rounds,
    beeper_at,
    caterpillar,
    hop_distance_oracle,
    labelled_rounds,
    lollipop,
    random_connected_graph,
)


def one_shot(action, then_listen: int = 0):
    def gen():
        yield action
        for _ in range(then_listen):
            yield LISTEN
    return gen()


def listener(rounds: int):
    def gen():
        heard = []
        for _ in range(rounds):
            fb = yield LISTEN
            heard.append(fb)
        return heard
    return gen()


def test_two_node_beep_is_heard():
    g = Graph.from_edges([(0, 1)])
    trace, report = simulate(g, {0: one_shot(BEEP), 1: listener(1)}, 10)
    assert report.total_rounds == 1
    assert labelled_rounds(trace) == [(1, [0], [1])]
    assert report.outputs[1] == [True]


def test_single_node_never_hears():
    g = Graph.from_edges([], nodes=[0])

    def forever_beeper():
        for _ in range(5):
            fb = yield BEEP
            assert fb is None  # beeping nodes receive nothing
    trace, report = simulate(g, {0: forever_beeper()}, 10)
    assert report.total_rounds == 5
    assert all(heard == 0 for _, heard in trace.rounds)


def test_path_reception_is_one_hop():
    g = Graph.from_edges([(0, 1), (1, 2)])
    trace, report = simulate(
        g, {0: one_shot(BEEP, 2), 1: listener(3), 2: listener(3)}, 10
    )
    assert report.outputs[1] == [True, False, False]
    assert report.outputs[2] == [False, False, False]


def test_beeper_has_no_heard_flag():
    g = Graph.from_edges([(0, 1)])
    trace, _ = simulate(g, {0: one_shot(BEEP), 1: one_shot(BEEP)}, 10)
    assert labelled_rounds(trace) == [(1, [0, 1], [])]


def test_determinism_bit_identical():
    def build():
        g = generate(GraphSpec("erConnected", 15, seed=3))
        rng = random.Random(42)

        def prog(u):
            def gen():
                for r in range(20):
                    fb = yield (BEEP if rng_map[u].random() < 0.3 else LISTEN)
            return gen()

        rng_map = {u: random.Random(u * 17) for u in g.nodes}
        return simulate(g, {u: prog(u) for u in g.nodes}, 50)

    t1, r1 = build()
    t2, r2 = build()
    assert t1 == t2
    assert r1.total_rounds == r2.total_rounds


def test_no_clairvoyance_prefix_replay():
    g = generate(GraphSpec("randomTree", 10, seed=5))

    def build_programs():
        def prog(u):
            def gen():
                heard_prev = False
                for r in range(30):
                    fb = yield (BEEP if heard_prev or (u == g.max_id and r == 0) else LISTEN)
                    heard_prev = fb is True
            return gen()
        return {u: prog(u) for u in g.nodes}

    full, _ = simulate(g, build_programs(), 50)
    with pytest.raises(SimulationTimeout) as err:
        simulate(g, build_programs(), 12)
    partial = err.value.trace
    assert partial.rounds == full.rounds[:12]


def test_timeout_carries_partial_trace():
    g = Graph.from_edges([(0, 1)])

    def endless():
        while True:
            yield LISTEN
    def nested():
        yield from endless()

    with pytest.raises(SimulationTimeout) as err:
        simulate(g, {0: endless(), 1: nested()}, 7)
    assert len(err.value.trace) == 7
    assert err.value.live == {0, 1}
    assert err.value.phases == {0: "endless", 1: "endless"}
    assert str(err.value) == "2 node(s) still running after 7 rounds: [0, 1]; in endless"


def test_reception_soundness_random_traffic(rng):
    for _ in range(10):
        g = random_connected_graph(rng, 20)

        def chatter(u):
            def gen():
                mine = random.Random(u ^ 0x5A5A)
                for _ in range(15):
                    yield (BEEP if mine.random() < 0.4 else LISTEN)
            return gen()

        trace, _ = simulate(g, {u: chatter(u) for u in g.nodes}, 20)
        verify_reception(trace, g)


def test_distances_examples():
    path = generate(GraphSpec("path", 5, seed=0))
    # endpoints of the path have eccentricity 4
    ends = [u for u in path.nodes if len(path.adj[u]) == 1]
    d = distances(path, ends[0])
    assert sorted(d.values()) == [0, 1, 2, 3, 4]
    star = Graph.from_edges([(9, 1), (9, 2), (9, 3), (9, 4)])
    d = distances(star, 9)
    assert d[9] == 0 and all(d[v] == 1 for v in (1, 2, 3, 4))


def test_distances_against_matrix_power_oracle():
    g = generate(GraphSpec("erConnected", 30, seed=11))
    idx = {u: i for i, u in enumerate(g.nodes)}
    a = np.zeros((g.n, g.n), dtype=bool)
    for e in g.edges:
        u, v = tuple(e)
        a[idx[u], idx[v]] = a[idx[v], idx[u]] = True
    reach = np.eye(g.n, dtype=bool)
    oracle = np.full((g.n, g.n), -1)
    np.fill_diagonal(oracle, 0)
    for step in range(1, g.n):
        reach = reach | (reach @ a)
        newly = (oracle == -1) & reach
        oracle[newly] = step
    for u in g.nodes:
        d = distances(g, u)
        for v in g.nodes:
            assert d[v] == oracle[idx[u], idx[v]]
    assert diameter(g) == oracle.max()


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 1), (2, 3)])  # disconnected
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 5)], label_range=4)


def test_graph_file_roundtrip():
    g = generate(GraphSpec("grid", 12, seed=2))
    buf = io.StringIO()
    write_graph(g, buf)
    buf.seek(0)
    g2 = read_graph(buf)
    assert g2.nodes == g.nodes
    assert g2.edges == g.edges


def test_graph_file_roundtrip_keeps_lone_node_and_edges():
    for g, text in (
        (Graph.from_edges([], nodes=[5]), "n 1\n5\n"),
        (Graph.from_edges([(0, 1), (1, 2)]), "n 3\n0 1\n1 2\n"),
    ):
        buf = io.StringIO()
        write_graph(g, buf)
        assert buf.getvalue() == text
        buf.seek(0)
        assert read_graph(buf) == g


def test_a_graph_file_carries_no_label_range():
    g = generate(GraphSpec("randomTree", 10, seed=3, label_range=1000))
    assert g.label_range > g.max_id + 1
    buf = io.StringIO()
    write_graph(g, buf)
    buf.seek(0)
    g2 = read_graph(buf)
    assert (g2.nodes, dict(g2.adj), g2.label_range) == (g.nodes, dict(g.adj), g.max_id + 1)


@pytest.mark.parametrize("line", ["1 2 3", "1 x", "-1 2"])
def test_read_graph_names_a_line_that_is_not_an_edge_or_a_node(line):
    with pytest.raises(ValueError) as err:
        read_graph(io.StringIO(f"n 3\n0 1\n\n{line}\n"))
    assert str(err.value) == f"line 4: expected 'u v' or 'u', got {line!r}"


@pytest.mark.parametrize("header", ["n x", "n -3", "n 2.0"])
def test_read_graph_says_that_a_header_count_is_not_a_number(header):
    with pytest.raises(ValueError) as err:
        read_graph(io.StringIO(f"{header}\n0 1\n"))
    assert str(err.value) == f"line 1: header count {header.split()[1]!r} is not a number"


def test_trace_jsonl_format():
    g = Graph.from_edges([(0, 1)])
    trace, _ = simulate(g, {0: one_shot(BEEP), 1: listener(1)}, 5)
    buf = io.StringIO()
    write_trace(trace, buf)
    assert buf.getvalue() == '{"round": 1, "beepers": [0], "heard": [1]}\n'


def assert_oracles_match(g, nodes, edges):
    idx, want = hop_distance_oracle(nodes, edges)
    assert diameter(g) == want.max()
    for u in g.nodes:
        assert distances(g, u) == {v: want[idx[u], idx[v]] for v in g.nodes}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 150])
def test_oracles_match_input_edges_every_family(family, n, monkeypatch):
    if family == "cycle" and n < 3:
        pytest.skip("cycle needs n >= 3")
    given = []
    build = Graph.from_edges

    def capture(edges, nodes=None, label_range=None):
        edges, nodes = list(edges), list(nodes)
        given.append((nodes, edges))
        return build(edges, nodes, label_range)

    monkeypatch.setattr(Graph, "from_edges", staticmethod(capture))
    g = generate(GraphSpec(family, n, seed=9, label_range=1000 * n))
    monkeypatch.undo()
    assert_oracles_match(g, *given[-1])


@pytest.mark.parametrize(
    "pairs", [barbell(8, 30), lollipop(12, 60), caterpillar(40, 3)],
    ids=["barbell", "lollipop", "caterpillar"],
)
def test_oracles_match_input_edges_adversarial(pairs):
    rng = random.Random(len(pairs))
    n = 1 + max(max(e) for e in pairs)
    ids = rng.sample(range(10**6), n)
    edges = [(ids[a], ids[b]) if rng.random() < 0.5 else (ids[b], ids[a]) for a, b in pairs]
    rng.shuffle(edges)
    g = Graph.from_edges(edges)
    assert g.label_range == max(ids) + 1 and g.n == n
    assert_oracles_match(g, ids, edges)


def _tree_plus_chords(rng, n_max):
    n = rng.randint(2, n_max)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n // 2)):
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    ids = rng.sample(range(10**6), n)
    return Graph.from_edges([(ids[u], ids[v]) for u, v in pairs], nodes=ids)


def test_diameter_equals_the_largest_bfs_eccentricity():
    rng = random.Random(0xD1A)
    above_double_sweep = 0
    for _ in range(1500):
        g = _tree_plus_chords(rng, 40)
        ecc = {u: max(distances(g, u).values()) for u in g.nodes}
        assert diameter(g) == max(ecc.values())
        # Count the draws whose double-sweep bound, the eccentricity of the
        # last node a BFS from node 0 reaches, is below D: on those D comes
        # from the candidate sweep.
        far = list(distances(g, g.nodes[0]))[-1]
        above_double_sweep += ecc[far] < max(ecc.values())
    assert above_double_sweep >= 50


def test_diameter_of_a_long_path_is_not_quadratic():
    assert diameter(generate(GraphSpec("path", 20000, seed=0))) == 19999


def test_diameter_of_an_odd_cycle_sweeps_half_the_nodes():
    assert diameter(generate(GraphSpec("cycle", 501, seed=3))) == 250


def test_diameter_rejects_a_disconnected_graph():
    g = Graph((0, 1, 2), MappingProxyType({0: (1,), 1: (0,), 2: ()}), 3)
    with pytest.raises(ValueError, match="not connected"):
        diameter(g)


def test_graph_value_ignores_edge_order_and_orientation():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    a = Graph.from_edges(edges)
    b = Graph.from_edges([(v, u) for u, v in reversed(edges)])
    assert a == b and hash(a) == hash(b)
    assert a.edges == b.edges == {frozenset(e) for e in edges}
    assert a != Graph.from_edges(edges[:-1])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges([(0, 1), (1, 0)])


def test_adjacency_is_read_only():
    g = Graph.from_edges([(2, 1), (0, 1)])
    assert g.adjacency() == {0: (1,), 1: (0, 2), 2: (1,)}
    assert g.adj[1] == (0, 2)
    with pytest.raises(TypeError):
        g.adjacency()[0] = (2,)


# --- sleeping listeners -----------------------------------------------------------


def sleeper(make_action):
    """Yields one wait action in round 0; returns the round it was resumed
    in and the feedback it was resumed with."""
    def gen():
        fb = yield make_action()
        return now(), fb
    return gen()


def test_waiting_node_is_a_listener_and_wakes_on_the_beep():
    g = Graph.from_edges([(0, 1)])
    trace, report = simulate(g, {0: beeper_at(4), 1: sleeper(lambda: WAIT)}, 10)
    assert report.outputs[1] == (4, True)
    assert [heard for _, _, heard in labelled_rounds(trace)] == [[]] * 3 + [[1]]
    verify_reception(trace, g)


def test_deadline_wait_resumes_false_after_the_deadline_or_true_on_a_beep():
    g = Graph.from_edges([(0, 1)])
    _, report = simulate(g, {0: beeper_at(9), 1: sleeper(lambda: wait(5))}, 20)
    assert report.outputs[1] == (5, False)
    _, report = simulate(g, {0: beeper_at(3), 1: sleeper(lambda: wait(5))}, 20)
    assert report.outputs[1] == (3, True)
    _, report = simulate(g, {0: beeper_at(5), 1: sleeper(lambda: wait(5))}, 20)
    assert report.outputs[1] == (5, True)


def test_waiting_node_is_resumed_only_when_it_hears_or_its_deadline_passes():
    g = Graph.from_edges([(0, 1), (1, 2)])
    resumed = []

    def counted():
        while now() < 12:
            fb = yield wait(12)
            resumed.append((now(), fb))

    simulate(g, {0: beeper_at(3, 4, 9), 1: beeper_at(12), 2: counted()}, 20)
    assert resumed == [(12, True)]  # node 0's beeps are two hops away
    resumed.clear()
    simulate(g, {0: counted(), 1: beeper_at(3, 4, 9), 2: beeper_at(12)}, 20)
    assert resumed == [(3, True), (4, True), (9, True), (12, False)]


def test_woken_nodes_step_in_ascending_order_with_the_awake_ones():
    g = Graph.from_edges([(0, 1), (1, 2), (1, 3)])
    order = []

    def logged(action):
        def gen():
            while True:
                yield action
                order.append((now(), "w" if action == WAIT else "l"))
        return gen()

    with pytest.raises(SimulationTimeout):
        simulate(g, {0: logged(WAIT), 1: beeper_at(2), 2: logged(LISTEN), 3: logged(WAIT)}, 3)
    assert order == [(1, "l"), (2, "w"), (2, "l"), (2, "w"), (3, "l")]


@pytest.mark.parametrize(
    "action, reason",
    [
        (lambda r: WAIT + r, "wait deadline 2 is not after round 2"),
        (lambda r: WAIT + r - 1, "wait deadline 1 is not after round 2"),
        (lambda r: wait(r), "wait deadline 2 is not after round 2"),
        (lambda r: -1, "invalid action -1"),
        (lambda r: None, "invalid action None"),
        (lambda r: "beep", "invalid action 'beep'"),
        (lambda r: 2.5, "invalid action 2.5"),
    ],
)
def test_invalid_action_names_the_node_and_round(action, reason):
    g = Graph.from_edges([(0, 1)])

    def faulty():
        yield LISTEN
        yield LISTEN
        yield action(now())

    with pytest.raises(ProtocolError) as err:
        simulate(g, {0: beeper_at(5), 1: faulty()}, 10)
    assert (err.value.node, err.value.round, err.value.reason) == (1, 2, reason)
    assert err.value.phase == "faulty"  # the kernel refused it, so no program frame raised


def test_a_deadline_action_kept_past_its_round_is_invalid():
    g = Graph.from_edges([(0, 1)])

    def stale():
        action = wait(3)
        for _ in range(3):
            yield LISTEN
        yield action

    with pytest.raises(ProtocolError) as err:
        simulate(g, {0: beeper_at(5), 1: stale()}, 10)
    assert (err.value.node, err.value.round) == (1, 3)
    assert "wait deadline 3 is not after round 3" in str(err.value)


def test_sleepers_alone_run_into_the_round_cap():
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(SimulationTimeout) as err:
        simulate(g, {0: sleeper(lambda: WAIT), 1: listener(3)}, 40)
    assert len(err.value.trace) == 40 and err.value.live == {0}


def test_a_node_woken_early_ignores_its_old_deadline_when_it_waits_again():
    g = Graph.from_edges([(0, 1)])

    def rewaits():
        first = yield wait(10)  # woken early by the beep in round 3
        woke_at = now()
        second = yield wait(20)  # nobody acts again before round 20
        return (woke_at, first), (now(), second)

    trace, report = simulate(g, {0: beeper_at(3), 1: rewaits()}, 100)
    assert report.outputs[1] == ((3, True), (20, False))
    assert report.total_rounds == 20
    assert [beeps for beeps, _ in trace.rounds] == [0, 0, 0b1] + [0] * 17
    verify_reception(trace, g)


# --- echo windows -------------------------------------------------------------


def rule_relay(until, gate=None, armed=False):
    """Applies the echo rule one round at a time up to round ``until``: beep
    in round r + 1 iff heard in round r, r = gate mod 3, and silent in r - 1.
    If ``armed``, it is asleep until the round a of its first heard beep and
    relays that beep in round a + 1 whatever it did in round a - 1.  Returns
    its last round and feedback."""
    def gen():
        asleep = armed
        heard = beeped = beeped_before = False  # heard and beeped in round r, beeped in r - 1
        while now() < until:
            gated = gate is None or now() % 3 == gate % 3
            will = heard and gated and (asleep or not beeped_before)
            asleep = asleep and not heard
            fb = yield BEEP if will else LISTEN
            beeped_before, beeped, heard = beeped, fb is None, fb is True
        return now(), fb
    return gen()


def echoer(until, gate=None, log=None):
    """Yields one Echo in round 0; returns the round it was resumed in and the
    feedback, and logs that round."""
    def gen():
        fb = yield Echo(until, gate)
        if log is not None:
            log.append(now())
        return now(), fb
    return gen()


def heard_bits(trace, u, first, last):
    """Bit j set: node u heard a beep in round first + j, up to round last."""
    bit = 1 << trace.nodes.index(u)
    return sum(1 << j for j, (_, heard) in enumerate(trace.rounds[first - 1:last]) if heard & bit)


# A path 0-1-2-3-4-5 whose end 0 beeps; a star whose hub 0 relays for leaf 1.
ECHO_CASES = [
    (Graph.from_edges([(i, i + 1) for i in range(5)]), 0, (1, 2, 4, 5, 6, 10, 13, 14, 15)),
    (Graph.from_edges([(0, i) for i in range(1, 6)]), 1, (1, 2, 3, 5, 8, 9, 11, 14, 15, 16)),
]


@pytest.mark.parametrize("gate", [None, 0, 1, 2, 5])
@pytest.mark.parametrize("case", range(len(ECHO_CASES)))
def test_echo_traces_equal_a_per_round_relay_of_the_rule(case, gate):
    g, source, rounds = ECHO_CASES[case]
    until = 24
    runs = []
    for relay in (rule_relay, echoer):
        programs = {u: relay(until, gate) for u in g.nodes if u != source}
        programs[source] = beeper_at(*rounds)
        trace, report = simulate(g, programs, 100)
        verify_reception(trace, g)
        runs.append((trace.rounds, report.outputs))
    assert runs[0] == runs[1]
    relayed = [(r, u) for r, beepers, _ in labelled_rounds(trace) for u in beepers if u != source]
    assert relayed  # the rule fired
    if gate is not None:
        assert {(r - 1) % 3 for r, _ in relayed} == {gate % 3}


def test_an_echoing_node_is_resumed_once_after_until_with_its_window_bits():
    g, source, rounds = ECHO_CASES[0]
    log = []
    programs = {u: echoer(9 + u, None, log if u == 2 else None) for u in g.nodes if u != source}
    programs[source] = beeper_at(*rounds)
    trace, report = simulate(g, programs, 100)
    resumed, = log  # the only resumption of node 2
    _, beepers, heard = labelled_rounds(trace)[10]  # round 11
    assert resumed == 11
    assert report.outputs[2] == (11, None if 2 in beepers else 2 in heard)
    assert heard_bits(trace, 2, 1, 11) and any(r <= 11 for r in beep_rounds(trace, 2))


def test_echo_deadline_not_after_the_round_names_the_node_and_round():
    g = Graph.from_edges([(0, 1)])

    def late(make):
        yield LISTEN
        yield LISTEN
        yield make()

    kept = Echo(2)  # valid in round 0, yielded in round 2
    for make in (lambda: Echo(now()), lambda: kept):
        with pytest.raises(ProtocolError) as err:
            simulate(g, {0: beeper_at(5), 1: late(make)}, 10)
        assert (err.value.node, err.value.round) == (1, 2)
        assert err.value.reason == "wait deadline 2 is not after round 2"


def test_an_echoing_node_is_live_when_the_round_cap_hits():
    g = Graph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(SimulationTimeout) as err:
        simulate(g, {0: beeper_at(1, 2, 3), 1: echoer(100), 2: listener(3)}, 40)
    assert len(err.value.trace) == 40 and err.value.live == {1}


# --- armed echoes ---------------------------------------------------------------


def armed_window(length, until, *first, read=True):
    """Yields the actions ``first``, then one armed Echo with phase end
    ``until``; returns the round it was resumed in, its window's end and, if
    ``read``, its slots."""
    def gen():
        for action in first:
            yield action
        window = Echo.armed(length, until)
        yield window
        return now(), window.end, window.slots() if read else None
    return gen()


def wakes(count, log):
    """Sleeps on ``count`` plain WAITs and logs each wake's round and feedback."""
    def gen():
        for _ in range(count):
            fb = yield WAIT
            log.append((now(), fb))
    return gen()


# A path 0 - 1 - 2 with a leaf 3 on node 0, which beeps in rounds 3 and 9.
ARMED_PATH = Graph.from_edges([(0, 1), (1, 2), (0, 3)])


def test_an_armed_echo_relays_its_arming_beep_after_its_own_beep():
    # Node 1 beeps in round 2 and is armed by node 0's beep in round 3.
    trace, report = simulate(
        ARMED_PATH, {0: beeper_at(3, 9), 1: armed_window(4, 7, LISTEN, BEEP),
                     2: listener(9), 3: listener(9)}, 100)
    verify_reception(trace, ARMED_PATH)
    assert beep_rounds(trace, 1) == [2, 4]
    assert report.outputs[1] == (7, 7, "10")
    assert heard_bits(trace, 1, 3, 7) == 0b1

    # A plain Echo from the same round keeps the rule and stays silent.
    def beeps_then_echoes():
        yield LISTEN
        yield BEEP
        return (yield from echoer(7))

    plain = {0: beeper_at(3, 9), 1: beeps_then_echoes(), 2: listener(9), 3: listener(9)}
    trace, _ = simulate(ARMED_PATH, plain, 100)
    assert beep_rounds(trace, 1) == [2]


def test_an_armed_echo_is_resumed_once_and_heard_bit_0_is_the_arming_round():
    g = Graph.from_edges([(0, 1), (1, 2)])
    trace, report = simulate(g, {0: beeper_at(5, 8, 14), 1: armed_window(6, 13),
                                 2: listener(14)}, 100)
    verify_reception(trace, g)
    assert beep_rounds(trace, 1) == [6, 9]
    # Armed in round 5, so the window is rounds 5 - 11, its slots are rounds
    # 5 - 7, 8 - 10 and 11, and bit j is round 5 + j; resumed after round 13.
    assert report.outputs[1] == (13, 11, "110")
    assert heard_bits(trace, 1, 5, 11) == 0b1001


def test_a_plain_wait_beside_an_armed_echo_is_unaffected():
    # Node 1 beeps in rounds 2 and 4 either way; the sleepers on nodes 2 and
    # 3 must wake in the rounds they hear a beep and in no other.
    runs = []
    for relay in (armed_window(4, 7, LISTEN, BEEP), beeper_at(2, 4)):
        logs = {2: [], 3: []}
        programs = {0: beeper_at(3, 9), 1: relay, 2: wakes(2, logs[2]), 3: wakes(2, logs[3])}
        trace, _ = simulate(ARMED_PATH, programs, 100)
        runs.append((trace.rounds, logs))
    assert runs[0] == runs[1]
    assert runs[0][1] == {2: [(2, True), (4, True)], 3: [(3, True), (9, True)]}


@pytest.mark.parametrize("length", [0, -3])
def test_an_armed_echo_length_that_is_not_positive_is_named(length):
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(ProtocolError) as err:
        simulate(g, {0: beeper_at(5), 1: armed_window(length, 9, LISTEN, LISTEN)}, 10)
    assert (err.value.node, err.value.round) == (1, 2)
    assert err.value.reason == f"armed echo length must be positive, got {length}"


def test_an_armed_echo_length_without_a_phase_end_is_named():
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(ProtocolError) as err:
        simulate(g, {0: beeper_at(5), 1: armed_window(4, None, LISTEN, LISTEN)}, 10)
    assert str(err.value) == "node 1, round 2: armed echo length 4 without a phase end (in gen)"


def test_armed_echo_slots_or_the_heard_bits_of_each_period(rng):
    # Readers armed in one round share one group whatever their lengths, and
    # random beepers make their slots differ.  Every reader has a beeper
    # neighbour, and every beeper beeps in round 40, so every reader is armed.
    for _ in range(12):
        g = random_connected_graph(rng, 40)
        beepers = set(rng.sample(g.nodes, g.n // 4))
        for u in g.nodes:
            if u not in beepers and beepers.isdisjoint(g.adj[u]):
                beepers.add(u)
        programs, lengths = {}, {}
        for u in g.nodes:
            if u in beepers:
                programs[u] = beeper_at(40, *rng.sample(range(1, 30), 6))
            else:
                first = [LISTEN] * rng.choice((0, 0, 1, 3))
                lengths[u] = rng.choice((5, 8))
                programs[u] = armed_window(lengths[u], 50, *first)
        trace, report = simulate(g, programs, 100)
        for u, length in lengths.items():
            _, end, slots = report.outputs[u]
            heard = heard_bits(trace, u, end - length, end)
            expected = "".join(
                "1" if heard >> q & 0b111 else "0" for q in range(0, length + 1, 3)
            )
            assert slots == expected


def test_slots_of_an_echo_that_was_never_armed_names_the_node_and_round():
    g = Graph.from_edges([(0, 1)])

    def plain():
        window = Echo(3)
        yield window
        window.slots()

    def before_yield():
        yield LISTEN
        Echo.armed().slots()

    for program, round_no in ((plain(), 3), (before_yield(), 1)):
        with pytest.raises(ProtocolError) as err:
            simulate(g, {0: program, 1: listener(5)}, 10)
        assert str(err.value).startswith(f"node 0, round {round_no}: ")
        assert err.value.reason == "slots() of an echo that was never armed"


def test_a_node_armed_in_its_phase_end_round_does_not_relay_after_it():
    # Node 1 is armed by node 0's beep in round 4, its phase end, while node 2
    # still echoes, so the kernel still sends relays in round 5.
    g = Graph.from_edges([(0, 1), (1, 2)])

    def armed_then_listens():
        window = Echo.armed(until=4)
        yield window
        resumed = now()
        yield LISTEN
        yield LISTEN
        return resumed, window.end

    trace, report = simulate(g, {0: beeper_at(4), 1: armed_then_listens(), 2: echoer(9)}, 20)
    verify_reception(trace, g)
    assert report.outputs[1] == (4, 4)
    assert not any(beeps for beeps, _ in trace.rounds[4:])


def test_a_window_never_armed_resumes_after_its_phase_end():
    g = Graph.from_edges([(0, 1), (1, 2)])
    for length in (None, 3):
        trace, report = simulate(g, {0: listener(8), 1: armed_window(length, 6, read=False),
                                     2: listener(8)}, 20)
        assert report.outputs[1] == (6, None, None)
        assert not any(beeps for beeps, _ in trace.rounds)
        with pytest.raises(ProtocolError) as err:
            simulate(g, {0: listener(8), 1: armed_window(length, 6), 2: listener(8)}, 20)
        assert (err.value.node, err.value.round) == (1, 6)
        assert err.value.reason == "slots() of an echo that was never armed"


def test_a_window_that_passes_its_phase_end_names_the_node_and_round():
    # Armed in round 5 with length 4, the window would end in round 9.
    g = Graph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(ProtocolError) as err:
        simulate(g, {0: beeper_at(5), 1: armed_window(4, 7), 2: listener(8)}, 20)
    assert str(err.value) == "node 1, round 7: armed window end 9 passes its phase end 7 (in gen)"
    _, report = simulate(g, {0: beeper_at(5), 1: armed_window(4, 9), 2: listener(8)}, 20)
    assert report.outputs[1] == (9, 9, "10")


@pytest.mark.parametrize("case", range(len(ECHO_CASES)))
def test_a_window_with_a_phase_end_relays_by_the_rule_through_it(case):
    # Every relay has its own phase end, so some end while others echo, and
    # some are armed in their phase end round.  A window with a length relays
    # alike, and its end is its arming round + length even past its phase end.
    def window(u, until, length, ends):
        echo = Echo.armed(length, until)
        fb = yield echo
        ends[u] = echo.end
        return now(), fb

    g, source, rounds = ECHO_CASES[case]
    for base, length in itertools.product(range(1, 14), (None, 4)):
        untils = {u: base + 3 * u % 5 for u in g.nodes if u != source}
        runs, ends = [], {}
        for kernel in (False, True):
            programs = {u: window(u, until, length, ends) if kernel else
                        rule_relay(until, armed=True) for u, until in untils.items()}
            programs[source] = beeper_at(*rounds)
            trace, report = simulate(g, programs, 100)
            verify_reception(trace, g)
            runs.append((trace.rounds, report.outputs))
        assert runs[0] == runs[1]
        for u, until in untils.items():
            heard = [r for r, _, hearers in labelled_rounds(trace)[:until] if u in hearers]
            assert ends[u] == (None if not heard else heard[0] + length if length else until)


@pytest.mark.parametrize(
    "beeps, word", [((12,), "101"), ((11,), "101"), ((13,), "100"), ((9, 13), "110")])
def test_an_armed_echo_window_whose_last_slot_has_two_rounds(beeps, word):
    # Armed in round 5 with length 7 and phase end 12, so the window is rounds
    # 5 - 12, its slots are rounds 5 - 7, 8 - 10 and 11 - 12, node 1 resumes
    # in round 12 as the window ends, and round 13 is past it.
    g = Graph.from_edges([(0, 1), (1, 2)])
    trace, report = simulate(g, {0: beeper_at(5, *beeps), 1: armed_window(7, 12),
                                 2: listener(14)}, 100)
    verify_reception(trace, g)
    assert report.outputs[1] == (12, 12, word)


@pytest.mark.parametrize(
    "beeps, word", [((12,), "101"), ((13,), "100"), ((14, 16), "100"), ((9, 13), "110")])
def test_a_window_with_a_phase_end_reads_back_exactly_its_length(beeps, word):
    # Armed in round 5 with length 7: the slots are rounds 5 - 7, 8 - 10 and
    # 11 - 12 whatever node 1 hears before its phase end, round 20.
    g = Graph.from_edges([(0, 1), (1, 2)])
    trace, report = simulate(g, {0: beeper_at(5, *beeps), 1: armed_window(7, 20),
                                 2: listener(20)}, 100)
    verify_reception(trace, g)
    assert report.outputs[1] == (20, 12, word)


# --- one beeper set, sent in several ways ---------------------------------------


PATH5 = [(0, 1), (1, 2), (2, 3), (3, 4)]


def set_sender(u, d):
    """Node 1 or 3 of ``PATH5`` after ``d`` quiet rounds: beeps in round
    d + 1, relays node 2's beep of round d + 3 in an Echo and its beep of
    round d + 7 in an armed echo, then beeps in round d + 12 (node 1) or
    relays node 4's beep of round d + 11 there (node 3)."""
    def gen():
        for _ in range(d):
            yield LISTEN
        yield BEEP
        yield Echo(d + 5)
        yield Echo.armed(3, d + 10)
        if u == 1:
            yield LISTEN
            yield BEEP
        else:
            yield Echo(d + 13)
    return gen()


def set_programs(d):
    return {0: listener(d + 13), 1: set_sender(1, d), 2: beeper_at(d + 3, d + 7),
            3: set_sender(3, d), 4: beeper_at(d + 11)}



def test_one_beeper_set_from_beeps_echo_relays_and_armed_relays_is_heard_alike():
    # The set {1, 3} is sent by two BEEPs, two Echo relays, two armed relays,
    # and a BEEP beside a relay.  With node 0 moved from node 1 to node 2 the
    # set is heard otherwise, so reception must not carry over between runs.
    g = Graph.from_edges(PATH5)
    moved = Graph.from_edges([(0, 2)] + PATH5[1:])
    runs = []
    for graph, d in ((g, 0), (moved, 0), (g, 2)):
        trace, _ = simulate(graph, set_programs(d), 100)
        verify_reception(trace, graph)
        sent = {r: set(beepers) for r, beepers, _ in labelled_rounds(trace) if beepers}
        assert sent == {d + 1: {1, 3}, d + 3: {2}, d + 4: {1, 3}, d + 7: {2},
                        d + 8: {1, 3}, d + 11: {4}, d + 12: {1, 3}}
        runs.append(trace)
    assert [labelled_rounds(trace)[0][2] for trace in runs[:2]] == [[0, 2, 4], [2, 4]]
    fresh, _ = simulate(Graph.from_edges(PATH5), set_programs(2), 100)
    assert runs[2].rounds == fresh.rounds


# --- verify_reception on hand-built traces --------------------------------------


def label_mask(g, labels):
    return sum(1 << g.nodes.index(u) for u in labels)


def hand_trace(g, *rounds):
    """A ``Trace`` over ``g``'s nodes of rounds 1, 2, ... given as (beepers,
    heard) label sets."""
    trace = Trace(g.nodes)
    for beepers, heard in rounds:
        trace.rounds.append((label_mask(g, beepers), label_mask(g, heard)))
    return trace


# A path 3 - 7 - 10 - 12: labels that are not node indices.
LABELLED_PATH = Graph.from_edges([(3, 7), (7, 10), (10, 12)])


def test_verify_reception_accepts_a_correct_hand_built_trace():
    trace = hand_trace(LABELLED_PATH, ({7}, {3, 10}), (set(), set()), ({3, 12}, {7, 10}))
    verify_reception(trace, LABELLED_PATH)
    assert [heard for _, _, heard in labelled_rounds(trace)] == [[3, 10], [], [7, 10]]
    buf = io.StringIO()
    write_trace(trace, buf)
    assert buf.getvalue().splitlines()[2] == '{"round": 3, "beepers": [3, 12], "heard": [7, 10]}'


@pytest.mark.parametrize(
    "rounds, bad_round",
    [
        ([({7}, {3, 10}), ({7}, {3})], 2),  # a dropped heard bit
        ([({3}, {7, 10})], 1),  # an extra heard bit
        ([(set(), set()), ({3, 7}, {3, 7, 10})], 2),  # beepers with heard flags
    ],
)
def test_verify_reception_names_the_round_of_a_bad_record(rounds, bad_round):
    with pytest.raises(SimulationError, match=rf"^round {bad_round}: "):
        verify_reception(hand_trace(LABELLED_PATH, *rounds), LABELLED_PATH)


def test_verify_reception_names_the_first_round_of_a_bad_pair():
    # The bad pair of round 2 comes back in round 4, after another bad pair.
    good, bad, worse = ({7}, {3, 10}), ({7}, {3}), ({3}, {7, 10})
    trace = hand_trace(LABELLED_PATH, good, bad, worse, bad)
    with pytest.raises(SimulationError) as err:
        verify_reception(trace, LABELLED_PATH)
    assert str(err.value) == "round 2: heard set [3] != OR-reception [3, 10]"


@pytest.mark.parametrize("beeps, heard", [(1 << 4, 0), (1 << 1, 1 << 0 | 1 << 2 | 1 << 6)])
def test_verify_reception_names_the_round_of_a_mask_past_the_graph(beeps, heard):
    # LABELLED_PATH has 4 nodes, so bit 4 and above stand for no node.
    trace = hand_trace(LABELLED_PATH, (set(), set()))
    trace.rounds.append((beeps, heard))
    with pytest.raises(SimulationError) as err:
        verify_reception(trace, LABELLED_PATH)
    assert str(err.value) == "round 2: record has node bits past the graph's 4 nodes"


def test_verify_reception_rejects_a_trace_of_another_graph():
    other = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    trace = hand_trace(other, ({0}, {1}))
    with pytest.raises(SimulationError) as err:
        verify_reception(trace, LABELLED_PATH)
    assert str(err.value) == "trace indexes other nodes than the graph"


# --- Trace: a node tuple and a list of mask pairs ------------------------------


def labelled_path_programs():
    """Node 7 beeps in round 1, nobody in round 2, nodes 3 and 12 in round 3."""
    return {3: beeper_at(3), 7: beeper_at(1), 10: listener(3), 12: beeper_at(3)}


LABELLED_ROUNDS = [({7}, {3, 10}), (set(), set()), ({3, 12}, {7, 10})]


def test_a_trace_is_its_nodes_and_its_round_pairs():
    trace, _ = simulate(LABELLED_PATH, labelled_path_programs(), 10)
    assert type(trace) is Trace and len(trace) == 3
    assert trace.rounds == [(0b0010, 0b0101), (0, 0), (0b1001, 0b0110)]
    assert trace == hand_trace(LABELLED_PATH, *LABELLED_ROUNDS)
    assert trace.__eq__(trace.rounds) is NotImplemented and trace != trace.rounds
    assert trace != hand_trace(LABELLED_PATH, *LABELLED_ROUNDS[:2])
    assert trace != hand_trace(LABELLED_PATH, *LABELLED_ROUNDS[:2], (set(), set()))


def test_a_timeout_carries_the_trace_of_the_rounds_it_ran():
    full, _ = simulate(LABELLED_PATH, labelled_path_programs(), 10)
    with pytest.raises(SimulationTimeout) as err:
        simulate(LABELLED_PATH, labelled_path_programs(), 2)
    partial = err.value.trace
    assert type(partial) is Trace and len(partial) == 2
    assert partial == hand_trace(LABELLED_PATH, *LABELLED_ROUNDS[:2])
    assert partial.rounds == full.rounds[:2]
