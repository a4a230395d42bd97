from __future__ import annotations

import random

import pytest

from beepsim import codec, multicast, waves
from beepsim.engine import Graph, ProtocolError, SimulationTimeout, simulate
from beepsim.graphs import GraphSpec, generate
from beepsim.multicast import (
    PhaseSpan,
    _collect_and_share,
    compute_schedule,
    lower_bound,
    multi_broadcast,
)
from beepsim.waves import (
    calibration_len,
    diameter_phase,
    election_len,
    estimate_len,
    msglen_phase_len,
)

from conftest import random_bits


def true_prefix_sets(source_ids: set[int], width: int):
    """Round-by-round oracle: the set of i-bit prefixes of the source IDs."""
    out = {}
    for i in range(1, width + 1):
        out[i] = tuple(sorted({codec.fixed_width_bits(s, width)[:i] for s in source_ids}))
    return out


def recorded_prefixes(recorder, event="id_prefixes"):
    per_round: dict[int, set] = {}
    for _, node, _, data in recorder.of_kind(event):
        per_round.setdefault(data["round"], set()).add(data["value"])
    return per_round


# --- lower bounds -----------------------------------------------------------

def test_lower_bound_examples():
    assert lower_bound("broadcast", 8, 2, 16, 1) == 4
    assert lower_bound("mbNoProv", 4, 16, 8, 9) == 3
    assert lower_bound("broadcast", 0, 2, 2, 1) == 1


def test_lower_bound_domain_errors():
    with pytest.raises(ValueError):
        lower_bound("mbProv", 3, 8, 4, 1)
    with pytest.raises(ValueError):
        lower_bound("mbNoProv", 3, 8, 1, 4)
    with pytest.raises(ValueError):
        lower_bound("nonsense", 1, 2, 2, 2)


def test_lower_bound_prov_formula():
    import math

    d, l, m, k = 6, 64, 16, 4
    assert lower_bound("mbProv", d, l, m, k) == math.ceil(
        (d + k * math.log2(l * m / k)) / 8
    )


# --- schedule ---------------------------------------------------------------

def test_schedule_setup_only():
    spans = compute_schedule(dhat=5, lhat=8, dtilde=7, p=3)
    assert [s.name for s in spans] == ["elect", "estimate", "msglen"]
    assert spans[0] == PhaseSpan("elect", 1, election_len(3, 5))
    assert spans[1].length == estimate_len(7)
    assert spans[2].length == msglen_phase_len(3, 7)


def test_schedule_phases_abut():
    spans = compute_schedule(
        dhat=4, lhat=8, dtilde=5, p=3, id_round_ks=(1, 2, 4), final_k=4
    )
    for a, b in zip(spans, spans[1:]):
        assert b.start_round == a.end_round + 1
    # first prefix round's collection phase: calibration + 3*(2 k_1) + dtilde
    first_collect = next(s for s in spans if s.name == "id_collect_1")
    assert first_collect.length == calibration_len(5) + 3 * 2 + 5


def test_schedule_growth_per_new_prefix():
    base = compute_schedule(dhat=4, lhat=8, dtilde=5, p=3, id_round_ks=(2,))
    grown = compute_schedule(dhat=4, lhat=8, dtilde=5, p=3, id_round_ks=(4,))
    b = next(s for s in base if s.name == "id_collect_1")
    g = next(s for s in grown if s.name == "id_collect_1")
    assert g.length - b.length == 6 * 2  # six slots per new prefix


# --- multi-broadcast with provenance ----------------------------------------

def test_prov_two_source_prefix_walkthrough():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    run = multi_broadcast(g, {2, 3}, {2: "10", 3: "01"}, lhat=4)
    rec = run.report.extras["recorder"]
    assert run.report.all_passed
    per_round = recorded_prefixes(rec)
    assert per_round[1] == {("1",)}
    assert per_round[2] == {("10", "11")}
    for u in g.nodes:
        assert run.report.outputs[u] == frozenset({(2, "10"), (3, "01")})


def test_prov_single_source():
    g = generate(GraphSpec("randomTree", 8, seed=1))
    s = g.nodes[0]
    run = multi_broadcast(g, {s}, {s: "1011"})
    assert run.report.all_passed
    assert run.report.outputs[g.max_id] == frozenset({(s, "1011")})


def test_prov_random_tree_prefix_oracle(rng):
    g = generate(GraphSpec("randomTree", 20, seed=6))
    sources = set(rng.sample(list(g.nodes), 3))
    msgs = {s: random_bits(rng, 3) for s in sources}
    run = multi_broadcast(g, sources, msgs)
    rec = run.report.extras["recorder"]
    assert run.report.all_passed
    width = g.max_id.bit_length()
    oracle = true_prefix_sets(sources, width)
    per_round = recorded_prefixes(rec)
    assert set(per_round) == set(oracle)
    for i, values in per_round.items():
        assert values == {oracle[i]}, f"round {i}"


def test_prov_doubling_cap(rng):
    g = generate(GraphSpec("erConnected", 16, seed=13))
    sources = set(rng.sample(list(g.nodes), 6))
    msgs = {s: random_bits(rng, 2) for s in sources}
    run = multi_broadcast(g, sources, msgs)
    rec = run.report.extras["recorder"]
    assert run.report.all_passed
    per_round = recorded_prefixes(rec)
    ks = [1] + [len(next(iter(per_round[i]))) for i in sorted(per_round)]
    for a, b in zip(ks, ks[1:]):
        assert b <= 2 * a
        assert b <= len(sources)


def test_prov_leader_is_source():
    g = Graph.from_edges([(0, 1), (1, 2)])
    run = multi_broadcast(g, {2, 0}, {2: "11", 0: "01"})
    assert run.report.all_passed  # leader 2 merges its own indicator locally


def test_a_leader_with_bits_wider_than_the_collection_names_its_node_and_round():
    # The leader's own bits take the same width check as everyone's, in the
    # round the collection starts: after the estimate, estimate_len(8) = 53.
    g = Graph.from_edges([(0, 1), (1, 2)])

    def program(u):
        dtilde = yield from diameter_phase(u == 2)
        return (yield from _collect_and_share(u == 2, dtilde, 2, "001" if u == 2 else None))

    with pytest.raises(ProtocolError) as err:
        simulate(g, {u: program(u) for u in g.nodes}, 1000)
    assert str(err.value) == (
        "node 2, round 53: transmit bits wider than collection width"
        " (in program > _collect_and_share > collect_phase)")


def test_a_collection_beep_out_of_its_slot_names_the_collect_phase(monkeypatch):
    # Every collection slot of a word with a 0 moves one round late (msglen's
    # all-ones slots stay), so the leader hears the first ID collection's
    # beeps outside its residue class.
    real = waves._collection_slots
    monkeypatch.setattr(waves, "_collection_slots", lambda bits, dtilde, dist: frozenset(
        s + ("0" in bits) for s in real(bits, dtilde, dist)))
    g = Graph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(ProtocolError) as err:
        multi_broadcast(g, {0, 1}, {0: "01", 1: "10"})
    assert str(err.value) == (
        "node 2, round 176: collection beep outside leader class"
        " (in _mb_program > _prefix_search > _collect_and_share > collect_phase)")


def test_mb_input_validation():
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        multi_broadcast(g, set(), {})
    with pytest.raises(ValueError):
        multi_broadcast(g, {0}, {0: "1", 1: "0"})
    with pytest.raises(ValueError):
        multi_broadcast(g, {0, 1}, {0: "1", 1: "10"})  # mixed widths
    with pytest.raises(ValueError):
        multi_broadcast(g, {0}, {0: ""})


# --- multi-broadcast without provenance --------------------------------------

def test_noprov_duplicate_collapse():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    run = multi_broadcast(g, {2, 3}, {2: "101", 3: "101"}, provenance=False)
    assert run.report.all_passed
    assert run.report.outputs[0] == frozenset({"101"})


def test_noprov_two_bits_on_path():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    run = multi_broadcast(g, {0, 2}, {0: "0", 2: "1"}, provenance=False)
    assert run.report.all_passed
    assert run.report.outputs[1] == frozenset({"0", "1"})


def test_noprov_abort_runs_message_search(rng):
    g = Graph.from_edges([(8, i) for i in range(8)])
    msgs = {i: random_bits(rng, 4) for i in range(8)}
    run = multi_broadcast(g, set(range(8)), msgs, provenance=False)
    rec = run.report.extras["recorder"]
    assert run.report.all_passed
    assert rec.of_kind("msg_prefixes"), "abort branch should have run"
    assert run.report.outputs[8] == frozenset(msgs.values())
    width = 4  # p
    rounds = {d["round"] for _, _, _, d in rec.of_kind("msg_prefixes")}
    assert rounds == set(range(1, width + 1))


def test_noprov_without_abort_projects_prov(rng):
    g = generate(GraphSpec("path", 12, seed=2))
    sources = set(rng.sample(list(g.nodes), 2))
    msgs = {s: random_bits(rng, 3) for s in sources}
    run = multi_broadcast(g, sources, msgs, provenance=False)
    rec = run.report.extras["recorder"]
    assert run.report.all_passed
    assert not rec.of_kind("msg_prefixes")
    assert run.report.outputs[g.nodes[0]] == frozenset(msgs.values())


def test_schedule_agreement_recorded(rng):
    g = generate(GraphSpec("erConnected", 12, seed=3))
    sources = set(rng.sample(list(g.nodes), 3))
    msgs = {s: random_bits(rng, 2) for s in sources}
    run = multi_broadcast(g, sources, msgs)
    rec = run.report.extras["recorder"]
    schedules = {node: data["spans"] for _, node, _, data in rec.of_kind("schedule")}
    assert len(schedules) == g.n
    assert len(set(schedules.values())) == 1
    names = [s.name for s in run.report.extras["schedule"]]
    assert names[:3] == ["elect", "estimate", "msglen"]
    assert names[-2:] == ["table_collect", "table_wave"]


@pytest.mark.parametrize("shift, agreed", [(0, True), (1, False)])
def test_schedule_agreement_compares_schedules_by_value(monkeypatch, shift, agreed):
    # Every node gets its own copy of the timetable, and with a shift the
    # second node's copy is one round longer per phase.
    real, calls = multicast.compute_schedule, []

    def copied(*args):
        calls.append(args)  # the first call sets the round cap
        bump = shift if len(calls) == 3 else 0
        return tuple(PhaseSpan(s.name, s.start_round, s.length + bump) for s in real(*args))

    monkeypatch.setattr(multicast, "compute_schedule", copied)
    run = multi_broadcast(Graph.from_edges([(0, 1), (1, 2)]), {0, 2}, {0: "1", 2: "0"})
    checks = {c.name: c.passed for c in run.report.bound_checks}
    assert checks["mb_output_exactness"] and checks["mb_schedule_agreement"] is agreed


def test_a_multi_broadcast_timeout_names_the_generator_each_live_node_is_in():
    g = generate(GraphSpec("erConnected", 12, seed=1))
    msgs = {g.nodes[0]: "10", g.nodes[3]: "10"}
    spans = {s.name: s for s in multi_broadcast(g, set(msgs), msgs).report.extras["schedule"]}
    for name, phase in (("elect", "election_phase"), ("id_wave_1", "relay_decode")):
        cap = spans[name].start_round + 5
        with pytest.raises(SimulationTimeout) as err:
            multi_broadcast(g, set(msgs), msgs, max_rounds=cap)
        want = dict.fromkeys(g.nodes, phase)
        if name == "id_wave_1":
            want[g.max_id] = "source_wave_phase"  # the leader sends the wave
        assert err.value.phases == want
        phases = ", ".join(sorted(set(want.values())))
        assert str(err.value) == (f"12 node(s) still running after {cap} rounds: "
                                  f"[0, 1, 2, 3, 4, 5, 6, 7]...; in {phases}")


def test_mb_rejects_zero_round_cap():
    path = Graph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        multi_broadcast(path, {1}, {1: "1"}, max_rounds=0)


@pytest.mark.parametrize("provenance", [True, False])
@pytest.mark.parametrize(
    "family,n,k", [("path", 5, 1), ("star", 17, 17), ("grid", 17, 3), ("erConnected", 40, 3)]
)
def test_mb_schedule_exact(family, n, k, provenance):
    g = generate(GraphSpec(family, n, seed=1))
    rng = random.Random(n * 31 + k)
    sources = set(rng.sample(list(g.nodes), k))
    msgs = {s: random_bits(rng, 3) for s in sources}
    run = multi_broadcast(g, sources, msgs, provenance=provenance)
    checks = {c.name: c for c in run.report.bound_checks}
    assert checks["mb_schedule_exact"].passed
    assert run.report.total_rounds == run.report.extras["schedule"][-1].end_round
