"""End-to-end acceptance gate: one test per shipped guarantee.

Every test prints a single PASS line with its headline numbers so the suite
doubles as a human-readable report (`pytest -s tests/test_acceptance.py`).
Multiplicative round-count constants come frozen from beepsim.bounds; no
tolerance here is re-derived at run time.
"""

from __future__ import annotations

import random
import time

from beepsim import codec
from beepsim.bounds import (
    dfs_bound,
    floor_rounds,
    gossip_bound,
    mb_noprov_bound,
    mb_prov_bound,
)
from beepsim.engine import Graph, diameter, distances
from beepsim.graphs import GraphSpec, generate, or_oracle, reference_dfs
from beepsim.multicast import multi_broadcast
from beepsim.traversal import dfs, gossip
from beepsim.waves import (
    broadcast,
    codeword_rounds,
    collect_messages,
    collect_phase_len,
    elect_leader,
    estimate_diameter,
    estimate_len,
)

from conftest import random_bits, random_connected_graph
from test_multicast import recorded_prefixes, true_prefix_sets
from test_traversal import assert_no_false_adjacency, assert_token_isolation


def _report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_codec_exhaustive_roundtrip():
    t0 = time.monotonic()
    count = 0
    for n in range(0, 15):
        for v in range(1 << n):
            m = format(v, f"0{n}b") if n else ""
            cw = codec.encode(m)
            assert len(cw) == 2 * len(m) + 4
            assert codec.decode(cw) == m
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("1 codec", f"{count} messages round-tripped in {elapsed:.2f}s")


def test_criterion_02_broadcast_exactness_200_graphs():
    rng = random.Random(101)
    c0 = None
    for i in range(200):
        g = random_connected_graph(rng, 200)
        source = rng.choice(list(g.nodes))
        m = random_bits(rng, rng.randint(1, 16))
        run = broadcast(g, source, m)
        dist = distances(g, source)
        base = codeword_rounds(m)
        for u in g.nodes:
            if u == source:
                continue
            out = run.report.outputs[u]
            assert out.message == m, f"graph {i}: node {u} decoded wrong bits"
            offset = out.completed_round - base - dist[u]
            if c0 is None:
                c0 = offset
                assert c0 in (0, 1, 2)
            assert offset == c0, f"graph {i}: completion offset {offset} != {c0}"
    _report("2 broadcast", f"200 graphs exact, completion constant c0={c0}")


def test_criterion_03_diameter_estimate_all_families():
    runs = 0
    for family in ("path", "cycle", "star", "complete", "grid", "randomTree", "erConnected"):
        for n in (2, 3, 7, 25, 64, 100):
            if family == "cycle" and n < 3:
                continue
            g = generate(GraphSpec(family, n, seed=n * 5 + 1))
            run = estimate_diameter(g)
            d = diameter(g)
            values = set(run.report.outputs.values())
            assert len(values) == 1, f"{family} n={n}: estimates disagree"
            dtilde = values.pop()
            assert d <= dtilde <= 2 * d + 7, f"{family} n={n}: {dtilde} vs D={d}"
            runs += 1
    _report("3 diameter", f"{runs} family/size runs inside [D, 2D+7]")


def test_criterion_04_collect_500_instances():
    rng = random.Random(404)
    for i in range(500):
        g = random_connected_graph(rng, 20)
        k = rng.randint(1, min(5, g.n))
        sources = set(rng.sample(list(g.nodes), k))
        msgs = {s: random_bits(rng, rng.randint(1, 8)) for s in sources}
        p = max(len(m) for m in msgs.values()) + rng.randint(0, 2)
        run = collect_messages(g, g.max_id, sources, msgs, p)
        dtilde, collected = run.report.outputs[g.max_id]
        assert collected == or_oracle(list(msgs.values()), p), i
        rounds = estimate_len(dtilde) + collect_phase_len(p, dtilde)
        assert run.report.total_rounds == rounds, i
        start = run.report.extras["collection_start"]
        end = start + run.report.extras["collection_rounds"]
        assert not any(beeps for beeps, _ in run.trace.rounds[end:]), i
    _report("4 collect", "500 instances equal the OR oracle in exactly their phase lengths")


def test_criterion_05_dfs_200_graphs():
    rng = random.Random(505)
    worst = 0.0
    for i in range(200):
        g = random_connected_graph(rng, 100)
        run = dfs(g)
        rec = run.report.extras["recorder"]
        assert run.report.extras["numbering"] == reference_dfs(g, g.max_id), i
        bound = dfs_bound(g.n, run.report.extras["lhat"])
        assert run.report.total_rounds <= bound, (i, run.report.total_rounds, bound)
        worst = max(worst, run.report.total_rounds / bound)
        if i % 10 == 0:  # full beeper-isolation trace scan on a sample
            assert_token_isolation(g, run.trace, rec)
        else:
            assert_no_false_adjacency(g, rec)
    _report("5 dfs", f"200 graphs match the reference order, worst ratio {worst:.2f}")


def test_criterion_06_gossip_100_instances():
    rng = random.Random(606)
    worst = 0.0
    for i in range(100):
        g = random_connected_graph(rng, 24)
        msgs = {u: random_bits(rng, rng.randint(1, 5)) for u in g.nodes}
        d = diameter(g)
        run = gossip(g, msgs, dhat=d)
        numbering = reference_dfs(g, g.max_id)
        expected = tuple(msgs[u] for u in sorted(numbering, key=numbering.__getitem__))
        p = max(len(m) for m in msgs.values())
        for u in g.nodes:
            assert run.report.outputs[u] == expected, (i, u)
        bound = gossip_bound(g.n, p, run.report.extras["lhat"], d)
        assert run.report.total_rounds <= bound, (i, run.report.total_rounds, bound)
        worst = max(worst, run.report.total_rounds / bound)
    _report("6 gossip", f"100 instances exact with clean decodes, worst ratio {worst:.2f}")


def test_criterion_07_mb_prov_sweep():
    rng = random.Random(707)
    worst = 0.0
    for k in (2, 4, 8, 16):
        for trial in range(2):
            n = rng.randint(max(6, 2 * k), 150)
            g = random_connected_graph(rng, n, n_min=n)
            sources = set(rng.sample(list(g.nodes), k))
            p = rng.randint(2, 6)
            msgs = {s: random_bits(rng, p) for s in sources}
            d = diameter(g)
            run = multi_broadcast(g, sources, msgs, dhat=d, provenance=True)
            rec = run.report.extras["recorder"]
            expected = frozenset((s, msgs[s]) for s in sources)
            for u in g.nodes:
                assert run.report.outputs[u] == expected, (k, trial, u)
            width = g.max_id.bit_length()
            oracle = true_prefix_sets(sources, width)
            per_round = recorded_prefixes(rec)
            assert set(per_round) == set(oracle)
            for i, values in per_round.items():
                assert values == {oracle[i]}, (k, trial, i)
            bound = mb_prov_bound(k, p, run.report.extras["lhat"], d)
            assert run.report.total_rounds <= bound, (k, trial)
            worst = max(worst, run.report.total_rounds / bound)
    _report("7 mb-prov", f"k in 2..16 exact with true prefix sets, worst ratio {worst:.2f}")


def _star_with_center_leader(leaves: int) -> Graph:
    # center holds the max ID, so the elected leader sits at eccentricity 1
    return Graph.from_edges([(leaves, i) for i in range(leaves)])


def test_criterion_08_mb_noprov_four_cases():
    rng = random.Random(808)
    seen = []

    def run_case(name, g, sources, msgs, expect_abort):
        k = len(sources)
        p = len(next(iter(msgs.values())))
        m = 2**p
        d = diameter(g)
        run = multi_broadcast(g, set(sources), msgs, dhat=d, provenance=False)
        rec = run.report.extras["recorder"]
        aborted = bool(rec.of_kind("msg_prefixes"))
        assert aborted == expect_abort, (name, aborted)
        for u in g.nodes:
            assert run.report.outputs[u] == frozenset(msgs.values()), name
        bound = mb_noprov_bound(k, p, run.report.extras["lhat"], d)
        assert run.report.total_rounds <= bound, (name, run.report.total_rounds, bound)
        seen.append(f"{name}(k={k},M={m},abort={aborted})")

    # small k: the ID search completes (prefix count stays under the estimate)
    g = generate(GraphSpec("path", 12, seed=8))
    srcs = rng.sample(list(g.nodes), 2)
    run_case("A:k<=thr,M>k", g, srcs, {s: random_bits(rng, 4) for s in srcs}, False)

    g = generate(GraphSpec("path", 12, seed=9))
    srcs = rng.sample(list(g.nodes), 4)
    msgs = {s: rng.choice(["00", "01", "10", "11"]) for s in srcs}
    run_case("B:k<=thr,M<=k", g, srcs, msgs, False)

    # large k on a shallow star: prefix count overtakes the estimate
    g = _star_with_center_leader(8)
    srcs = list(range(8))
    run_case("C:k>thr,M>k", g, srcs, {s: random_bits(rng, 4) for s in srcs}, True)

    g = _star_with_center_leader(8)
    msgs = {s: codec.fixed_width_bits(s % 8, 3) for s in srcs}
    run_case("D:k>thr,M<=k", g, srcs, msgs, True)

    _report("8 mb-noprov", "; ".join(seen))


def test_criterion_09_lower_bound_sandwich_full_sweep():
    rng = random.Random(909)
    rows = 0
    for protocol in ("broadcast", "elect", "diameter", "collect", "msglen",
                     "dfs", "gossip", "mb-prov", "mb-noprov"):
        for trial in range(4):
            g = random_connected_graph(rng, 26)
            d = diameter(g)
            lhat = 1 << g.max_id.bit_length()
            if protocol == "broadcast":
                m = random_bits(rng, rng.randint(1, 8))
                run = broadcast(g, rng.choice(list(g.nodes)), m)
                p, k = len(m), 1
            elif protocol == "elect":
                run = elect_leader(g)
                p, k = 1, 1
            elif protocol == "diameter":
                run = estimate_diameter(g)
                p, k = 1, 1
            elif protocol in ("collect", "msglen"):
                k = rng.randint(1, min(4, g.n))
                sources = set(rng.sample(list(g.nodes), k))
                msgs = {s: random_bits(rng, rng.randint(1, 5)) for s in sources}
                p = max(len(m) for m in msgs.values())
                if protocol == "collect":
                    run = collect_messages(g, g.max_id, sources, msgs, p)
                else:
                    from beepsim.waves import get_message_length

                    run = get_message_length(g, g.max_id, sources, msgs)
            elif protocol == "dfs":
                run = dfs(g)
                p, k = 1, 1
            elif protocol == "gossip":
                msgs = {u: random_bits(rng, rng.randint(1, 4)) for u in g.nodes}
                p = max(len(m) for m in msgs.values())
                k = g.n
                run = gossip(g, msgs, dhat=d)
            else:
                k = min(rng.choice([2, 3, 4]), g.n)
                sources = set(rng.sample(list(g.nodes), k))
                p = rng.randint(2, 4)
                msgs = {s: random_bits(rng, p) for s in sources}
                run = multi_broadcast(g, sources, msgs, dhat=d,
                                      provenance=protocol == "mb-prov")
            floor = floor_rounds(protocol, d, g.label_range, 2**p, k)
            assert run.report.total_rounds >= floor, (protocol, trial)
            rows += 1
    _report("9 floors", f"{rows} benchmark rows all above their floors")


def test_criterion_10_benchmark_determinism(tmp_path):
    from beepsim.cli import main

    args = [
        "bench", "--protocol", "gossip",
        "--graph", "tree:n=8,seed=3", "--graph", "star:n=7,seed=1",
        "--trials", "2", "--msg-bits", "3", "--seed", "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report("10 determinism", "byte-identical CSV across reruns")
