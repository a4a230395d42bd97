from __future__ import annotations

import math
import random

import numpy as np
import pytest

from beepsim.engine import BEEP, LISTEN, _labels, simulate
from beepsim.graphs import FAMILIES, GraphSpec, generate


def beeper_at(*rounds: int):
    """Beeps in the given rounds and listens in the others up to the last."""
    def gen():
        for r in range(1, max(rounds) + 1):
            yield BEEP if r in rounds else LISTEN
    return gen()


def labelled_rounds(trace):
    """Each round of ``trace`` as (round, beepers, heard): its number and its
    two node sets as ascending label lists."""
    nodes = trace.nodes
    return [(r, _labels(beeps, nodes), _labels(heard, nodes))
            for r, (beeps, heard) in enumerate(trace.rounds, 1)]


def beep_rounds(trace, u):
    """The rounds of ``trace`` in which node ``u`` beeped."""
    bit = 1 << trace.nodes.index(u)
    return [r for r, (beeps, _) in enumerate(trace.rounds, 1) if beeps & bit]


def capture_round_caps(monkeypatch, module) -> list[int]:
    """Record the ``max_rounds`` of every ``simulate`` call that ``module``'s
    runners make; the runs themselves are unchanged."""
    caps: list[int] = []

    def capped(graph, programs, max_rounds):
        caps.append(max_rounds)
        return simulate(graph, programs, max_rounds)

    monkeypatch.setattr(module, "simulate", capped)
    return caps


def random_bits(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def random_connected_graph(rng: random.Random, n_max: int, n_min: int = 2,
                           label_range: int | None = None):
    """Sample a family and a log-uniform size; returns a connected Graph."""
    n = round(math.exp(rng.uniform(math.log(n_min), math.log(n_max))))
    n = max(n_min, min(n_max, n))
    family = rng.choice([f for f in FAMILIES if f != "cycle" or n >= 3])
    spec = GraphSpec(family, n, seed=rng.randrange(1 << 30), label_range=label_range)
    return generate(spec)


def hop_distance_oracle(nodes, edges):
    """All-pairs hop distances by boolean matrix powers over a raw edge list.

    Returns (row index of each node, distance matrix); -1 marks a pair
    that is not connected."""
    idx = {u: i for i, u in enumerate(sorted(nodes))}
    a = np.zeros((len(idx), len(idx)), dtype=bool)
    for u, v in edges:
        a[idx[u], idx[v]] = a[idx[v], idx[u]] = True
    reach = np.eye(len(idx), dtype=bool)
    dist = np.where(reach, 0, -1)
    for step in range(1, len(idx)):
        if reach.all():
            break
        reach = reach | (reach @ a)
        dist[(dist < 0) & reach] = step
    return idx, dist


# Adversarial topologies as index pairs: node ids 0 .. max.

def barbell(m, bridge):
    clique = [(i, j) for i in range(m) for j in range(i + 1, m)]
    path = [(i, i + 1) for i in range(m - 1, m + bridge)]
    return clique + path + [(a + m + bridge, b + m + bridge) for a, b in clique]


def lollipop(m, tail):
    return [(i, j) for i in range(m) for j in range(i + 1, m)] + [
        (i, i + 1) for i in range(m - 1, m + tail - 1)
    ]


def caterpillar(spine, legs):
    pairs = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        pairs += [(i, spine + i * legs + j) for j in range(legs)]
    return pairs


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBEE9)
