from __future__ import annotations

import numpy as np
import pytest

from beepsim.engine import Graph, diameter
from beepsim.graphs import (
    FAMILIES,
    GenerationError,
    GraphSpec,
    generate,
    or_oracle,
    parse_graph_spec,
    reference_dfs,
)


def test_path_and_star_shapes():
    path = generate(GraphSpec("path", 4, seed=0))
    assert path.n == 4 and len(path.edges) == 3 and diameter(path) == 3
    star = generate(GraphSpec("star", 5, seed=0))
    assert diameter(star) == 2
    degrees = sorted(len(star.adj[u]) for u in star.nodes)
    assert degrees == [1, 1, 1, 1, 4]


def test_er_determinism():
    a = generate(GraphSpec("erConnected", 25, seed=7, edge_probability=0.2))
    b = generate(GraphSpec("erConnected", 25, seed=7, edge_probability=0.2))
    assert a.edges == b.edges and a.nodes == b.nodes
    c = generate(GraphSpec("erConnected", 25, seed=8, edge_probability=0.2))
    assert c.edges != a.edges


def test_er_retries_exhausted():
    with pytest.raises(GenerationError):
        generate(GraphSpec("erConnected", 30, seed=1, edge_probability=0.001))


def test_generation_error_is_a_value_error():
    with pytest.raises(ValueError, match="no connected G"):
        generate(GraphSpec("erConnected", 30, seed=1, edge_probability=0.001))


@pytest.mark.parametrize("p", [0.0, -1.0, 1.5, float("nan")])
def test_edge_probability_outside_0_1_is_rejected(p):
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        GraphSpec("erConnected", 30, edge_probability=p)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        parse_graph_spec(f"er:n=30,p={p}")


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "erConnected"])
def test_edge_probability_on_another_family_is_rejected(family):
    with pytest.raises(ValueError, match=f"p applies to erConnected only, not {family}"):
        GraphSpec(family, 9, edge_probability=0.5)
    short = {"randomTree": "tree"}.get(family, family)
    with pytest.raises(ValueError, match="erConnected only"):
        parse_graph_spec(f"{short}:n=9,p=0.5")


def test_edge_probability_one_gives_the_complete_graph():
    g = generate(GraphSpec("erConnected", 6, seed=3, edge_probability=1.0))
    assert len(g.edges) == 15


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 9, 24])
def test_every_family_satisfies_graph_invariants(family, n):
    if family == "cycle" and n < 3:
        pytest.skip("cycle needs n >= 3")
    g = generate(GraphSpec(family, n, seed=5))
    assert g.n == n
    assert sorted(g.nodes) == list(g.nodes)
    assert len(set(g.nodes)) == n
    assert g.max_id < g.label_range
    assert g.is_connected()


def test_wide_label_range():
    g = generate(GraphSpec("randomTree", 10, seed=3, label_range=1000))
    assert g.n == 10 and g.label_range == 1000
    assert g.max_id < 1000


def test_diameter_matches_all_pairs_matrix_oracle():
    for seed in range(4):
        g = generate(GraphSpec("erConnected", 40, seed=seed + 1))
        idx = {u: i for i, u in enumerate(g.nodes)}
        a = np.zeros((g.n, g.n), dtype=bool)
        for e in g.edges:
            u, v = tuple(e)
            a[idx[u], idx[v]] = a[idx[v], idx[u]] = True
        reach = np.eye(g.n, dtype=bool)
        best = 0
        done = reach.copy()
        for step in range(1, g.n):
            reach = reach | (reach @ a)
            if (reach & ~done).any():
                best = step
                done = reach.copy()
        assert diameter(g) == best


def test_reference_dfs_examples():
    tri = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    assert reference_dfs(tri, 3) == {3: 1, 2: 2, 1: 3}
    path = Graph.from_edges([(1, 2), (2, 3)])
    assert reference_dfs(path, 1) == {1: 1, 2: 2, 3: 3}
    star = Graph.from_edges([(9, 1), (9, 2), (9, 3), (9, 4)])
    assert reference_dfs(star, 9) == {9: 1, 4: 2, 3: 3, 2: 4, 1: 5}


def test_reference_dfs_is_a_bijection(rng):
    for _ in range(10):
        g = generate(GraphSpec("erConnected", 15, seed=rng.randrange(1000)))
        numbering = reference_dfs(g, g.max_id)
        assert sorted(numbering.values()) == list(range(1, g.n + 1))


def test_or_oracle():
    assert or_oracle(["101", "011"], 3) == "111"
    assert or_oracle(["1"], 3) == "100"
    assert or_oracle(["0000"], 4) == "0000"
    assert or_oracle([], 2) == "00"
    with pytest.raises(ValueError):
        or_oracle(["111"], 2)


def test_parse_graph_spec():
    spec = parse_graph_spec("er:n=25,p=0.2,seed=7")
    assert spec == GraphSpec("erConnected", 25, 7, 0.2)
    spec = parse_graph_spec("path:n=10")
    assert spec.family == "path" and spec.n == 10
    spec = parse_graph_spec("tree:n=6,seed=2,range=64")
    assert spec.family == "randomTree" and spec.label_range == 64
    with pytest.raises(ValueError):
        parse_graph_spec("blob:n=5")
    with pytest.raises(ValueError):
        parse_graph_spec("path:seed=1")
