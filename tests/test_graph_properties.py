from __future__ import annotations

import pytest

from beepsim.engine import Graph, diameter, distances

from conftest import hop_distance_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def connected_edge_lists(draw):
    """(labels, edges): a random spanning tree plus extra edges over n <= 40
    distinct labels, each edge in a random orientation, in random order."""
    n = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs |= {(min(e), max(e)) for e in draw(st.lists(extra, max_size=2 * n)) if e[0] != e[1]}
    edges = [
        (labels[b], labels[a]) if draw(st.booleans()) else (labels[a], labels[b])
        for a, b in sorted(pairs)
    ]
    return labels, draw(st.permutations(edges))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(connected_edge_lists())
def test_from_edges_keeps_the_input_and_its_diameter(case):
    labels, edges = case
    g = Graph.from_edges(edges, nodes=labels)
    assert g.nodes == tuple(sorted(labels))
    assert g.edges == {frozenset(e) for e in edges}
    idx, want = hop_distance_oracle(labels, edges)
    assert diameter(g) == want.max()
    source = labels[0]
    assert distances(g, source) == {v: want[idx[source], idx[v]] for v in labels}
