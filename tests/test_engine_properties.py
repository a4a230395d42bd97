from __future__ import annotations

import pytest

from beepsim.engine import (
    BEEP,
    LISTEN,
    WAIT,
    Graph,
    ProtocolRecorder,
    SimulationTimeout,
    now,
    simulate,
    verify_reception,
    wait,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# One script step: beep, listen, or listen until a beep (with an optional
# deadline that many rounds ahead).
STEP = st.one_of(
    st.just(("beep", None)),
    st.just(("listen", None)),
    st.tuples(st.just("wait"), st.none() | st.integers(1, 6)),
)


@st.composite
def scripted_graphs(draw):
    """(graph, one step list per node) over n <= 7 nodes."""
    n = draw(st.integers(1, 7))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs |= {(min(e), max(e)) for e in draw(st.lists(extra, max_size=n)) if e[0] != e[1]}
    scripts = draw(st.lists(st.lists(STEP, max_size=10), min_size=n, max_size=n))
    return Graph.from_edges(sorted(pairs), nodes=range(n)), scripts


def scripted(node, script, recorder, sleeps):
    """Run ``script``; a wait step yields WAIT / ``wait`` if ``sleeps``, else
    it listens round by round until it hears a beep or its deadline passes."""
    seen = []
    for kind, ahead in script:
        if kind == "beep":
            fb = yield BEEP
        elif kind == "listen":
            fb = yield LISTEN
        else:
            until = None if ahead is None else now() + ahead
            if sleeps:
                fb = yield WAIT if until is None else wait(until)
            else:
                while True:
                    fb = yield LISTEN
                    if fb or (until is not None and now() >= until):
                        break
        recorder.log("step", node, kind=kind, fb=fb)
        seen.append((now(), fb))
    return seen


def outcome(graph, scripts, sleeps):
    recorder = ProtocolRecorder()
    programs = {u: scripted(u, scripts[u], recorder, sleeps) for u in graph.nodes}
    try:
        trace, report = simulate(graph, programs, 40)
    except SimulationTimeout as stop:
        verify_reception(stop.trace, graph)
        return "timeout", stop.trace, stop.live, recorder.events
    verify_reception(trace, graph)
    return trace, report.outputs, report.total_rounds, recorder.events


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(scripted_graphs())
def test_waiting_is_listening_until_a_beep(case):
    graph, scripts = case
    assert outcome(graph, scripts, sleeps=True) == outcome(graph, scripts, sleeps=False)
