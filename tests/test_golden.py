"""Golden digests: every runner's trace, round count and outputs are pinned,
and each trace's reception is re-derived from adjacency by ``verify_reception``.

A change that is meant to keep behaviour must keep every entry of GOLDEN.
Each entry is (total_rounds, sha256 of the ``write_trace`` bytes, sha256
of the outputs in a canonical form that does not depend on the hash seed),
both digests cut to 16 hex digits.  The runners that keep a recorder (dfs,
gossip, mb-prov, mb-noprov) add a fourth column, the digest of the recorder
events in the order they were logged.  To see the table a tree produces, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io

from beepsim.engine import verify_reception, write_trace
from beepsim.graphs import generate, parse_graph_spec
from beepsim.multicast import multi_broadcast
from beepsim.traversal import dfs, gossip
from beepsim.waves import (
    broadcast,
    collect_messages,
    elect_leader,
    estimate_diameter,
    get_message_length,
)

GRAPHS = ("path:n=7", "grid:n=9,seed=2", "er:n=16,seed=4,range=64")


def _runs(graph):
    """(name, thunk) for the 9 runners and one variant on ``graph``."""
    nodes = graph.nodes
    sources = set(nodes[:3])
    ragged = {u: "1011"[: 1 + i] for i, u in enumerate(nodes[:3])}
    fixed = {u: ("101", "011", "110")[i] for i, u in enumerate(nodes[:3])}
    everyone = {u: format(i % 8, "03b") for i, u in enumerate(nodes)}
    return [
        ("broadcast", lambda: broadcast(graph, nodes[1], "1011")),
        ("elect", lambda: elect_leader(graph)),
        ("diameter", lambda: estimate_diameter(graph)),
        ("collect", lambda: collect_messages(graph, None, sources, ragged)),
        ("msglen", lambda: get_message_length(graph, None, sources, ragged)),
        ("dfs", lambda: dfs(graph)),
        ("gossip", lambda: gossip(graph, everyone)),
        ("mb-prov", lambda: multi_broadcast(graph, sources, fixed, provenance=True)),
        ("mb-noprov", lambda: multi_broadcast(graph, sources, fixed, provenance=False)),
        # More sources than D~: on the ER graph the message-prefix search runs.
        ("mb-noprov all", lambda: multi_broadcast(graph, set(nodes), everyone, provenance=False)),
    ]


def _canon(value) -> str:
    """A repr in which every set is sorted, so it does not depend on the hash seed."""
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(v) for v in value)) + "}"
    if isinstance(value, dict):
        return "{" + ",".join(sorted(f"{_canon(k)}:{_canon(v)}" for k, v in value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value).__name__ + _canon([getattr(value, f.name) for f in fields])
    return repr(value)


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(run) -> tuple:
    buf = io.StringIO()
    write_trace(run.trace, buf)
    digest = (run.report.total_rounds, _sha16(buf.getvalue()), _sha16(_canon(run.report.outputs)))
    recorder = run.report.extras.get("recorder")
    return digest if recorder is None else digest + (_sha16(_canon(recorder.events)),)


GOLDEN = {
    "path:n=7 broadcast": (41, "8c181f79d367cf61", "537beaddb4086c5f"),
    "path:n=7 elect": (24, "70f0b0d90b0e2d8d", "b0a8ba38ba5af299"),
    "path:n=7 diameter": (77, "4899e24401d18fbc", "2862a9a701aa86b9"),
    "path:n=7 collect": (139, "b1bd377a9ae91c31", "f40a6e7d204af294"),
    "path:n=7 msglen": (184, "d065b4e9ad16579e", "67d85961941b1da0"),
    "path:n=7 dfs": (967, "af41b064ecc5625b", "659f02d4c99df547", "22cc32452034ba4b"),
    "path:n=7 gossip": (1322, "4a1d636efd54cb70", "79e6561635984aa1", "d95ef4c9fe05bfae"),
    "path:n=7 mb-prov": (697, "6d0a8a727fe2c8f9", "ad0db5b2773a500b", "4ac312d23c005b77"),
    "path:n=7 mb-noprov": (697, "6d0a8a727fe2c8f9", "18e7a181c741211d", "4ac312d23c005b77"),
    "path:n=7 mb-noprov all": (859, "7b04d732beb36959", "27aaa4ffbb8fa74c", "312ffabcd0e9fade"),
    "grid:n=9,seed=2 broadcast": (40, "39d846f500cf495d", "b79b9c901be80176"),
    "grid:n=9,seed=2 elect": (40, "5fd80d7e43a5a25b", "7b300af0509a0c8d"),
    "grid:n=9,seed=2 diameter": (59, "da303dccf12f4246", "c6d173fa571a6cbc"),
    "grid:n=9,seed=2 collect": (109, "1f3ae8a6eefaeba9", "dee1e6b310510ce3"),
    "grid:n=9,seed=2 msglen": (148, "14bc7ac555d38838", "aab4cb9a32e629cc"),
    "grid:n=9,seed=2 dfs": (1333, "5dc378b18c6a2ffa", "9822cee152f98619", "af8bb284d49f360d"),
    "grid:n=9,seed=2 gossip": (1946, "1ef0a756b5334c82", "668c27eb6336c2c3", "1240463b391652dc"),
    "grid:n=9,seed=2 mb-prov": (689, "4cc506644a3dddec", "99bd031bcd9f70fb", "defcb66cbff23758"),
    "grid:n=9,seed=2 mb-noprov": (689, "4cc506644a3dddec", "b5f658f1f0f07cf8", "defcb66cbff23758"),
    "grid:n=9,seed=2 mb-noprov all": (959, "ec8a18fa795b9946", "3571ddddee850c14", "4e589a88eaba04b9"),
    "er:n=16,seed=4,range=64 broadcast": (39, "f9132a082ecc8ad8", "52939bbd52586314"),
    "er:n=16,seed=4,range=64 elect": (102, "371c80b96ef6c608", "65e8270e91324d7f"),
    "er:n=16,seed=4,range=64 diameter": (53, "bee84026e350d056", "392d73eda75f33f2"),
    "er:n=16,seed=4,range=64 collect": (97, "3ea3b7876cb6ce25", "b124aee0288bd4aa"),
    "er:n=16,seed=4,range=64 msglen": (133, "9ee91e7cd8bb239a", "68f9a9cad0b2d206"),
    "er:n=16,seed=4,range=64 dfs": (2855, "1c79230bf8b15f81", "345d5c2727151629", "8a7ea5ca39795611"),
    "er:n=16,seed=4,range=64 gossip": (4296, "4701389670318283", "2a31df074fdf2604", "0f31f4a5bc63a14e"),
    "er:n=16,seed=4,range=64 mb-prov": (877, "d9ede9539f5736b0", "812200fec194f6ef", "d39302a5344752df"),
    "er:n=16,seed=4,range=64 mb-noprov": (877, "d9ede9539f5736b0", "26873114f8b68a7a", "d39302a5344752df"),
    "er:n=16,seed=4,range=64 mb-noprov all": (1030, "832a44eb2db4ce42", "67fe5ec04f4609c4", "d8b567244673c098"),
}


def _cases():
    for spec in GRAPHS:
        graph = generate(parse_graph_spec(spec))
        for name, thunk in _runs(graph):
            yield f"{spec} {name}", graph, thunk


def test_every_runner_matches_its_golden_digest():
    got = {}
    for key, graph, thunk in _cases():
        run = thunk()
        assert run.report.all_passed, key
        verify_reception(run.trace, graph)
        got[key] = fingerprint(run)
    assert got == GOLDEN


if __name__ == "__main__":
    for key, _, thunk in _cases():
        rounds, *digests = fingerprint(thunk())
        print(f'    "{key}": ({rounds}, ' + ", ".join(f'"{d}"' for d in digests) + "),")
