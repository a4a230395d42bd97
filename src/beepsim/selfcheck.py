"""Built-in invariant suites behind the ``verify`` CLI subcommand.

These are quick, seeded spot checks of the library's own invariants, one
table row per check.  The pytest suite is the exhaustive version; this is
the operational smoke test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import codec
from .engine import diameter, verify_reception
from .graphs import GraphSpec, generate, or_oracle, reference_dfs
from .multicast import lower_bound, multi_broadcast
from .traversal import dfs, gossip
from .waves import broadcast, collect_messages, elect_leader, estimate_diameter, get_message_length

SUITES = ("codec", "waves", "traversal", "multicast", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _codec_suite() -> list[CheckResult]:
    out = []
    ok = all(codec.decode(codec.encode(format(v, f"0{n}b"))) == format(v, f"0{n}b")
             for n in range(0, 11) for v in range(1 << n))
    out.append(CheckResult("codec", "roundtrip_exhaustive_len10", ok))
    ok = all(len(codec.encode(format(v, "08b"))) == 2 * 8 + 4 for v in range(256))
    out.append(CheckResult("codec", "length_law", ok))
    rng = random.Random(20)
    ok = True
    for _ in range(200):
        msgs = ["".join(rng.choice("01") for _ in range(rng.randint(0, 9))) for _ in range(2)]
        stream = "0" * rng.randint(0, 5) + codec.encode(msgs[0]) \
            + "0" * rng.randint(0, 5) + codec.encode(msgs[1]) + "0" * rng.randint(0, 5)
        ok = ok and codec.decode_stream(stream) == msgs
    out.append(CheckResult("codec", "stream_robustness", ok))
    return out


def _waves_suite() -> list[CheckResult]:
    out = []
    rng = random.Random(31)
    ok = True
    for seed in range(4):
        g = generate(GraphSpec("erConnected", 14, seed=seed))
        m = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        run = broadcast(g, g.nodes[0], m)
        verify_reception(run.trace, g)
        ok = ok and run.report.all_passed
    out.append(CheckResult("waves", "broadcast_exactness", ok))
    ok = True
    for seed in range(4):
        g = generate(GraphSpec("randomTree", 12, seed=seed))
        run = elect_leader(g)
        ok = ok and run.report.all_passed
    out.append(CheckResult("waves", "election_oracle_and_rounds", ok))
    ok = True
    for fam in ("path", "star", "cycle", "grid"):
        g = generate(GraphSpec(fam, 9, seed=1))
        run = estimate_diameter(g)
        ok = ok and run.report.all_passed
    out.append(CheckResult("waves", "diameter_estimate_sandwich", ok))
    ok = True
    for seed in range(4):
        g = generate(GraphSpec("erConnected", 10, seed=seed + 50))
        srcs = set(rng.sample(list(g.nodes), 3))
        msgs = {s: "".join(rng.choice("01") for _ in range(rng.randint(1, 5))) for s in srcs}
        p = max(len(m) for m in msgs.values())
        run = collect_messages(g, g.max_id, srcs, msgs, p)
        want = or_oracle(list(msgs.values()), p)
        ok = ok and run.report.outputs[g.max_id]["or"] == want and run.report.all_passed
    out.append(CheckResult("waves", "collect_or_oracle", ok))
    ok = True
    for seed in range(3):
        g = generate(GraphSpec("erConnected", 10, seed=seed + 70))
        srcs = set(rng.sample(list(g.nodes), 3))
        msgs = {s: "".join(rng.choice("01") for _ in range(rng.randint(1, 5))) for s in srcs}
        run = get_message_length(g, g.max_id, srcs, msgs)
        verify_reception(run.trace, g)
        ok = ok and run.report.all_passed
    out.append(CheckResult("waves", "msglen_agreement", ok))
    return out


def _traversal_suite() -> list[CheckResult]:
    out = []
    ok = True
    for seed in range(4):
        g = generate(GraphSpec("erConnected", 11, seed=seed + 3))
        run = dfs(g)
        ok = ok and run.report.extras["numbering"] == reference_dfs(g, g.max_id)
    out.append(CheckResult("traversal", "dfs_reference_oracle", ok))
    rng = random.Random(9)
    ok = True
    for seed in range(3):
        g = generate(GraphSpec("randomTree", 8, seed=seed))
        msgs = {u: "".join(rng.choice("01") for _ in range(rng.randint(1, 4))) for u in g.nodes}
        run = gossip(g, msgs, dhat=diameter(g))
        ok = ok and run.report.all_passed
    out.append(CheckResult("traversal", "gossip_pipelining", ok))
    return out


def _multicast_suite() -> list[CheckResult]:
    out = []
    rng = random.Random(13)
    ok = True
    for seed in range(3):
        g = generate(GraphSpec("erConnected", 12, seed=seed + 9))
        srcs = set(rng.sample(list(g.nodes), 3))
        msgs = {s: "".join(rng.choice("01") for _ in range(3)) for s in srcs}
        run = multi_broadcast(g, srcs, msgs, provenance=True)
        ok = ok and run.report.all_passed
    out.append(CheckResult("multicast", "prov_output_exactness", ok))
    g = generate(GraphSpec("star", 10, seed=2))
    srcs = set(g.nodes) - {g.max_id}
    msgs = {s: "".join(rng.choice("01") for _ in range(2)) for s in srcs}
    run = multi_broadcast(g, srcs, msgs, provenance=False)
    out.append(CheckResult("multicast", "noprov_distinct_set", run.report.all_passed))
    ok = (
        lower_bound("broadcast", 8, 2, 16, 1) == 4
        and lower_bound("mbNoProv", 4, 16, 8, 9) == 3
        and lower_bound("broadcast", 0, 2, 2, 1) == 1
    )
    out.append(CheckResult("multicast", "lower_bound_values", ok))
    return out


_SUITE_FNS: dict[str, Callable[[], list[CheckResult]]] = {
    "codec": _codec_suite,
    "waves": _waves_suite,
    "traversal": _traversal_suite,
    "multicast": _multicast_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    names = list(_SUITE_FNS) if name == "all" else [name]
    results: list[CheckResult] = []
    for n in names:
        results.extend(_SUITE_FNS[n]())
    return results
