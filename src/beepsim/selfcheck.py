"""Built-in invariant suites behind the ``verify`` CLI subcommand.

These are quick, seeded spot checks of the library's own invariants, one
printed row per check.  The codec suite checks the codec directly.  Every
other row, but ``lower_bound_values``, is one entry of ``_PROTOCOL_ROWS``:
a runner called on each of a few seeded graphs.  It passes only if every
run passes all of its runner's checks, which compare the outputs with an
oracle and the round count with its exact value, and ``verify_reception``
accepts every trace.  A runner or a trace that raises ``SimulationError``
fails only its own row.  A failed row's detail names the graph's spec and
the failed checks or the error.  A row draws its sources and messages
from its own ``random.Random(row name)``, so no row depends on the rows
before it.  The pytest suite is the exhaustive
version; this is the operational smoke test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from . import codec
from .engine import Graph, SimulationError, diameter, verify_reception
from .graphs import GraphSpec, generate
from .multicast import lower_bound, multi_broadcast
from .traversal import dfs, gossip
from .waves import (
    ProtocolRun,
    broadcast,
    collect_messages,
    elect_leader,
    estimate_diameter,
    get_message_length,
)

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


def _lower_bound_values() -> CheckResult:
    ok = (
        lower_bound("broadcast", 8, 2, 16, 1) == 4
        and lower_bound("mbNoProv", 4, 16, 8, 9) == 3
        and lower_bound("broadcast", 0, 2, 2, 1) == 1
    )
    return CheckResult("multicast", "lower_bound_values", ok)


def _bits(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


def _sourced(rng: random.Random, sources: Iterable[int], lo: int,
             hi: int) -> tuple[set[int], dict[int, str]]:
    """A source set and a message of lo..hi random bits for each source."""
    msgs = {s: _bits(rng, lo, hi) for s in sources}
    return set(msgs), msgs


def _specs(family: str, n: int, seeds: Iterable[int]) -> list[GraphSpec]:
    return [GraphSpec(family, n, seed=seed) for seed in seeds]


# One row per protocol check: (suite, row name, graph specs, runner call).
# The call gets one graph and the row's random.Random(row name).
RunnerCall = Callable[[Graph, random.Random], ProtocolRun]
_PROTOCOL_ROWS: tuple[tuple[str, str, list[GraphSpec], RunnerCall], ...] = (
    ("waves", "broadcast_exactness", _specs("erConnected", 14, range(4)),
     lambda g, rng: broadcast(g, g.nodes[0], _bits(rng, 1, 8))),
    ("waves", "election_oracle_and_rounds", _specs("randomTree", 12, range(4)),
     lambda g, rng: elect_leader(g)),
    ("waves", "diameter_estimate_sandwich",
     [GraphSpec(family, 9, seed=1) for family in ("path", "star", "cycle", "grid")],
     lambda g, rng: estimate_diameter(g)),
    ("waves", "collect_or_oracle", _specs("erConnected", 10, range(50, 54)),
     lambda g, rng: collect_messages(g, g.max_id, *_sourced(rng, rng.sample(g.nodes, 3), 1, 5))),
    ("waves", "msglen_agreement", _specs("erConnected", 10, range(70, 73)),
     lambda g, rng: get_message_length(g, g.max_id,
                                       *_sourced(rng, rng.sample(g.nodes, 3), 1, 5))),
    ("traversal", "dfs_reference_oracle", _specs("erConnected", 11, range(3, 7)),
     lambda g, rng: dfs(g)),
    ("traversal", "gossip_pipelining", _specs("randomTree", 8, range(3)),
     lambda g, rng: gossip(g, {u: _bits(rng, 1, 4) for u in g.nodes}, dhat=diameter(g))),
    ("multicast", "prov_output_exactness", _specs("erConnected", 12, range(9, 12)),
     lambda g, rng: multi_broadcast(g, *_sourced(rng, rng.sample(g.nodes, 3), 3, 3))),
    ("multicast", "noprov_distinct_set", [GraphSpec("star", 10, seed=2)],
     lambda g, rng: multi_broadcast(g, *_sourced(rng, sorted(set(g.nodes) - {g.max_id}), 2, 2),
                                    provenance=False)),
)


def _protocol_row(suite: str, name: str, specs: list[GraphSpec], call: RunnerCall) -> CheckResult:
    rng = random.Random(name)
    for spec in specs:
        g = generate(spec)
        try:
            run = call(g, rng)
            verify_reception(run.trace, g)
        except SimulationError as err:
            return CheckResult(suite, name, False, f"{spec}: {err}")
        failed = [c.name for c in run.report.bound_checks if not c.passed]
        if failed:
            return CheckResult(suite, name, False, f"{spec}: failed {', '.join(failed)}")
    return CheckResult(suite, name, True)


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    wanted = SUITES[:-1] if name == "all" else (name,)
    results = _codec_suite() if "codec" in wanted else []
    results += [_protocol_row(*row) for row in _PROTOCOL_ROWS if row[0] in wanted]
    if "multicast" in wanted:
        results.append(_lower_bound_values())
    return results
