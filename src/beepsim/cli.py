"""Command-line harness: run single protocols, batch benchmarks, and the
built-in verification suites.

Exit codes: 0 success, 1 invariant or protocol failure, 2 usage error,
3 simulation timeout.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

from . import bounds, codec, selfcheck
from .engine import (
    Graph,
    ProtocolError,
    SimulationTimeout,
    Trace,
    diameter,
    read_graph,
    write_trace,
)
from .graphs import generate, parse_graph_spec
from .multicast import multi_broadcast
from .traversal import dfs, gossip
from .waves import (
    ProtocolRun,
    broadcast,
    collect_messages,
    elect_leader,
    estimate_diameter,
    get_message_length,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3

# The options of ``run`` and ``bench`` without a default that each protocol
# reads; any other protocol given one of them is a usage error.
OPTIONS_READ = {
    "broadcast": ("message", "source"),
    "elect": ("dhat", "lhat"),
    "dfs": ("leader", "lhat"),
    "gossip": ("messages", "dhat", "lhat"),
    "diameter": ("leader",),
    "collect": ("messages", "sources", "leader"),
    "msglen": ("messages", "sources", "leader"),
    "mb-prov": ("messages", "sources", "dhat", "lhat"),
    "mb-noprov": ("messages", "sources", "dhat", "lhat"),
}

# The least value of each count option.  ``--k 0`` is left to the runners,
# whose own check names the empty source set.
COUNT_MINIMUM = {"trials": 1, "k": 0, "msg_bits": 1}

BENCH_COLUMNS = [
    "family",
    "n",
    "D",
    "L",
    "M",
    "k",
    "measuredRounds",
    "upperBoundExpr",
    "lowerBoundExpr",
    "ratio",
]


def _load_graph(text: str) -> tuple[Graph, str]:
    """Accept either a family spec string or a path to an edge-list file."""
    if ":" in text and not Path(text).exists():
        spec = parse_graph_spec(text)
        return generate(spec), spec.family
    path = Path(text)
    if not path.exists():
        raise ValueError(f"graph spec/file not found: {text}")
    with path.open() as fh:
        return read_graph(fh), "file"


def _parse_messages(text: str | None, nodes: list[int], rng: random.Random,
                    width: int) -> dict[int, str]:
    if text is None or text == "random":
        return {u: "".join(rng.choice("01") for _ in range(width)) for u in nodes}
    msgs: dict[int, str] = {}
    for item in text.split(","):
        key, _, val = item.partition("=")
        if not val:
            raise ValueError(f"message entry {item!r} is not id=bits")
        try:
            u = int(key)
        except ValueError:
            raise ValueError(f"message entry {item!r}: {key!r} is not a node id") from None
        if u in msgs:
            raise ValueError(f"message entry {item!r}: node {u} is given twice")
        msgs[u] = val
    return msgs


def _parse_sources(text: str | None, graph: Graph, rng: random.Random, k: int) -> list[int]:
    if text is None or text == "random":
        k = min(k, graph.n)
        return sorted(rng.sample(list(graph.nodes), k))
    sources: list[int] = []
    for tok in text.split(","):
        try:
            u = int(tok)
        except ValueError:
            raise ValueError(f"--sources: {tok!r} is not a node id") from None
        if u in sources:
            raise ValueError(f"--sources: node {u} is listed twice")
        sources.append(u)
    return sorted(sources)


def _check_options(args: argparse.Namespace) -> None:
    """Reject an option the protocol does not read instead of ignoring it,
    and a count below its minimum."""
    for name, least in COUNT_MINIMUM.items():
        if getattr(args, name, least) < least:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {least}")
    read = OPTIONS_READ[args.protocol]
    checked = {name for names in OPTIONS_READ.values() for name in names}
    unread = [
        f"--{name}"
        for name, value in vars(args).items()
        if name in checked and name not in read and value is not None
    ]
    if unread:
        raise ValueError(f"--protocol {args.protocol} does not read {', '.join(unread)}")


def _dispatch(protocol: str, graph: Graph, args: argparse.Namespace,
              rng: random.Random) -> tuple[ProtocolRun, dict[int, str]]:
    """Run one protocol; returns the run and the messages it carried."""
    width = args.msg_bits
    msgs: dict[int, str] = {}
    if protocol == "broadcast":
        source = args.source if args.source is not None else graph.max_id
        if args.message is None:
            msgs = _parse_messages(None, [source], rng, width)
        else:
            msgs = {source: codec.check_bits(args.message, "--message")}
        run = broadcast(graph, source, msgs[source], max_rounds=args.max_rounds)
    elif protocol == "elect":
        run = elect_leader(graph, args.dhat, args.lhat, max_rounds=args.max_rounds)
    elif protocol == "diameter":
        run = estimate_diameter(graph, args.leader, max_rounds=args.max_rounds)
    elif protocol == "dfs":
        run = dfs(graph, args.leader, args.lhat, max_rounds=args.max_rounds)
    elif protocol == "gossip":
        msgs = _parse_messages(args.messages, list(graph.nodes), rng, width)
        run = gossip(graph, msgs, args.dhat, args.lhat, max_rounds=args.max_rounds)
    elif protocol in ("collect", "msglen", "mb-prov", "mb-noprov"):
        sources = _parse_sources(args.sources, graph, rng, args.k)
        msgs = _parse_messages(args.messages, sources, rng, width)
        if protocol == "collect":
            run = collect_messages(graph, args.leader, set(sources), msgs,
                                   max_rounds=args.max_rounds)
        elif protocol == "msglen":
            run = get_message_length(graph, args.leader, set(sources), msgs,
                                     max_rounds=args.max_rounds)
        else:
            run = multi_broadcast(graph, set(sources), msgs, args.dhat, args.lhat,
                                  provenance=protocol == "mb-prov",
                                  max_rounds=args.max_rounds)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return run, msgs


def _print_report(run: ProtocolRun) -> None:
    report = run.report
    print(f"totalRounds: {report.total_rounds}")
    for node in sorted(report.outputs):
        out = report.outputs[node]
        if isinstance(out, frozenset):  # a frozenset prints in string-hash order
            out = sorted(out)
        print(f"  node {node}: {out}")
    for chk in report.bound_checks:
        flag = "pass" if chk.passed else "FAIL"
        print(f"  [{flag}] {chk.name}: measured={chk.measured} bound={chk.bound}")


def _cmd_run(args: argparse.Namespace) -> int:
    _check_options(args)
    graph, _family = _load_graph(args.graph)
    rng = random.Random(args.seed)
    try:
        run, _msgs = _dispatch(args.protocol, graph, args, rng)
    except SimulationTimeout as exc:
        _write_trace_file(args.trace, exc.trace)
        raise
    _print_report(run)
    _write_trace_file(args.trace, run.trace)
    return EXIT_OK if run.report.all_passed else EXIT_INVARIANT


def _write_trace_file(path: str | None, trace: Trace) -> None:
    """Write ``trace`` as JSONL to ``path``, if ``run --trace`` gave one."""
    if path:
        with open(path, "w") as fh:
            write_trace(trace, fh)
        print(f"trace written to {path}")


def _cmd_bench(args: argparse.Namespace) -> int:
    _check_options(args)
    if not args.graph:
        raise ValueError("bench needs at least one --graph")
    rows: list[dict[str, Any]] = []
    status = EXIT_OK
    try:
        for spec_text in args.graph:
            base = parse_graph_spec(spec_text)
            for trial in range(args.trials):
                spec = replace(base, seed=base.seed + trial)
                graph = generate(spec)
                rng = random.Random(spec.seed * 7919 + trial)
                run, msgs = _dispatch(args.protocol, graph, args, rng)
                # The diameter runner has already computed D for its checks.
                d = run.report.extras.get("true_diameter")
                if d is None:
                    d = diameter(graph)
                p = max((len(m) for m in msgs.values()), default=args.msg_bits)
                k = len(msgs) or 1
                upper = bounds.upper_rounds(
                    args.protocol, graph.n, d, p,
                    run.report.extras.get("lhat", 1 << graph.max_id.bit_length()),
                    args.dhat, k,
                )
                lower = bounds.floor_rounds(args.protocol, d, graph.label_range, 2**p, k)
                measured = run.report.total_rounds
                rows.append(
                    {
                        "family": spec.family,
                        "n": graph.n,
                        "D": d,
                        "L": graph.label_range,
                        "M": 2**p,
                        "k": k,
                        "measuredRounds": measured,
                        "upperBoundExpr": f"{upper:.1f}",
                        "lowerBoundExpr": lower,
                        "ratio": f"{measured / upper:.4f}" if upper else "",
                    }
                )
                if not run.report.all_passed or measured < lower:
                    status = EXIT_INVARIANT
    finally:
        out = open(args.csv, "w", newline="") if args.csv else sys.stdout
        try:
            writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        finally:
            if args.csv:
                out.close()
    return status


def _cmd_verify(args: argparse.Namespace) -> int:
    results = selfcheck.run_suite(args.suite)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        flag = "pass" if r.passed else "FAIL"
        print(f"[{flag}] {r.suite:>9} :: {r.name:<{width}} {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beepsim",
        description="Beep-model protocol simulator and verification harness",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options that ``run`` and ``bench`` share.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--protocol", required=True, choices=list(OPTIONS_READ))
    common.add_argument("--message", help="payload bits for broadcast")
    common.add_argument("--messages",
                        help="per-node payloads id=bits,id=bits or 'random'")
    common.add_argument("--sources", help="source ids a,b,c or 'random'")
    common.add_argument("--source", type=int, help="broadcast source id")
    common.add_argument("--leader", type=int, help="leader id override")
    common.add_argument("--dhat", type=int, help="diameter upper bound fed to nodes")
    common.add_argument("--lhat", type=int, help="label-range bound fed to nodes")
    common.add_argument("--k", type=int, default=2, help="random source count")
    common.add_argument("--msg-bits", type=int, default=4,
                        help="random message width in bits")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--max-rounds", type=int)

    run_p = sub.add_parser("run", parents=[common], allow_abbrev=False,
                           help="run one protocol on one graph")
    run_p.add_argument("--graph", required=True,
                       help="family spec (e.g. er:n=25,p=0.2,seed=7) or edge-list file")
    run_p.add_argument("--trace", help="write the JSONL trace here")
    run_p.set_defaults(func=_cmd_run)

    bench_p = sub.add_parser("bench", parents=[common], allow_abbrev=False,
                             help="sweep graph specs, emit a CSV")
    bench_p.add_argument("--graph", action="append",
                         help="family spec; repeat for a sweep")
    bench_p.add_argument("--trials", type=int, default=1)
    bench_p.add_argument("--csv", help="CSV output path (default stdout)")
    bench_p.set_defaults(func=_cmd_bench)

    verify_p = sub.add_parser("verify", allow_abbrev=False,
                              help="run built-in invariant suites")
    verify_p.add_argument("--suite", default="all", choices=selfcheck.SUITES)
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except SimulationTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
