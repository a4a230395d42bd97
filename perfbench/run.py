"""Seeded performance benchmark for beepsim's protocol runners.

Run from the root of a beepsim checkout:

    python3 perfbench/run.py --workload traversal-sparse --seed 1 --seconds 30 --trace 0

The seed fixes every graph, source set and message.  One run sets the
workload up several times (``setup_s`` is the median), then executes its
instances round-robin for ``--seconds`` seconds.  Each execution is timed
(runner plus the row facts ``beepsim bench`` computes) and then checked
outside the timed region: oracle checks, the round floor, OR reception
re-derived from adjacency, and every exact count and trace digest equal to
the instance's first execution.  Host times are scaled to a nominal host
speed measured by a probe sampled through every timed region (see
hostspeed.py); the raw times are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced executions and prints the per-layer metrics taken from
spans around the package's public names (see tracing.py).  The last line
of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import hostspeed

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "node_rounds_per_s": "node-rounds/s",
    "sim_rounds": "rounds",
    "pass_rate": "ratio",
    "peak_rss_mb": "MB",
}

SPAN_SECONDS = (
    "graphs.reference_dfs",
    "engine.diameter",
    "engine.distances",
    "engine.adjacency",
    "engine.simulate",
    "waves.runner",
    "traversal.runner",
    "multicast.runner",
)
SPAN_CALLS = {
    "graphs.reference_dfs_calls": "graphs.reference_dfs",
    "engine.diameter_calls": "engine.diameter",
    "engine.distances_calls": "engine.distances",
    "engine.adjacency_builds": "engine.adjacency",
}
CODEC_COUNTS = ("codec.encode_calls", "codec.parsers_created", "codec.parser_pushes")
FACT_COUNTS = (
    "engine.node_rounds",
    "engine.beeps",
    "engine.heard",
    "engine.trace_records",
    "traversal.token_moves",
    "traversal.words_overheard",
    "traversal.gossip_decodes",
)
MB_PHASES = (
    "elect", "estimate", "msglen", "id_collect", "id_wave",
    "table_collect", "table_wave", "msg_collect", "msg_wave",
)
SHARES = ("oracle", "simulate", "runner")

PER_LAYER: dict[str, str] = {
    "graphs.generate_s": "s",
    **{f"{name}_s": "s" for name in SPAN_SECONDS},
    **{name: "count" for name in SPAN_CALLS},
    "engine.verify_reception_s": "s",
    "engine.ns_per_node_round": "ns",
    "engine.active_fraction": "ratio",
    **{name: "count" for name in CODEC_COUNTS + FACT_COUNTS},
    **{f"multicast.rounds.{phase}": "rounds" for phase in MB_PHASES},
    "bounds.upper_ratio_max": "ratio",
    "bounds.floor_margin_min": "rounds",
    **{f"share.{cat}": "ratio" for cat in SHARES},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "host.wall_raw_s": "s",
    "host.probe_s": "s",
}

# Metrics that must repeat exactly for the same seed: simulated counts and
# ratios of them.  Everything else is a host-side measurement.
EXACT = {"sim_rounds", "pass_rate", "engine.active_fraction", "bounds.upper_ratio_max"} | {
    name for name, unit in PER_LAYER.items() if unit in ("count", "rounds")
}


def load_package() -> bool:
    """Put this checkout's ``src`` first on the path; False if absent."""
    if not (SRC / "beepsim" / "__init__.py").is_file():
        print(f"error: no beepsim package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


@dataclass
class Layer:
    """What one traced execution recorded."""

    self_s: dict[str, float]
    calls: dict[str, int]
    by_cat: dict[str, float]
    counts: dict[str, int]
    verify_s: float


@dataclass
class State:
    """Everything measured about one instance during a run."""

    inst: Any
    times: list[float] = field(default_factory=list)  # host seconds at nominal speed
    raw_times: list[float] = field(default_factory=list)  # host seconds as measured
    probes: list[float] = field(default_factory=list)  # mean probe seconds per execution
    traced_times: list[float] = field(default_factory=list)
    layers: list[Layer] = field(default_factory=list)
    facts: dict[str, Any] | None = None
    attempted: int = 0
    failed: int = 0
    cost: float = 0.0  # seconds the last execution took, checks included


def execute(st: State, traced: bool) -> None:
    import instances
    import tracing

    st.attempted += 1
    gc.collect()
    start = time.perf_counter()
    tracer = tracing.Tracer()
    try:
        if traced:
            runner = instances.RUNNER_MODULE[st.inst.plan.protocol] + ".runner"

            def body() -> tuple[Any, Any]:
                run = tracer.call(runner, instances.run_protocol, st.inst)
                return run, instances.row_facts(st.inst, run)

            with tracing.traced(tracer):
                run, row = tracer.call("instance", body)
            elapsed = tracer.inclusive("instance")
        else:
            timing = hostspeed.timed(_run_and_row, st.inst)
            run, row = timing.result
        checker = tracing.Tracer()
        with tracing.traced(checker):
            error = instances.check(st.inst, run, row)
        facts = instances.exact_facts(st.inst, run, row)
    except Exception:  # a failed execution is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        st.failed += 1
        st.cost = time.perf_counter() - start
        return
    if error is None and st.facts is not None and facts != st.facts:
        error = "exact counts or trace digest differ from the first execution"
    if error is not None:
        print(f"FAIL {st.inst.plan}: {error}", file=sys.stderr)
        st.failed += 1
    else:
        st.facts = st.facts or facts
        if traced:
            self_s, calls, by_cat = tracer.summary()
            st.traced_times.append(elapsed)
            st.layers.append(
                Layer(self_s, calls, by_cat, dict(tracer.counts),
                      checker.inclusive("engine.verify_reception"))
            )
        else:
            st.times.append(timing.nominal_s)
            st.raw_times.append(timing.host_s)
            st.probes.append(timing.probe_s)
    st.cost = time.perf_counter() - start


def _run_and_row(inst: Any) -> tuple[Any, Any]:
    import instances

    run = instances.run_protocol(inst)
    return run, instances.row_facts(inst, run)


def _mean_per_instance(states: list[State], get: Any) -> float:
    return sum(statistics.fmean(get(x) for x in st.layers) for st in states if st.layers)


def _sum_median(values: list[list[float]]) -> float:
    return sum(statistics.median(v) for v in values if v)


def end_to_end(states: list[State], setups: list[float]) -> dict[str, float]:
    wall = _sum_median([st.times for st in states])
    facts = [st.facts for st in states if st.facts]
    attempted = sum(st.attempted for st in states)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "node_rounds_per_s": sum(f["engine.node_rounds"] for f in facts) / wall,
        "sim_rounds": sum(f["rounds"] for f in facts),
        "pass_rate": (attempted - sum(st.failed for st in states)) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(states: list[State], generate_s: float) -> dict[str, float]:
    facts = [st.facts for st in states if st.facts]
    firsts = [st.layers[0] for st in states if st.layers]
    out: dict[str, float] = {"graphs.generate_s": generate_s}
    for name in SPAN_SECONDS:
        out[f"{name}_s"] = _mean_per_instance(states, lambda x: x.self_s.get(name, 0.0))
    for metric, name in SPAN_CALLS.items():
        out[metric] = sum(x.calls.get(name, 0) for x in firsts)
    out["engine.verify_reception_s"] = _mean_per_instance(states, lambda x: x.verify_s)
    for name in CODEC_COUNTS:
        out[name] = sum(x.counts.get(name, 0) for x in firsts)
    for name in FACT_COUNTS:
        out[name] = sum(f.get(name, 0) for f in facts)
    for phase in MB_PHASES:
        name = f"multicast.rounds.{phase}"
        out[name] = sum(f.get(name, 0) for f in facts)
    node_rounds = out["engine.node_rounds"]
    out["engine.ns_per_node_round"] = out["engine.simulate_s"] / node_rounds * 1e9
    out["engine.active_fraction"] = (out["engine.beeps"] + out["engine.heard"]) / node_rounds
    out["bounds.upper_ratio_max"] = max(f["upper_ratio"] for f in facts)
    out["bounds.floor_margin_min"] = min(f["floor_margin"] for f in facts)
    traced_total = _mean_per_instance(states, lambda x: sum(x.by_cat.values()))
    for cat in SHARES:
        cat_s = _mean_per_instance(states, lambda x: x.by_cat.get(cat, 0.0))
        out[f"share.{cat}"] = cat_s / traced_total
    out["trace.wall_s"] = _sum_median([st.traced_times for st in states])
    out["host.wall_raw_s"] = _sum_median([st.raw_times for st in states])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["host.wall_raw_s"]
    out["host.probe_s"] = statistics.median(p for st in states for p in st.probes)
    return {name: out[name] for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="scaled-down instances, for the self-test")
    args = parser.parse_args(argv)
    if not load_package():
        return 2
    import instances
    import tracing

    if args.workload not in instances.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(instances.WORKLOADS)}")

    # Set up at least SETUP_REPEATS times and for at least SETUP_SECONDS, so
    # that the median of a set-up of a few milliseconds is steady too.
    setups: list[float] = []
    insts = None
    same_inputs = True
    setup_end = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPEATS or time.perf_counter() < setup_end:
        gc.collect()
        timing = hostspeed.timed(instances.set_up, args.workload, args.seed, args.tiny)
        setups.append(timing.nominal_s)
        same_inputs = same_inputs and (insts is None or timing.result == insts)
        insts = timing.result
    generate_s = 0.0
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            instances.set_up(args.workload, args.seed, args.tiny)
        generate_s = tracer.inclusive("graphs.generate")

    states = [State(inst) for inst in insts]
    modes = (False, True) if args.trace else (False,)
    order = [(st, traced) for st in states for traced in modes]
    deadline = time.perf_counter() + args.seconds
    for i, (st, traced) in enumerate(itertools.cycle(order)):
        # Every instance runs at least once in each mode; after that, stop
        # before an execution that would overrun the measuring window.
        if i >= len(order) and time.perf_counter() + st.cost > deadline:
            break
        execute(st, traced)

    for st in states:
        p = st.inst.plan
        med = statistics.median(st.times) if st.times else float("nan")
        rounds = st.facts["rounds"] if st.facts else -1
        print(f"# {p.protocol:<9} {p.family}:n={p.n} p={p.edge_p} k={p.k} bits={p.bits}"
              f"  rounds={rounds}  runs={len(st.times)}  median_s={med:.4f}")
    digest = hashlib.sha256(
        "".join(st.facts["digest"] if st.facts else "-" for st in states).encode()
    ).hexdigest()
    print(f"# trace digest {digest}")
    probes = [p for st in states for p in st.probes]
    if probes:
        print(f"# host raw_wall_s {_sum_median([st.raw_times for st in states]):.4f}"
              f" probe_s {statistics.median(probes):.5f} probes {len(probes)}")

    attempted = sum(st.attempted for st in states)
    failed = sum(st.failed for st in states)
    # Metrics need a passing execution of every instance in every mode.
    complete = all(st.facts and st.times and (st.layers or not args.trace) for st in states)
    correct = same_inputs and failed == 0 and complete
    metrics, units = (
        (per_layer(states, generate_s), PER_LAYER) if args.trace
        else (end_to_end(states, setups), END_TO_END)
    ) if complete else ({}, {})
    for name, value in metrics.items():
        print(f"# {name:<30} {value:>18.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
