from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beepsim.cli
import beepsim.waves
from beepsim import selfcheck
from beepsim.cli import (
    BENCH_COLUMNS,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    OPTIONS_READ,
    main,
)
from beepsim.engine import Graph, Trace, diameter, verify_reception, write_graph
from beepsim.graphs import GraphSpec, generate, parse_graph_spec
from beepsim.traversal import dfs
from beepsim.waves import elect_leader


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("protocol", ["mb-prov", "mb-noprov"])
def test_run_prints_multi_broadcast_output_the_same_under_any_hash_seed(protocol):
    # The result is a frozenset, whose own order follows string hashing.
    argv = [sys.executable, "-m", "beepsim", "run", "--protocol", protocol,
            "--graph", "er:n=12,p=0.4,seed=5", "--k", "4"]
    src = str(Path(beepsim.cli.__file__).parents[1])
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert "node 0: [" in outs[0]


def test_run_broadcast_on_path(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "broadcast", "--graph", "path:n=10",
        "--message", "1011",
    )
    assert code == EXIT_OK
    assert out.count("message='1011'") == 9  # every non-source node decodes
    assert "totalRounds" in out


def test_run_empty_source_set_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "run", "--protocol", "mb-prov", "--graph", "path:n=5",
        "--sources", "",
    )
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize(
    "spec, named",
    [("er:n=30,p=0", "(0, 1]"), ("er:n=30,p=-1", "(0, 1]"), ("er:n=30,p=1.5", "(0, 1]"),
     ("er:n=30,p=0.001", "no connected G(30, 0.001)")],
)
def test_run_on_an_er_spec_that_cannot_be_generated_is_usage_error(capsys, spec, named):
    code, out, err = run_cli(capsys, "run", "--protocol", "elect", "--graph", spec)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and named in err
    assert out == ""


def test_run_with_p_on_a_family_other_than_er_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "run", "--protocol", "elect", "--graph", "path:n=5,p=0.5")
    assert code == EXIT_USAGE
    assert err == "error: edge probability p applies to erConnected only, not path\n"
    assert out == ""


def test_run_diameter_star(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "diameter",
                           "--graph", "star:n=6")
    assert code == EXIT_OK
    values = {
        int(line.rsplit(":", 1)[1]) for line in out.splitlines()
        if line.strip().startswith("node")
    }
    assert len(values) == 1
    assert 2 <= values.pop() <= 11


def test_run_writes_trace_file(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        capsys, "run", "--protocol", "broadcast", "--graph", "path:n=4",
        "--message", "1", "--trace", str(trace_file),
    )
    assert code == EXIT_OK
    lines = trace_file.read_text().splitlines()
    rec = json.loads(lines[0])
    assert set(rec) == {"round", "beepers", "heard"}
    assert rec["round"] == 1


def test_run_accepts_graph_file(tmp_path, capsys):
    g = Graph.from_edges([(0, 1), (1, 2)])
    path = tmp_path / "g.edges"
    with path.open("w") as fh:
        write_graph(g, fh)
    code, out, _ = run_cli(capsys, "run", "--protocol", "elect",
                           "--graph", str(path))
    assert code == EXIT_OK
    assert "node 0: 2" in out


def test_run_timeout_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "run", "--protocol", "gossip", "--graph", "path:n=6",
        "--messages", "random", "--max-rounds", "50",
    )
    assert code == EXIT_TIMEOUT
    assert "timeout" in err


def test_run_timeout_writes_the_partial_trace(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    code, out, err = run_cli(
        capsys, "run", "--protocol", "dfs", "--graph", "path:n=6",
        "--max-rounds", "50", "--trace", str(trace_file),
    )
    assert code == EXIT_TIMEOUT and "timeout" in err
    assert out == f"trace written to {trace_file}\n"
    g = generate(parse_graph_spec("path:n=6"))
    trace = Trace(g.nodes)
    for number, line in enumerate(trace_file.read_text().splitlines(), 1):
        rec = json.loads(line)
        assert rec["round"] == number
        trace.rounds.append((sum(1 << g.nodes.index(u) for u in rec["beepers"]),
                             sum(1 << g.nodes.index(u) for u in rec["heard"])))
    assert len(trace) == 50
    verify_reception(trace, g)


def test_usage_errors(capsys):
    assert run_cli(capsys, "run", "--protocol", "nope", "--graph", "path:n=3")[0] == EXIT_USAGE
    assert run_cli(capsys, "verify", "--suite", "nope")[0] == EXIT_USAGE
    assert run_cli(capsys, "run", "--protocol", "broadcast",
                   "--graph", "missing.file")[0] == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("run", "--protocol", "broadcast", "--message", "101", "--pro", "elect",
     "--graph", "path:n=5"),
    ("run", "--p", "2", "--protocol", "elect", "--graph", "path:n=5"),
    ("bench", "--protocol", "elect", "--gr", "path:n=5"),
    ("verify", "--su", "codec"),
])
def test_an_abbreviated_option_is_not_read_as_the_full_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments" in err


def test_bench_csv_schema_and_rows(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--protocol", "broadcast",
        "--graph", "path:n=10", "--graph", "star:n=8",
        "--trials", "2", "--csv", str(out_csv),
    )
    assert code == EXIT_OK
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [c for c in rows[0]] == BENCH_COLUMNS
    assert len(rows) == 4
    for row in rows:
        assert int(row["measuredRounds"]) >= int(row["lowerBoundExpr"])
        assert float(row["ratio"]) <= 1.0 + 1e-9


def test_bench_without_a_graph_is_usage_error(tmp_path, capsys):
    out_csv = tmp_path / "empty.csv"
    code, out, err = run_cli(capsys, "bench", "--protocol", "broadcast",
                             "--csv", str(out_csv))
    assert (code, out) == (EXIT_USAGE, "")
    assert "--graph" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("command, option, value, least", [
    ("bench", "--trials", "0", 1), ("bench", "--trials", "-2", 1),
    ("run", "--k", "-1", 0), ("bench", "--k", "-1", 0),
    ("run", "--msg-bits", "-1", 1), ("bench", "--msg-bits", "0", 1),
])
def test_a_count_below_its_minimum_is_named(tmp_path, capsys, command, option, value, least):
    out_csv = tmp_path / "rows.csv"
    extra = ["--csv", str(out_csv)] if command == "bench" else []
    code, out, err = run_cli(capsys, command, "--protocol", "collect", "--graph", "path:n=5",
                             option, value, *extra)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {option} must be at least {least}\n"
    assert not out_csv.exists()


def test_bench_deterministic_rerun(tmp_path, capsys):
    args = [
        "bench", "--protocol", "mb-prov", "--graph", "tree:n=9,seed=4",
        "--trials", "2", "--k", "3", "--msg-bits", "3", "--seed", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--csv", str(a))[0] == EXIT_OK
    assert run_cli(capsys, *args, "--csv", str(b))[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "codec")
    assert code == EXIT_OK
    assert "roundtrip" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == EXIT_OK
    assert "13/13 checks passed" in out


VERIFY_ROWS = [
    ("codec", "roundtrip_exhaustive_len10"),
    ("codec", "length_law"),
    ("codec", "stream_robustness"),
    ("waves", "broadcast_exactness"),
    ("waves", "election_oracle_and_rounds"),
    ("waves", "diameter_estimate_sandwich"),
    ("waves", "collect_or_oracle"),
    ("waves", "msglen_agreement"),
    ("traversal", "dfs_reference_oracle"),
    ("traversal", "gossip_pipelining"),
    ("multicast", "prov_output_exactness"),
    ("multicast", "noprov_distinct_set"),
    ("multicast", "lower_bound_values"),
]


def verify_rows(out):
    return [tuple(line.split("] ", 1)[1].split()[::2]) for line in out.splitlines()
            if line.startswith("[")]


def test_verify_all_prints_its_13_rows_in_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == EXIT_OK
    assert verify_rows(out) == VERIFY_ROWS
    assert "FAIL" not in out


@pytest.mark.parametrize("suite", ["codec", "waves", "traversal", "multicast"])
def test_each_verify_suite_is_its_slice_of_all(suite):
    every = selfcheck.run_suite("all")
    assert selfcheck.run_suite(suite) == [r for r in every if r.suite == suite]


def test_a_runner_whose_check_fails_turns_its_verify_row_to_fail(capsys, monkeypatch):
    def failing(*args, **kw):
        run = elect_leader(*args, **kw)
        run.report.check("made_to_fail", 1, 0)
        return run

    monkeypatch.setattr(selfcheck, "elect_leader", failing)
    code, out, _ = run_cli(capsys, "verify", "--suite", "waves")
    assert code == EXIT_INVARIANT
    assert [line.split()[0] + " " + line.split()[3] for line in out.splitlines()[:-1]] == [
        "[pass] broadcast_exactness",
        "[FAIL] election_oracle_and_rounds",
        "[pass] diameter_estimate_sandwich",
        "[pass] collect_or_oracle",
        "[pass] msglen_agreement",
    ]
    assert out.splitlines()[-1] == "4/5 checks passed"
    spec = GraphSpec("randomTree", 12, seed=0)
    assert out.splitlines()[1].endswith(f" {spec}: failed made_to_fail")


def test_a_trace_that_fails_verify_reception_turns_its_verify_row_to_fail(capsys, monkeypatch):
    def garbled(*args, **kw):
        run = dfs(*args, **kw)
        beeps, heard = run.trace.rounds[0]
        run.trace.rounds[0] = (beeps, heard ^ 1)  # node 0's heard flag in round 1 is flipped
        return run

    monkeypatch.setattr(selfcheck, "dfs", garbled)
    code, out, _ = run_cli(capsys, "verify", "--suite", "traversal")
    assert code == EXIT_INVARIANT
    assert out.splitlines()[0].startswith("[FAIL] traversal :: dfs_reference_oracle")
    assert out.splitlines()[1].startswith("[pass] traversal :: gossip_pipelining")


def test_a_runner_that_raises_fails_only_its_verify_row(capsys, monkeypatch):
    monkeypatch.setattr(selfcheck, "dfs", lambda g: dfs(g, max_rounds=5))
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    lines = out.splitlines()
    assert code == EXIT_INVARIANT
    assert [tuple(line.split()[1:4:2]) for line in lines[:-1]] == VERIFY_ROWS
    assert [line.split()[0] for line in lines[:-1]] == ["[pass]"] * 8 + ["[FAIL]"] + ["[pass]"] * 4
    assert "still running after 5 rounds" in lines[8]
    assert lines[-1] == "12/13 checks passed"


CHECK_ROWS = {
    "broadcast": ["broadcast_exactness"],
    "elect": ["election_round_count", "leader_is_max_id"],
    "dfs": ["dfs_matches_reference", "dfs_count_equals_n", "dfs_round_count"],
    "gossip": ["gossip_outputs_match_oracle", "gossip_round_count"],
    "diameter": ["estimate_agreement", "estimate_lower", "estimate_upper",
                 "estimate_round_count"],
    "collect": ["collect_equals_or_oracle", "collect_round_count"],
    "msglen": ["msglen_agreement", "msglen_round_count"],
    "mb-prov": ["mb_output_exactness", "mb_schedule_agreement", "mb_schedule_exact"],
    "mb-noprov": ["mb_output_exactness", "mb_schedule_agreement", "mb_schedule_exact"],
}


@pytest.mark.parametrize("protocol", OPTIONS_READ)
def test_run_prints_the_check_rows_of_each_protocol(capsys, protocol):
    code, out, _ = run_cli(capsys, "run", "--protocol", protocol, "--graph", "path:n=6")
    assert code == EXIT_OK
    rows = [line.split() for line in out.splitlines() if line.startswith("  [")]
    assert [name.rstrip(":") for _, name, _, _ in rows] == CHECK_ROWS[protocol]
    assert all(flag == "[pass]" for flag, _, _, _ in rows)
    # Every check but the two estimate inequalities prints 0 against the bound 0.
    exact = [row for row in rows if row[1] not in ("estimate_lower:", "estimate_upper:")]
    assert all(row[2:] == ["measured=0", "bound=0"] for row in exact)


def test_run_unknown_leader_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "run", "--protocol", "collect", "--graph", "path:n=5",
        "--leader", "99", "--sources", "0", "--messages", "0=1",
    )
    assert code == EXIT_USAGE
    assert "leader" in err


@pytest.mark.parametrize("protocol", ["collect", "msglen", "mb-noprov"])
def test_run_empty_source_set_reaches_the_runner_check(capsys, protocol):
    code, _, err = run_cli(
        capsys, "run", "--protocol", protocol, "--graph", "path:n=5", "--k", "0",
    )
    assert code == EXIT_USAGE
    assert "sources must be nonempty" in err


@pytest.mark.parametrize("protocol", ["broadcast", "collect", "msglen", "diameter"])
def test_run_never_computes_the_diameter_oracle(capsys, monkeypatch, protocol):
    def no_diameter(graph):
        raise AssertionError("beepsim run computed the diameter oracle")

    monkeypatch.setattr(beepsim.cli, "diameter", no_diameter)
    code, _, _ = run_cli(capsys, "run", "--protocol", protocol, "--graph", "path:n=6")
    assert code == EXIT_OK


@pytest.mark.parametrize("protocol", ["broadcast", "collect", "diameter"])
def test_bench_computes_the_diameter_at_most_once_per_row(
    tmp_path, capsys, monkeypatch, protocol
):
    calls = []

    def counting_diameter(graph):
        calls.append(graph)
        return diameter(graph)

    monkeypatch.setattr(beepsim.cli, "diameter", counting_diameter)
    monkeypatch.setattr(beepsim.waves, "diameter", counting_diameter)
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--protocol", protocol, "--graph", "path:n=6",
        "--graph", "star:n=5", "--trials", "2", "--csv", str(out_csv),
    )
    assert code == EXIT_OK
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(calls) == len(rows) == 4
    assert [int(r["D"]) for r in rows] == [5, 5, 2, 2]


@pytest.mark.parametrize(
    "sources, named",
    [("", "''"), ("0,,1", "''"), ("0,x", "'x'"), ("0,0", "node 0"), ("3,1,3", "node 3")],
)
def test_run_bad_source_list_names_the_token(capsys, sources, named):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "collect", "--graph", "path:n=5",
        "--sources", sources,
    )
    assert code == EXIT_USAGE
    assert named in err and "--sources" in err
    assert out == ""


@pytest.mark.parametrize(
    "messages, named",
    [("x=1", "'x'"), ("0=1,=0", "''"), ("0=1,0=0", "node 0"), ("0=1,3=1,3=0", "node 3")],
)
def test_run_bad_message_list_names_the_token(capsys, messages, named):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "collect", "--graph", "path:n=5",
        "--sources", "0,3", "--messages", messages,
    )
    assert code == EXIT_USAGE
    assert named in err and "message entry" in err
    assert "invalid literal" not in err
    assert out == ""


@pytest.mark.parametrize(
    ("spec", "named"),
    [
        ("er:n=", "graph parameter n: '' is not an integer"),
        ("er:n=10,p=abc", "graph parameter p: 'abc' is not a number"),
        ("path:n=5,seed=x", "graph parameter seed: 'x' is not an integer"),
        ("path:n=5,range=", "graph parameter range: '' is not an integer"),
        ("path:n=5,n=6", "graph parameter n is given twice"),
        ("er:n=9,p=0.5,p=0.5", "graph parameter p is given twice"),
    ],
)
def test_run_bad_graph_spec_names_the_parameter(capsys, spec, named):
    code, out, err = run_cli(capsys, "run", "--protocol", "elect", "--graph", spec)
    assert (code, out) == (EXIT_USAGE, "")
    assert named in err
    assert "invalid literal" not in err and "could not convert" not in err


def test_run_broadcast_names_a_bad_message(capsys):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "broadcast", "--graph", "path:n=5", "--message", "1,0",
    )
    assert code == EXIT_USAGE
    assert "--message" in err and "'1,0'" in err
    assert "message entry" not in err
    assert out == ""


@pytest.mark.parametrize(
    "sources, messages, named",
    [
        ("0,3", "0=1", "sources without a message [3], messages of non-sources []"),
        ("0", "3=1", "sources without a message [0], messages of non-sources [3]"),
    ],
)
def test_run_names_sources_without_messages_and_messages_of_non_sources(
    capsys, sources, messages, named
):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "collect", "--graph", "path:n=5",
        "--sources", sources, "--messages", messages,
    )
    assert code == EXIT_USAGE
    assert named in err
    assert out == ""


OPTION_VALUES = {"message": "1", "messages": "random", "sources": "random", "source": "0",
                 "leader": "0", "dhat": "4", "lhat": "8"}


def test_every_protocol_has_a_row_of_options_it_reads():
    assert set().union(*OPTIONS_READ.values()) == set(OPTION_VALUES)


@pytest.mark.parametrize("protocol", OPTIONS_READ)
def test_run_accepts_every_option_its_protocol_reads(capsys, protocol):
    given = [a for name in OPTIONS_READ[protocol] for a in (f"--{name}", OPTION_VALUES[name])]
    code, _, err = run_cli(capsys, "run", "--protocol", protocol, "--graph", "path:n=5", *given)
    assert code == EXIT_OK, err


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("protocol", OPTIONS_READ)
def test_an_option_the_protocol_does_not_read_is_a_usage_error(capsys, command, protocol):
    for name, value in OPTION_VALUES.items():
        if name in OPTIONS_READ[protocol]:
            continue
        code, out, err = run_cli(capsys, command, "--protocol", protocol,
                                 "--graph", "path:n=5", f"--{name}", value)
        assert code == EXIT_USAGE
        assert err == f"error: --protocol {protocol} does not read --{name}\n"
        assert out == ""


def test_every_unread_option_is_named(capsys):
    code, out, err = run_cli(capsys, "bench", "--protocol", "dfs", "--graph", "path:n=5",
                             "--lhat", "8", "--dhat", "3", "--message", "1")
    assert code == EXIT_USAGE
    assert err == "error: --protocol dfs does not read --message, --dhat\n"
    assert out == ""
