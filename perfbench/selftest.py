"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N]

For every workload of BENCHMARK.json and both trace modes, runs run.py
twice on scaled-down instances (``--tiny``, one short pass) and checks that
the result line names every metric BENCHMARK.json lists, with its unit,
that every execution passed its checks, and that the trace digest and every
exact count repeat across the two invocations.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def invoke(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    digest = next(line for line in lines if line.startswith("# trace digest"))
    return json.loads(lines[-1]), digest.split()[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first, digest = invoke(workload, seed, trace)
            second, digest2 = invoke(workload, seed, trace)
            problems = []
            for res in (first, second):
                units = {name: m["unit"] for name, m in res["metrics"].items()}
                if units != expected[trace]:
                    problems.append("metric names or units differ from BENCHMARK.json")
                if not res["correct"] or res["failed"]:
                    problems.append(f"{res['failed']} of {res['attempted']} executions failed")
            if digest != digest2:
                problems.append("trace digests differ")
            drift = [
                name for name in first["metrics"]
                if name in bench.EXACT
                and first["metrics"][name]["value"] != second["metrics"].get(name, {}).get("value")
            ]
            if drift:
                problems.append(f"exact metrics differ: {drift}")
            failures += bool(problems)
            status = "FAIL" if problems else "ok"
            print(f"{status:4} {workload:<20} trace={trace} metrics={len(first['metrics'])} "
                  f"digest={digest[:16]} {'; '.join(sorted(set(problems)))}")
            for name, m in first["metrics"].items():
                print(f"       {name:<30} {m['value']:>18.6f} {m['unit']}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
