"""Multi-broadcast: iterative prefix search over source IDs (with
provenance) or over the messages themselves (without).

Run:  python demos/04_multibroadcast.py
"""

import random

from beepsim import Graph, diameter, multi_broadcast

# With provenance: two sources on a path; watch the prefix set double.
g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
run = multi_broadcast(g, {2, 3}, {2: "10", 3: "01"}, lhat=4, provenance=True)
rec = run.report.extras["recorder"]
print(f"with provenance: {run.report.total_rounds} rounds")
for _, node, _, data in rec.of_kind("id_prefixes"):
    if node == 0:
        print(f"  after round {data['round']}: known ID prefixes {data['value']}")
print("  output everywhere:", sorted(run.report.outputs[0]))

# Without provenance on a shallow star: the prefix count overtakes the
# diameter estimate, so the search aborts and re-runs over message bits.
star = Graph.from_edges([(8, i) for i in range(8)])
rng = random.Random(1)
msgs = {i: "".join(rng.choice("01") for _ in range(4)) for i in range(8)}
run = multi_broadcast(star, set(range(8)), msgs, dhat=diameter(star), provenance=False)
rec = run.report.extras["recorder"]
aborted = bool(rec.of_kind("msg_prefixes"))
print(f"\nwithout provenance on a star (k=8): {run.report.total_rounds} rounds, "
      f"ID search aborted: {aborted}")
print("  distinct messages recovered:", sorted(run.report.outputs[8]))
print("  phase schedule (identical at every node):")
for span in run.report.extras["schedule"]:
    print(f"    {span.name:<16} rounds {span.start_round:>5}..{span.end_round}")
