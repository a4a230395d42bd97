"""Leader election by binary search over ID bits, the echo-based diameter
estimate, and the upward OR-collection primitives built on both.

Run:  python demos/02_election_and_diameter.py
"""

import random

from beepsim import (
    collect_messages,
    diameter,
    elect_leader,
    estimate_diameter,
    generate,
    get_message_length,
    or_oracle,
    parse_graph_spec,
)

g = generate(parse_graph_spec("er:n=20,p=0.25,seed=7"))
print(f"graph: n={g.n}, D={diameter(g)}, ids up to {g.max_id}")

# One flood per ID bit; candidates with a 0 drop out whenever the network
# hears a 1.  Round count is exactly bits * (dhat + 1).
run = elect_leader(g)
print(f"\nelected leader {run.report.outputs[g.nodes[0]]} "
      f"in exactly {run.report.total_rounds} rounds")
for chk in run.report.bound_checks:
    print(f"  {chk.name}: measured={chk.measured} bound={chk.bound} -> {chk.passed}")

# The leader pulses once; acknowledgment beeps race back every three rounds
# until the farthest layer has answered, and the quiet round count is the
# estimate, always inside [D, 2D+7].
run = estimate_diameter(g)
dtilde = run.report.outputs[g.nodes[0]]
print(f"\ndiameter estimate {dtilde} (true D = {diameter(g)}), "
      f"{run.report.total_rounds} rounds, all nodes agree: "
      f"{len(set(run.report.outputs.values())) == 1}")

# Message collection: sources launch distance-aligned waves toward the
# leader so that equal bit positions merge in flight; the leader receives
# the bitwise OR of everything sent.
rng = random.Random(4)
sources = set(rng.sample(list(g.nodes), 3))
msgs = {s: "".join(rng.choice("01") for _ in range(4)) for s in sources}
leader = g.max_id
run = collect_messages(g, leader, sources, msgs, p=4)
print(f"\ncollect from {sorted(sources)}: {dict(sorted(msgs.items()))}")
print(f"  leader holds {run.report.outputs[leader][1]} "
      f"(oracle {or_oracle(list(msgs.values()), 4)})")

# When no common length bound is known, the sources first send all-ones
# strings and the leader reads the maximum length off the first silent slot.
ragged = {s: "1" * rng.randint(1, 6) for s in sources}
run = get_message_length(g, leader, sources, ragged)
print(f"  max-length determination over {sorted(len(m) for m in ragged.values())}"
      f" -> every node outputs {run.report.outputs[leader][1]}")
