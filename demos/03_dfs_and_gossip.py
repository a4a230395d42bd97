"""Token-passing depth-first search and the pipelined gossip built on it.

Run:  python demos/03_dfs_and_gossip.py
"""

import random

from beepsim import dfs, generate, gossip, parse_graph_spec, reference_dfs

g = generate(parse_graph_spec("tree:n=9,seed=5"))
run = dfs(g)
rec = run.report.extras["recorder"]

print(f"distributed DFS finished in {run.report.total_rounds} rounds")
print("numbering:", dict(sorted(run.report.extras["numbering"].items())))
print("reference:", dict(sorted(reference_dfs(g, g.max_id).items())))

spans = sorted((e[2], e[1]) for e in rec.of_kind("token_acquire"))
print("token path (acquire round, node):", spans)

# Gossip: every node broadcasts in DFS order; each wave starts three rounds
# after its source decodes the previous one, so waves never collide.
rng = random.Random(3)
msgs = {u: "".join(rng.choice("01") for _ in range(3)) for u in g.nodes}
run = gossip(g, msgs)
out = run.report.outputs[g.nodes[0]]
print(f"\ngossip finished in {run.report.total_rounds} rounds")
print("(dfs number, message) pairs seen by one node:")
for num, m in enumerate(out, 1):
    print(f"  #{num}: {m}")
print("every node decoded cleanly:", run.report.all_passed)
