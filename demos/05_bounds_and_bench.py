"""Measured round counts sandwiched between the information floors and the
frozen upper-bound expressions, across a small sweep.

Run:  python demos/05_bounds_and_bench.py
"""

import random

from beepsim import broadcast, diameter, generate, lower_bound, multi_broadcast, parse_graph_spec
from beepsim.bounds import floor_rounds, mb_prov_bound, upper_rounds

print(f"{'spec':<22}{'protocol':<11}{'D':>3}{'rounds':>8}{'floor':>7}{'upper':>9}")
rng = random.Random(0)
for spec_text in ("path:n=10,seed=1", "path:n=40,seed=1", "star:n=16,seed=2",
                  "er:n=25,p=0.2,seed=7"):
    g = generate(parse_graph_spec(spec_text))
    d = diameter(g)

    m = "".join(rng.choice("01") for _ in range(8))
    run = broadcast(g, g.max_id, m)
    upper = upper_rounds("broadcast", g.n, d, len(m))
    floor = floor_rounds("broadcast", d, g.label_range, 2 ** len(m), 1)
    print(f"{spec_text:<22}{'broadcast':<11}{d:>3}{run.report.total_rounds:>8}"
          f"{floor:>7}{upper:>9.0f}")

    k = 3
    srcs = set(rng.sample(list(g.nodes), k))
    msgs = {s: "".join(rng.choice("01") for _ in range(4)) for s in srcs}
    run = multi_broadcast(g, srcs, msgs, dhat=d, provenance=True)
    lhat = run.report.extras["lhat"]
    upper = mb_prov_bound(k, 4, lhat, d)
    floor = lower_bound("mbProv", d, g.label_range, 2**4, k)
    print(f"{'':<22}{'mb-prov':<11}{d:>3}{run.report.total_rounds:>8}"
          f"{floor:>7}{upper:>9.0f}")

print("\nfor CSV sweeps use the CLI, e.g.:")
print("  beepsim bench --protocol broadcast --graph path:n=10 --graph path:n=20 "
      "--trials 3 --csv rounds.csv")
