"""Walk through the self-delimiting codec and a beep-wave broadcast.

Run:  python demos/01_codec_and_broadcast.py
"""

from beepsim import Graph, broadcast, decode, decode_stream, encode

# -- the codec ---------------------------------------------------------------
# Double every payload bit, bracket with 10.  The framing makes codewords
# recognizable inside arbitrary runs of silence.
for m in ("1", "01", "1011"):
    print(f"encode({m!r:7}) = {encode(m)}")
print("decode back:", decode(encode("1011")))

stream = "000" + encode("1") + "0" + encode("01") + "00"
print(f"stream {stream} -> {decode_stream(stream)}")

# -- the wave schedule ---------------------------------------------------------
# A source transmits codeword bit i in round 3i; relays push each beep one
# hop outward per round.
g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
wave = broadcast(g, source=0, message="1")
# Each trace round is a (beepers, hearers) pair of bitsets: bit i is the
# node wave.trace.nodes[i], so node 0 is bit 0 here.
print("\nsource beep rounds for m='1':",
      [r for r, (beeps, _) in enumerate(wave.trace.rounds, 1) if beeps & 1])

# -- a full broadcast ----------------------------------------------------------
run = broadcast(g, source=0, message="1011")
print(f"\nbroadcast '1011' on a 5-path took {run.report.total_rounds} rounds")
for u in sorted(g.nodes)[1:]:
    out = run.report.outputs[u]
    print(f"  node {u} decoded {out.message!r} in round {out.completed_round}")

print("\nfirst ten trace rows (round, beepers, heard):")
nodes = run.trace.nodes
for r, (beeps, heard) in enumerate(run.trace.rounds[:10], 1):
    beep = [u for i, u in enumerate(nodes) if beeps >> i & 1]
    hear = [u for i, u in enumerate(nodes) if heard >> i & 1]
    print(f"  r{r:>3}  beep={beep}  heard={hear}")
