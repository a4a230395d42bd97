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
print("\nsource beep rounds for m='1':", [rec.round for rec in wave.trace if 0 in rec.beepers])

# -- a full broadcast ----------------------------------------------------------
run = broadcast(g, source=0, message="1011")
print(f"\nbroadcast '1011' on a 5-path took {run.report.total_rounds} rounds")
for u in sorted(g.nodes)[1:]:
    out = run.report.outputs[u]
    print(f"  node {u} decoded {out.message!r} in round {out.completed_round}")

print("\nfirst ten trace rows (round, beepers, heard):")
for rec in run.trace[:10]:
    print(f"  r{rec.round:>3}  beep={sorted(rec.beepers)}  heard={sorted(rec.heard)}")
