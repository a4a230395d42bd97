"""Graph family generators and the independent oracles used by tests.

All generation is driven by ``random.Random(seed)`` so a GraphSpec is a
complete, reproducible description of a topology.  Node IDs are a seeded
permutation drawn from ``range(label_range)`` (default label_range == n),
so the max ID and the label-range bound stay decoupled for L >> n tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .engine import Graph

FAMILIES = ("path", "cycle", "star", "complete", "grid", "randomTree", "erConnected")

_ER_RETRIES = 200


class GenerationError(ValueError):
    """No graph fits the spec, such as a connected G(n, p) draw for a tiny p."""


@dataclass(frozen=True)
class GraphSpec:
    family: str
    n: int
    seed: int = 0
    edge_probability: float | None = None  # erConnected only
    label_range: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.family == "cycle" and self.n < 3:
            raise ValueError("cycle needs n >= 3")
        if self.edge_probability is not None and self.family != "erConnected":
            raise ValueError(f"edge probability p applies to erConnected only, not {self.family}")
        if self.edge_probability is not None and not 0 < self.edge_probability <= 1:
            raise ValueError("edge probability p must be in (0, 1]")
        if self.label_range is not None and self.label_range < self.n:
            raise ValueError("label_range must be >= n")


# Spec parameter -> (GraphSpec field, value type).
_SPEC_PARAMS = {"n": ("n", int), "seed": ("seed", int), "p": ("edge_probability", float),
                "range": ("label_range", int)}


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse a spec string like ``er:n=25,p=0.2,seed=7`` or ``path:n=10``."""
    family, _, argstr = text.partition(":")
    family = {"er": "erConnected", "tree": "randomTree"}.get(family, family)
    kwargs: dict[str, object] = {}
    for item in argstr.split(",") if argstr else ():
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _SPEC_PARAMS:
            raise ValueError(f"unknown graph parameter {key!r}")
        field, kind = _SPEC_PARAMS[key]
        if field in kwargs:
            raise ValueError(f"graph parameter {key} is given twice")
        try:
            kwargs[field] = kind(value)
        except ValueError:
            raise ValueError(f"graph parameter {key}: {value!r} is not "
                             f"{'an integer' if kind is int else 'a number'}") from None
    if "n" not in kwargs:
        raise ValueError("graph spec needs n=<count>")
    return GraphSpec(family=family, **kwargs)  # type: ignore[arg-type]


def generate(spec: GraphSpec) -> Graph:
    """Deterministically build the requested family.

    ``Graph.from_edges`` is the one connectivity check: an erConnected draw
    it rejects is redrawn from the same RNG, up to ``_ER_RETRIES`` times."""
    rng = random.Random(spec.seed)
    lr = spec.label_range if spec.label_range is not None else spec.n
    ids = rng.sample(range(lr), spec.n)
    n = spec.n
    p = spec.edge_probability
    if p is None:  # dense enough that connected draws dominate at small n
        p = min(1.0, 2.0 * max(1.0, math.log2(n)) / n)

    for _ in range(_ER_RETRIES):
        pairs: list[tuple[int, int]]
        if spec.family == "path":
            pairs = [(i, i + 1) for i in range(n - 1)]
        elif spec.family == "cycle":
            pairs = [(i, (i + 1) % n) for i in range(n)]
        elif spec.family == "star":
            pairs = [(0, i) for i in range(1, n)]
        elif spec.family == "complete":
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        elif spec.family == "grid":
            pairs = _grid_pairs(n)
        elif spec.family == "randomTree":
            pairs = [(i, rng.randrange(i)) for i in range(1, n)]
        elif spec.family == "erConnected":
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        else:  # pragma: no cover - guarded by GraphSpec
            raise AssertionError(spec.family)
        try:
            return Graph.from_edges([(ids[a], ids[b]) for a, b in pairs], nodes=ids,
                                    label_range=lr)
        except ValueError:
            if spec.family != "erConnected":
                raise
    raise GenerationError(f"no connected G({n}, {p}) draw in {_ER_RETRIES} tries")


def _grid_pairs(n: int) -> list[tuple[int, int]]:
    cols = max(1, int(n**0.5))
    pairs = []
    for k in range(n):
        if (k + 1) % cols != 0 and k + 1 < n:
            pairs.append((k, k + 1))
        if k + cols < n:
            pairs.append((k, k + cols))
    return pairs


def reference_dfs(graph: Graph, root: int) -> dict[int, int]:
    """Sequential depth-first numbering, descending to the highest-ID
    unvisited neighbor first.  Oracle for the distributed traversal."""
    adj = graph.adjacency()
    number = {root: 1}
    stack = [root]
    count = 1
    while stack:
        x = stack[-1]
        unvisited = [v for v in adj[x] if v not in number]
        if not unvisited:
            stack.pop()
            continue
        y = max(unvisited)
        count += 1
        number[y] = count
        stack.append(y)
    return number


def or_oracle(msgs: list[str], p: int) -> str:
    """Bitwise OR after right-padding every message with 0s to width p."""
    if any(len(m) > p for m in msgs):
        raise ValueError("message longer than p")
    out = [0] * p
    for m in msgs:
        for i, b in enumerate(m):
            if b == "1":
                out[i] = 1
    return "".join("1" if b else "0" for b in out)
