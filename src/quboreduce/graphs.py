"""Simple undirected graphs and seeded uniform sampling with exact edge counts.

Sampling is reproducible across platforms: a ``random.Random(seed)`` (Mersenne
Twister) drives a partial Fisher-Yates shuffle of the lexicographically ordered
pair list, and the first ``e`` pairs become the edge set.  Equal (v, e, seed)
arguments always yield the identical graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from .qubo import ParameterError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a set of (i, j) pairs, i < j."""

    v: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.v < 1:
            raise ParameterError(f"vertex count must be positive, got {self.v}")
        normalized = set()
        for i, j in self.edges:
            if i == j:
                raise ParameterError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if i < 0 or j >= self.v:
                raise ParameterError(f"edge ({i}, {j}) out of range for v={self.v}")
            normalized.add((i, j))
        object.__setattr__(self, "edges", frozenset(normalized))

    def has_edge(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return (i, j) in self.edges

    def degree(self, i: int) -> int:
        return sum(1 for e in self.edges if i in e)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def all_pairs(v: int) -> list[tuple[int, int]]:
    """All unordered vertex pairs in lexicographic order."""
    return [(i, j) for i in range(v) for j in range(i + 1, v)]


def sample_graph(v: int, e: int, seed: int) -> Graph:
    """Uniformly sample a graph with exactly ``v`` vertices and ``e`` edges."""
    pairs = all_pairs(v)
    if not 0 <= e <= len(pairs):
        raise ParameterError(f"edge count {e} out of range [0, {len(pairs)}] for v={v}")
    rng = random.Random(seed)
    for t in range(e):
        u = rng.randrange(t, len(pairs))
        pairs[t], pairs[u] = pairs[u], pairs[t]
    return Graph(v, frozenset(pairs[:e]))


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the missing pairs."""
    return Graph(g.v, frozenset(p for p in all_pairs(g.v) if p not in g.edges))


def sample_permutation(v: int, seed: int) -> list[int]:
    """Seeded uniform permutation of [0, v)."""
    perm = list(range(v))
    random.Random(seed).shuffle(perm)
    return perm


def permute_vertices(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel vertices: vertex i becomes perm[i]."""
    p = list(perm)
    if sorted(p) != list(range(g.v)):
        raise ParameterError("perm must be a permutation of the vertex set")
    return Graph(g.v, frozenset((p[i], p[j]) for i, j in g.edges))


# -- Edge-list text format: header "v e", then one "i j" line per edge,
#    0-based with i < j, sorted lexicographically.

def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("empty edge-list input")
    try:
        rows = [tuple(map(int, ln.split())) for ln in lines]
    except ValueError as exc:
        raise ParameterError(f"malformed edge list: {exc}") from exc
    for ln, row in zip(lines, rows):
        if len(row) != 2:
            raise ParameterError(f"edge-list line {ln.strip()!r} has {len(row)} fields, expected 2")
    (v, e), edges = rows[0], rows[1:]
    if len(edges) != e:
        raise ParameterError(f"header declares {e} edges, found {len(edges)}")
    seen = set()
    for i, j in edges:
        if i >= j:
            raise ParameterError(f"edge ({i}, {j}) violates i < j")
        if (i, j) in seen:
            raise ParameterError(f"edge ({i}, {j}) is repeated")
        seen.add((i, j))
    return Graph(v, frozenset(edges))
