"""QUBO encoders for five graph optimization problems.

Each encoder takes the penalty weight ``a`` (the sweep's default is
``experiments.DEFAULT_PENALTY``) and emits an integer-valued QuboMatrix when
``a`` is an integer.  Double sums over variable pairs are taken over
unordered distinct pairs, each counted once, matching the upper-triangular
storage convention.

Structured variables (vertex, position) or (vertex, color) are flattened
row-major; the :class:`VariableLayout` helpers expose the index mapping.
All encoders but vertex cover share one shape, a -1 reward per variable and
a penalty per violating pair, and differ only in the violation predicate.
:func:`encode` dispatches on the problem names in :data:`PROBLEMS`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .qubo import ParameterError, QuboMatrix

PROBLEMS = (
    "max_clique",
    "hamilton_cycles",
    "graph_coloring",
    "vertex_cover",
    "graph_isomorphism",
)


@dataclass(frozen=True)
class VariableLayout:
    """Row-major flattening of structured binary variables onto qubits."""

    rows: int
    cols: int = 1

    @property
    def n(self) -> int:
        return self.rows * self.cols

    def index(self, i: int, j: int = 0) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ParameterError(f"variable ({i}, {j}) outside {self.rows}x{self.cols} layout")
        return i * self.cols + j

    def unindex(self, m: int) -> tuple[int, int]:
        if not 0 <= m < self.n:
            raise ParameterError(f"qubit {m} outside layout of size {self.n}")
        return divmod(m, self.cols)


def _check_penalty(a) -> None:
    if not a > 0:
        raise ParameterError(f"penalty weight must be positive, got {a}")


def _penalty_qubo(layout: VariableLayout, a, violates) -> QuboMatrix:
    """Reward -1 on every variable, then penalty ``a`` on each pair m1 < m2
    whose cells (i, j) and (k, l) satisfy ``violates(i, j, k, l)``."""
    q = QuboMatrix(layout.n)
    cells = [layout.unindex(m) for m in range(layout.n)]
    for m in range(layout.n):
        q[m, m] = -1
    for m1, (i, j) in enumerate(cells):
        for m2 in range(m1 + 1, layout.n):
            if violates(i, j, *cells[m2]):
                q[m1, m2] = a
    return q


def max_clique_qubo(g: Graph, a) -> QuboMatrix:
    """Reward -1 per selected vertex; penalty ``a`` per selected non-edge."""
    _check_penalty(a)
    return _penalty_qubo(VariableLayout(g.v), a, lambda i, _j, k, _l: not g.has_edge(i, k))


def hamilton_cycle_layout(g: Graph) -> VariableLayout:
    return VariableLayout(g.v, g.v)


def _positions_adjacent(j: int, l: int, v: int) -> bool:
    # Cyclic adjacency of tour positions, including the (v-1, 0) wrap.
    d = abs(j - l)
    return d == 1 or d == v - 1


def hamilton_cycle_qubo(g: Graph, a) -> QuboMatrix:
    """Variables x[vertex, position]; penalties forbid reuse of a vertex or
    position and consecutive tour positions without a connecting edge."""
    _check_penalty(a)
    if g.v < 3:
        raise ParameterError(f"cycle encoding needs at least 3 vertices, got {g.v}")
    return _penalty_qubo(
        hamilton_cycle_layout(g), a,
        lambda i, j, k, l: i == k or j == l or (_positions_adjacent(j, l, g.v) and not g.has_edge(i, k)),
    )


def graph_coloring_layout(g: Graph, k: int) -> VariableLayout:
    return VariableLayout(g.v, k)


def graph_coloring_qubo(g: Graph, k: int, a) -> QuboMatrix:
    """Variables x[vertex, color]; penalties forbid two colors on one vertex
    and equal colors on adjacent vertices."""
    _check_penalty(a)
    if k < 1:
        raise ParameterError(f"color count must be positive, got {k}")
    return _penalty_qubo(
        graph_coloring_layout(g, k), a, lambda i, c1, j, c2: i == j or (c1 == c2 and g.has_edge(i, j))
    )


def vertex_cover_qubo(g: Graph, a) -> QuboMatrix:
    """Expansion of a*(1-x_u)(1-x_v) per edge plus +1 per selected vertex.

    The constant from the product expansion lands in the offset: a*|E|.
    """
    _check_penalty(a)
    q = QuboMatrix(g.v, offset=a * len(g.edges))
    for v in range(g.v):
        q[v, v] = 1 - a * g.degree(v)
    for i, j in g.sorted_edges():
        q[i, j] = a
    return q


def graph_isomorphism_layout(g1: Graph) -> VariableLayout:
    return VariableLayout(g1.v, g1.v)


def graph_isomorphism_qubo(g1: Graph, g2: Graph, a) -> QuboMatrix:
    """Variables x[i, j] mapping vertex i of the first graph to vertex j of the
    second; penalties enforce a bijection and matching edge structure.

    The mapping constraint is one image per source vertex (i1 == i2) together
    with injectivity (j1 == j2).
    """
    _check_penalty(a)
    if g1.v != g2.v:
        raise ParameterError(f"vertex counts differ: {g1.v} != {g2.v}")
    return _penalty_qubo(
        graph_isomorphism_layout(g1), a,
        lambda i1, j1, i2, j2: i1 == i2 or j1 == j2 or g1.has_edge(i1, i2) != g2.has_edge(j1, j2),
    )


def encode(problem: str, g: Graph, a, k: int | None = None, g2: Graph | None = None) -> QuboMatrix:
    """QUBO of ``problem`` on ``g`` with penalty ``a``.  graph_coloring needs
    the color count ``k``, graph_isomorphism the second graph ``g2``; other
    problems ignore both."""
    # Call the encoders by their module-global names, not through a table
    # built at import, so that rebinding one of them (to wrap or trace it)
    # also changes what this dispatch calls.
    if problem == "max_clique":
        return max_clique_qubo(g, a)
    if problem == "hamilton_cycles":
        return hamilton_cycle_qubo(g, a)
    if problem == "graph_coloring":
        if k is None:
            raise ParameterError("graph_coloring requires a color count k")
        return graph_coloring_qubo(g, k, a)
    if problem == "vertex_cover":
        return vertex_cover_qubo(g, a)
    if problem == "graph_isomorphism":
        if g2 is None:
            raise ParameterError("graph_isomorphism requires a second graph g2")
        return graph_isomorphism_qubo(g, g2, a)
    raise ParameterError(f"unknown problem {problem!r}")
