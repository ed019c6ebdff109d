import random
from itertools import combinations, permutations

import pytest

from quboreduce import (
    Graph,
    ParameterError,
    QuboMatrix,
    complement,
    energy,
    graph_coloring_qubo,
    graph_isomorphism_qubo,
    hamilton_cycle_qubo,
    max_clique_qubo,
    sample_graph,
    spectrum,
    vertex_cover_qubo,
)
from quboreduce.encoders import (
    PROBLEMS,
    encode,
    graph_coloring_layout,
    graph_isomorphism_layout,
    hamilton_cycle_layout,
)
from quboreduce.experiments import build_problem_qubo, builtin_settings
from quboreduce.graphs import permute_vertices, sample_permutation
from quboreduce.qubo import bits_from_index

from conftest import DEMO_EDGES


def triangle():
    return Graph(3, frozenset([(0, 1), (0, 2), (1, 2)]))


def path3():
    return Graph(3, frozenset([(0, 1), (1, 2)]))


class TestMaxClique:
    def test_demo_instance(self, demo_graph, demo_qubo):
        expected = QuboMatrix(6, {(i, i): -1 for i in range(6)})
        for i, j in [(0, 1), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)]:
            expected[i, j] = 3
        assert demo_qubo == expected

    def test_single_vertex(self):
        q = max_clique_qubo(Graph(1), 5)
        assert list(q.entries()) == [((0, 0), -1)]

    def test_triangle_has_no_couplings(self):
        q = max_clique_qubo(triangle(), 3)
        assert list(q.entries()) == [((0, 0), -1), ((1, 1), -1), ((2, 2), -1)]
        assert spectrum(q)[0].energy == -3

    def test_clique_energy_equals_negative_size(self):
        g = sample_graph(8, 14, seed=6)
        q = max_clique_qubo(g, 3)
        for size in range(1, 5):
            for subset in combinations(range(8), size):
                if all(g.has_edge(i, j) for i, j in combinations(subset, 2)):
                    x = [1 if v in subset else 0 for v in range(8)]
                    assert energy(q, x) == -size


class TestHamiltonCycles:
    def test_rejects_small_graphs(self):
        with pytest.raises(ParameterError):
            hamilton_cycle_qubo(Graph(2, frozenset([(0, 1)])), 3)

    def test_diagonal_is_reward_per_variable(self):
        q = hamilton_cycle_qubo(triangle(), 3)
        diag = [v for (i, j), v in q.entries() if i == j]
        assert diag == [-1] * 9

    def test_triangle_minimum_is_full_cycle(self):
        q = hamilton_cycle_qubo(triangle(), 3)
        sp = spectrum(q)
        assert sp[0].energy == -3
        layout = hamilton_cycle_layout(triangle())
        minima = [e.bits for e in sp if e.energy == -3]
        # exactly the 6 vertex-to-position bijections (rotations/reflections)
        assert len(minima) == 6
        for bits in minima:
            positions = {}
            for m, b in enumerate(bits):
                if b:
                    vertex, pos = layout.unindex(m)
                    positions[vertex] = pos
            assert sorted(positions) == [0, 1, 2]
            assert sorted(positions.values()) == [0, 1, 2]

    def test_path_has_no_cycle(self):
        q = hamilton_cycle_qubo(path3(), 3)
        assert spectrum(q)[0].energy > -3

    def test_cycle_assignments_score_negative_vertex_count(self):
        g = Graph(4, frozenset([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]))
        q = hamilton_cycle_qubo(g, 3)
        layout = hamilton_cycle_layout(g)
        found = 0
        for order in permutations(range(4)):
            closed = all(
                g.has_edge(order[t], order[(t + 1) % 4]) for t in range(4)
            )
            if not closed:
                continue
            x = [0] * layout.n
            for pos, vertex in enumerate(order):
                x[layout.index(vertex, pos)] = 1
            assert energy(q, x) == -4
            found += 1
        assert found == 8  # 4 rotations x 2 directions of the unique cycle


class TestGraphColoring:
    def test_single_vertex_single_color(self):
        q = graph_coloring_qubo(Graph(1), 1, 3)
        assert list(q.entries()) == [((0, 0), -1)]

    def test_single_vertex_two_colors(self):
        q = graph_coloring_qubo(Graph(1), 2, 3)
        assert list(q.entries()) == [((0, 0), -1), ((0, 1), 3), ((1, 1), -1)]
        assert spectrum(q)[0].energy == -1

    def test_single_edge_two_colors(self):
        q = graph_coloring_qubo(Graph(2, frozenset([(0, 1)])), 2, 3)
        sp = spectrum(q)
        assert sp[0].energy == -2
        assert sum(1 for e in sp if e.energy == -2) == 2

    def test_proper_colorings_score_negative_vertex_count(self):
        g = path3()
        k = 3
        q = graph_coloring_qubo(g, k, 3)
        layout = graph_coloring_layout(g, k)
        for colors in permutations(range(k), 3):
            if all(colors[i] != colors[j] for i, j in g.edges):
                x = [0] * layout.n
                for v, c in enumerate(colors):
                    x[layout.index(v, c)] = 1
                assert energy(q, x) == -3


class TestVertexCover:
    def test_empty_graph(self):
        q = vertex_cover_qubo(Graph(3), 2)
        assert q.offset == 0
        assert list(q.entries()) == [((0, 0), 1), ((1, 1), 1), ((2, 2), 1)]
        assert spectrum(q)[0].energy == 0

    def test_single_edge(self):
        q = vertex_cover_qubo(Graph(2, frozenset([(0, 1)])), 2)
        assert q.offset == 2
        assert q[0, 0] == -1 and q[1, 1] == -1 and q[0, 1] == 2
        sp = spectrum(q)
        assert sp[0].energy == 1
        assert sorted(e.bits for e in sp if e.energy == 1) == [(0, 1), (1, 0)]

    def test_triangle_minimum_is_two(self):
        q = vertex_cover_qubo(triangle(), 2)
        assert spectrum(q)[0].energy == 2

    def test_cover_energy_equals_cover_size(self):
        g = sample_graph(7, 10, seed=9)
        q = vertex_cover_qubo(g, 3)
        for m in range(1 << 7):
            bits = bits_from_index(m, 7)
            covered = all(bits[i] or bits[j] for i, j in g.edges)
            if covered:
                assert energy(q, bits) == sum(bits)


class TestGraphIsomorphism:
    def test_single_vertex(self):
        q = graph_isomorphism_qubo(Graph(1), Graph(1), 3)
        assert list(q.entries()) == [((0, 0), -1)]

    def test_rejects_size_mismatch(self):
        with pytest.raises(ParameterError):
            graph_isomorphism_qubo(Graph(2), Graph(3), 3)

    def test_identical_triangles(self):
        q = graph_isomorphism_qubo(triangle(), triangle(), 3)
        sp = spectrum(q)
        assert sp[0].energy == -3
        assert sum(1 for e in sp if e.energy == -3) == 6

    def test_non_isomorphic_pair(self):
        q = graph_isomorphism_qubo(triangle(), path3(), 3)
        assert spectrum(q)[0].energy > -3

    def test_isomorphisms_score_negative_vertex_count(self):
        g1 = path3()
        g2 = Graph(3, frozenset([(0, 2), (1, 2)]))  # path relabeled
        q = graph_isomorphism_qubo(g1, g2, 3)
        layout = graph_isomorphism_layout(g1)
        found = 0
        for perm in permutations(range(3)):
            if all(g2.has_edge(perm[i], perm[j]) == g1.has_edge(i, j) for i, j in combinations(range(3), 2)):
                x = [0] * layout.n
                for i, j in enumerate(perm):
                    x[layout.index(i, j)] = 1
                assert energy(q, x) == -3
                found += 1
        assert found == 2


def _violates(problem, g, bits, layout=None, g2=None, k=None) -> bool:
    """Constraint check straight from the problem definitions."""
    if problem == "max_clique":
        chosen = [v for v in range(g.v) if bits[v]]
        return any(not g.has_edge(i, j) for i, j in combinations(chosen, 2))
    if problem == "vertex_cover":
        return any(not (bits[i] or bits[j]) for i, j in g.edges)
    if problem == "graph_coloring":
        assigned = [(layout.unindex(m)) for m, b in enumerate(bits) if b]
        for (v1, c1), (v2, c2) in combinations(assigned, 2):
            if v1 == v2 or (c1 == c2 and g.has_edge(v1, v2)):
                return True
        return False
    if problem == "hamilton_cycles":
        assigned = [layout.unindex(m) for m, b in enumerate(bits) if b]
        for (v1, p1), (v2, p2) in combinations(assigned, 2):
            if v1 == v2 or p1 == p2:
                return True
            d = abs(p1 - p2)
            if (d == 1 or d == g.v - 1) and not g.has_edge(v1, v2):
                return True
        return False
    if problem == "graph_isomorphism":
        assigned = [layout.unindex(m) for m, b in enumerate(bits) if b]
        for (i1, j1), (i2, j2) in combinations(assigned, 2):
            if i1 == i2 or j1 == j2:
                return True
            if g.has_edge(i1, i2) != g2.has_edge(j1, j2):
                return True
        return False
    raise AssertionError(problem)


class TestPenaltySufficiency:
    """With a penalty above the variable count, every constraint-violating
    assignment scores strictly worse than the best non-violating one."""

    def _check(self, problem, q, g, layout=None, g2=None):
        best_valid = None
        worst_case = []
        for m in range(1 << q.n):
            bits = bits_from_index(m, q.n)
            e = energy(q, bits)
            if _violates(problem, g, bits, layout=layout, g2=g2):
                worst_case.append(e)
            elif best_valid is None or e < best_valid:
                best_valid = e
        assert best_valid is not None
        assert all(e > best_valid for e in worst_case)

    def test_max_clique(self):
        g = sample_graph(6, 7, seed=1)
        self._check("max_clique", max_clique_qubo(g, 7), g)

    def test_vertex_cover(self):
        g = sample_graph(6, 9, seed=2)
        self._check("vertex_cover", vertex_cover_qubo(g, 7), g)

    def test_graph_coloring(self):
        g = sample_graph(4, 4, seed=3)
        self._check("graph_coloring", graph_coloring_qubo(g, 3, 13), g, layout=graph_coloring_layout(g, 3))

    def test_hamilton_cycles(self):
        g = sample_graph(3, 3, seed=4)
        self._check("hamilton_cycles", hamilton_cycle_qubo(g, 10), g, layout=hamilton_cycle_layout(g))

    def test_graph_isomorphism(self):
        g = sample_graph(3, 2, seed=5)
        g2 = Graph(3, frozenset([(0, 2), (1, 2)]))
        q = graph_isomorphism_qubo(g, g2, 10)
        self._check("graph_isomorphism", q, g, layout=graph_isomorphism_layout(g), g2=g2)


class TestEmittedMatrixInvariants:
    def test_no_zero_entries_and_bounds(self):
        g = sample_graph(7, 11, seed=8)
        qs = [
            max_clique_qubo(g, 3),
            vertex_cover_qubo(g, 3),
            graph_coloring_qubo(g, 3, 3),
        ]
        for q in qs:
            for (i, j), v in q.entries():
                assert v != 0
                assert 0 <= i <= j < q.n


class TestEncode:
    G = sample_graph(6, 8, seed=4)
    G2 = permute_vertices(G, sample_permutation(6, seed=5))
    DIRECT = {
        "max_clique": lambda g, a: max_clique_qubo(g, a),
        "hamilton_cycles": lambda g, a: hamilton_cycle_qubo(g, a),
        "graph_coloring": lambda g, a: graph_coloring_qubo(g, 3, a),
        "vertex_cover": lambda g, a: vertex_cover_qubo(g, a),
        "graph_isomorphism": lambda g, a: graph_isomorphism_qubo(g, TestEncode.G2, a),
    }

    def test_covers_every_problem(self):
        assert set(self.DIRECT) == set(PROBLEMS)

    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_matches_direct_encoder(self, problem):
        assert encode(problem, self.G, 4, k=3, g2=self.G2) == self.DIRECT[problem](self.G, 4)

    @pytest.mark.parametrize("problem, kwargs", [
        ("graph_coloring", {"g2": G2}),
        ("graph_isomorphism", {"k": 3}),
        ("tsp", {"k": 3, "g2": G2}),
    ])
    def test_rejects_missing_argument_or_unknown_problem(self, problem, kwargs):
        with pytest.raises(ParameterError):
            encode(problem, self.G, 3, **kwargs)


# The penalty-pair encoders as they were before they shared one builder,
# kept as references: the shared builder must reproduce their entries.

def reference_max_clique_qubo(g, a):
    q = QuboMatrix(g.v)
    for i in range(g.v):
        q[i, i] = -1
    for i, j in complement(g).sorted_edges():
        q[i, j] = a
    return q


def reference_hamilton_cycle_qubo(g, a):
    layout = hamilton_cycle_layout(g)
    q = QuboMatrix(layout.n)
    for m in range(layout.n):
        q[m, m] = -1
    for m1 in range(layout.n):
        i, j = layout.unindex(m1)
        for m2 in range(m1 + 1, layout.n):
            k, l = layout.unindex(m2)
            d = abs(j - l)
            adjacent = d == 1 or d == g.v - 1
            if i == k or j == l or (i != k and adjacent and not g.has_edge(i, k)):
                q[m1, m2] = a
    return q


def reference_graph_coloring_qubo(g, k, a):
    layout = graph_coloring_layout(g, k)
    q = QuboMatrix(layout.n)
    for m in range(layout.n):
        q[m, m] = -1
    for m1 in range(layout.n):
        i, k1 = layout.unindex(m1)
        for m2 in range(m1 + 1, layout.n):
            j, k2 = layout.unindex(m2)
            if i == j or (k1 == k2 and g.has_edge(i, j)):
                q[m1, m2] = a
    return q


def reference_graph_isomorphism_qubo(g1, g2, a):
    layout = graph_isomorphism_layout(g1)
    q = QuboMatrix(layout.n)
    for m in range(layout.n):
        q[m, m] = -1
    for m1 in range(layout.n):
        i1, j1 = layout.unindex(m1)
        for m2 in range(m1 + 1, layout.n):
            i2, j2 = layout.unindex(m2)
            e1 = g1.has_edge(i1, i2) if i1 != i2 else False
            e2 = g2.has_edge(j1, j2) if j1 != j2 else False
            if (
                i1 == i2
                or j1 == j2
                or (e1 and not e2 and j1 != j2)
                or (not e1 and e2 and i1 != i2)
            ):
                q[m1, m2] = a
    return q


def _same_entries(q, ref):
    assert (q.n, q.offset, list(q.entries())) == (ref.n, ref.offset, list(ref.entries()))


class TestPenaltyPairBuilder:
    def test_matches_reference_encoders_on_random_graphs(self):
        rng = random.Random(8)
        for t in range(120):
            v = rng.randint(3, 9)
            g = sample_graph(v, rng.randint(0, v * (v - 1) // 2), rng.randrange(10**6))
            a = rng.choice((1, 3, 7, 2.5, rng.uniform(0.1, 10.0)))
            k = rng.randint(1, 4)
            permuted = permute_vertices(g, sample_permutation(v, t))
            unrelated = sample_graph(v, rng.randint(0, v * (v - 1) // 2), rng.randrange(10**6))
            _same_entries(max_clique_qubo(g, a), reference_max_clique_qubo(g, a))
            _same_entries(hamilton_cycle_qubo(g, a), reference_hamilton_cycle_qubo(g, a))
            _same_entries(graph_coloring_qubo(g, k, a), reference_graph_coloring_qubo(g, k, a))
            for g2 in (permuted, unrelated):
                _same_entries(graph_isomorphism_qubo(g, g2, a), reference_graph_isomorphism_qubo(g, g2, a))

    def test_matches_reference_encoders_on_builtin_settings(self):
        reference = {
            "max_clique": lambda g, s, g2: reference_max_clique_qubo(g, s.penalty),
            "hamilton_cycles": lambda g, s, g2: reference_hamilton_cycle_qubo(g, s.penalty),
            "graph_coloring": lambda g, s, g2: reference_graph_coloring_qubo(g, s.k, s.penalty),
            "vertex_cover": lambda g, s, g2: vertex_cover_qubo(g, s.penalty),
            "graph_isomorphism": lambda g, s, g2: reference_graph_isomorphism_qubo(g, g2, s.penalty),
        }
        settings = builtin_settings()
        assert len(settings) == 60
        for s in settings:
            g = sample_graph(s.v, s.e, s.seed)
            g2 = permute_vertices(g, sample_permutation(g.v, s.seed + 1))
            _same_entries(build_problem_qubo(s), reference[s.problem](g, s, g2))
