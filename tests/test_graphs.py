import random
from collections import Counter
from itertools import combinations

import pytest

from quboreduce import Graph, ParameterError, complement, sample_graph
from quboreduce.graphs import (
    parse_edge_list,
    permute_vertices,
    sample_permutation,
)

from conftest import DEMO_EDGES, DEMO_NON_EDGES, format_edge_list


class TestGraph:
    def test_normalizes_edge_order(self):
        g = Graph(3, frozenset([(2, 0)]))
        assert g.edges == frozenset([(0, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(ParameterError):
            Graph(3, frozenset([(1, 1)]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            Graph(3, frozenset([(0, 3)]))

    def test_degree(self):
        g = Graph(4, frozenset([(0, 1), (0, 2), (2, 3)]))
        assert [g.degree(i) for i in range(4)] == [2, 1, 2, 1]


class TestSampleGraph:
    def test_complete_graph(self):
        g = sample_graph(6, 15, seed=123)
        assert g.edges == frozenset(combinations(range(6), 2))

    def test_empty_graph(self):
        g = sample_graph(2, 0, seed=0)
        assert g.v == 2 and not g.edges

    def test_exact_counts(self):
        g = sample_graph(30, 87, seed=7)
        assert g.v == 30
        assert len(g.edges) == 87

    def test_deterministic(self):
        a = sample_graph(12, 20, seed=42)
        b = sample_graph(12, 20, seed=42)
        assert format_edge_list(a) == format_edge_list(b)

    def test_seed_changes_output(self):
        assert sample_graph(12, 20, seed=1) != sample_graph(12, 20, seed=2)

    def test_out_of_range_edge_count(self):
        with pytest.raises(ParameterError):
            sample_graph(4, 7, seed=0)

    def test_uniformity(self):
        # 20 possible 3-edge sets on 4 vertices; each should appear with
        # frequency 0.05 +- 0.01 over many seeds.
        trials = 10_000
        counts = Counter(sample_graph(4, 3, seed=s).edges for s in range(trials))
        assert len(counts) == 20
        for c in counts.values():
            assert abs(c / trials - 0.05) < 0.01


class TestComplement:
    def test_complete_graph_complement_is_empty(self):
        k6 = sample_graph(6, 15, seed=0)
        assert not complement(k6).edges

    def test_involution(self):
        rng = random.Random(17)
        for _ in range(20):
            v = rng.randint(1, 10)
            e = rng.randint(0, v * (v - 1) // 2)
            g = sample_graph(v, e, seed=rng.randint(0, 10**6))
            assert complement(complement(g)) == g

    def test_demo_graph(self):
        g = Graph(6, frozenset(DEMO_EDGES))
        assert complement(g).edges == frozenset(DEMO_NON_EDGES)


class TestPermutation:
    def test_sample_permutation_is_permutation(self):
        perm = sample_permutation(10, seed=4)
        assert sorted(perm) == list(range(10))

    def test_permuted_graph_preserves_edge_count(self):
        g = sample_graph(8, 12, seed=3)
        h = permute_vertices(g, sample_permutation(8, seed=5))
        assert len(h.edges) == 12

    def test_rejects_non_permutation(self):
        g = Graph(3, frozenset([(0, 1)]))
        with pytest.raises(ParameterError):
            permute_vertices(g, [0, 0, 1])


class TestEdgeListFormat:
    def test_round_trip(self):
        g = sample_graph(9, 14, seed=2)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_format(self):
        g = Graph(3, frozenset([(1, 2), (0, 1)]))
        assert format_edge_list(g) == "3 2\n0 1\n1 2\n"

    def test_rejects_bad_header_count(self):
        with pytest.raises(ParameterError):
            parse_edge_list("3 2\n0 1\n")

    def test_rejects_unsorted_pair(self):
        with pytest.raises(ParameterError):
            parse_edge_list("3 1\n2 1\n")

    def test_rejects_repeated_edge(self):
        # The header count matches the lines, but two of them are one edge.
        with pytest.raises(ParameterError, match=r"edge \(0, 1\) is repeated"):
            parse_edge_list("3 2\n0 1\n0 1\n")
