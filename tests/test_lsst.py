"""Tests for SplitGraph, Partition, and AKPW low-stretch trees (§7)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.generators import (
    cycle,
    grid,
    path,
    random_connected,
    torus,
)
from repro.graphs.graph import Graph
from repro.lsst import (
    akpw_spanning_tree,
    default_class_base,
    partition,
    split_graph,
    stretch_per_edge,
    summarize_stretch,
    tree_edge_lengths,
)


class TestSplitGraph:
    def test_every_node_clustered(self):
        g = random_connected(40, 0.1, rng=1)
        result = split_graph(g, 4, rng=2)
        assert all(c >= 0 for c in result.cluster)

    def test_radius_bound_respected(self):
        g = grid(8, 8, rng=1)
        for rho in (1, 3, 6):
            result = split_graph(g, rho, rng=3)
            assert result.radius <= rho

    def test_clusters_internally_connected_via_parents(self):
        g = random_connected(30, 0.12, rng=4)
        result = split_graph(g, 3, rng=5)
        for v in range(g.num_nodes):
            # Walking parents reaches the cluster source.
            node, hops = v, 0
            while result.parent[node] >= 0 and hops <= g.num_nodes:
                node = result.parent[node]
                hops += 1
            assert node == result.cluster[v]

    def test_larger_radius_fewer_cut_edges(self):
        g = grid(10, 10, rng=1)
        small = np.mean(
            [len(split_graph(g, 1, rng=s).cut_edges) for s in range(5)]
        )
        large = np.mean(
            [len(split_graph(g, 8, rng=s).cut_edges) for s in range(5)]
        )
        assert large < small

    def test_active_edges_restriction(self):
        # With only one allowed edge, other nodes become singletons.
        g = path(5, rng=1)
        result = split_graph(g, 3, rng=1, active_edges=[0])
        assert result.cluster[0] == result.cluster[1] or (
            result.cluster[0] != result.cluster[2]
        )
        # Edge 2-3 is not traversable, so 3 is never in 0/1/2's cluster
        # via that route... at minimum every node got a cluster.
        assert all(c >= 0 for c in result.cluster)

    def test_phases_positive(self):
        g = cycle(12, rng=1)
        assert split_graph(g, 2, rng=1).phases > 0


class TestPartition:
    def test_accepts_single_class(self):
        g = random_connected(30, 0.1, rng=6)
        result = partition(g, [1] * g.num_edges, 1, 4, rng=7)
        assert all(c >= 0 for c in result.split.cluster)
        assert len(result.cut_fraction_per_class) == 1

    def test_ignores_inactive_classes(self):
        g = path(6, rng=1)
        classes = [1, 2, 1, 2, 1]
        result = partition(g, classes, active_classes=1, target_radius=2, rng=8)
        # class-2 edges are not traversable; still everyone clustered.
        assert all(c >= 0 for c in result.split.cluster)

    def test_cut_fractions_within_unit_interval(self):
        g = grid(6, 6, rng=2)
        result = partition(g, [1] * g.num_edges, 1, 3, rng=9)
        assert all(0.0 <= f <= 1.0 for f in result.cut_fraction_per_class)

    def test_phases_accumulate_over_restarts(self):
        g = random_connected(25, 0.15, rng=10)
        result = partition(g, [1] * g.num_edges, 1, 2, rng=11)
        assert result.phases >= result.split.phases if result.restarts == 0 else True
        assert result.phases > 0


class TestAkpw:
    def test_produces_spanning_tree(self):
        g = random_connected(50, 0.08, rng=12)
        result = akpw_spanning_tree(g, rng=13)
        assert result.tree.num_nodes == 50
        pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in g.edges()}
        for v in range(50):
            p = result.tree.parent[v]
            if p >= 0:
                assert (min(v, p), max(v, p)) in pairs

    def test_single_node_graph(self):
        result = akpw_spanning_tree(Graph(1), rng=1)
        assert result.tree.num_nodes == 1

    def test_two_node_graph(self):
        g = Graph(2, [(0, 1, 5.0)])
        result = akpw_spanning_tree(g, rng=1)
        assert result.tree.parent[1] == 0 or result.tree.parent[0] == 1

    def test_disconnected_rejected(self):
        g = Graph(3, [(0, 1, 1.0)])
        from repro.errors import DisconnectedGraphError

        with pytest.raises(DisconnectedGraphError):
            akpw_spanning_tree(g, rng=1)

    def test_bad_lengths_rejected(self):
        g = Graph(2, [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            akpw_spanning_tree(g, lengths=[-1.0], rng=1)
        with pytest.raises(GraphError):
            akpw_spanning_tree(g, lengths=[1.0, 2.0], rng=1)

    def test_bad_class_base_rejected(self):
        g = Graph(2, [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            akpw_spanning_tree(g, class_base=1.0, rng=1)

    def test_tree_of_a_tree_is_itself(self):
        g = path(20, rng=1)
        result = akpw_spanning_tree(g, rng=14)
        stretches = stretch_per_edge(g, result.tree)
        np.testing.assert_allclose(stretches, 1.0)

    def test_average_stretch_moderate_on_grid(self):
        g = grid(9, 9, rng=3)
        values = []
        for seed in range(3):
            result = akpw_spanning_tree(g, rng=seed)
            values.append(summarize_stretch(g, result.tree)["average"])
        # Theorem 3.1's bound at this scale is a small constant factor;
        # empirically AKPW stays below ~12 on a 9x9 grid.
        assert np.mean(values) < 12.0

    def test_weighted_lengths_respected(self):
        # Make one cycle edge enormously long; the tree should avoid it,
        # giving it high stretch but all others stretch 1.
        g = cycle(10, rng=1)
        lengths = np.ones(10)
        lengths[3] = 1e6
        result = akpw_spanning_tree(g, lengths=lengths, rng=15)
        stretches = stretch_per_edge(g, result.tree, lengths)
        others = [stretches[e] for e in range(10) if e != 3]
        assert max(others) == pytest.approx(1.0)

    def test_multigraph_supported(self):
        g = Graph(3, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)])
        result = akpw_spanning_tree(g, rng=16)
        assert result.tree.num_nodes == 3

    def test_roots_at_requested_node(self):
        g = random_connected(20, 0.15, rng=17)
        result = akpw_spanning_tree(g, rng=18, root=7)
        assert result.tree.root == 7

    def test_default_class_base_grows_slowly(self):
        assert default_class_base(100) >= 4.0
        # Subpolynomial: the exponent base-n shrinks as n grows.
        exp_small = math.log(default_class_base(10**3), 10**3)
        exp_large = math.log(default_class_base(10**6), 10**6)
        assert exp_large < exp_small

    def test_expected_stretch_scaling_shape(self):
        # E3's qualitative claim: average stretch grows far slower than
        # any polynomial — compare n=36 vs n=144 on tori.
        small_values = [
            summarize_stretch(
                torus(6, 6, rng=1), akpw_spanning_tree(torus(6, 6, rng=1), rng=s).tree
            )["average"]
            for s in range(3)
        ]
        big_values = [
            summarize_stretch(
                torus(12, 12, rng=1),
                akpw_spanning_tree(torus(12, 12, rng=1), rng=s).tree,
            )["average"]
            for s in range(3)
        ]
        # Quadrupling n should much less than quadruple the stretch.
        assert np.mean(big_values) < 4.0 * np.mean(small_values)


class TestStretchHelpers:
    def test_tree_edge_lengths_pick_min_parallel(self):
        g = Graph(2, [(0, 1, 1.0), (0, 1, 1.0)])
        result = akpw_spanning_tree(g, lengths=[5.0, 2.0], rng=1)
        lengths = tree_edge_lengths(g, result.tree, [5.0, 2.0])
        child = 1 if result.tree.parent[1] == 0 else 0
        assert lengths[child] == pytest.approx(2.0)

    def test_non_graph_tree_edge_rejected(self):
        from repro.errors import TreeError
        from repro.graphs.trees import RootedTree

        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        fake = RootedTree([-1, 0, 0])
        with pytest.raises(TreeError):
            tree_edge_lengths(g, fake)

    def test_summary_keys(self):
        g = grid(4, 4, rng=1)
        result = akpw_spanning_tree(g, rng=2)
        summary = summarize_stretch(g, result.tree)
        assert set(summary) == {"average", "max", "capacity_weighted"}
        assert summary["max"] >= summary["average"] >= 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_stretch_per_edge_matches_scalar_path_length(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected(60, 0.08, rng=seed)
        lengths = rng.uniform(0.5, 4.0, size=g.num_edges)
        tree = akpw_spanning_tree(g, lengths=lengths, rng=seed).tree
        tree_lengths = tree_edge_lengths(g, tree, lengths)
        want = [
            tree.path_length(e.u, e.v, tree_lengths) / lengths[e.id]
            for e in g.edges()
        ]
        np.testing.assert_allclose(
            stretch_per_edge(g, tree, lengths), want, rtol=1e-12, atol=0.0
        )
