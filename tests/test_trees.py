"""Unit tests for rooted trees and tree routing."""

from __future__ import annotations

import numpy as np
import pytest

import repro.graphs.trees as trees_mod
from repro.errors import TreeError
from repro.graphs.generators import random_connected
from repro.graphs.graph import Graph
from repro.graphs.trees import (
    RootedTree,
    average_stretch,
    bfs_tree,
    induced_cut_capacities,
    spanning_tree_from_edges,
    tree_route_demand,
)
from repro.parallel import ParallelConfig, use_config


def path_tree(n: int) -> RootedTree:
    """0 <- 1 <- 2 ... rooted at 0."""
    return RootedTree([-1] + list(range(n - 1)), capacity=[1.0] * n)


def star_tree(n_leaves: int) -> RootedTree:
    return RootedTree([-1] + [0] * n_leaves, capacity=[1.0] * (n_leaves + 1))


class TestStructure:
    def test_root_identified(self):
        t = path_tree(4)
        assert t.root == 0

    def test_two_roots_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([-1, -1, 0])

    def test_no_root_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([1, 0])

    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([-1, 2, 1])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([-1, 5])

    def test_capacity_length_validated(self):
        with pytest.raises(TreeError):
            RootedTree([-1, 0], capacity=[1.0])

    def test_depth_and_height(self):
        t = path_tree(5)
        assert t.depth(0) == 0
        assert t.depth(4) == 4
        assert t.height() == 4

    def test_topological_order_root_first(self):
        t = star_tree(3)
        order = t.topological_order()
        assert order[0] == 0
        assert sorted(order) == [0, 1, 2, 3]

    def test_children(self):
        t = star_tree(3)
        assert t.children()[0] == [1, 2, 3]

    def test_path_to_root(self):
        t = path_tree(4)
        assert t.path_to_root(3) == [3, 2, 1, 0]

    def test_lca_on_path(self):
        t = path_tree(6)
        assert t.lca(5, 2) == 2

    def test_lca_on_star(self):
        t = star_tree(4)
        assert t.lca(1, 3) == 0
        assert t.lca(2, 2) == 2

    def test_path_length_hops(self):
        t = star_tree(4)
        assert t.path_length(1, 2) == 2.0

    def test_path_length_weighted(self):
        t = path_tree(4)
        lengths = [0.0, 10.0, 20.0, 30.0]
        assert t.path_length(3, 1, lengths) == pytest.approx(50.0)


class TestAggregations:
    def test_subtree_sums_path(self):
        t = path_tree(4)
        sums = t.subtree_sums([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(sums, [4.0, 3.0, 2.0, 1.0])

    def test_subtree_sums_star(self):
        t = star_tree(3)
        sums = t.subtree_sums([10.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(sums, [16.0, 1.0, 2.0, 3.0])

    def test_subtree_sums_shape_checked(self):
        with pytest.raises(TreeError):
            star_tree(3).subtree_sums([1.0])

    def test_prefix_sums_from_root(self):
        t = path_tree(4)
        prices = [0.0, 1.0, 2.0, 4.0]
        np.testing.assert_allclose(
            t.prefix_sums_from_root(prices), [0.0, 1.0, 3.0, 7.0]
        )

    def test_edge_flows_route_demand(self):
        t = path_tree(3)
        flows = t.edge_flows_for_demand([-2.0, 0.0, 2.0])
        # node 2 sends 2 toward the root.
        np.testing.assert_allclose(flows, [0.0, 2.0, 2.0])

    def test_congestion_for_demand(self):
        t = RootedTree([-1, 0, 1], capacity=[0.0, 4.0, 1.0])
        cong = t.congestion_for_demand([-2.0, 0.0, 2.0])
        np.testing.assert_allclose(cong, [0.0, 0.5, 2.0])

    def test_as_graph_round_trip(self):
        t = star_tree(3)
        g = t.as_graph()
        assert g.num_edges == 3
        assert g.is_connected()


class TestConstruction:
    def test_bfs_tree_depths_match_distances(self, small_graph):
        t = bfs_tree(small_graph, root=0)
        dist = small_graph.bfs_distances(0)
        assert all(t.depth(v) == dist[v] for v in small_graph.nodes())

    def test_spanning_tree_from_edges(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1, 2])
        assert t.root == 0
        assert t.parent[3] == 2

    def test_spanning_tree_wrong_count_rejected(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(TreeError):
            spanning_tree_from_edges(g, [0, 1])

    def test_spanning_tree_not_spanning_rejected(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(TreeError):
            spanning_tree_from_edges(g, [0, 1, 2])  # leaves node 3 out


def random_spanning_edges(graph: Graph, rng: np.random.Generator) -> list[int]:
    """Edge ids of a random spanning tree (Kruskal over a shuffled
    edge order, union-find with path halving)."""
    root = list(range(graph.num_nodes))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tails, heads = graph.edge_index_arrays()
    chosen = []
    for eid in rng.permutation(graph.num_edges).tolist():
        a, b = find(int(tails[eid])), find(int(heads[eid]))
        if a != b:
            root[a] = b
            chosen.append(eid)
    return chosen


class TestSpanningTreeEngines:
    def test_spanning_tree_engines_agree(self, monkeypatch):
        """The Python BFS (tree n + 2(n-1) below TINY_GRAPH_LIMIT) and
        the frontier kernel (at or above it) build identical parents,
        also with the kernel sharded, and reject the same edge sets."""
        forced_shard = ParallelConfig(workers=2, backend="thread", min_size=0)

        def python_engine(graph, ids, root=0):
            monkeypatch.setattr(trees_mod, "TINY_GRAPH_LIMIT", 10**9)
            return spanning_tree_from_edges(graph, ids, root=root)

        def array_engine(graph, ids, root=0):
            monkeypatch.setattr(trees_mod, "TINY_GRAPH_LIMIT", 0)
            return spanning_tree_from_edges(graph, ids, root=root)

        for seed, n in enumerate((2, 9, 40, 150, 700)):
            rng = np.random.default_rng(seed)
            graph = random_connected(n, 0.05, rng=seed)
            for _ in range(3):
                ids = random_spanning_edges(graph, rng)
                root = int(rng.integers(n))
                want = python_engine(graph, ids, root).parent
                assert array_engine(graph, ids, root).parent == want
                with use_config(forced_shard):
                    assert array_engine(graph, ids, root).parent == want

        graph = Graph(
            5,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        )
        short = [0, 3, 4]
        cyclic = [0, 1, 2, 3]  # triangle 0-1-2 plus 2-3: node 4 left out
        non_spanning = [0, 3, 3, 4]  # 2-3 twice: {0, 1} never meets {2, 3, 4}
        for engine in (python_engine, array_engine):
            for ids in (short, cyclic, non_spanning):
                with pytest.raises(TreeError):
                    engine(graph, ids)
            assert engine(graph, [0, 1, 3, 4]).parent == [-1, 0, 1, 2, 3]


class TestInducedCuts:
    def test_path_graph_cuts(self):
        g = Graph(3, [(0, 1, 5.0), (1, 2, 7.0)])
        t = spanning_tree_from_edges(g, [0, 1])
        cuts = induced_cut_capacities(g, t)
        # subtree {1,2} cut = edge 0-1 (5); subtree {2} cut = edge 1-2 (7)
        assert cuts[1] == pytest.approx(5.0)
        assert cuts[2] == pytest.approx(7.0)

    def test_cycle_cut_counts_both_edges(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1])
        cuts = induced_cut_capacities(g, t)
        assert cuts[1] == pytest.approx(2.0)  # {1,2} vs {0}: edges 0-1, 0-2
        assert cuts[2] == pytest.approx(2.0)  # {2} vs rest: edges 1-2, 0-2

    def test_matches_brute_force(self, small_graph):
        from repro.graphs.cuts import cut_capacity

        t = bfs_tree(small_graph, root=0)
        cuts = induced_cut_capacities(small_graph, t)
        children = t.children()
        # Check a handful of subtrees against direct cut computation.
        for v in range(1, min(10, small_graph.num_nodes)):
            members = [v]
            stack = [v]
            while stack:
                node = stack.pop()
                for ch in children[node]:
                    members.append(ch)
                    stack.append(ch)
            assert cuts[v] == pytest.approx(
                cut_capacity(small_graph, members)
            )

    def test_node_count_mismatch_rejected(self, small_graph):
        with pytest.raises(TreeError):
            induced_cut_capacities(small_graph, path_tree(3))


class TestTreeRouting:
    def test_route_exactly_meets_demand(self, small_graph):
        t = bfs_tree(small_graph, root=0)
        rng = np.random.default_rng(5)
        demand = rng.normal(size=small_graph.num_nodes)
        demand -= demand.mean()
        flow = tree_route_demand(small_graph, t, demand)
        residual = demand + small_graph.excess(flow)
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_route_uses_only_tree_edges(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1])
        flow = tree_route_demand(g, t, [1.0, 0.0, -1.0])
        assert flow[2] == 0.0  # non-tree edge unused

    def test_route_missing_edge_raises(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        fake = RootedTree([-1, 0, 0])  # edge (2, 0) is not a graph edge
        with pytest.raises(TreeError):
            tree_route_demand(g, fake, [1.0, 0.0, -1.0])


class TestStretchHelpers:
    def test_average_stretch_of_tree_is_one(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1, 2])
        assert average_stretch(g, t) == pytest.approx(1.0)

    def test_average_stretch_cycle(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1, 2])
        # three tree edges stretch 1, chord stretches 3 => (1+1+1+3)/4
        assert average_stretch(g, t) == pytest.approx(1.5)
