"""Tests for the tree congestion approximator R (§§3, 9.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approximator import (
    TreeCongestionApproximator,
    TreeOperator,
    build_congestion_approximator,
    estimate_alpha_st,
    racke_sample_trees,
)
from repro.errors import GraphError
from repro.flow import dinic_max_flow
from repro.graphs.cuts import sparsest_cut_brute_force
from repro.graphs.generators import grid, random_connected
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree, bfs_tree, induced_cut_capacities
from repro.util.validation import st_demand


class TestTreeOperator:
    def _operator(self, graph) -> TreeOperator:
        t = bfs_tree(graph, root=0)
        return TreeOperator(
            RootedTree(t.parent, induced_cut_capacities(graph, t))
        )

    def test_row_count(self, small_graph):
        op = self._operator(small_graph)
        assert op.num_rows == small_graph.num_nodes - 1

    def test_subtree_sums_match_naive(self, small_graph):
        op = self._operator(small_graph)
        rng = np.random.default_rng(1)
        values = rng.normal(size=small_graph.num_nodes)
        fast = op.subtree_sums(values)
        slow_all = op.tree.subtree_sums(values)
        np.testing.assert_allclose(fast, slow_all[op.row_nodes])

    def test_apply_is_signed_congestion(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 4.0)])
        t = RootedTree([-1, 0, 1], induced_cut_capacities(g, RootedTree([-1, 0, 1])))
        op = TreeOperator(t)
        y = op.apply(np.array([1.0, 0.0, -1.0]))
        # rows ordered by child node: node1 (subtree {1,2} sum -1, cut 2),
        # node2 (subtree {2} sum -1, cut 4).
        np.testing.assert_allclose(y, [-0.5, -0.25])

    def test_transpose_is_adjoint(self, small_graph):
        """<R b, y> == <b, Rᵀ y> — the defining identity."""
        op = self._operator(small_graph)
        rng = np.random.default_rng(2)
        b = rng.normal(size=small_graph.num_nodes)
        y = rng.normal(size=op.num_rows)
        lhs = float(op.apply(b) @ y)
        rhs = float(b @ op.apply_transpose(y))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_zero_capacity_cut_rejected(self):
        t = RootedTree([-1, 0], capacity=[0.0, 0.0])
        with pytest.raises(GraphError):
            TreeOperator(t)


class TestApproximator:
    def test_apply_concatenates_blocks(self, small_graph, small_approximator):
        b = st_demand(small_graph, 0, 5)
        y = small_approximator.apply(b)
        assert y.shape == (small_approximator.num_rows,)
        assert small_approximator.tree_rows == small_approximator.num_trees * (
            small_graph.num_nodes - 1
        )
        assert small_approximator.num_rows <= small_approximator.tree_rows

    def test_adjoint_identity_full(self, small_graph, small_approximator):
        rng = np.random.default_rng(3)
        b = rng.normal(size=small_graph.num_nodes)
        y = rng.normal(size=small_approximator.num_rows)
        lhs = float(small_approximator.apply(b) @ y)
        rhs = float(b @ small_approximator.apply_transpose(y))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_estimate_zero_for_zero_demand(self, small_graph, small_approximator):
        assert small_approximator.estimate(np.zeros(small_graph.num_nodes)) == 0.0

    def test_lower_bound_soundness_brute_force(self):
        """‖Rb‖∞ ≤ opt(b) for every demand — the unconditional half of
        the congestion-approximator property."""
        g = random_connected(10, 0.35, rng=91)
        approx = build_congestion_approximator(g, rng=92)
        rng = np.random.default_rng(93)
        for _ in range(15):
            b = rng.normal(size=10)
            b -= b.mean()
            _, opt = sparsest_cut_brute_force(g, b)
            assert approx.estimate(b) <= opt + 1e-9

    def test_upper_bound_alpha_on_st_demands(self):
        """opt(b) ≤ α‖Rb‖∞ for s-t demands with the estimated α."""
        g = random_connected(16, 0.25, rng=94)
        approx = build_congestion_approximator(g, rng=95)
        for s, t in [(0, 15), (3, 9), (7, 12)]:
            b = st_demand(g, s, t)
            opt = 1.0 / dinic_max_flow(g, s, t).value
            assert opt <= approx.alpha * approx.estimate(b) * 1.05

    def test_methods_produce_trees(self, small_graph):
        for method, expected_min in [("hierarchy", 2), ("mwu", 2), ("bfs", 2)]:
            approx = build_congestion_approximator(
                small_graph, num_trees=3, rng=96, method=method
            )
            assert approx.num_trees >= expected_min
            assert approx.method == method

    def test_unknown_method_rejected(self, small_graph):
        with pytest.raises(GraphError):
            build_congestion_approximator(small_graph, method="magic")

    def test_explicit_alpha_respected(self, small_graph):
        approx = build_congestion_approximator(
            small_graph, num_trees=2, rng=97, alpha=7.5
        )
        assert approx.alpha == 7.5

    def test_racke_trees_are_spanning(self, small_graph):
        trees = racke_sample_trees(small_graph, 3, rng=98)
        assert len(trees) == 3
        for t in trees:
            assert t.num_nodes == small_graph.num_nodes

    def test_alpha_estimate_at_least_safety(self, small_graph, small_approximator):
        alpha = estimate_alpha_st(
            small_graph, small_approximator, rng=99, trials=4
        )
        assert alpha >= 2.0  # safety factor times >= 1

    def test_grid_approximator_quality(self, grid_graph, grid_approximator):
        """On the grid, α should be modest (single-digit)."""
        assert grid_approximator.alpha < 20.0
