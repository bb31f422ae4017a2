#!/usr/bin/env python3
"""Quickstart: approximate max flow on a random network.

Builds a connected random graph, constructs the paper's tree-based
congestion approximator, runs the gradient-descent max-flow pipeline,
and compares against the exact (Dinic) optimum.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import build_congestion_approximator, dinic_max_flow, max_flow
from repro.graphs.generators import random_connected
from repro.util.validation import check_feasible_flow, st_demand


def main() -> None:
    # 1. A workload: 50 nodes, random capacities in 1..100.
    graph = random_connected(50, extra_edge_probability=0.1, rng=7)
    source, sink = 0, 49
    print(f"graph: n={graph.num_nodes}, m={graph.num_edges}, "
          f"D={graph.diameter()}")

    # 2. The congestion approximator R: O(log n) virtual trees sampled
    #    from the recursive j-tree hierarchy (Theorem 8.10 + Lemma 3.3).
    approximator = build_congestion_approximator(graph, rng=13)
    print(f"approximator: {approximator.num_trees} trees, "
          f"{approximator.num_rows} distinct cuts of "
          f"{approximator.tree_rows} tree rows, alpha={approximator.alpha:.2f}")

    # 3. Approximate max flow (Algorithms 1 + 2).
    result = max_flow(graph, source, sink, epsilon=0.25,
                      approximator=approximator)

    # 4. Grade against the exact optimum and verify feasibility.
    exact = dinic_max_flow(graph, source, sink).value
    check_feasible_flow(graph, result.flow,
                        st_demand(graph, source, sink, result.value))
    print(f"approximate value : {result.value:.2f}")
    print(f"exact optimum     : {exact:.2f}")
    print(f"achieved ratio    : {result.value / exact:.4f}")
    print(f"certified upper   : {result.certified_upper_bound:.2f} "
          "(from the approximator's cut rows)")
    print(f"gradient steps    : {result.congestion_result.iterations}")
    print("flow is exactly feasible and conserving — verified.")


if __name__ == "__main__":
    main()
