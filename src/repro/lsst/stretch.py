"""Stretch measurement for spanning trees (paper §7 definitions).

The quality measure of Theorem 3.1 is the average stretch
``(1/m) Σ_{u,v ∈ E} d_T(u, v) / ℓ(u, v)``; Madry's construction needs
the capacity-weighted variant of Eq. (2). Both are computed here from a
:class:`~repro.graphs.trees.RootedTree` using tree lengths induced by
the graph's length function.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import TreeError
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree

__all__ = ["tree_edge_lengths", "stretch_per_edge", "summarize_stretch"]


def tree_edge_lengths(
    graph: Graph,
    tree: RootedTree,
    lengths: Sequence[float] | None = None,
) -> np.ndarray:
    """Assign each tree edge (v, parent[v]) the minimum graph length
    among parallel graph edges joining v and parent[v].

    Args:
        graph: The host graph.
        tree: A spanning tree whose edges are graph edges.
        lengths: Per-graph-edge lengths (default all ones).

    Returns:
        Array L with L[v] = length of tree edge (v, parent[v]).
    """
    if lengths is None:
        lengths = np.ones(graph.num_edges)
    lengths = np.asarray(lengths, dtype=float)
    best: dict[tuple[int, int], float] = {}
    for e in graph.edges():
        key = (min(e.u, e.v), max(e.u, e.v))
        value = float(lengths[e.id])
        if key not in best or value < best[key]:
            best[key] = value
    out = np.zeros(tree.num_nodes)
    for v in range(tree.num_nodes):
        p = tree.parent[v]
        if p < 0:
            continue
        key = (min(v, p), max(v, p))
        if key not in best:
            raise TreeError(f"tree edge ({v}, {p}) is not a graph edge")
        out[v] = best[key]
    return out


def stretch_per_edge(
    graph: Graph,
    tree: RootedTree,
    lengths: Sequence[float] | None = None,
) -> np.ndarray:
    """Return stretch_T(e) = d_T(u, v) / ℓ(e) for every graph edge."""
    if lengths is None:
        lengths = np.ones(graph.num_edges)
    lengths = np.asarray(lengths, dtype=float)
    tree_lengths = tree_edge_lengths(graph, tree, lengths)
    tails, heads = graph.edge_index_arrays()
    return tree.path_lengths_batch(tails, heads, tree_lengths) / lengths


def summarize_stretch(
    graph: Graph,
    tree: RootedTree,
    lengths: Sequence[float] | None = None,
) -> dict[str, float]:
    """Average / max / capacity-weighted stretch summary (E3 metrics)."""
    stretches = stretch_per_edge(graph, tree, lengths)
    caps = graph.capacities()
    return {
        "average": float(stretches.mean()),
        "max": float(stretches.max()),
        "capacity_weighted": float((stretches * caps).sum() / caps.sum()),
    }
