"""Algorithm SplitGraph (paper Figure 4): low-diameter decomposition.

Given an unweighted (multi)graph and a target radius ρ, SplitGraph
partitions the nodes into clusters of radius at most ρ such that, in
expectation, only an O(log N / ρ) fraction of edges is cut. It works in
2·log N phases: phase t samples a geometrically growing set of sources
S_t, each source waits a random delay and then grows a BFS ball; a node
joins the cluster of the first BFS that reaches it (ties by source id).

This is the engine of the AKPW low-stretch spanning tree (§7) and runs
in O(ρ log N) simulated rounds; the distributed round cost is charged
via :meth:`repro.congest.cost.CostModel.lsst` using the *measured*
phase count this implementation reports.

Two engines grow the balls, chosen by :meth:`Graph.is_tiny`
(``n + 2m`` below :data:`~repro.graphs.graph.TINY_GRAPH_LIMIT`). The
frontier engine runs over the CSR adjacency: one lexsort pass claims
every node reached in a time step (the natural vectorization of "all
balls grow one hop per round"). It pays a fixed round of NumPy calls
per BFS step, so it loses where a step claims few nodes: on small
graphs, and on high-diameter torus and grid graphs, whose balls take
many steps. There a sequential heap over the graph's cached adjacency
lists wins. Over the calls of one approximator build the heap takes
0.30× the frontier engine's time on the four ``maxflow_small``
benchmark graphs (n + 2m ≤ 1434) but 3.7× on the ``dynamic_n512``
graph (n + 2m = 8184). Both engines resolve ties
identically — winner = lexicographically smallest
``(arrival, source, parent, parent-edge)`` — and are pinned equal by
``tests/test_csr.py``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.util.rng import as_generator

__all__ = ["SplitGraphResult", "split_graph"]


@dataclass
class SplitGraphResult:
    """Outcome of a SplitGraph decomposition.

    Attributes:
        cluster: ``cluster[v]`` = cluster id of node v (cluster ids are
            the source node ids).
        parent: BFS-tree parent of v inside its cluster (-1 at sources).
        parent_edge: Graph edge id to the parent (-1 at sources).
        radius: Max BFS depth realized in any cluster.
        phases: Number of sequential BFS phases executed — the quantity
            the round-cost model charges (each phase is one simulated
            cluster-graph round, Lemma 5.1).
        cut_edges: Edge ids whose endpoints landed in different clusters.
    """

    cluster: list[int]
    parent: list[int]
    parent_edge: list[int]
    radius: int
    phases: int
    cut_edges: list[int]


def _sample_sources(
    rng: np.random.Generator,
    vt: np.ndarray,
    t: int,
    num_nodes: int,
    max_delay: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw phase-t sources and delays (Figure 4, steps 2a/2c).

    Source density grows by 2^{t/2} per phase, reaching 1 by the final
    phase t = 2 log n, which guarantees full coverage; delays are
    uniform in [0, max_delay]. When ``max_delay`` is 0 the delay
    distribution is the constant 0 and no randomness is consumed
    (width-1 ``integers`` draws no bits, so this is stream-neutral).
    """
    probability = min(1.0, 2 ** (t / 2.0) / num_nodes)
    picks = rng.random(len(vt)) < probability
    sources = vt[picks]
    if sources.size == 0:
        sources = vt[rng.integers(0, len(vt))][None]
    if max_delay == 0:
        delays = np.zeros(len(sources), dtype=np.int64)
    else:
        delays = rng.integers(0, max_delay + 1, size=len(sources))
    return sources, delays


def _grow_balls_heap(
    adjacency: list[list[tuple[int, int]]],
    sources: list[int],
    delays: list[int],
    budget: int,
    allowed: list[bool] | None,
    cluster: list[int],
    parent: list[int],
    parent_edge: list[int],
    depth: list[int],
    unclaimed: list[bool],
) -> None:
    """One phase of delayed ball growing, sequential-heap flavor.

    Priority: (arrival_time, source_id, node, parent, edge) — the first
    BFS to visit wins, ties by source id then parent then edge.
    """
    zero_delays = not any(delays)
    delay_of = None if zero_delays else dict(zip(sources, delays))
    heappush, heappop = heapq.heappush, heapq.heappop
    heap: list[tuple[int, int, int, int, int]] = []
    for s, d in zip(sources, delays):
        if d < budget:
            heappush(heap, (d, s, s, -1, -1))
    while heap:
        time, src, node, par, pedge = heappop(heap)
        if not unclaimed[node]:
            continue
        cluster[node] = src
        parent[node] = par
        parent_edge[node] = pedge
        depth[node] = time if zero_delays else time - delay_of[src]
        unclaimed[node] = False
        time += 1
        if time > budget:
            continue
        if allowed is None:
            for neighbor, eid in adjacency[node]:
                if unclaimed[neighbor]:
                    heappush(heap, (time, src, neighbor, node, eid))
        else:
            for neighbor, eid in adjacency[node]:
                if allowed[eid] and unclaimed[neighbor]:
                    heappush(heap, (time, src, neighbor, node, eid))


def _grow_balls_frontier(
    csr,
    sources: np.ndarray,
    delays: np.ndarray,
    budget: int,
    allowed: np.ndarray | None,
    cluster: np.ndarray,
    parent: np.ndarray,
    parent_edge: np.ndarray,
    depth: np.ndarray,
    unclaimed: np.ndarray,
) -> None:
    """One phase of delayed ball growing, frontier-at-a-time flavor.

    At each time step every pending arrival for a still-unclaimed node
    competes; the winner is the lexicographically smallest
    (source, parent, parent-edge) — exactly the heap's pop order.
    """
    n = len(cluster)
    delay_of = np.zeros(n, dtype=np.int64)
    delay_of[sources] = delays
    neg1 = np.full(len(sources), -1, dtype=np.int64)
    by_time: dict[int, list[np.ndarray]] = {}
    started = delays < budget
    for time in np.unique(delays[started]).tolist():
        at_t = sources[started & (delays == time)]
        k = len(at_t)
        by_time[time] = [np.stack([at_t, at_t, neg1[:k], neg1[:k]])]
    for time in range(0, budget + 1):
        batches = by_time.pop(time, None)
        if not batches:
            continue
        node_c, src_c, par_c, pedge_c = np.concatenate(batches, axis=1)
        open_mask = unclaimed[node_c]
        node_c, src_c, par_c, pedge_c = (
            node_c[open_mask],
            src_c[open_mask],
            par_c[open_mask],
            pedge_c[open_mask],
        )
        if node_c.size == 0:
            continue
        order = np.lexsort((pedge_c, par_c, src_c, node_c))
        node_s = node_c[order]
        firsts = np.ones(len(node_s), dtype=bool)
        firsts[1:] = node_s[1:] != node_s[:-1]
        win = order[firsts]
        winners = node_c[win]
        cluster[winners] = src_c[win]
        parent[winners] = par_c[win]
        parent_edge[winners] = pedge_c[win]
        depth[winners] = time - delay_of[src_c[win]]
        unclaimed[winners] = False
        if time + 1 > budget:
            continue
        origin, nbrs, eids = kernels.ragged_rows(csr, winners)
        keep = unclaimed[nbrs]
        if allowed is not None:
            keep &= allowed[eids]
        if np.any(keep):
            push = np.stack(
                [nbrs[keep], cluster[origin[keep]], origin[keep], eids[keep]]
            )
            by_time.setdefault(time + 1, []).append(push)


def split_graph(
    graph: Graph,
    target_radius: int,
    rng: np.random.Generator | int | None = None,
    active_edges: list[int] | None = None,
) -> SplitGraphResult:
    """Decompose ``graph`` into clusters of radius <= target_radius.

    Args:
        graph: Unweighted view of a (multi)graph — capacities ignored.
        target_radius: The ρ parameter. Must be >= 1.
        rng: Randomness source.
        active_edges: If given, BFS may only traverse these edge ids
            (the AKPW iteration restricts to low weight classes);
            other edges are reported as cut if their endpoints separate.

    Returns:
        A :class:`SplitGraphResult`. Every node is assigned a cluster.
    """
    rng = as_generator(rng)
    n = graph.num_nodes
    rho = max(1, int(target_radius))
    log_n = max(1, math.ceil(math.log2(max(n, 2))))

    if active_edges is None:
        allowed = None
    else:
        allowed = np.zeros(graph.num_edges, dtype=bool)
        allowed[active_edges] = True
        if allowed.all():
            allowed = None
    max_delay = rho // (2 * log_n)

    tails, heads = graph.edge_index_arrays()
    if graph.is_tiny():
        cluster, parent, parent_edge, depth, phases = _split_small(
            graph, rng, rho, log_n, max_delay, allowed
        )
        cluster_arr = np.asarray(cluster, dtype=np.int64)
        cut_edges = np.flatnonzero(
            cluster_arr[tails] != cluster_arr[heads]
        ).tolist()
        return SplitGraphResult(
            cluster=cluster,
            parent=parent,
            parent_edge=parent_edge,
            radius=max(depth) if depth else 0,
            phases=phases,
            cut_edges=cut_edges,
        )
    cluster, parent, parent_edge, depth, phases = _split_large(
        graph, rng, rho, log_n, max_delay, allowed
    )
    cut_edges = np.flatnonzero(cluster[tails] != cluster[heads]).tolist()
    return SplitGraphResult(
        cluster=cluster.tolist(),
        parent=parent.tolist(),
        parent_edge=parent_edge.tolist(),
        radius=int(depth.max()) if n else 0,
        phases=phases,
        cut_edges=cut_edges,
    )


def _split_small(
    graph: Graph,
    rng: np.random.Generator,
    rho: int,
    log_n: int,
    max_delay: int,
    allowed: np.ndarray | None,
) -> tuple[list[int], list[int], list[int], list[int], int]:
    """Phase loop with Python state + sequential-heap ball growing."""
    n = graph.num_nodes
    adjacency = graph.adjacency_lists()
    allowed_list = allowed.tolist() if allowed is not None else None
    cluster = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    unclaimed = [True] * n
    remaining = list(range(n))
    phases = 0
    for t in range(1, 2 * log_n + 1):
        if not remaining:
            break
        probability = min(1.0, 2 ** (t / 2.0) / n)
        picks = (rng.random(len(remaining)) < probability).tolist()
        sources = [v for v, p in zip(remaining, picks) if p]
        if not sources:
            sources = [remaining[rng.integers(0, len(remaining))]]
        if max_delay == 0:
            delays: list[int] = [0] * len(sources)
        else:
            delays = rng.integers(0, max_delay + 1, size=len(sources)).tolist()
        budget = max(1, int(rho * (1.0 - (t - 1) / (2.0 * log_n))))
        _grow_balls_heap(
            adjacency, sources, delays, budget, allowed_list,
            cluster, parent, parent_edge, depth, unclaimed,
        )
        remaining = [v for v in remaining if unclaimed[v]]
        phases += budget
    for v in remaining:
        cluster[v] = v
    return cluster, parent, parent_edge, depth, phases


def _split_large(
    graph: Graph,
    rng: np.random.Generator,
    rho: int,
    log_n: int,
    max_delay: int,
    allowed: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Phase loop with NumPy state + frontier-at-a-time ball growing."""
    n = graph.num_nodes
    csr = graph.csr()
    cluster = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    unclaimed = np.ones(n, dtype=bool)
    phases = 0
    for t in range(1, 2 * log_n + 1):
        if not unclaimed.any():
            break
        vt = np.flatnonzero(unclaimed)
        sources, delays = _sample_sources(rng, vt, t, n, max_delay)
        budget = max(1, int(rho * (1.0 - (t - 1) / (2.0 * log_n))))
        _grow_balls_frontier(
            csr, sources, delays, budget, allowed,
            cluster, parent, parent_edge, depth, unclaimed,
        )
        phases += budget
    rest = np.flatnonzero(unclaimed)
    cluster[rest] = rest
    return cluster, parent, parent_edge, depth, phases
