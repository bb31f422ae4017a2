"""Golden tests for the array-native substrate.

Pins the vectorized CSR kernels to pure-Python reference
implementations (the legacy adjacency-list algorithms) on random
multigraphs with parallel edges, and pins the Graph-level cache
contract: ``capacities()`` / ``edge_index_arrays()`` / ``csr()`` are
cached views invalidated by structural mutation, written through by
``set_capacity``.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import repro.graphs.graph as graph_mod
from repro.graphs import kernels
from repro.graphs.csr import build_csr
from repro.graphs.graph import Graph
from repro.graphs.trees import (
    RootedTree,
    average_stretch,
    bfs_tree,
    induced_cut_capacities,
    weighted_average_stretch,
)
from repro.lsst.partition import partition
from repro.lsst.split_graph import split_graph


SUBSTRATE_FIXTURE = Path(__file__).parent / "fixtures" / "substrate_golden.json"


def random_multigraph(seed: int, max_nodes: int = 40) -> Graph:
    """Random multigraph with parallel edges (possibly disconnected)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes))
    g = Graph(n)
    m = int(rng.integers(1, 4 * n))
    for _ in range(m):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        g.add_edge(u, v, float(rng.uniform(0.1, 10.0)))
        if rng.random() < 0.2:  # parallel duplicate
            g.add_edge(u, v, float(rng.uniform(0.1, 10.0)))
    if g.num_edges == 0:
        g.add_edge(0, 1, 1.0)
    return g


# ----------------------------------------------------------------------
# Pure-Python references (the legacy adjacency-list algorithms)
# ----------------------------------------------------------------------
def reference_adjacency(g: Graph) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.num_nodes)]
    for e in g.edges():
        adj[e.u].append((e.v, e.id))
        adj[e.v].append((e.u, e.id))
    return adj


def reference_bfs(g: Graph, source: int) -> list[int]:
    adj = reference_adjacency(g)
    dist = [-1] * g.num_nodes
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor, _ in adj[node]:
            if dist[neighbor] < 0:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def reference_bfs_parents(
    g: Graph, root: int
) -> tuple[list[int], list[int], list[int]]:
    adj = reference_adjacency(g)
    dist = [-1] * g.num_nodes
    parent = [-2] * g.num_nodes
    parent_edge = [-1] * g.num_nodes
    dist[root] = 0
    parent[root] = -1
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor, eid in adj[node]:
            if dist[neighbor] < 0:
                dist[neighbor] = dist[node] + 1
                parent[neighbor] = node
                parent_edge[neighbor] = eid
                queue.append(neighbor)
    return dist, parent, parent_edge


def reference_components(g: Graph) -> list[list[int]]:
    adj = reference_adjacency(g)
    seen = [False] * g.num_nodes
    components = []
    for start in range(g.num_nodes):
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor, _ in adj[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    component.append(neighbor)
                    queue.append(neighbor)
        components.append(component)
    return components


def reference_contract(g: Graph, labels, keep_parallel):
    compact: dict[int, int] = {}
    node_map = []
    for v in range(g.num_nodes):
        if labels[v] not in compact:
            compact[labels[v]] = len(compact)
        node_map.append(compact[labels[v]])
    edges = []
    origin = []
    if keep_parallel:
        for e in g.edges():
            cu, cv = node_map[e.u], node_map[e.v]
            if cu != cv:
                edges.append((cu, cv, e.capacity))
                origin.append(e.id)
    else:
        merged: dict[tuple[int, int], int] = {}
        for e in g.edges():
            cu, cv = node_map[e.u], node_map[e.v]
            if cu == cv:
                continue
            key = (min(cu, cv), max(cu, cv))
            if key in merged:
                j = merged[key]
                edges[j] = (edges[j][0], edges[j][1], edges[j][2] + e.capacity)
            else:
                merged[key] = len(edges)
                edges.append((key[0], key[1], e.capacity))
                origin.append(e.id)
    return len(compact), edges, origin


# ----------------------------------------------------------------------
# CSR structure
# ----------------------------------------------------------------------
class TestCSRStructure:
    def test_rows_in_edge_insertion_order(self):
        for seed in range(10):
            g = random_multigraph(seed)
            csr = g.csr()
            for v in range(g.num_nodes):
                nbrs, eids = csr.row(v)
                assert list(zip(nbrs.tolist(), eids.tolist())) == [
                    (nbr, eid) for nbr, eid in reference_adjacency(g)[v]
                ]
                assert sorted(eids.tolist()) == eids.tolist()

    def test_degrees_match(self):
        g = random_multigraph(3)
        degrees = g.csr().degrees()
        for v in range(g.num_nodes):
            assert degrees[v] == len(reference_adjacency(g)[v]) == g.degree(v)

    def test_arrays_read_only(self):
        csr = random_multigraph(0).csr()
        for arr in (csr.indptr, csr.neighbor, csr.edge_id):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_num_accessors(self):
        g = random_multigraph(1)
        csr = g.csr()
        assert csr.num_nodes == g.num_nodes
        assert csr.num_edges == g.num_edges


# ----------------------------------------------------------------------
# Kernel golden equivalence (vectorized path, bypassing the adaptive
# dispatch, against the pure-Python references)
# ----------------------------------------------------------------------
class TestKernelGoldenEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_bfs_levels_match_reference(self, seed):
        g = random_multigraph(seed)
        for source in (0, g.num_nodes - 1):
            assert (
                kernels.bfs_levels(g.csr(), source).tolist()
                == reference_bfs(g, source)
            )

    @pytest.mark.parametrize("seed", range(25))
    def test_bfs_parents_match_reference_exactly(self, seed):
        """Same parents and edges, not just same distances — the kernel
        reproduces the FIFO claim order including tie-breaking."""
        g = random_multigraph(seed)
        dist, parent, pedge = kernels.bfs_parents(g.csr(), 0)
        r_dist, r_parent, r_pedge = reference_bfs_parents(g, 0)
        assert dist.tolist() == r_dist
        assert parent.tolist() == r_parent
        assert pedge.tolist() == r_pedge

    @pytest.mark.parametrize("seed", range(25))
    def test_connected_components_match_reference(self, seed):
        """Component order and within-component discovery order match."""
        g = random_multigraph(seed)
        assert kernels.connected_components(g.csr()) == reference_components(g)

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("keep_parallel", [True, False])
    def test_contract_matches_reference(self, seed, keep_parallel):
        g = random_multigraph(seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(-5, 8, size=g.num_nodes).tolist()
        quotient, origin = g.contract(labels, keep_parallel=keep_parallel)
        k, ref_edges, ref_origin = reference_contract(g, labels, keep_parallel)
        assert quotient.num_nodes == k
        assert origin == ref_origin
        got = [
            (e.u, e.v, pytest.approx(e.capacity)) for e in quotient.edges()
        ]
        assert got == [(u, v, pytest.approx(c)) for u, v, c in ref_edges]

    @pytest.mark.parametrize("seed", range(8))
    def test_all_pairs_distances_match_per_source_bfs(self, seed):
        g = random_multigraph(seed, max_nodes=20)
        matrix = kernels.all_pairs_hop_distances(g.csr())
        for source in range(g.num_nodes):
            assert matrix[source].tolist() == reference_bfs(g, source)

    def test_diameter_matches_reference(self):
        for seed in range(8):
            g = random_multigraph(seed)
            if not g.is_connected():
                continue
            expected = max(max(reference_bfs(g, s)) for s in range(g.num_nodes))
            assert g.diameter() == expected

    def test_compact_labels_first_occurrence_order(self):
        node_map, k = kernels.compact_labels([7, -3, 7, 9, -3])
        assert node_map.tolist() == [0, 1, 0, 2, 1]
        assert k == 3


# ----------------------------------------------------------------------
# Recorded substrate outputs (the survivors of the deleted Python twins)
# ----------------------------------------------------------------------
def contract_record(g: Graph, labels, keep_parallel: bool) -> dict:
    quotient, origin = g.contract(labels, keep_parallel=keep_parallel)
    tails, heads = quotient.edge_index_arrays()
    return {
        "num_nodes": quotient.num_nodes,
        "tails": tails.tolist(),
        "heads": heads.tolist(),
        "capacities": quotient.capacities().tolist(),
        "origin": origin,
    }


def random_tree(seed: int, n: int) -> RootedTree:
    """A random rooted tree on ``n`` nodes (node v hangs below some u < v)."""
    rng = np.random.default_rng(1000 + seed)
    parent = [-1] + [int(rng.integers(0, v)) for v in range(1, n)]
    return RootedTree(parent)


def substrate_record(seed: int) -> dict:
    """Every fixture value for ``random_multigraph(seed)``."""
    g = random_multigraph(seed)
    n, m = g.num_nodes, g.num_edges
    rng = np.random.default_rng(seed)
    mod3 = [v % 3 for v in range(n)]
    labels = rng.integers(-5, 8, size=n).tolist()
    tree = random_tree(seed, n)
    edge_length = rng.uniform(0.5, 4.0, size=m)
    tree_edge_length = rng.uniform(0.5, 4.0, size=n)
    edge_class = rng.integers(1, 4, size=m)
    split = partition(g, edge_class, 2, 3, rng=seed)
    connected = g.is_connected()
    return {
        "bfs_distances": g.bfs_distances(0),
        "connected_components": g.connected_components(),
        "is_connected": connected,
        "diameter": g.diameter() if connected else None,
        "contract_parallel": contract_record(g, mod3, True),
        "contract_merged": contract_record(g, mod3, False),
        "contract_labels_merged": contract_record(g, labels, False),
        "node_map_after_contract": g.node_map_after_contract(labels),
        "induced_cut_capacities": induced_cut_capacities(g, tree).tolist(),
        "average_stretch": average_stretch(g, tree),
        "weighted_average_stretch": weighted_average_stretch(
            g, tree, edge_length, tree_edge_length
        ),
        "partition_cut_fractions": split.cut_fraction_per_class,
        "partition_restarts": split.restarts,
        "partition_cluster": split.split.cluster,
    }


@pytest.fixture(scope="module")
def substrate_golden():
    return json.loads(SUBSTRATE_FIXTURE.read_text())


class TestAdaptivePathsAgree:
    """The substrate's traversals, contraction, cut and stretch measures
    and partition counting, pinned to ``tests/fixtures/substrate_golden.json``.

    The fixture was recorded while each of these still had a Python-loop
    twin on graphs this small, and both twins agreed on every value
    (the weighted average stretch to 5.3e-16 relative; the array value
    is recorded). The array paths must keep reproducing it exactly;
    SplitGraph's two live engines are compared directly. Regenerate (only on
    a deliberate re-baseline, recorded in CHANGES.md) from the
    repository root::

        PYTHONPATH=src:tests python tests/test_csr.py --write
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_graph_traversals_agree_across_paths(self, seed, substrate_golden):
        want = substrate_golden[str(seed)]
        g = random_multigraph(seed)
        assert g.bfs_distances(0) == want["bfs_distances"]
        assert g.connected_components() == want["connected_components"]
        assert g.is_connected() == want["is_connected"]
        if want["is_connected"]:
            assert g.diameter() == want["diameter"]
            assert bfs_tree(g).parent == reference_bfs_parents(g, 0)[1]

    @pytest.mark.parametrize("seed", range(10))
    def test_split_graph_agrees_across_paths(self, seed, monkeypatch):
        """The two live SplitGraph engines (heap below TINY_GRAPH_LIMIT,
        frontier above) produce the same decomposition."""
        g = random_multigraph(seed)
        assert g.is_tiny()
        heap = split_graph(g, 3, rng=np.random.default_rng(seed))
        monkeypatch.setattr(graph_mod, "TINY_GRAPH_LIMIT", 0)
        g2 = random_multigraph(seed)
        assert not g2.is_tiny()
        frontier = split_graph(g2, 3, rng=np.random.default_rng(seed))
        assert heap == frontier

    @pytest.mark.parametrize("seed", range(10))
    def test_contract_agrees_across_tiny_threshold(self, seed, substrate_golden):
        want = substrate_golden[str(seed)]
        g = random_multigraph(seed)
        rng = np.random.default_rng(seed)
        mod3 = [v % 3 for v in range(g.num_nodes)]
        labels = rng.integers(-5, 8, size=g.num_nodes).tolist()
        assert contract_record(g, mod3, True) == want["contract_parallel"]
        assert contract_record(g, mod3, False) == want["contract_merged"]
        assert (
            contract_record(g, labels, False) == want["contract_labels_merged"]
        )
        assert g.node_map_after_contract(labels) == (
            want["node_map_after_contract"]
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_tree_measures_match_fixture(self, seed, substrate_golden):
        """Induced cuts, both average stretches and partition counting."""
        full = substrate_record(seed)
        want = substrate_golden[str(seed)]
        for key in (
            "induced_cut_capacities",
            "average_stretch",
            "weighted_average_stretch",
            "partition_cut_fractions",
            "partition_restarts",
            "partition_cluster",
        ):
            assert full[key] == want[key], key


# ----------------------------------------------------------------------
# Cache contract
# ----------------------------------------------------------------------
class TestCacheInvalidation:
    def test_capacities_cached_and_read_only(self):
        g = random_multigraph(0)
        caps = g.capacities()
        assert g.capacities() is caps  # cached, no per-call allocation
        with pytest.raises(ValueError):
            caps[0] = 5.0

    def test_edge_index_arrays_cached_and_read_only(self):
        g = random_multigraph(0)
        tails, heads = g.edge_index_arrays()
        again = g.edge_index_arrays()
        assert again[0] is tails and again[1] is heads
        with pytest.raises(ValueError):
            tails[0] = 0

    def test_set_capacity_writes_through_cached_view(self):
        g = random_multigraph(0)
        caps = g.capacities()
        g.set_capacity(0, 123.5)
        assert caps[0] == 123.5  # view of the live buffer

    def test_add_edge_invalidates_caches(self):
        g = random_multigraph(0)
        caps = g.capacities()
        tails, _ = g.edge_index_arrays()
        csr = g.csr()
        old_m = g.num_edges
        g.add_edge(0, 1, 2.5)
        assert len(g.capacities()) == old_m + 1
        assert g.capacities() is not caps
        assert g.edge_index_arrays()[0] is not tails
        assert g.csr() is not csr
        assert (1, old_m) in g.neighbors(0)
        assert g.capacity(old_m) == 2.5

    def test_add_edge_invalidates_connectivity_cache(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert not g.is_connected()
        g.add_edge(1, 2, 1.0)
        assert g.is_connected()

    def test_csr_cached_between_structural_mutations(self):
        g = random_multigraph(0)
        assert g.csr() is g.csr()
        g.set_capacity(0, 9.0)  # non-structural: cache survives
        assert g.csr() is g.csr()

    def test_excess_uses_current_arrays_after_mutation(self):
        g = Graph(3, [(0, 1, 1.0)])
        g.excess(np.array([1.0]))
        g.add_edge(1, 2, 1.0)
        excess = g.excess(np.array([1.0, 1.0]))
        np.testing.assert_allclose(excess, [-1.0, 0.0, 1.0])


def _assert_caches_match_fresh(quotient: Graph):
    """CSR / adjacency / connectivity of ``quotient`` (possibly seeded
    or stale-if-buggy) must agree with a freshly built twin graph."""
    fresh = Graph.from_edge_arrays(
        quotient.num_nodes,
        quotient.edge_index_arrays()[0].tolist(),
        quotient.edge_index_arrays()[1].tolist(),
        quotient.capacities().tolist(),
    )
    np.testing.assert_array_equal(quotient.csr().indptr, fresh.csr().indptr)
    np.testing.assert_array_equal(
        quotient.csr().neighbor, fresh.csr().neighbor
    )
    np.testing.assert_array_equal(quotient.csr().edge_id, fresh.csr().edge_id)
    assert quotient.adjacency_lists() == fresh.adjacency_lists()
    assert quotient.is_connected() == fresh.is_connected()
    assert quotient.connected_components() == fresh.connected_components()


class TestQuotientCacheSeeding:
    """Regression: `contract` pre-seeds the quotient's CSR / adjacency /
    connectivity caches; every seeded cache must be dropped by a
    post-contraction structural mutation and must never disagree with a
    freshly built graph."""

    def _contract(self, seed, monkeypatch=None, tiny=False):
        g = random_multigraph(seed, max_nodes=30)
        if monkeypatch is not None:
            # Put the graph on either side of the size switch: contraction
            # has one path, so its quotient caches must not care.
            limit = 10**9 if tiny else 0
            monkeypatch.setattr(graph_mod, "TINY_GRAPH_LIMIT", limit)
        labels = [v % 4 for v in range(g.num_nodes)]
        quotient, _ = g.contract(labels)
        return g, quotient

    @pytest.mark.parametrize("seed", range(6))
    def test_scaled_contract_seeds_csr(self, seed, monkeypatch):
        _, quotient = self._contract(seed, monkeypatch, tiny=False)
        assert quotient._csr_cache is not None  # emitted by contraction
        for arr in (quotient.csr().neighbor, quotient.csr().edge_id):
            with pytest.raises(ValueError):
                arr[:1] = 0  # seeded arrays keep the read-only contract
        _assert_caches_match_fresh(quotient)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tiny", [True, False])
    def test_add_edge_after_contract_drops_seeded_caches(
        self, seed, tiny, monkeypatch
    ):
        _, quotient = self._contract(seed, monkeypatch, tiny=tiny)
        if quotient.num_nodes < 2:
            return
        quotient.csr()
        quotient.adjacency_lists()
        quotient.is_connected()
        quotient.add_edge(0, quotient.num_nodes - 1, 2.5)
        _assert_caches_match_fresh(quotient)
        assert (quotient.num_nodes - 1, quotient.num_edges - 1) in (
            quotient.neighbors(0)
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tiny", [True, False])
    def test_set_capacity_after_contract_writes_through(
        self, seed, tiny, monkeypatch
    ):
        _, quotient = self._contract(seed, monkeypatch, tiny=tiny)
        if quotient.num_edges == 0:
            return
        caps = quotient.capacities()
        csr_before = quotient.csr()
        quotient.set_capacity(0, 42.5)
        assert caps[0] == 42.5  # cached view sees the write
        assert quotient.csr() is csr_before  # non-structural: seed survives
        _assert_caches_match_fresh(quotient)

    def test_connectivity_seed_only_propagates_true(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not g.is_connected()
        # Contracting a *disconnected* graph may connect it: the verdict
        # must not be inherited.
        quotient, _ = g.contract([0, 1, 0, 1])
        assert quotient.is_connected()

    def test_connected_verdict_propagates_through_contract(self):
        g = random_multigraph(3)
        g.is_connected()
        quotient, _ = g.contract([v % 3 for v in range(g.num_nodes)])
        _assert_caches_match_fresh(quotient)

    def test_copy_shares_immutable_caches_safely(self):
        g = random_multigraph(2)
        csr = g.csr()
        twin = g.copy()
        assert twin.csr() is csr  # structure identical, arrays immutable
        twin.add_edge(0, 1, 1.0)
        assert g.csr() is csr  # the original's cache is untouched
        _assert_caches_match_fresh(twin)


class TestInt32Substrate:
    def test_edge_arrays_are_int32(self):
        g = random_multigraph(0)
        tails, heads = g.edge_index_arrays()
        assert tails.dtype == np.int32 and heads.dtype == np.int32
        csr = g.csr()
        assert csr.neighbor.dtype == np.int32
        assert csr.edge_id.dtype == np.int32

    def test_contract_emits_int32(self):
        g = random_multigraph(1)
        quotient, _ = g.contract([v % 3 for v in range(g.num_nodes)])
        tails, heads = quotient.edge_index_arrays()
        assert tails.dtype == np.int32 and heads.dtype == np.int32

    def test_node_count_overflow_guarded(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError, match="int32"):
            Graph(2**31)


def write_fixture(path: Path = SUBSTRATE_FIXTURE) -> None:
    data = {str(seed): substrate_record(seed) for seed in range(10)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_fixture()
    print(f"wrote {SUBSTRATE_FIXTURE}")
