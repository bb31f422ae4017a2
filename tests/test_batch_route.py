"""Batched routing: ``FlowServer.route_batch`` vs one-shot calls.

``route_batch`` solves every cache miss through the same one-shot
solver call a single query uses, so column q of any demand plane must
equal — bit for bit — the one-shot :func:`almost_route` /
:func:`accelerated_almost_route` call on demand q under the same
execution config (serial, sharded thread, sharded process). These
tests pin that contract, including zero-demand columns and exhausted
budgets, plus the plane helpers (``Graph.excess_batch``,
``check_demand_batch``) and the workspace ``ensure`` raise contract.
The one-shot solvers themselves are pinned to recorded goldens in
``tests/test_solver_golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from parallel_harness import (
    assert_arrays_identical,
    build_test_approximator,
    forced,
    make_graph,
)
from repro.core import (
    RouteWorkspace,
    accelerated_almost_route,
    almost_route,
)
from repro.errors import ConvergenceError, GraphError, InvalidDemandError
from repro.graphs.generators import random_connected
from repro.serve import FlowServer
from repro.util.validation import check_demand_batch, st_demand

ONE_SHOT = {"plain": almost_route, "accelerated": accelerated_almost_route}


@pytest.fixture(scope="module")
def medium():
    g = make_graph("random", 101)
    return g, build_test_approximator(g, 101)


def _demand_plane(graph, seed, num_queries, zero_row=None):
    """A (Q, n) plane of mean-subtracted random demands; optionally one
    all-zero row to exercise the zero-demand early return."""
    rng = np.random.default_rng(seed)
    plane = rng.normal(size=(num_queries, graph.num_nodes))
    plane -= plane.mean(axis=1, keepdims=True)
    if zero_row is not None:
        plane[zero_row] = 0.0
    return plane


def _route(graph, approx, plane, eps, solver="plain", **options):
    """Route ``plane`` through a fresh server and one-shot calls alike;
    returns ``(batch columns, one-shot results)``."""
    parallel = options.get("parallel")
    budget = options.get("max_iterations")
    server = FlowServer(graph, approx, epsilon=eps, solver=solver, **options)
    batch = server.route_batch(plane, use_cache=False)
    singles = [
        ONE_SHOT[solver](
            graph, approx, plane[q], eps, max_iterations=budget,
            parallel=parallel,
        )
        for q in range(len(plane))
    ]
    return batch, singles


def _assert_columns_identical(batch, singles):
    assert len(batch) == len(singles)
    for q, (column, single) in enumerate(zip(batch, singles)):
        assert_arrays_identical(f"flow[{q}]", single.flow, column.flow)
        assert_arrays_identical(
            f"residual[{q}]", single.residual, column.residual
        )
        assert single.iterations == column.iterations
        assert single.scalings == column.scalings
        assert single.potential == column.potential
        assert single.delta == column.delta
        assert single.converged == column.converged


# ----------------------------------------------------------------------
# Column-wise bit-identity, plain solver
# ----------------------------------------------------------------------
class TestPlainBatchGolden:
    def test_mixed_batch_matches_one_shot(self, medium):
        """Random + s-t + zero demands in one batch: every column equals
        its one-shot call, including the zero column."""
        g, approx = medium
        plane = _demand_plane(g, 7, 6, zero_row=3)
        plane[1] = st_demand(g, 0, g.num_nodes - 1)
        _assert_columns_identical(*_route(g, approx, plane, 0.4))

    def test_singleton_batch(self, medium):
        """Q=1 is the degenerate batch: exactly the one-shot call."""
        g, approx = medium
        plane = _demand_plane(g, 11, 1)
        _assert_columns_identical(*_route(g, approx, plane, 0.5))

    def test_empty_batch(self, medium):
        g, approx = medium
        server = FlowServer(g, approx, epsilon=0.5)
        assert server.route_batch(np.zeros((0, g.num_nodes))) == []
        assert server.stats().batched_columns == 0

    def test_all_zero_batch(self, medium):
        """Every column zero: zero flows, demands echoed back, nothing
        iterated — and the zero columns are cached like any other."""
        g, approx = medium
        plane = np.zeros((3, g.num_nodes))
        server = FlowServer(g, approx, epsilon=0.5)
        batch = server.route_batch(plane)
        for q, column in enumerate(batch):
            assert not column.flow.any()
            assert column.converged
            assert column.iterations == 0
            assert_arrays_identical(f"residual[{q}]", plane[q], column.residual)
        # The three columns share one digest. The cache split runs
        # before any solve, so all three miss; the last one solved is
        # what a later request hits.
        assert server.route(plane[0]) is batch[-1]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backend_sweep(self, medium, workers, backend):
        """The acceptance matrix: batched == one-shot, bit for bit,
        across workers ∈ {1, 2} × {serial, thread, process}."""
        g, approx = medium
        plane = _demand_plane(g, 13, 4, zero_row=2)
        config = forced(workers, backend)
        batch, singles = _route(g, approx, plane, 0.4, parallel=config)
        _assert_columns_identical(batch, singles)
        # Cross-config: sharded batch == serial batch too.
        serial, _ = _route(g, approx, plane, 0.4)
        for q, (want, have) in enumerate(zip(serial, batch)):
            assert_arrays_identical(f"flows[{q}]", want.flow, have.flow)

    def test_budget_and_raise(self, medium):
        """A tiny budget leaves columns unconverged: they match the
        one-shot partial iterate and are flagged; the one-shot
        ``raise_on_budget`` surfaces the same condition."""
        g, approx = medium
        plane = _demand_plane(g, 17, 3)
        batch, singles = _route(g, approx, plane, 0.4, max_iterations=5)
        _assert_columns_identical(batch, singles)
        assert not any(column.converged for column in batch)
        with pytest.raises(ConvergenceError):
            almost_route(
                g, approx, plane[0], 0.4, max_iterations=5,
                raise_on_budget=True,
            )


# ----------------------------------------------------------------------
# Column-wise bit-identity, accelerated solver
# ----------------------------------------------------------------------
class TestAcceleratedBatchGolden:
    def test_mixed_batch_matches_one_shot(self, medium):
        g, approx = medium
        plane = _demand_plane(g, 19, 5, zero_row=4)
        _assert_columns_identical(
            *_route(g, approx, plane, 0.4, solver="accelerated")
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backend_sweep(self, medium, workers, backend):
        g, approx = medium
        plane = _demand_plane(g, 23, 3)
        config = forced(workers, backend)
        _assert_columns_identical(
            *_route(
                g, approx, plane, 0.4, solver="accelerated", parallel=config
            )
        )

    def test_ragged_convergence_freezes_columns(self, medium):
        """Columns converging at very different iteration counts: a
        fast column's answer is final when it converges and does not
        depend on its slower siblings."""
        g, approx = medium
        plane = _demand_plane(g, 29, 4)
        plane[0] *= 1e-3  # converges fast
        plane[0] -= plane[0].mean()
        batch, singles = _route(g, approx, plane, 0.4, solver="accelerated")
        assert len({column.iterations for column in batch}) > 1
        _assert_columns_identical(batch, singles)


# ----------------------------------------------------------------------
# Workspace: reuse purity and the ensure raise contract
# ----------------------------------------------------------------------
class TestBatchWorkspace:
    def test_workspace_reuse_is_pure(self, medium):
        """The server's one pooled workspace, reused across every column
        of two batches, gives the answers of fresh per-call buffers."""
        g, approx = medium
        server = FlowServer(g, approx, epsilon=0.4)
        p1 = _demand_plane(g, 31, 3)
        p2 = _demand_plane(g, 37, 3, zero_row=1)
        for plane in (p1, p2):
            reused = server.route_batch(plane, use_cache=False)
            fresh = [almost_route(g, approx, d, 0.4) for d in plane]
            _assert_columns_identical(reused, fresh)
        assert server.pool.created_singles == 1

    def test_ensure_mismatch_raises(self, medium):
        g, approx = medium
        ws = RouteWorkspace(g, approx)
        other = random_connected(12, 0.4, rng=315)
        other_approx = build_test_approximator(other, 316)
        with pytest.raises(GraphError, match="shape mismatch"):
            RouteWorkspace.ensure(ws, other, other_approx)
        with pytest.raises(GraphError, match="shape mismatch"):
            almost_route(
                other, other_approx, st_demand(other, 0, 5), 0.4, workspace=ws
            )
        assert RouteWorkspace.ensure(ws, g, approx) is ws
        built = RouteWorkspace.ensure(None, g, approx)
        assert built.shape_key == (g.num_edges, g.num_nodes, approx.num_rows)


# ----------------------------------------------------------------------
# Batched kernel substrate
# ----------------------------------------------------------------------
class TestExcessBatch:
    def test_rows_match_single_excess(self, medium):
        g, approx = medium
        rng = np.random.default_rng(41)
        plane = rng.normal(size=(5, g.num_edges))
        batch = g.excess_batch(plane)
        for q in range(5):
            assert_arrays_identical(
                f"excess[{q}]", g.excess(plane[q]), batch[q]
            )

    def test_out_parameter(self, medium):
        g, approx = medium
        rng = np.random.default_rng(43)
        plane = rng.normal(size=(3, g.num_edges))
        out = np.empty((3, g.num_nodes))
        assert g.excess_batch(plane, out=out) is out
        assert_arrays_identical("excess_batch[out]", g.excess_batch(plane), out)

    def test_shape_errors(self, medium):
        g, approx = medium
        with pytest.raises(GraphError):
            g.excess_batch(np.zeros(g.num_edges))  # 1-D
        with pytest.raises(GraphError):
            g.excess_batch(np.zeros((2, g.num_edges + 1)))


class TestCheckDemandBatch:
    def test_valid_plane_passes(self, medium):
        g, approx = medium
        plane = _demand_plane(g, 47, 3)
        out = check_demand_batch(g, plane)
        assert out.shape == plane.shape

    def test_wrong_shape(self, medium):
        g, approx = medium
        with pytest.raises(InvalidDemandError):
            check_demand_batch(g, np.zeros(g.num_nodes))
        with pytest.raises(InvalidDemandError):
            check_demand_batch(g, np.zeros((2, g.num_nodes + 1)))

    def test_nonzero_sum_names_query(self, medium):
        g, approx = medium
        plane = _demand_plane(g, 53, 3)
        plane[1, 0] += 5.0
        with pytest.raises(InvalidDemandError, match="demand 1"):
            check_demand_batch(g, plane)

    def test_nonfinite_names_query(self, medium):
        g, approx = medium
        plane = _demand_plane(g, 59, 3)
        plane[2, 1] = float("nan")
        with pytest.raises(InvalidDemandError, match="demand 2"):
            check_demand_batch(g, plane)
