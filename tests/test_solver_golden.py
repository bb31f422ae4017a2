"""Recorded goldens for the one-shot AlmostRoute solvers.

Every demand the library routes — one-shot, through ``max_flow``, or
column by column through ``FlowServer.route_batch`` — runs through
:func:`almost_route` or :func:`accelerated_almost_route`. These tests
hold both solvers to a checked-in fixture
(``tests/fixtures/solver_golden.json``) recorded when a bit-identical
batched twin of each loop still existed, so the survivors keep the
guarantee without a twin to compare against:

* per column, ``iterations``, ``scalings`` and ``converged`` exactly;
* ``‖flow‖₁``, ``‖residual‖∞``, ``potential`` and ``delta`` to a
  relative tolerance of 1e-9.

The cases cover plain and accelerated solves, cold and warm seeds
(including an all-zero seed, which must equal the cold start), the
zero-demand column, an exhausted iteration budget, workspace reuse and
the serial / thread / process backends.

Regenerate the fixture (only on a deliberate re-baseline, recorded in
CHANGES.md) from the repository root::

    PYTHONPATH=src:tests python tests/test_solver_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from parallel_harness import build_test_approximator, forced, make_graph
from repro.core import (
    RouteWorkspace,
    accelerated_almost_route,
    almost_route,
)
from repro.util.validation import st_demand

FIXTURE = Path(__file__).parent / "fixtures" / "solver_golden.json"
RTOL = 1e-9
SOLVERS = {"plain": almost_route, "accelerated": accelerated_almost_route}

#: name -> (solver, plane seed, columns, zero column, epsilon, budget).
#: The planes are the golden inputs of the former batched-vs-one-shot
#: equivalence suite.
CASES = {
    "plain_mixed": ("plain", 7, 6, 3, 0.4, None),
    "plain_singleton": ("plain", 11, 1, None, 0.5, None),
    "plain_sweep": ("plain", 13, 4, 2, 0.4, None),
    "plain_budget": ("plain", 17, 3, None, 0.4, 5),
    "plain_reuse_a": ("plain", 31, 3, None, 0.4, None),
    "plain_reuse_b": ("plain", 37, 3, 1, 0.4, None),
    "plain_warm": ("plain", 43, 4, 3, 0.4, None),
    "accelerated_mixed": ("accelerated", 19, 5, 4, 0.4, None),
    "accelerated_sweep": ("accelerated", 23, 3, None, 0.4, None),
    "accelerated_ragged": ("accelerated", 29, 4, None, 0.4, None),
    "accelerated_warm": ("accelerated", 43, 4, 3, 0.4, None),
}
SWEEP_CASES = ("plain_sweep", "accelerated_sweep")


def instance():
    graph = make_graph("random", 101)
    return graph, build_test_approximator(graph, 101)


def demand_plane(graph, name: str) -> np.ndarray:
    """The ``(Q, n)`` demand plane of one case."""
    _, seed, columns, zero_column, _, _ = CASES[name]
    rng = np.random.default_rng(seed)
    plane = rng.normal(size=(columns, graph.num_nodes))
    plane -= plane.mean(axis=1, keepdims=True)
    if zero_column is not None:
        plane[zero_column] = 0.0
    if name == "plain_mixed":
        plane[1] = st_demand(graph, 0, graph.num_nodes - 1)
    if name == "accelerated_ragged":
        # One column converges far sooner than the others.
        plane[0] *= 1e-3
        plane[0] -= plane[0].mean()
    return plane


def seed_plane(graph, approximator, name: str) -> np.ndarray | None:
    """Warm-start seeds of the ``*_warm`` cases, else ``None``.

    Columns 0 and 2 start from a coarser (ε=0.8) solve of their own
    demand, column 1 from an all-zero seed (must equal the cold start)
    and the zero-demand column 3 from a non-zero seed (must be ignored).
    """
    if not name.endswith("_warm"):
        return None
    solver, *_ = CASES[name]
    plane = demand_plane(graph, name)
    seeds = np.zeros((plane.shape[0], graph.num_edges))
    for q in (0, 2):
        seeds[q] = SOLVERS[solver](graph, approximator, plane[q], 0.8).flow
    seeds[3] = seeds[0]
    return seeds


def solve_case(graph, approximator, name, parallel=None, workspace=None):
    """Route every column of one case through its one-shot solver."""
    solver, _, _, _, epsilon, budget = CASES[name]
    plane = demand_plane(graph, name)
    seeds = seed_plane(graph, approximator, name)
    return [
        SOLVERS[solver](
            graph,
            approximator,
            plane[q],
            epsilon,
            max_iterations=budget,
            parallel=parallel,
            workspace=workspace,
            initial_flow=None if seeds is None else seeds[q],
        )
        for q in range(plane.shape[0])
    ]


def record(result) -> dict:
    """The fixture's view of one column."""
    return {
        "iterations": int(result.iterations),
        "scalings": int(result.scalings),
        "converged": bool(result.converged),
        "flow_l1": float(np.abs(result.flow).sum()),
        "residual_inf": float(np.abs(result.residual).max(initial=0.0)),
        "potential": float(result.potential),
        "delta": float(result.delta),
    }


def assert_matches(name: str, results, expected: list[dict]) -> None:
    assert len(results) == len(expected), name
    for q, (result, want) in enumerate(zip(results, expected)):
        have = record(result)
        label = f"{name}[{q}]"
        for key in ("iterations", "scalings", "converged"):
            assert have[key] == want[key], f"{label}.{key}"
        for key in ("flow_l1", "residual_inf", "potential", "delta"):
            assert have[key] == pytest.approx(want[key], rel=RTOL, abs=0.0), (
                f"{label}.{key}"
            )


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def medium():
    return instance()


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_matches_fixture(medium, golden, name):
    graph, approximator = medium
    assert_matches(name, solve_case(graph, approximator, name), golden[name])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_backend_sweep_matches_fixture(medium, golden, workers, backend):
    graph, approximator = medium
    config = forced(workers, backend)
    for name in SWEEP_CASES:
        results = solve_case(graph, approximator, name, parallel=config)
        assert_matches(name, results, golden[name])


def test_shared_workspace_matches_fixture(medium, golden):
    """One workspace reused across every column of two planes."""
    graph, approximator = medium
    workspace = RouteWorkspace(graph, approximator)
    for name in ("plain_reuse_a", "plain_reuse_b"):
        results = solve_case(graph, approximator, name, workspace=workspace)
        assert_matches(name, results, golden[name])


def test_zero_seed_equals_cold_start(medium):
    graph, approximator = medium
    for name in ("plain_warm", "accelerated_warm"):
        solver, _, _, _, epsilon, _ = CASES[name]
        demand = demand_plane(graph, name)[1]
        warm = solve_case(graph, approximator, name)[1]
        cold = SOLVERS[solver](graph, approximator, demand, epsilon)
        assert np.array_equal(cold.flow, warm.flow)
        assert cold.iterations == warm.iterations


def write_fixture(path: Path = FIXTURE) -> None:
    graph, approximator = instance()
    data = {
        name: [record(r) for r in solve_case(graph, approximator, name)]
        for name in sorted(CASES)
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_fixture()
    print(f"wrote {FIXTURE}")
