"""The benchmark's checks have teeth, and its tracing leaves no trace.

Small graphs only; the whole file runs in a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.almost_route import almost_route
from repro.core.approximator import (
    StackedTreeOperator,
    TreeOperator,
    build_congestion_approximator,
)
from repro.core.maxflow import max_flow
from repro.flow.dinic import dinic_max_flow
from repro.graphs.generators import random_connected
from repro.graphs.graph import Graph
from repro.serve.server import FlowServer

import checks
import run
import spans
from workloads import Op, demand_plane, distinct_cut_share

EPSILON = 0.25


@pytest.fixture(scope="module")
def routed():
    graph = random_connected(40, 0.1, rng=7)
    approximator = build_congestion_approximator(graph, rng=8)
    demand = demand_plane(np.random.default_rng(9), 1, graph.num_nodes)[0]
    result = almost_route(graph, approximator, demand, EPSILON)
    return graph, approximator, demand, result


def test_correct_almost_route_answer_passes(routed):
    graph, approximator, demand, result = routed
    problems, ratio = checks.almost_route_problems(
        graph, approximator, demand, result, EPSILON
    )
    assert problems == []
    assert 1.0 <= ratio <= (1 + EPSILON) * approximator.alpha


def test_perturbed_flow_fails(routed):
    graph, approximator, demand, result = routed
    flow = result.flow.copy()
    flow[0] += 1e-3 * max(1.0, abs(flow[0]))
    bad = dataclasses.replace(result, flow=flow)
    problems, _ = checks.almost_route_problems(graph, approximator, demand, bad, EPSILON)
    assert any("conservation" in p for p in problems)


def test_unconverged_answer_fails(routed):
    graph, approximator, demand, result = routed
    bad = dataclasses.replace(result, converged=False)
    problems, _ = checks.almost_route_problems(graph, approximator, demand, bad, EPSILON)
    assert any("converged" in p for p in problems)


def test_identity_check_sees_one_ulp(routed):
    result = routed[3]
    assert checks.identical(result, dataclasses.replace(result, flow=result.flow.copy()))
    flow = result.flow.copy()
    flow[-1] = np.nextafter(flow[-1], np.inf)
    assert not checks.identical(result, dataclasses.replace(result, flow=flow))


def test_max_flow_checks_catch_an_inflated_value():
    graph = random_connected(30, 0.15, rng=3)
    approximator = build_congestion_approximator(graph, rng=4)
    result = max_flow(graph, 0, 29, epsilon=EPSILON, approximator=approximator)
    exact = dinic_max_flow(graph, 0, 29).value
    assert checks.max_flow_problems("g", graph, result, exact) == []
    inflated = dataclasses.replace(result, value=exact * 1.5)
    assert checks.max_flow_problems("g", graph, inflated, exact)


class _FailingWorkload:
    """Two operations per block; the second answer fails its check."""

    def block(self, index):
        return [Op("single", 1, None), Op("single", 1, "bad")]

    def run(self, op):
        return op.payload

    def check(self, op, answer):
        return ["perturbed"] if answer == "bad" else []


def test_failed_answer_counts_and_exits_nonzero(capsys):
    tally = run.run_blocks(_FailingWorkload(), blocks=3)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert run.finish(tally, {}) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_trace_install_records_and_restores():
    originals = (
        StackedTreeOperator.apply,
        TreeOperator.apply,
        Graph.excess,
        FlowServer.route,
        dict(spans.server_mod._SOLVERS),
        spans.maxflow_mod.almost_route,
    )
    graph = random_connected(24, 0.2, rng=5)
    approximator = build_congestion_approximator(graph, rng=6)
    demand = demand_plane(np.random.default_rng(1), 1, graph.num_nodes)[0]
    trace = spans.LayerTrace()
    trace.install()
    try:
        trace.active = True
        FlowServer(graph, approximator, epsilon=EPSILON).route(demand)
        trace.active = False
    finally:
        trace.uninstall()
    after = (
        StackedTreeOperator.apply,
        TreeOperator.apply,
        Graph.excess,
        FlowServer.route,
        dict(spans.server_mod._SOLVERS),
        spans.maxflow_mod.almost_route,
    )
    assert after == originals
    assert trace.missing == []
    totals = trace.totals()
    assert totals["serve.route"][0] == 1
    assert totals["solver"][0] == 1
    (columns, iterations, converged), = trace.notes_of("solver")
    assert columns == converged == 1 and iterations > 0
    assert totals["softmax"][0] >= 2 * iterations
    # The solver span contains the softmax spans, so its self time is less.
    assert 0 <= totals["solver"][2] < totals["solver"][1]
    assert trace.count_within("softmax", "serve.route") == totals["softmax"][0]


def test_distinct_cut_share_is_a_share():
    graph = random_connected(32, 0.1, rng=2)
    approximator = build_congestion_approximator(graph, rng=3)
    share = distinct_cut_share([approximator])
    assert 0 < share <= 1
    # Two copies of the same trees add rows but no new cuts.
    doubled = dataclasses.replace(
        approximator, operators=approximator.operators * 2
    )
    assert distinct_cut_share([doubled]) == pytest.approx(share / 2)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_n1024",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
