"""Answer checks, built only from the library's public functions.

Every check runs outside the timed region and returns the list of
problems it found (empty when the answer is correct), so a caller can
count a failed answer against ``fail_ratio`` without raising.
"""

from __future__ import annotations

import numpy as np

from repro.core.approximator import TreeCongestionApproximator
from repro.core.almost_route import AlmostRouteResult
from repro.core.maxflow import ApproxMaxFlow
from repro.errors import InvariantViolation
from repro.graphs.graph import Graph
from repro.scenarios.invariants import (
    check_congestion_soundness,
    check_conservation,
    check_maxflow_vs_exact,
)

#: Relative tolerance of the AlmostRoute conservation identity.
CONSERVATION_TOL = 1e-9


def congestion_ratio(
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demand: np.ndarray,
    result: AlmostRouteResult,
) -> float:
    """(‖C⁻¹f‖∞ + 2α‖R·r‖∞) ÷ ‖Rb‖∞ of one AlmostRoute answer, where r
    is its unrouted residual: the potential's bound on the answer's
    congestion, as a multiple of the approximator's lower bound."""
    alpha = max(1.0, float(approximator.alpha))
    lower = approximator.estimate(demand)
    if lower <= 0.0:
        return 1.0
    congestion = float(graph.congestion(result.flow).max(initial=0.0))
    return (congestion + 2.0 * alpha * approximator.estimate(result.residual)) / lower


def almost_route_problems(
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demand: np.ndarray,
    result: AlmostRouteResult,
    epsilon: float,
) -> tuple[list[str], float]:
    """Check one AlmostRoute answer: conservation
    ``residual == demand + excess(flow)``, ``converged``, and the
    congestion ratio against its ``(1+ε)·α`` limit.

    Returns:
        The problems found and the answer's congestion ratio.
    """
    problems = []
    flow = np.asarray(result.flow, dtype=float)
    expected = demand + graph.excess(flow)
    scale = max(1.0, float(np.abs(demand).max()), float(np.abs(flow).max()))
    gap = float(np.abs(result.residual - expected).max())
    if not np.isfinite(gap) or gap > CONSERVATION_TOL * scale:
        problems.append(f"conservation: residual off by {gap:.3g}")
    if not result.converged:
        problems.append(f"not converged after {result.iterations} iterations")
    ratio = congestion_ratio(graph, approximator, demand, result)
    limit = (1.0 + epsilon) * max(1.0, float(approximator.alpha))
    if not ratio <= limit:
        problems.append(f"congestion ratio {ratio:.4g} above (1+eps)*alpha = {limit:.4g}")
    return problems, ratio


def identical(served: AlmostRouteResult, one_shot: AlmostRouteResult) -> bool:
    """Whether a served answer is bit-identical to the one-shot call."""
    return (
        np.array_equal(served.flow, one_shot.flow)
        and np.array_equal(served.residual, one_shot.residual)
        and served.iterations == one_shot.iterations
        and served.converged == one_shot.converged
    )


def max_flow_problems(
    name: str, graph: Graph, result: ApproxMaxFlow, exact_value: float
) -> list[str]:
    """The scenario invariants for one max-flow answer: conservation of
    the routed unit demand, soundness of the cut lower bound, and the
    value against the exact Dinic optimum."""
    checks = (
        lambda: check_conservation(name, graph, result.congestion_result),
        lambda: check_congestion_soundness(name, result.congestion_result),
        lambda: check_maxflow_vs_exact(name, result, exact_value),
    )
    problems = []
    for check in checks:
        try:
            check()
        except InvariantViolation as exc:
            problems.append(str(exc))
    return problems
