"""E7 — apply-path benchmarks: flat stacked operator vs per-tree loop.

R·b and Rᵀ·g are the inner loop of the Sherman descent, so fusing the
per-tree blocks into one stacked pass must make the *products* (not
just the approximator build) faster, and the win must survive
end-to-end in ``almost_route``. The per-tree side is the
``TreeOperator`` block loop of ``tests/parallel_harness.py``'s
``PerTreeReference``, the reference the stacked operator is
golden-tested against. The rows recorded in
``BENCH_graphcore.json`` (``approximator_apply*``, ``almost_route_n*``)
are medians of exactly the measurements below; the CI gate
(``tools/bench_regression.py``) re-measures them against the checked-in
baselines.

A note on expectations: the issue targeted ≥3× for Rᵀ·g at n=1024 on
the premise that ``np.add.at`` is notoriously slow. On NumPy ≥ 2.x
``ufunc.at`` uses fast indexed loops, so the per-tree path's cost is
mostly per-tree Python/dispatch overhead rather than the scatter
itself; the measured flat-vs-per-tree ratio is therefore ~3× at n=256
(overhead-dominated) and ~1.7–2× at n=1024 (bandwidth-dominated, the
shared segmented-cumsum + scatter floor). The assertions below use
conservative thresholds so CI-runner noise cannot flake them; the
honest medians live in the JSON rows.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import (
    APPLY_BENCH_CONFIG,
    APPLY_BENCH_ROUTE_EPSILON,
    APPLY_BENCH_ROUTE_MAX_ITERATIONS,
    apply_bench_instance,
    _median_time,
)
from repro.core.almost_route import almost_route
from tests.parallel_harness import PerTreeReference


def _mode_medians(approx, fn, reps):
    """Median of ``fn(path)`` on the per-tree reference and on the
    approximator's stacked operator."""
    out = {}
    for mode, path in (("per_tree", PerTreeReference(approx)), ("flat", approx)):
        fn(path)  # warm (builds the stacked operator on first call)
        out[mode] = _median_time(lambda: fn(path), reps)
    return out


def test_e7_apply_products(benchmark):
    print("\nE7: R·b / Rᵀ·g medians, per-tree vs flat stacked")
    for n in APPLY_BENCH_CONFIG:
        _, _, _, _, op_reps, _ = APPLY_BENCH_CONFIG[n]
        g, approx, demand, row_values = apply_bench_instance(n)
        apply_t = _mode_medians(approx, lambda a: a.apply(demand), op_reps)
        transpose_t = _mode_medians(
            approx, lambda a: a.apply_transpose(row_values), op_reps
        )
        print(
            f"    n={n}: apply {apply_t['per_tree']:.3e}s -> "
            f"{apply_t['flat']:.3e}s ({apply_t['per_tree'] / apply_t['flat']:.2f}x), "
            f"transpose {transpose_t['per_tree']:.3e}s -> "
            f"{transpose_t['flat']:.3e}s "
            f"({transpose_t['per_tree'] / transpose_t['flat']:.2f}x)"
        )
        # The flat pass must beat the per-tree np.add.at path outright;
        # thresholds are conservative vs the recorded medians (see
        # module docstring) so shared-runner jitter cannot flake CI.
        assert apply_t["flat"] * 1.3 < apply_t["per_tree"]
        assert transpose_t["flat"] * 1.3 < transpose_t["per_tree"]
        # And both paths must agree bit-for-bit while we are here.
        reference = PerTreeReference(approx).apply_transpose(row_values)
        assert np.array_equal(reference, approx.apply_transpose(row_values))

    _, approx256, demand256, _ = apply_bench_instance(256)
    benchmark(lambda: approx256.apply(demand256))


def test_e7_almost_route_end_to_end(benchmark):
    print("\nE7b: almost_route medians, per-tree vs flat stacked")
    for n in APPLY_BENCH_CONFIG:
        _, _, _, _, _, route_reps = APPLY_BENCH_CONFIG[n]
        g, approx, demand, _ = apply_bench_instance(n)

        def solve(path):
            return almost_route(
                g,
                path,
                demand,
                APPLY_BENCH_ROUTE_EPSILON,
                max_iterations=APPLY_BENCH_ROUTE_MAX_ITERATIONS,
            )

        medians = _mode_medians(approx, solve, route_reps)
        ratio = medians["per_tree"] / medians["flat"]
        print(
            f"    n={n}: {medians['per_tree']:.3e}s -> "
            f"{medians['flat']:.3e}s ({ratio:.2f}x)"
        )
        # End-to-end must not regress vs the per-tree path. The real
        # margin is ~1.4-2.1x (BENCH rows); the 1.15 slack here only
        # absorbs shared-runner jitter so tier-1's -x cannot flake.
        assert medians["flat"] < medians["per_tree"] * 1.15
        # Identical iterates regardless of path (end-to-end golden).
        reference = solve(PerTreeReference(approx))
        flat = solve(approx)
        assert reference.iterations == flat.iterations
        assert np.array_equal(reference.flow, flat.flow)

    g, approx, demand, _ = apply_bench_instance(256)
    benchmark(
        lambda: almost_route(
            g,
            approx,
            demand,
            APPLY_BENCH_ROUTE_EPSILON,
            max_iterations=50,
        ).iterations
    )
