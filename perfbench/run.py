"""Real-clock benchmark of the build-once / route-many pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_n1024 --seed 1 --seconds 30 --trace 0

Workloads: ``serve_n1024``, ``maxflow_small`` and ``dynamic_n512`` (see
``perfbench/README.md``). Each run is one process, on the serial backend,
with one closed-loop client.

``--trace 0`` builds the served state several times (``setup_s`` is the
median), warms up, then runs the number of whole blocks of operations
whose time inside operations comes nearest ``--seconds``, and prints
the end-to-end metrics. ``--trace 1`` runs one block untraced and the
same block again with wrappers around every layer's entry points, and
prints the per-layer ledger; its spans are written to ``.perfbench/``
at exit.

End-to-end timings are scaled to a reference host by a probe kernel
timed next to them (``perfbench/hostspeed.py``), so the host's load
does not move them; the wall-clock readings are printed beside them.

Every answer is checked outside the timed region. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any
answer failed its check, and 2 when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Builds of the served state per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Host-speed probes before each build and after the last.
SETUP_PROBES = 3
#: Operation time per host-speed probe taken after an operation.
PROBE_EVERY_S = 0.25
#: Operations needed before ``op_p90_ms`` is reported (ten beyond it).
P90_MIN_OPS = 100


@dataclass
class Tally:
    """Operations of one timed phase."""

    latencies: list[float] = field(default_factory=list)
    demands: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def run_blocks(
    workload, *, seconds: float = 0.0, blocks: int = 0, trace=None, speed=None
) -> Tally:
    """Run whole blocks of operations: ``blocks`` of them, or as many as
    bring the time spent inside operations nearest to ``seconds`` (at
    least one). Only the operations are timed; each answer is checked
    after its operation returns. ``speed`` (a ``HostSpeed``) is sampled
    after each operation, outside its timing, once per ``PROBE_EVERY_S``
    of the operation's time (at least once), so its samples weigh the
    host's speed over the run as the operations' times do."""
    tally = Tally()
    index = 0

    def more() -> bool:
        if blocks:
            return index < blocks
        # Another block only if it ends nearer the target than stopping.
        return index == 0 or tally.busy + tally.busy / index / 2 < seconds

    while more():
        for op in workload.block(index):
            tally.attempted += 1
            start = perf_counter()
            try:
                answer = workload.run(op)
            except Exception as exc:  # a raising operation is a failed operation
                tally.latencies.append(perf_counter() - start)
                tally.fail(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            tally.latencies.append(perf_counter() - start)
            if speed:
                speed.sample(max(1, round(tally.latencies[-1] / PROBE_EVERY_S)))
            tally.demands += op.demands
            with trace.paused() if trace else nullcontext():
                problems = workload.check(op, answer)
            if problems:
                tally.fail(f"{op.kind}: " + "; ".join(problems))
        index += 1
    return tally


def percentile_ms(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3


def end_to_end(cls, seed: int, seconds: float) -> tuple[Tally, dict]:
    """The untimed-input, timed-setup, warm, timed-blocks run. Timings
    are reported on the reference host (see ``perfbench/hostspeed.py``),
    each phase scaled by the probe's samples next to it."""
    from hostspeed import HostSpeed

    workload = cls(seed)
    setups, setup_speed = [], HostSpeed()
    for _ in range(SETUP_REPEATS):
        setup_speed.sample(SETUP_PROBES)
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    setup_speed.sample(SETUP_PROBES)
    workload.warm_up()
    speed = HostSpeed()
    tally = run_blocks(workload, seconds=seconds, speed=speed)
    ops = len(tally.latencies)
    slowdown = speed.slowdown()
    metrics = {
        "setup_s": (median(setups) / setup_speed.slowdown(), "s"),
        "demands_per_s": (tally.demands / (tally.busy / slowdown), "1/s"),
        "op_p50_ms": (median(tally.latencies) / slowdown * 1e3, "ms"),
        "congestion_ratio_max": (workload.congestion_ratio_max, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    printed = {
        **metrics,
        "fail_ratio": (tally.failed / tally.attempted, "ratio"),
        "ops": (ops, "count"),
        "op_seconds": (tally.busy, "s"),
        "setup_wall_s": (median(setups), "s"),
        "demands_per_wall_s": (tally.demands / tally.busy, "1/s"),
        "op_p50_wall_ms": (median(tally.latencies) * 1e3, "ms"),
        "host_slowdown": (slowdown, "ratio"),
        "host_slowdown_setup": (setup_speed.slowdown(), "ratio"),
    }
    if ops >= P90_MIN_OPS:
        printed["op_p90_ms"] = (percentile_ms(tally.latencies, 0.9) / slowdown, "ms")
    if workload.flow_value_ratio_max:
        printed["flow_value_ratio_max"] = (workload.flow_value_ratio_max, "ratio")
    printed["identity_checks"] = (workload.identity_checks, "count")
    printed["answer_iterations"] = (workload.answer_iterations, "count")
    printed["unconverged_solves"] = (workload.unconverged_solves, "count")
    for key, value in workload.properties().items():
        printed[f"workload.{key}"] = (value, "ratio" if "share" in key else "count")
    report(cls.name, printed)
    if ops < P90_MIN_OPS:
        print(f"{cls.name}  op_p90_ms  not reported: {ops} ops < {P90_MIN_OPS}")
    if not workload.flow_value_ratio_max:
        print(f"{cls.name}  flow_value_ratio_max  not reported: no max_flow answers")
    return tally, metrics


def layer_ledger(cls, seed: int, out_dir: Path) -> tuple[Tally, dict]:
    """One block untraced, then the same block traced; the ledger."""
    from spans import LAYERS, LayerTrace

    plain = cls(seed)
    plain.setup()
    plain.warm_up()
    untraced = run_blocks(plain, blocks=1)
    del plain

    workload = cls(seed)
    trace = LayerTrace()
    trace.install()
    try:
        trace.active = True
        workload.setup()
        trace.active = False
        workload.warm_up()
        before = workload.server_stats()
        trace.active = True
        traced = run_blocks(workload, blocks=1, trace=trace)
        trace.active = False
    finally:
        trace.uninstall()
    after = workload.server_stats()

    totals = trace.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def busy(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    solves = trace.notes_of("solver")
    columns = sum(note[0] for note in solves)
    iterations = sum(note[1] for note in solves)
    converged = sum(note[2] for note in solves)
    deltas = [d for d in trace.notes_of("graphs.journal.deltas_since") if d >= 0]
    served = {"hits": 0, "misses": 0, "batched_columns": 0, "warm_starts": 0,
              "incremental_refreshes": 0, "rebuilds": 0}
    if before is not None:
        for key in ("batched_columns", "warm_starts", "incremental_refreshes", "rebuilds"):
            served[key] = getattr(after, key) - getattr(before, key)
        served["hits"] = after.cache.hits - before.cache.hits
        served["misses"] = after.cache.misses - before.cache.misses
    properties = workload.properties()
    rows = sum(a.num_rows for a in workload.approximators())
    metrics = {
        "solver.iterations": (iterations, "count"),
        "solver.calls": (calls("solver"), "count"),
        "solver.converged_ratio": (ratio(converged, columns), "ratio"),
        "solver.busy_s": (busy("solver"), "s"),
        "solver.us_per_iteration": (ratio(busy("solver") * 1e6, iterations), "us"),
        "solver.batch_columns_mean": (ratio(columns, calls("solver")), "count"),
        "softmax.calls": (calls("softmax"), "count"),
        "softmax.busy_s": (busy("softmax"), "s"),
        "stacked.apply_calls": (calls("stacked.apply") + calls("stacked.apply_transpose"), "count"),
        "stacked.apply_s": (busy("stacked.apply"), "s"),
        "stacked.apply_transpose_s": (busy("stacked.apply_transpose"), "s"),
        "stacked.rows": (rows, "count"),
        "stacked.distinct_cut_share": (properties["distinct_cut_share"], "ratio"),
        "approximator.tree_apply_calls": (calls("approximator.tree_apply"), "count"),
        "maxflow.almost_route_calls_per_solve": (
            ratio(trace.count_within("solver", "maxflow.max_flow"), calls("maxflow.max_flow")),
            "count",
        ),
        "maxflow.fixup_s": (busy("maxflow.fixup"), "s"),
        "serve.cache_hit_ratio": (ratio(served["hits"], served["hits"] + served["misses"]), "ratio"),
        "serve.batched_columns": (served["batched_columns"], "count"),
        "serve.warm_start_ratio": (ratio(served["warm_starts"], served["misses"]), "ratio"),
        "serve.incremental_refreshes": (served["incremental_refreshes"], "count"),
        "serve.rebuilds": (served["rebuilds"], "count"),
        "approximator.refresh_s": (busy("approximator.refresh"), "s"),
        "approximator.refresh_calls": (calls("approximator.refresh"), "count"),
        "approximator.trees_resampled": (sum(trace.notes_of("approximator.refresh")), "count"),
        "graphs.set_capacity_calls": (calls("graphs.set_capacity"), "count"),
        "graphs.journal.deltas_since_s": (busy("graphs.journal.deltas_since"), "s"),
        "graphs.journal.delta_edges_mean": (ratio(sum(deltas), len(deltas)), "count"),
        "approximator.build_s": (busy("approximator.build"), "s"),
        "approximator.alpha_s": (busy("approximator.alpha"), "s"),
        "jtree.sample_s": (busy("jtree.sample"), "s"),
        "jtree.mwu_s": (busy("jtree.mwu"), "s"),
        "lsst.akpw_s": (busy("lsst.akpw"), "s"),
        "sparsify.s": (busy("sparsify"), "s"),
        "graphs.trees.cut_capacity_s": (busy("graphs.trees.cut_capacity"), "s"),
        "graphs.excess_calls": (calls("graphs.excess"), "count"),
        "graphs.excess_s": (busy("graphs.excess"), "s"),
    }
    for layer in LAYERS:
        own = sum(v[2] for k, v in totals.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (own, "s")
    metrics["workload.per_tree_graph_share"] = (properties["per_tree_graph_share"], "ratio")
    metrics["workload.repeat_share"] = (properties["repeat_share"], "ratio")
    metrics["trace.spans"] = (len(trace.start), "count")
    metrics["trace.overhead_ratio"] = (traced.busy / untraced.busy, "ratio")
    report(cls.name, metrics)
    for target in trace.missing:
        print(f"{cls.name}  trace target missing: {target}")
    trace.write(out_dir / f"spans-{cls.name}-seed{workload.seed}.npz")
    combined = Tally(
        untraced.latencies + traced.latencies,
        untraced.demands + traced.demands,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        untraced.problems + traced.problems,
    )
    return combined, metrics


def report(workload: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name}  {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_n1024", "maxflow_small", "dynamic_n512"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {source}", file=sys.stderr)
        return 2
    # Pin what is measured: serial kernels, no injected faults.
    os.environ["REPRO_WORKERS"] = "1"
    os.environ["REPRO_BACKEND"] = "serial"
    os.environ.pop("REPRO_FAULTS", None)
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.trace:
        tally, metrics = layer_ledger(cls, args.seed, ROOT / ".perfbench")
    else:
        tally, metrics = end_to_end(cls, args.seed, args.seconds)
    return finish(tally, metrics)


def finish(tally: Tally, metrics: dict) -> int:
    """Print the failures and the result line; the exit code."""
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
