"""The benchmark's three workloads, each a closed loop with one client.

A workload builds its inputs from the seed (untimed), builds its served
state in :meth:`setup` (timed as ``setup_s``), warms up, and then hands
the runner its operations block by block. A block is a fixed mix of
operations in seeded order, so every whole block does the same kind of
work and the runner can stop at a block boundary. :meth:`check`
verifies each answer outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

import repro.core.approximator as approximator_mod
import repro.core.maxflow as maxflow_mod
from repro.core.accelerated import accelerated_almost_route
from repro.core.almost_route import almost_route
from repro.flow.dinic import dinic_max_flow
from repro.graphs.generators import random_connected
from repro.scenarios import CORPUS_SEED, resolve_topology, scenario_seed
from repro.serve.server import FlowServer, ServerStats

from checks import almost_route_problems, identical, max_flow_problems


@dataclass
class Op:
    """One client operation.

    Attributes:
        kind: What the client sends (``single``, ``repeat``, ``batch``,
            ``max_flow``, ``cycle`` or ``structural``).
        demands: Demand vectors the operation answers.
        payload: The operation's input.
        verify: Answer column to compare bit for bit against the
            one-shot solver call, or -1 for none.
    """

    kind: str
    demands: int
    payload: Any
    verify: int = -1


def demand_plane(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` dense zero-sum demand vectors (Gaussian, centred)."""
    plane = rng.normal(size=(count, n))
    plane -= plane.mean(axis=1, keepdims=True)
    return plane


def distinct_cut_share(approximators: list) -> float:
    """Share of R's rows that are distinct cuts.

    A row is the cut around one subtree of one tree, so two rows repeat
    a cut when their vertex sets are equal up to complement. Each
    vertex set is hashed as a sum of random 64-bit vertex weights
    (prefix sums over the tree's Euler order) and the two hashes of a
    set and its complement are folded into one key.
    """
    rows = distinct = 0
    for approximator in approximators:
        n = approximator.graph.num_nodes
        weights = np.random.default_rng(0).integers(
            0, 2**63, size=n, dtype=np.uint64
        )
        total = weights.sum(dtype=np.uint64)
        keys = set()
        for op in approximator.operators:
            tree = op.tree
            prefix = np.zeros(n + 1, dtype=np.uint64)
            np.cumsum(weights[tree.euler_order], dtype=np.uint64, out=prefix[1:])
            inside = prefix[tree.euler_tout[op.row_nodes]] - prefix[tree.euler_tin[op.row_nodes]]
            keys.update(np.minimum(inside, total - inside).tolist())
            rows += op.num_rows
        distinct += len(keys)
    return distinct / max(1, rows)


class Workload:
    """Shared bookkeeping: answer quality and the stream's properties."""

    name = ""
    why = ""
    epsilon = 0.25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.congestion_ratio_max = 0.0
        self.flow_value_ratio_max = 0.0
        self.identity_checks = 0
        self.unconverged_solves = 0
        self.answer_iterations = 0
        self.repeated_demands = 0
        self.requested_demands = 0

    def block_rng(self, index: int) -> np.random.Generator:
        """Block ``index``'s stream, disjoint from ``(seed, 0)``, which
        draws inputs before set-up."""
        return np.random.default_rng((self.seed, 1, index))

    def graphs(self) -> list:
        raise NotImplementedError

    def approximators(self) -> list:
        raise NotImplementedError

    def server_stats(self) -> ServerStats | None:
        return None

    def properties(self) -> dict[str, float]:
        """Workload properties a later claim can name."""
        graphs = self.graphs()
        return {
            "distinct_cut_share": distinct_cut_share(self.approximators()),
            "per_tree_graph_share": sum(g.is_tiny() for g in graphs) / len(graphs),
            "repeat_share": self.repeated_demands / max(1, self.requested_demands),
        }

    def _note_request(self, op: Op, repeated: bool) -> None:
        self.requested_demands += op.demands
        self.repeated_demands += op.demands if repeated else 0

    def _check_routes(
        self, server: FlowServer, plane: np.ndarray, answers: list, op: Op, one_shot
    ) -> list[str]:
        """Check every AlmostRoute answer of ``op``; compare the sampled
        column with the one-shot ``one_shot`` solver."""
        problems = []
        for demand, result in zip(plane, answers):
            self.answer_iterations += result.iterations
            found, ratio = almost_route_problems(
                server.graph, server.approximator, demand, result, self.epsilon
            )
            problems += found
            self.congestion_ratio_max = max(self.congestion_ratio_max, ratio)
        if op.verify >= 0:
            reference = one_shot(
                server.graph, server.approximator, plane[op.verify], self.epsilon
            )
            self.identity_checks += 1
            if not identical(answers[op.verify], reference):
                problems.append(f"{op.kind}: served answer differs from one-shot call")
        return problems


class ServeN1024(Workload):
    """A warm accelerated ``FlowServer`` answering a mixed request stream."""

    name = "serve_n1024"
    why = ("FlowServer(accelerated) on random n=1024 (R: 10230 rows, 31% distinct "
           "cuts): loads serve cache+batching, stacked, softmax; idles tree_apply, "
           "refresh, journal")
    #: The graph and approximator of the existing batch-throughput row.
    GRAPH = (1024, 0.012, 940)
    BUILD_SEED = 941
    #: Seeds the fresh demands of each block (with the block's index).
    POOL_SEED = 945
    POPULAR = 6
    BATCH_COLUMNS = 8
    #: One block: fresh singles, repeats of the popular set, batches.
    MIX = ("single",) * 13 + ("repeat",) * 6 + ("batch",)
    SINGLES = MIX.count("single")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        n, p, graph_seed = self.GRAPH
        self.graph = random_connected(n, p, rng=graph_seed)
        rng = np.random.default_rng((seed, 0))
        self.popular = demand_plane(rng, self.POPULAR, n)
        self.warm = demand_plane(rng, 3, n)

    def setup(self) -> None:
        self.server = FlowServer(
            self.graph, solver="accelerated", epsilon=self.epsilon,
            rng=self.BUILD_SEED,
        )
        self.server.approximator.stacked()

    def warm_up(self) -> None:
        # Caches the popular set and warms the single and batch workspaces.
        self.server.route_batch(np.vstack([self.popular, self.warm[:2]]))
        self.server.route(self.warm[2])

    def block(self, index: int) -> list[Op]:
        # Block i's fresh demands are the same in every run, so runs
        # differ in order, not in work: the cost of a fresh demand
        # varies with the demand more than a run's few batches average
        # out. The run's seed orders the block and picks the repeats.
        rng = self.block_rng(index)
        kinds = list(self.MIX)
        rng.shuffle(kinds)
        n = self.graph.num_nodes
        fresh = demand_plane(
            np.random.default_rng((self.POOL_SEED, index)),
            self.SINGLES + self.BATCH_COLUMNS, n,
        )
        singles = iter(fresh[: self.SINGLES])
        ops = []
        for kind in kinds:
            if kind == "batch":
                plane = fresh[self.SINGLES:]
            elif kind == "repeat":
                plane = self.popular[rng.integers(self.POPULAR)][None, :]
            else:
                plane = next(singles)[None, :]
            ops.append(Op(kind, len(plane), plane))
        sampled = ops[rng.integers(len(ops))]
        sampled.verify = int(rng.integers(sampled.demands))
        return ops

    def run(self, op: Op) -> list:
        if op.kind == "batch":
            return self.server.route_batch(op.payload)
        return [self.server.route(op.payload[0])]

    def check(self, op: Op, answers: list) -> list[str]:
        self._note_request(op, op.kind == "repeat")
        return self._check_routes(
            self.server, op.payload, answers, op, accelerated_almost_route
        )

    def graphs(self) -> list:
        return [self.graph]

    def approximators(self) -> list:
        return [self.server.approximator]

    def server_stats(self) -> ServerStats:
        return self.server.stats()


class MaxflowSmall(Workload):
    """Theorem 1.1 ``max_flow`` over a fixed pool of s-t pairs on four
    corpus topologies, one approximator per topology."""

    name = "maxflow_small"
    why = ("max_flow eps=0.25 on torus_9x9 (per-tree path), grid_12x12, power_law_160, "
           "planted_60: loads solver loop, residual rounds, fix-up, excess; idles "
           "serve, refresh, journal")
    TOPOLOGIES = ("torus_9x9", "grid_12x12", "power_law_160", "planted_60")
    PAIRS_PER_TOPOLOGY = 1
    #: Gradient budget of the warm-up solves (they only touch every code path).
    WARM_UP_ITERATIONS = 50

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.topologies = [
            (name, resolve_topology(name).build(CORPUS_SEED).graph)
            for name in self.TOPOLOGIES
        ]
        # The pair pool is drawn once from the corpus seed, so every
        # run does the same work; the run's seed orders the stream.
        self.pairs = []
        for index, (name, graph) in enumerate(self.topologies):
            rng = np.random.default_rng(scenario_seed(CORPUS_SEED, "perfbench", name))
            for _ in range(self.PAIRS_PER_TOPOLOGY):
                s, t = rng.choice(graph.num_nodes, size=2, replace=False)
                self.pairs.append((index, int(s), int(t)))
        self._exact: dict[tuple[int, int, int], float] = {}

    def setup(self) -> None:
        self.built = []
        for name, graph in self.topologies:
            approximator = approximator_mod.build_congestion_approximator(
                graph, rng=scenario_seed(CORPUS_SEED, "approximator", name)
            )
            approximator.stacked()
            self.built.append(approximator)

    def warm_up(self) -> None:
        for index, s, t in self.pairs[:: self.PAIRS_PER_TOPOLOGY]:
            maxflow_mod.max_flow(
                self.topologies[index][1], s, t, epsilon=self.epsilon,
                approximator=self.built[index],
                max_iterations=self.WARM_UP_ITERATIONS,
            )

    def block(self, index: int) -> list[Op]:
        order = self.block_rng(index).permutation(len(self.pairs))
        return [Op("max_flow", 1, self.pairs[k]) for k in order]

    def run(self, op: Op) -> Any:
        index, s, t = op.payload
        return maxflow_mod.max_flow(
            self.topologies[index][1], s, t, epsilon=self.epsilon,
            approximator=self.built[index],
        )

    def check(self, op: Op, result: Any) -> list[str]:
        self._note_request(op, op.payload in self._exact)
        index, s, t = op.payload
        name, graph = self.topologies[index]
        if op.payload not in self._exact:
            self._exact[op.payload] = dinic_max_flow(graph, s, t).value
        exact = self._exact[op.payload]
        routed = result.congestion_result
        self.answer_iterations += routed.iterations
        self.unconverged_solves += not routed.converged
        self.congestion_ratio_max = max(
            self.congestion_ratio_max, routed.approximation_ratio_bound
        )
        self.flow_value_ratio_max = max(self.flow_value_ratio_max, exact / result.value)
        return max_flow_problems(f"{name}:{s}-{t}", graph, result, exact)

    def graphs(self) -> list:
        return [graph for _, graph in self.topologies]

    def approximators(self) -> list:
        return self.built


class DynamicN512(Workload):
    """A standing demand set re-routed after every small capacity write."""

    name = "dynamic_n512"
    why = ("FlowServer(refresh=incremental) n=512, 8 standing demands re-routed after "
           "~1% capacity writes (1 in 21 is add_edge): loads journal, scoped refresh, warm "
           "starts; idles tree_apply, cache hits")
    #: The graph and approximator of the existing update-latency row.
    GRAPH = (512, 0.025, 942)
    BUILD_SEED = 943
    STANDING = 8
    STANDING_SEED = 944
    WRITE_FRACTION = 0.01
    DEGRADE = 0.9
    #: One block: incremental cycles (degrade, restore, ...) around one
    #: structural cycle in the middle (1 in 21 cycles, under 5%).
    CYCLES = 21
    STRUCTURAL_AT = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        n, p, graph_seed = self.GRAPH
        self.graph = random_connected(n, p, rng=graph_seed)
        # The standing set is part of the served state, like the graph:
        # the run's seed draws the stream of writes against it.
        self.standing = demand_plane(
            np.random.default_rng(self.STANDING_SEED), self.STANDING, n
        )
        self._restore: list[tuple[int, float]] = []
        self.written_edges = 0
        self.incremental_cycles = 0

    def setup(self) -> None:
        self.server = FlowServer(
            self.graph, epsilon=self.epsilon, rng=self.BUILD_SEED,
            refresh="incremental",
        )
        self.server.approximator.stacked()

    def warm_up(self) -> None:
        self.server.route_batch(self.standing)

    def block(self, index: int) -> list[Op]:
        rng = self.block_rng(index)
        ops = []
        for cycle in range(self.CYCLES):
            seed = int(rng.integers(2**32))
            if cycle == self.STRUCTURAL_AT:
                ops.append(Op("structural", self.STANDING, seed,
                              int(rng.integers(self.STANDING))))
            else:
                ops.append(Op("cycle", self.STANDING, seed))
        return ops

    def _write(self, op: Op) -> None:
        graph = self.graph
        rng = np.random.default_rng(op.payload)
        if op.kind == "structural":
            u, v = rng.choice(graph.num_nodes, size=2, replace=False)
            graph.add_edge(int(u), int(v), float(rng.integers(1, 101)))
        elif self._restore:
            for eid, capacity in self._restore:
                graph.set_capacity(eid, capacity)
            self.written_edges += len(self._restore)
            self._restore = []
        else:
            count = max(1, round(self.WRITE_FRACTION * graph.num_edges))
            for eid in rng.choice(graph.num_edges, size=count, replace=False).tolist():
                self._restore.append((eid, graph.capacity(eid)))
                graph.set_capacity(eid, graph.capacity(eid) * self.DEGRADE)
            self.written_edges += count

    def run(self, op: Op) -> list:
        self._write(op)
        return self.server.route_batch(self.standing)

    def check(self, op: Op, answers: list) -> list[str]:
        self._note_request(op, True)
        if op.kind == "cycle":
            self.incremental_cycles += 1
        return self._check_routes(self.server, self.standing, answers, op, almost_route)

    def properties(self) -> dict[str, float]:
        return {
            **super().properties(),
            "delta_edges_per_cycle": self.written_edges / max(1, self.incremental_cycles),
        }

    def graphs(self) -> list:
        return [self.graph]

    def approximators(self) -> list:
        return [self.server.approximator]

    def server_stats(self) -> ServerStats:
        return self.server.stats()


WORKLOADS = {cls.name: cls for cls in (ServeN1024, MaxflowSmall, DynamicN512)}
