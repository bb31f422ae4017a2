"""FlowServer — build-once / serve-many routing over one graph.

The paper's target workload (and the ROADMAP north star) is one graph
serving many demand queries: the congestion approximator costs ~n·log n
tree samples to build but answers any demand, so amortizing one build
over a query stream changes the economics completely. The server owns

* a built :class:`~repro.core.approximator.TreeCongestionApproximator`,
* a warm :class:`~repro.serve.pool.WorkspacePool` of routing
  workspaces, and
* a version-keyed :class:`~repro.serve.cache.ResultCache`,

and serves single demands (:meth:`FlowServer.route`,
:meth:`FlowServer.route_st`) and stacked multi-demand requests
(:meth:`FlowServer.route_batch`).

Every cache miss — a single query or one column of a batch — is solved
by the same one-shot solver call (:meth:`FlowServer._serve_miss`), so
singles and batch columns share one cache namespace: a demand routed
inside a batch hits later as a single query and vice versa, and a batch
with partial hits routes only its missing columns. Solving column by
column also means a converged column costs nothing more while a slower
sibling finishes. Only converged results are cached; a result that
exhausted its iteration budget is returned with ``converged=False`` and
re-solved on the next request.

Mutation safety: every entry point first compares the graph's
cache-invalidation counter (``Graph._version``) against the epoch the
cache and approximator were built in. A moved version drops the cached
results exactly once and — under the default ``refresh="rebuild"``
policy — rebuilds the approximator from the stored seed and rebinds
the workspace pool. ``refresh="incremental"`` patches the
approximator's cut rows from the graph's capacity journal instead and
falls back to the rebuild after a structural mutation (``add_edge``)
or a journal overflow. No policy serves from stale cut capacities:
the ‖Rb‖∞ lower bound stays sound after every mutation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Literal, Sequence

import numpy as np

from repro.core.accelerated import accelerated_almost_route
from repro.core.almost_route import (
    AlmostRouteResult,
    RouteWorkspace,
    almost_route,
)
from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
)
from repro.errors import (
    DeadlineExceededError,
    GraphError,
    PoolFailureError,
    ServingError,
)
from repro.faults import fault_point
from repro.graphs.graph import Graph
from repro.graphs.journal import rescale_flow
from repro.parallel.config import ParallelConfig, resolve_config
from repro.parallel.pool import PoolStats, get_pool
from repro.serve.cache import CacheStats, ResultCache, demand_digest
from repro.serve.pool import WorkspacePool
from repro.util.validation import st_demand

__all__ = ["FlowServer", "ServerHealth", "ServerStats"]

#: solver name -> (one-shot solver,). Looked up at call time, so a
#: tracer may rewrite the entries in place.
_SOLVERS = {
    "plain": (almost_route,),
    "accelerated": (accelerated_almost_route,),
}


@dataclass
class ServerStats:
    """Serving counters plus a snapshot of the cache stats.

    ``incremental_refreshes`` counts epoch moves absorbed by the
    journal-driven scoped refresh (``refresh="incremental"``) instead
    of a full rebuild; ``warm_starts`` counts queries seeded from a
    salvaged previous-epoch flow instead of starting cold;
    ``unconverged`` counts solves that exhausted their iteration budget
    (returned with ``converged=False``, never cached).
    """

    single_queries: int = 0
    batch_queries: int = 0
    batched_columns: int = 0
    rebuilds: int = 0
    incremental_refreshes: int = 0
    warm_starts: int = 0
    unconverged: int = 0
    cache: CacheStats | None = None


@dataclass(frozen=True)
class ServerHealth:
    """Degradation and failure snapshot for one :class:`FlowServer`.

    Recovery is invisible in results by contract, so this snapshot is
    how operators see that the server has been absorbing failures.

    Attributes:
        workspace_fallbacks: Solves that ran on a per-call workspace
            because the warm-pool checkout failed.
        column_failures: Demands (single queries or batch columns) that
            ended as a :class:`~repro.errors.ServingError` (the
            error-isolation contract: one poisoned column never fails
            its batch).
        miss_retries: Cache-miss solves re-run once after a failure
            other than a pool loss.
        deadline_hits: Requests that exceeded their deadline.
        pool_failures: :class:`~repro.errors.PoolFailureError` events
            absorbed by the circuit-breaker machinery.
        breaker_trips: Backend degradations taken
            (process → thread → serial).
        consecutive_pool_failures: Current trip progress toward the
            next degradation.
        configured_backend: The backend the server was configured with.
        effective_backend: The backend requests currently run on.
        degraded: Whether the breaker has moved the server off its
            configured backend (see :meth:`FlowServer.reset_breaker`).
        last_error: ``repr``-style description of the most recent
            absorbed failure (``None`` when the server never failed).
        shard_pool: Stats of the shard pool serving the effective
            backend (``None`` for serial / single-worker execution).
        incremental_refreshes: Epoch moves absorbed by the
            journal-driven scoped refresh instead of a full rebuild
            (``refresh="incremental"`` only).
        warm_starts: Queries seeded from a salvaged previous-epoch
            flow instead of starting cold.
    """

    workspace_fallbacks: int
    column_failures: int
    miss_retries: int
    deadline_hits: int
    pool_failures: int
    breaker_trips: int
    consecutive_pool_failures: int
    configured_backend: str
    effective_backend: str
    degraded: bool
    last_error: str | None
    shard_pool: PoolStats | None
    incremental_refreshes: int = 0
    warm_starts: int = 0


class FlowServer:
    """Serve routing queries against one graph, building R once.

    Args:
        graph: The capacitated graph to serve.
        approximator: Optional prebuilt congestion approximator; built
            from ``rng`` when omitted.
        epsilon: Target AlmostRoute accuracy shared by all queries
            (part of every cache key).
        solver: ``"plain"`` (Algorithm 2) or ``"accelerated"``
            (momentum variant, footnote 3).
        max_iterations: Optional per-query gradient budget override.
        cache_capacity: LRU capacity of the result cache (``0``
            disables caching).
        parallel: Optional sharded-execution config for the operator
            products (results are bit-identical either way).
        rng: Seed used to build — and, after a mutation, re-build or
            re-sample — the approximator.
        refresh: Mutation policy: ``"rebuild"`` (default) reconstructs
            the approximator from ``rng`` when the graph version moves;
            ``"incremental"`` consumes the graph's epoch delta journal:
            for capacity-only deltas the approximator's cut rows are
            refreshed in place (journal-intersecting trees resampled),
            salvaged same-digest cache entries become warm-start seeds
            for their next query, and the full rebuild is reserved for
            structural mutations or journal overflow. Warm-started
            results satisfy the same ``(1+ε)·α`` guarantee and
            cross-backend bit-identity as cold ones.
        deadline: Per-request wall-clock budget in seconds (``None``
            disables it). Checked cooperatively before each demand's
            solve — an in-flight solve completes before the deadline is
            observed — and raises
            :class:`~repro.errors.DeadlineExceededError`.
        breaker_threshold: Consecutive pool losses tolerated before
            the circuit-breaker degrades the execution backend one
            step (process → thread → serial); results stay
            bit-identical by the determinism contract, so degradation
            trades throughput for availability, never correctness.
    """

    def __init__(
        self,
        graph: Graph,
        approximator: TreeCongestionApproximator | None = None,
        *,
        epsilon: float = 0.1,
        solver: Literal["plain", "accelerated"] = "plain",
        max_iterations: int | None = None,
        cache_capacity: int = 1024,
        parallel: ParallelConfig | None = None,
        rng: np.random.Generator | int | None = 0,
        refresh: Literal["rebuild", "incremental"] = "rebuild",
        deadline: float | None = None,
        breaker_threshold: int = 3,
    ) -> None:
        if solver not in _SOLVERS:
            raise GraphError(
                f"solver must be one of {sorted(_SOLVERS)}, got {solver!r}"
            )
        if refresh not in ("rebuild", "incremental"):
            raise GraphError(
                f"refresh must be 'rebuild' or 'incremental', got {refresh!r}"
            )
        eps = float(epsilon)
        if not 0 < eps <= 1:
            raise GraphError(f"epsilon must be in (0, 1], got {epsilon}")
        if deadline is not None and not deadline > 0:
            raise GraphError(
                f"deadline must be > 0 seconds or None, got {deadline}"
            )
        if breaker_threshold < 1:
            raise GraphError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self.graph = graph
        self.epsilon = eps
        self.solver = solver
        self.max_iterations = max_iterations
        self.parallel = parallel
        self.refresh = refresh
        self.deadline = deadline
        self.breaker_threshold = breaker_threshold
        self._rng = rng
        if approximator is None:
            approximator = build_congestion_approximator(
                graph, rng=rng, parallel=parallel
            )
        elif approximator.graph is not graph:
            raise GraphError(
                "approximator was built for a different graph object"
            )
        self.approximator = approximator
        self._cache = ResultCache(cache_capacity)
        self._cache.sync_epoch(graph._version)
        self._pool = WorkspacePool(graph, approximator)
        self._epoch = graph._version
        self._edge_count = graph.num_edges
        self._single_queries = 0
        self._batch_queries = 0
        self._batched_columns = 0
        self._rebuilds = 0
        self._incremental_refreshes = 0
        self._warm_starts = 0
        self._unconverged = 0
        # Warm-start seeds salvaged by the incremental refresh: query
        # key -> previous-epoch flow rescaled to the live capacities.
        # Replaced wholesale at each epoch move (so a seed is always
        # exactly one journal delta away from the epoch it serves in)
        # and consumed on use.
        self._warm_seeds: dict[tuple, np.ndarray] = {}
        # Health / degradation state (see ServerHealth).
        self._effective_parallel = parallel
        self._workspace_fallbacks = 0
        self._column_failures = 0
        self._miss_retries = 0
        self._deadline_hits = 0
        self._pool_failures = 0
        self._breaker_trips = 0
        self._consecutive_pool_failures = 0
        self._last_error: str | None = None

    # ------------------------------------------------------------------
    # Mutation detection
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Catch up with graph mutations before serving a query.

        Drops (or, under ``refresh="incremental"``, salvages) old-epoch
        cached results exactly once and applies the refresh policy to
        the approximator and workspace pool.
        """
        version = self.graph._version
        if version == self._epoch:
            return
        structural = self.graph.num_edges != self._edge_count
        delta = None
        if self.refresh == "incremental" and not structural:
            # None when the journal cannot vouch for the interval
            # (overflow, or a structural mutation re-based it): fall
            # through to the full rebuild below.
            delta = self.graph.deltas_since(self._epoch)
        if delta is not None:
            # Capacity-only delta with a sound journal: patch the
            # operator in place, keep the pooled workspaces (their
            # shape key is epoch-independent), and convert old-epoch
            # cache entries into warm-start seeds instead of waste.
            salvaged = self._cache.salvage_epoch(version)
            if delta.num_edges:
                self.approximator.refresh_capacities(
                    delta.edge_ids, rng=self._rng
                )
            self._incremental_refreshes += 1
            self._warm_seeds = {
                key: rescale_flow(result.flow, delta)
                for key, result in salvaged.items()
                if isinstance(result, AlmostRouteResult)
            }
        else:
            self._cache.sync_epoch(version)
            self._warm_seeds = {}
            self.approximator = build_congestion_approximator(
                self.graph, rng=self._rng, parallel=self.parallel
            )
            self._rebuilds += 1
            self._pool.rebind(self.graph, self.approximator)
        self._epoch = version
        self._edge_count = self.graph.num_edges

    # ------------------------------------------------------------------
    # Query keys
    # ------------------------------------------------------------------
    def _query_key(self, demand: np.ndarray) -> tuple:
        return (
            self.solver,
            self.epsilon,
            self.max_iterations,
            demand_digest(demand),
        )

    # ------------------------------------------------------------------
    # Supervision (deadline, workspace fallback, circuit-breaker)
    # ------------------------------------------------------------------
    def _current_parallel(self) -> ParallelConfig | None:
        """The execution config requests run on right now (the
        configured one until the circuit-breaker degrades it)."""
        return self._effective_parallel

    def _deadline_at(self) -> float | None:
        return (
            None if self.deadline is None else time.monotonic() + self.deadline
        )

    def _check_deadline(self, deadline_at: float | None) -> None:
        """Cooperative deadline check, called before each solve."""
        if deadline_at is not None and time.monotonic() > deadline_at:
            self._deadline_hits += 1
            raise DeadlineExceededError(
                f"request exceeded its {self.deadline}s deadline"
            )

    def _acquire(self) -> RouteWorkspace | None:
        """Warm-pool checkout with fallback: a failed checkout means
        the solver allocates a per-call workspace (slower, identical
        results) — a counted degradation, never a failed request."""
        try:
            return self._pool.acquire()
        except Exception as exc:
            self._workspace_fallbacks += 1
            self._last_error = f"{type(exc).__name__}: {exc}"
            return None

    def _note_pool_failure(self, exc: PoolFailureError) -> bool:
        """Record a pool loss; returns whether the caller should retry.

        Below ``breaker_threshold`` consecutive losses the retry stays
        on the current backend (the pool already retried internally —
        this is a second chance after a respawn).  At the threshold the
        breaker trips: the effective backend degrades one step
        (process → thread → serial) and the counter resets.  ``False``
        means every degradation is exhausted and the caller must
        surface a :class:`~repro.errors.ServingError`."""
        self._pool_failures += 1
        self._consecutive_pool_failures += 1
        self._last_error = f"{type(exc).__name__}: {exc}"
        if self._consecutive_pool_failures < self.breaker_threshold:
            return True
        resolved = resolve_config(self._current_parallel())
        if resolved.workers <= 1 or resolved.backend == "serial":
            return False
        if resolved.backend == "process":
            self._effective_parallel = replace(resolved, backend="thread")
        else:
            self._effective_parallel = replace(resolved, backend="serial")
        self._breaker_trips += 1
        self._consecutive_pool_failures = 0
        return True

    def reset_breaker(self) -> None:
        """Restore the configured execution backend after a degradation
        (operators call this once the underlying fault is resolved)."""
        self._effective_parallel = self.parallel
        self._consecutive_pool_failures = 0

    @fault_point("serve.miss", kinds=("raise", "hang"))
    def _solve(
        self,
        demand: np.ndarray,
        workspace: RouteWorkspace | None,
        seed: np.ndarray | None,
    ) -> AlmostRouteResult:
        """One solve attempt for one cache miss (fault site
        ``serve.miss``)."""
        (solver,) = _SOLVERS[self.solver]
        return solver(
            self.graph,
            self.approximator,
            demand,
            self.epsilon,
            max_iterations=self.max_iterations,
            workspace=workspace,
            parallel=self._current_parallel(),
            initial_flow=seed,
        )

    def _serve_miss(
        self,
        demand: np.ndarray,
        key: tuple,
        deadline_at: float | None,
        use_cache: bool,
        label: str,
    ) -> AlmostRouteResult | ServingError:
        """Solve one cache miss: the one solve, retry and breaker loop
        behind both :meth:`route` and :meth:`route_batch`.

        A pool loss retries on the same backend, then degrades it
        through the circuit breaker. Any other failure re-solves the
        demand once (a transient fault recovers bit-identically); a
        second failure is returned as a
        :class:`~repro.errors.ServingError` naming ``label``, with the
        cause chained. A workspace used by a failed solve is dropped,
        never re-pooled. Converged results are cached; results that
        exhausted the budget are returned as they are, never cached.
        """
        # Warm start: a salvaged previous-epoch flow for this exact
        # demand digest (rescaled to the new capacities at sync time)
        # primes the solver. Gated on use_cache because the seed is
        # cache-derived state; popped so it is used at most once.
        seed = self._warm_seeds.pop(key, None) if use_cache else None
        if seed is not None:
            self._warm_starts += 1
        retried = False
        while True:
            self._check_deadline(deadline_at)
            workspace = self._acquire()
            try:
                result = self._solve(demand, workspace, seed)
            except PoolFailureError as exc:
                # The workspace may have been written by a failed (or
                # still-running, on the thread backend) shard.
                workspace = None
                if self._note_pool_failure(exc):
                    continue
                return self._failure(
                    f"{label} failed to route: worker-pool loss persisted "
                    "through every circuit-breaker degradation",
                    exc,
                )
            except Exception as exc:
                workspace = None
                self._last_error = f"{type(exc).__name__}: {exc}"
                if not retried:
                    retried = True
                    self._miss_retries += 1
                    continue
                return self._failure(
                    f"{label} failed to route: {type(exc).__name__}: {exc}",
                    exc,
                )
            finally:
                if workspace is not None:
                    self._pool.release(workspace)
            self._consecutive_pool_failures = 0
            if result.converged:
                self._cache.put(key, result)
            else:
                self._unconverged += 1
            return result

    def _failure(self, message: str, cause: Exception) -> ServingError:
        self._column_failures += 1
        failure = ServingError(message)
        failure.__cause__ = cause
        return failure

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def route(
        self, demand: Sequence[float], use_cache: bool = True
    ) -> AlmostRouteResult:
        """Route one demand vector, hitting the result cache when the
        same query was served this epoch (by single or batched call).

        Cached results are shared objects — treat them as read-only.
        A result with ``converged=False`` (iteration budget exhausted)
        is returned but not cached. A demand that fails to route twice
        raises :class:`~repro.errors.ServingError` (see
        :meth:`_serve_miss`).
        """
        self._sync()
        self._single_queries += 1
        demand = np.ascontiguousarray(demand, dtype=float)
        key = self._query_key(demand)
        if use_cache:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        result = self._serve_miss(
            demand, key, self._deadline_at(), use_cache, label="demand"
        )
        if isinstance(result, ServingError):
            raise result
        return result

    def route_st(
        self, source: int, sink: int, value: float = 1.0, use_cache: bool = True
    ) -> AlmostRouteResult:
        """Route an s-t demand of the given value."""
        return self.route(
            st_demand(self.graph, source, sink, value), use_cache=use_cache
        )

    def route_batch(
        self,
        demands: Iterable[Sequence[float]] | np.ndarray,
        use_cache: bool = True,
        errors: Literal["raise", "return"] = "raise",
    ) -> list[AlmostRouteResult]:
        """Route ``Q`` stacked demands, one result per column.

        Cache hits are split out first; each remaining miss is then
        solved on its own, exactly as :meth:`route` solves it (same
        solver, warm seed, retry and breaker), and cached if it
        converged — so batches and singles warm each other.

        Error isolation: a demand column that fails to route twice
        fails its *own* request — it receives a
        :class:`~repro.errors.ServingError` carrying the cause chain,
        while every healthy column routes normally. With
        ``errors="raise"`` (default) the first such failure is raised
        after the whole batch is served; with ``errors="return"`` the
        ``ServingError`` objects are returned in the failed columns'
        positions instead.
        """
        if errors not in ("raise", "return"):
            raise GraphError(
                f"errors must be 'raise' or 'return', got {errors!r}"
            )
        self._sync()
        demands = np.ascontiguousarray(demands, dtype=float)
        if demands.ndim != 2:
            raise GraphError(
                f"expected a (Q, n) demand plane, got shape {demands.shape}"
            )
        num_queries = demands.shape[0]
        self._batch_queries += 1
        self._batched_columns += num_queries
        keys = [self._query_key(demands[q]) for q in range(num_queries)]
        results: list[AlmostRouteResult | ServingError | None] = [
            self._cache.get(key) if use_cache else None for key in keys
        ]
        deadline_at = self._deadline_at()
        for q, key in enumerate(keys):
            if results[q] is None:
                results[q] = self._serve_miss(
                    demands[q],
                    key,
                    deadline_at,
                    use_cache,
                    label=f"demand column {q}",
                )
        if errors == "raise":
            for item in results:
                if isinstance(item, ServingError):
                    raise item
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        return ServerStats(
            single_queries=self._single_queries,
            batch_queries=self._batch_queries,
            batched_columns=self._batched_columns,
            rebuilds=self._rebuilds,
            incremental_refreshes=self._incremental_refreshes,
            warm_starts=self._warm_starts,
            unconverged=self._unconverged,
            cache=self._cache.stats(),
        )

    def health(self) -> ServerHealth:
        """Degradation snapshot (see :class:`ServerHealth`): what the
        server has absorbed, what it surfaced, and which backend it is
        currently running on."""
        configured = resolve_config(self.parallel)
        effective = resolve_config(self._current_parallel())
        shard_pool: PoolStats | None = None
        if effective.workers > 1 and effective.backend != "serial":
            shard_pool = get_pool(effective).stats.snapshot()
        return ServerHealth(
            workspace_fallbacks=self._workspace_fallbacks,
            column_failures=self._column_failures,
            miss_retries=self._miss_retries,
            deadline_hits=self._deadline_hits,
            pool_failures=self._pool_failures,
            breaker_trips=self._breaker_trips,
            consecutive_pool_failures=self._consecutive_pool_failures,
            configured_backend=configured.backend,
            effective_backend=effective.backend,
            degraded=effective.backend != configured.backend,
            last_error=self._last_error,
            shard_pool=shard_pool,
            incremental_refreshes=self._incremental_refreshes,
            warm_starts=self._warm_starts,
        )

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def pool(self) -> WorkspacePool:
        return self._pool
