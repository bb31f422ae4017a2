"""Execution-backend selection for the sharded kernels.

A :class:`ParallelConfig` names *how* sharded work runs: how many
shards (``workers``), on which pool (``backend`` — ``"serial"``,
``"thread"`` or ``"process"``), and above which instance size sharding
is worth dispatching at all (``min_size``, defaulting to
:data:`DEFAULT_MIN_SIZE`: below it the whole-array serial kernels
already win, above it the shard split amortizes).

Selection is layered the same way the substrate's adaptive dispatch is:

* every sharded entry point takes an optional ``parallel=`` config and
  resolves ``None`` to the **process-wide default** via
  :func:`resolve_config`;
* the process-wide default is read once from the environment —
  ``REPRO_WORKERS`` (shard/worker count; ``1`` or unset means serial)
  and ``REPRO_BACKEND`` (``serial`` / ``thread`` / ``process``,
  defaulting to ``thread`` when ``REPRO_WORKERS`` > 1) — so a whole
  run opts in with one variable (the CI tier-1 matrix runs the full
  suite under ``REPRO_WORKERS=2``);
* tests and benchmarks override the default explicitly with
  :func:`set_default_config` / :func:`use_config`.

The determinism contract: a config **never** changes results, only the
execution schedule. Every sharded kernel is golden-tested bit-identical
to its serial path (``tests/test_parallel_backend.py``), so flipping
``REPRO_WORKERS`` cannot change a single array element downstream.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from repro.errors import GraphError

__all__ = [
    "BACKENDS",
    "ParallelConfig",
    "default_config",
    "resolve_config",
    "set_default_config",
    "use_config",
]

#: The recognized pool backends, in cost order.
BACKENDS = ("serial", "thread", "process")

#: Work size (n + 2m for graph kernels) below which sharded entry
#: points stay serial. It is the sharding threshold only; it stays at or
#: above :data:`repro.graphs.graph.TINY_GRAPH_LIMIT` (asserted in the
#: tests), so a graph small enough to take a Python engine is never
#: sharded by default.
DEFAULT_MIN_SIZE = 8192


@dataclass(frozen=True)
class ParallelConfig:
    """How sharded kernels execute.

    Attributes:
        workers: Number of shards / pool workers. ``1`` disables
            sharding entirely (the serial kernels run untouched).
        backend: ``"serial"`` (shards run in-process, one after the
            other — deterministic scheduling for tests, and cache
            blocking on one core), ``"thread"`` (shared-memory thread
            pool; NumPy releases the GIL inside the hot kernels) or
            ``"process"`` (fork-based process pool; inputs are passed
            as shared-memory NumPy views, see
            :mod:`repro.parallel.pool`).
        min_size: Work-size threshold below which sharded entry points
            fall back to the serial path (the adaptive small-instance
            convention). Set to ``0`` to force sharding, e.g. in the
            equivalence harness.
    """

    workers: int = 1
    backend: str = "serial"
    min_size: int = DEFAULT_MIN_SIZE

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise GraphError(
                f"unknown parallel backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )
        if self.workers < 1:
            raise GraphError(f"workers must be >= 1, got {self.workers}")

    def should_shard(self, work_size: int) -> bool:
        """Whether an instance of ``work_size`` units (nodes plus
        incidences, plane cells, ...) should take the sharded path."""
        return self.workers > 1 and work_size >= self.min_size

    def with_workers(self, workers: int) -> "ParallelConfig":
        return replace(self, workers=workers)

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str] | None = None
    ) -> "ParallelConfig":
        """Build the config named by ``REPRO_WORKERS`` / ``REPRO_BACKEND``.

        ``REPRO_WORKERS`` unset or empty yields the serial config; when
        set it must parse as an integer >= 1 (``1`` means serial). A
        worker count above 1 defaults the backend to ``thread`` unless
        ``REPRO_BACKEND`` says otherwise. Garbage never passes
        silently: a non-integer or non-positive ``REPRO_WORKERS`` and
        an unrecognized ``REPRO_BACKEND`` (even alongside a serial
        worker count) raise :class:`~repro.errors.GraphError` naming
        the offending variable, instead of surfacing as a deep
        ``ValueError`` — or a silently-serial run — later.
        """
        env = os.environ if environ is None else environ
        raw = (env.get("REPRO_WORKERS") or "").strip()
        try:
            workers = int(raw) if raw else 1
        except ValueError as exc:
            raise GraphError(
                f"REPRO_WORKERS must be a positive integer, got {raw!r}"
            ) from exc
        if raw and workers < 1:
            raise GraphError(
                f"REPRO_WORKERS must be >= 1, got {raw!r} (unset it or "
                "use 1 for serial execution)"
            )
        raw_backend = (env.get("REPRO_BACKEND") or "").strip().lower()
        if raw_backend and raw_backend not in BACKENDS:
            raise GraphError(
                f"REPRO_BACKEND must be one of {BACKENDS}, got "
                f"{env.get('REPRO_BACKEND')!r}"
            )
        if workers <= 1:
            return cls()
        return cls(workers=workers, backend=raw_backend or "thread")


_default: ParallelConfig | None = None


def default_config() -> ParallelConfig:
    """The process-wide default (environment-derived, read lazily once)."""
    global _default
    if _default is None:
        _default = ParallelConfig.from_env()
    return _default


def set_default_config(config: ParallelConfig | None) -> ParallelConfig | None:
    """Replace the process-wide default; returns the previous value.

    ``None`` resets to "re-read the environment on next use".
    """
    global _default
    previous = _default
    _default = config
    return previous


@contextmanager
def use_config(config: ParallelConfig) -> Iterator[ParallelConfig]:
    """Temporarily install ``config`` as the process-wide default."""
    previous = set_default_config(config)
    try:
        yield config
    finally:
        set_default_config(previous)


def resolve_config(parallel: ParallelConfig | None) -> ParallelConfig:
    """Resolve an optional per-call config to an effective one."""
    return parallel if parallel is not None else default_config()
