"""Deterministic fault injection for the execution layers.

The serving stack built in PRs 4–6 (sharded pools, shared-memory
arena, FlowServer) assumed a fault-free world.  This module supplies
the other half of the robustness story: a *deterministic* way to make
those layers fail on demand so the supervised-recovery paths in
:mod:`repro.parallel.pool`, :mod:`repro.parallel.arena` and
:mod:`repro.serve.server` can be pinned by tests instead of waiting
for production to exercise them.

Design
------

* **Sites, not hooks.**  Each place a fault can be injected is a named
  *site* from the closed catalogue :data:`SITES` (``pool.dispatch``,
  ``pool.worker``, ``arena.export``, ``arena.attach``,
  ``serve.checkout``, ``serve.miss``).  A site either carries a
  :func:`fault_point`-decorated function (the decorator registers the
  owner in :data:`FAULT_POINTS` and wraps it with a one-global-read
  guard) or is consulted explicitly via :func:`fire` /
  :func:`maybe_fire` where the injection decision must be made by a
  coordinator (the process pool decides *parent-side* and ships a
  picklable directive to the worker, so fork-inherited counters can
  never double-count a visit).

* **Deterministic schedules.**  A :class:`FaultPlan` is built from
  explicit :class:`FaultSpec` entries (``site[:kind][@at][*count]`` —
  fire ``count`` times starting at the ``at``-th visit) and/or a
  seeded per-site Bernoulli schedule (``seed=``/``rate=``).  Visit
  counters are lock-guarded and per-site, so a given plan fires at
  exactly the same visits on every run.

* **Zero overhead when disarmed.**  With no plan installed and
  ``REPRO_FAULTS`` unset, the guard added by :func:`fault_point` is a
  single module-global read; nothing else in the hot path changes.

Activation mirrors :mod:`repro.parallel.config`: the process-wide plan
is read lazily from ``REPRO_FAULTS`` (strictly validated — garbage
raises :class:`~repro.errors.FaultSpecError` naming the valid sites
and kinds, never a silent no-op), and tests install plans explicitly
via :func:`set_fault_plan` / :func:`use_faults`.

Injected failures raise :class:`InjectedFault`, which is deliberately
**not** a :class:`~repro.errors.ReproError`: it models an *unexpected*
crash (a segfaulting worker, a vanished shm segment), and the recovery
layers must either absorb it or translate it into a typed
``ReproError`` — the chaos suite pins that no ``InjectedFault`` ever
escapes raw from a public entry point.
"""

from __future__ import annotations

import functools
import os
import re
import threading  # repolint: disable=pool-bypass -- Lock for visit counters only, no pool primitives
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, ParamSpec, TypeVar

import numpy as np

from repro.errors import FaultSpecError

__all__ = [
    "FAULT_POINTS",
    "SITES",
    "FaultAction",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "execute_action",
    "execute_directive",
    "fault_point",
    "faults_active",
    "fire",
    "maybe_fire",
    "parse_fault_specs",
    "plan_from_env",
    "register_fault_site",
    "set_fault_plan",
    "use_faults",
]

P = ParamSpec("P")
R = TypeVar("R")

#: The closed catalogue of injection sites and the failure kinds each
#: supports.  ``REPRO_FAULTS`` validation reads this, so the grammar is
#: checkable without importing the owning modules.
SITES: dict[str, tuple[str, ...]] = {
    # Parent-side, once per map wave, before shard submission.
    "pool.dispatch": ("raise", "hang"),
    # Inside a pool worker (decided parent-side, shipped as a
    # directive): raise, stall, or die abruptly (process backend only).
    "pool.worker": ("raise", "hang", "exit"),
    # Shared-memory segment creation (models /dev/shm exhaustion).
    "arena.export": ("enospc",),
    # Worker-side segment attach (models an externally unlinked
    # segment); decided parent-side, shipped as a directive.
    "arena.attach": ("enoent",),
    # FlowServer workspace checkout from the warm pool.
    "serve.checkout": ("raise",),
    # FlowServer cache-miss solve (one demand, single or batch column).
    "serve.miss": ("raise", "hang"),
}

#: Site name -> qualified name of the registered owner (the decorated
#: function, or the coordinator that consults the site explicitly).
#: Introspection/diagnostic hook, mirroring ``hotpath.HOT_KERNELS``.
FAULT_POINTS: dict[str, str] = {}

#: How long an injected ``hang`` stalls by default.  Short enough that
#: an env-driven sweep with no timeout configured is a stall rather
#: than a wall-clock hazard; tests exercising the timeout/respawn path
#: pass an explicit larger ``hang_seconds``.
DEFAULT_HANG_SECONDS = 0.05


class InjectedFault(RuntimeError):
    """An artificially injected failure.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it stands
    in for the unexpected crashes the recovery layers exist to absorb.
    Seeing one escape a public entry point raw is itself a bug (the
    chaos suite asserts it never happens)."""


@dataclass(frozen=True)
class FaultAction:
    """What a site should do *right now*, as decided by the plan.

    Attributes:
        site: The site that fired.
        kind: One of the site's kinds from :data:`SITES`.
        seconds: Stall length for ``hang`` actions (ignored otherwise).
    """

    site: str
    kind: str
    seconds: float = DEFAULT_HANG_SECONDS


_SPEC_RE = re.compile(
    r"^(?P<site>[a-z_][a-z_.]*[a-z_])"
    r"(?::(?P<kind>[a-z_]+))?"
    r"(?:@(?P<at>\d+))?"
    r"(?:\*(?P<count>\d+|inf))?$"
)

#: Sentinel ``count`` meaning "every visit from ``at`` onward".
UNLIMITED = -1


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic injection: fire ``count`` times at a site,
    starting at its ``at``-th visit (1-based).

    The string grammar (``REPRO_FAULTS`` and the :class:`FaultPlan`
    constructor both accept it) is ``site[:kind][@at][*count]``:

    * ``pool.worker`` — raise on the first visit, once;
    * ``pool.worker:exit@3`` — kill the worker on the third visit;
    * ``arena.export:enospc@1*2`` — ENOSPC on the first two exports;
    * ``serve.miss:raise@2*inf`` — fail every miss solve from the
      second onward (``count=-1``, :data:`UNLIMITED`).

    Attributes:
        site: A key of :data:`SITES`.
        kind: One of that site's kinds (default: the site's first).
        at: 1-based visit index of the first firing.
        count: Number of consecutive visits that fire
            (:data:`UNLIMITED` for all visits from ``at`` onward).
    """

    site: str
    kind: str = ""
    at: int = 1
    count: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(SITES)}"
            )
        kinds = SITES[self.site]
        if not self.kind:
            object.__setattr__(self, "kind", kinds[0])
        elif self.kind not in kinds:
            raise FaultSpecError(
                f"fault site {self.site!r} does not support kind "
                f"{self.kind!r}; expected one of {kinds}"
            )
        if self.at < 1:
            raise FaultSpecError(
                f"fault spec 'at' must be >= 1 (visits are 1-based), "
                f"got {self.at}"
            )
        if self.count < 1 and self.count != UNLIMITED:
            raise FaultSpecError(
                f"fault spec 'count' must be >= 1 or UNLIMITED (-1), "
                f"got {self.count}"
            )

    def covers(self, visit: int) -> bool:
        """Whether this spec fires on the given 1-based visit."""
        if visit < self.at:
            return False
        return self.count == UNLIMITED or visit < self.at + self.count

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``site[:kind][@at][*count]`` clause."""
        match = _SPEC_RE.match(text.strip())
        if match is None:
            raise FaultSpecError(
                f"malformed fault spec {text!r}; expected "
                "'site[:kind][@at][*count]' with site in "
                f"{sorted(SITES)} (e.g. 'pool.worker:exit@2' or "
                "'arena.export:enospc*inf')"
            )
        raw_count = match.group("count")
        count = (
            UNLIMITED
            if raw_count == "inf"
            else int(raw_count)
            if raw_count
            else 1
        )
        return cls(
            site=match.group("site"),
            kind=match.group("kind") or "",
            at=int(match.group("at") or 1),
            count=count,
        )


def parse_fault_specs(text: str) -> tuple[FaultSpec, ...]:
    """Parse a comma-separated ``REPRO_FAULTS`` value.

    Empty/whitespace-only input yields no specs; anything else must be
    a comma-separated list of valid clauses — garbage raises
    :class:`~repro.errors.FaultSpecError` naming the bad clause."""
    clauses = [clause.strip() for clause in text.split(",")]
    return tuple(
        FaultSpec.parse(clause) for clause in clauses if clause
    )


def _site_seed(seed: int, site: str) -> int:
    """A stable per-site stream seed (independent of site interleaving)."""
    return (seed << 32) ^ zlib.crc32(site.encode("ascii"))


class FaultPlan:
    """A deterministic schedule of injected failures.

    Built from explicit :class:`FaultSpec` entries (or their string
    forms) and/or a seeded Bernoulli schedule: with ``seed`` and
    ``rate`` set, every visit to a site in ``sites`` (default: all
    sites) fires with probability ``rate``, drawn from a per-site
    ``PCG64`` stream — deterministic for a given seed and per-site
    visit order, regardless of how sites interleave.

    Visit counters are per-site and lock-guarded; :meth:`visits` and
    :meth:`fired` expose snapshots so tests can assert a fault
    actually fired (recovery is supposed to make firing invisible in
    results, so the counters are the only observable).
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec | str] = (),
        *,
        seed: int | None = None,
        rate: float = 0.0,
        sites: Iterable[str] | None = None,
        hang_seconds: float = DEFAULT_HANG_SECONDS,
    ) -> None:
        parsed: list[FaultSpec] = []
        for spec in specs:
            parsed.append(
                FaultSpec.parse(spec) if isinstance(spec, str) else spec
            )
        self.specs: tuple[FaultSpec, ...] = tuple(parsed)
        if not 0.0 <= rate <= 1.0:
            raise FaultSpecError(
                f"fault rate must be in [0, 1], got {rate}"
            )
        if rate > 0.0 and seed is None:
            raise FaultSpecError(
                "a seeded schedule needs an explicit seed: "
                "FaultPlan(seed=..., rate=...) — determinism is the "
                "whole point"
            )
        if hang_seconds < 0.0:
            raise FaultSpecError(
                f"hang_seconds must be >= 0, got {hang_seconds}"
            )
        self.rate = float(rate)
        self.hang_seconds = float(hang_seconds)
        chosen = tuple(sites) if sites is not None else tuple(SITES)
        for site in chosen:
            if site not in SITES:
                raise FaultSpecError(
                    f"unknown fault site {site!r}; expected one of "
                    f"{sorted(SITES)}"
                )
        self._seeded_sites = frozenset(chosen) if rate > 0.0 else frozenset()
        self._rngs: dict[str, np.random.Generator] = {}
        if seed is not None:
            for site in self._seeded_sites:
                self._rngs[site] = np.random.Generator(
                    np.random.PCG64(_site_seed(seed, site))
                )
        self._lock = threading.Lock()
        self._visits: dict[str, int] = {site: 0 for site in SITES}
        self._fired: dict[str, int] = {site: 0 for site in SITES}

    def maybe_fire(self, site: str) -> FaultAction | None:
        """Record a visit to ``site``; return the action to take, if any.

        Explicit specs are consulted first (first matching spec wins),
        then the seeded schedule.  Thread-safe; each call advances the
        site's visit counter exactly once."""
        if site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r}; expected one of "
                f"{sorted(SITES)}"
            )
        with self._lock:
            self._visits[site] += 1
            visit = self._visits[site]
            kind: str | None = None
            for spec in self.specs:
                if spec.site == site and spec.covers(visit):
                    kind = spec.kind
                    break
            if kind is None and site in self._seeded_sites:
                if self._rngs[site].random() < self.rate:
                    kinds = SITES[site]
                    kind = kinds[
                        int(self._rngs[site].integers(len(kinds)))
                    ]
            if kind is None:
                return None
            self._fired[site] += 1
        return FaultAction(site=site, kind=kind, seconds=self.hang_seconds)

    def visits(self) -> dict[str, int]:
        """Snapshot of per-site visit counts."""
        with self._lock:
            return dict(self._visits)

    def fired(self) -> dict[str, int]:
        """Snapshot of per-site fired counts."""
        with self._lock:
            return dict(self._fired)


def execute_action(action: FaultAction) -> None:
    """Carry out a parent-side fault action.

    ``hang`` stalls for ``action.seconds`` and returns (the caller's
    timeout supervision decides whether the stall is fatal); the error
    kinds raise the exception class the real failure would: ``enospc``
    an :class:`OSError` with ``errno.ENOSPC``, ``enoent`` a
    :class:`FileNotFoundError`, and everything else an
    :class:`InjectedFault`."""
    import errno

    if action.kind == "hang":
        time.sleep(action.seconds)
        return
    if action.kind == "enospc":
        raise OSError(
            errno.ENOSPC,
            f"injected ENOSPC at fault site {action.site!r}",
        )
    if action.kind == "enoent":
        raise FileNotFoundError(
            errno.ENOENT,
            f"injected ENOENT at fault site {action.site!r}",
        )
    raise InjectedFault(
        f"injected {action.kind!r} fault at site {action.site!r}"
    )


def execute_directive(
    directive: tuple[str, float] | None, *, allow_exit: bool = True
) -> None:
    """Carry out a worker-side directive shipped from the coordinator.

    The process pool decides faults parent-side (fork-inherited plan
    state would double-count visits) and ships ``(kind, seconds)``
    tuples inside task payloads; this is the worker half.  ``exit``
    calls ``os._exit`` — an abrupt death the parent must detect by
    timeout — unless ``allow_exit`` is false (thread workers share the
    interpreter, so for them ``exit`` degrades to a raise)."""
    if directive is None:
        return
    kind, seconds = directive
    if kind == "hang":
        time.sleep(seconds)
        return
    if kind == "exit" and allow_exit:
        os._exit(1)
    if kind == "enoent":
        import errno

        raise FileNotFoundError(
            errno.ENOENT, "injected ENOENT attaching shared segment"
        )
    raise InjectedFault(f"injected {kind!r} fault in pool worker")


# ---------------------------------------------------------------------------
# Process-wide activation (mirrors repro.parallel.config's lazy-env
# default: resolved once from REPRO_FAULTS, overridable by tests).

_active: FaultPlan | None = None
_resolved: bool = False


def plan_from_env(
    environ: Mapping[str, str] | None = None,
) -> FaultPlan | None:
    """Build the plan named by ``REPRO_FAULTS`` (``None`` when unset).

    The value is a comma-separated list of ``site[:kind][@at][*count]``
    clauses, validated strictly against :data:`SITES` — a typo raises
    :class:`~repro.errors.FaultSpecError` instead of silently running
    fault-free (the same contract ``REPRO_WORKERS`` has)."""
    env = os.environ if environ is None else environ
    raw = (env.get("REPRO_FAULTS") or "").strip()
    if not raw:
        return None
    specs = parse_fault_specs(raw)
    if not specs:
        return None
    return FaultPlan(specs)


def active_plan() -> FaultPlan | None:
    """The process-wide plan (environment-derived, read lazily once)."""
    global _active, _resolved
    if not _resolved:
        _active = plan_from_env()
        _resolved = True
    return _active


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` as the process-wide plan; returns the previous.

    Unlike :func:`repro.parallel.config.set_default_config`, ``None``
    here means *disarmed* (not "re-read the environment"): tests use
    it to guarantee a fault-free region regardless of ``REPRO_FAULTS``."""
    global _active, _resolved
    previous = _active if _resolved else plan_from_env()
    _active = plan
    _resolved = True
    return previous


@contextmanager
def use_faults(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Temporarily install ``plan`` as the process-wide fault plan."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def faults_active() -> bool:
    """Whether any plan is armed (used by the pools to apply the
    fallback map timeout that keeps chaos sweeps hang-free)."""
    return active_plan() is not None


def maybe_fire(site: str) -> FaultAction | None:
    """Consult the active plan for ``site`` (``None`` when disarmed)."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.maybe_fire(site)


def fire(site: str) -> None:
    """Consult the active plan for ``site`` and execute any action.

    The explicit-call form of :func:`fault_point`, for coordinator
    code whose injection site is a code path rather than a function."""
    action = maybe_fire(site)
    if action is not None:
        execute_action(action)


def register_fault_site(site: str, owner: str) -> None:
    """Record ``owner`` (a qualified name) as the code consulting
    ``site`` explicitly via :func:`fire` / :func:`maybe_fire`."""
    if site not in SITES:
        raise FaultSpecError(
            f"unknown fault site {site!r}; expected one of "
            f"{sorted(SITES)}"
        )
    FAULT_POINTS[site] = owner


def fault_point(
    name: str, *, kinds: tuple[str, ...] | None = None
) -> Callable[[Callable[P, R]], Callable[P, R]]:
    """Mark a function as fault-injection site ``name``.

    Registers the function's qualified name in :data:`FAULT_POINTS`
    and wraps it with a guard that consults the active plan before
    each call.  When no plan is armed the guard is one module-global
    read; the wrapped function is exposed as ``__wrapped__`` for
    callers needing the raw object.  ``kinds``, when given, must match
    the site's catalogue entry — a drifting declaration fails at
    import time rather than silently injecting the wrong failure."""
    if name not in SITES:
        raise FaultSpecError(
            f"unknown fault site {name!r}; expected one of "
            f"{sorted(SITES)}"
        )
    if kinds is not None and tuple(kinds) != SITES[name]:
        raise FaultSpecError(
            f"fault site {name!r} supports kinds {SITES[name]}, the "
            f"decorator declared {tuple(kinds)}"
        )

    def decorate(func: Callable[P, R]) -> Callable[P, R]:
        FAULT_POINTS[name] = f"{func.__module__}.{func.__qualname__}"

        @functools.wraps(func)
        def guard(*args: P.args, **kwargs: P.kwargs) -> R:
            if _resolved and _active is None:
                return func(*args, **kwargs)
            action = maybe_fire(name)
            if action is not None:
                execute_action(action)
            return func(*args, **kwargs)

        guard.__fault_point__ = name  # type: ignore[attr-defined]
        return guard

    return decorate
