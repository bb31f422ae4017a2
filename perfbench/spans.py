"""Span recorder and the layer wrappers of the traced run.

The traced run (``run.py --trace 1``) installs thin wrappers around each
layer's entry points, *where each caller binds them*: a module-level
function is replaced in the namespace of the module that calls it, a
method is replaced on its class, and the server's solver table is
rewritten in place. Nothing under ``src/`` is edited, and
:meth:`LayerTrace.uninstall` puts every original object back.

Each call through a wrapper records one span: a name, a start and an
end (``time.perf_counter``), and the index of the enclosing span. Spans
live in compact in-memory arrays and are written once, at exit. A
layer's self time is its span time minus the time of the spans it
directly contains. Untraced runs do not import this module.
"""

from __future__ import annotations

import functools
from array import array
from importlib import import_module
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.approximator import TreeCongestionApproximator, TreeOperator
from repro.core.stacked import StackedTreeOperator
from repro.graphs.graph import Graph
from repro.graphs.journal import DeltaJournal
from repro.serve.server import FlowServer

# By module path: ``repro.core`` re-exports a function named almost_route,
# which shadows the submodule of that name as a package attribute.
almost_route_mod = import_module("repro.core.almost_route")
approximator_mod = import_module("repro.core.approximator")
maxflow_mod = import_module("repro.core.maxflow")
hierarchy_mod = import_module("repro.jtree.hierarchy")
madry_mod = import_module("repro.jtree.madry")
server_mod = import_module("repro.serve.server")

#: The measured layers; a span belongs to the layer its name starts with.
LAYERS = ("serve", "solver", "softmax", "stacked", "approximator",
          "maxflow", "jtree", "lsst", "sparsify", "graphs")


def _solver_note(result: Any) -> tuple[int, int, int]:
    """(demand columns, gradient iterations, converged columns) of one
    one-shot or batched AlmostRoute result."""
    if hasattr(result, "num_queries"):
        return (
            int(result.num_queries),
            int(np.sum(result.iterations)),
            int(np.sum(result.converged)),
        )
    return 1, int(result.iterations), int(bool(result.converged))


def _delta_note(result: Any) -> int:
    """Edges in a journal delta (-1 when the journal cannot answer)."""
    return -1 if result is None else int(result.num_edges)


class LayerTrace:
    """Records spans from wrappers around the layers' entry points."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: span index -> note computed from the call's return value
        self.notes: dict[int, Any] = {}
        self.active = False
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []
        #: Entry points :meth:`install` could not find.
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self, name: str, func: Callable, note: Callable[[Any], Any] | None = None
    ) -> Callable:
        """A wrapper recording one span per call of ``func`` while the
        recorder is active (a plain pass-through otherwise)."""
        nid = self._intern(name)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return func(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[idx] = perf_counter()
            if note is not None:
                self.notes[idx] = note(result)
            return result

        return wrapper

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Suspend recording (answer checks run through the same layers
        and must not count as the workload's own work)."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, name: str, note=None) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            # An entry point a later refactor removed: its layer reads zero.
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, original, note))
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Wrap every measured layer entry point where its caller binds it."""
        patch = self._patch
        # serve: the two public request entry points.
        patch(FlowServer, "route", "serve.route")
        patch(FlowServer, "route_batch", "serve.route_batch")
        # solver: the server looks its solvers up in a table; max_flow's
        # residual rounds call the one-shot solver from their module.
        table = getattr(server_mod, "_SOLVERS", {})
        saved = dict(table)
        for key, funcs in saved.items():
            table[key] = tuple(self.wrap("solver", f, _solver_note) for f in funcs)
        self._restore.append(lambda: table.update(saved))
        patch(maxflow_mod, "almost_route", "solver", _solver_note)
        # softmax: both solvers evaluate through almost_route's helpers.
        patch(almost_route_mod, "smax_and_gradient", "softmax")
        patch(almost_route_mod, "smax_and_gradient_batch", "softmax")
        # stacked: the flat operator's products.
        for attr in ("apply", "apply_batch"):
            patch(StackedTreeOperator, attr, "stacked.apply")
        for attr in ("apply_transpose", "apply_transpose_batch"):
            patch(StackedTreeOperator, attr, "stacked.apply_transpose")
        # approximator: per-tree dispatch, build, alpha, scoped refresh.
        patch(TreeOperator, "apply", "approximator.tree_apply")
        patch(TreeOperator, "apply_transpose", "approximator.tree_apply")
        for module in (server_mod, maxflow_mod, approximator_mod):
            patch(module, "build_congestion_approximator", "approximator.build")
        patch(approximator_mod, "estimate_alpha_st", "approximator.alpha")
        patch(TreeCongestionApproximator, "refresh_capacities",
              "approximator.refresh", int)
        # jtree / lsst / sparsify: the hierarchy's construction phases.
        patch(approximator_mod, "sample_virtual_trees", "jtree.sample")
        patch(hierarchy_mod, "mwu_lengths", "jtree.mwu")
        patch(hierarchy_mod, "madry_tree_phase", "jtree.mwu")
        for module in (hierarchy_mod, madry_mod, approximator_mod):
            patch(module, "akpw_spanning_tree", "lsst.akpw")
        patch(hierarchy_mod, "sparsify", "sparsify")
        for module in (hierarchy_mod, madry_mod, approximator_mod):
            patch(module, "induced_cut_capacities", "graphs.trees.cut_capacity")
        # maxflow: the Theorem 1.1 entry point and the tree fix-up.
        patch(maxflow_mod, "max_flow", "maxflow.max_flow")
        patch(maxflow_mod, "maximum_spanning_tree", "maxflow.fixup")
        patch(maxflow_mod, "tree_route_demand", "maxflow.fixup")
        # graphs: excess kernels, capacity writes, the delta journal.
        patch(Graph, "excess", "graphs.excess")
        patch(Graph, "excess_batch", "graphs.excess")
        patch(Graph, "set_capacity", "graphs.set_capacity")
        patch(DeltaJournal, "deltas_since", "graphs.journal.deltas_since",
              _delta_note)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # Analysis and output
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, busy seconds, self seconds)."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        self_time = duration - np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        count = np.bincount(name_id, minlength=len(self.names))
        busy = np.bincount(name_id, weights=duration, minlength=len(self.names))
        own = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        return {
            name: (int(count[i]), float(busy[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def notes_of(self, name: str) -> list[Any]:
        nid = self._ids.get(name)
        return [v for i, v in self.notes.items() if self.name_id[i] == nid]

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        found = 0
        for idx in np.flatnonzero(np.frombuffer(self.name_id, dtype=np.int32) == nid):
            up = self.parent[idx]
            while up >= 0 and self.name_id[up] != aid:
                up = self.parent[up]
            found += up >= 0
        return found

    def write(self, path: Path) -> None:
        """Write every span (name table, ids, parents, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            np.savez(
                handle,
                names=np.asarray(self.names),
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start),
                end=np.frombuffer(self.end),
            )
