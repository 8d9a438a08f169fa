"""Span recording for the traced benchmark run.

The tracer wraps public evoinf callables from outside the package: every
module attribute that holds a wrapped function is replaced for the duration
of the run and restored afterwards, so calls made inside evoinf (for example
`incinf_select` calling `accumulate_deltas`) are recorded too. Each call
becomes one span (name, start, end, parent) kept in memory; `write` dumps
them as JSON when the run ends.

The untraced run uses `NullTracer`, which patches nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    # DeltaTable.add calls seen when the span opened and closed; a kernel
    # span whose counts differ changed the delta table
    adds_start: int = 0
    adds_end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans are not recorded and nothing is patched."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield None

    @contextmanager
    def installed(self):
        yield self


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._table_adds = 0
        self._seen_selectors: weakref.WeakSet = weakref.WeakSet()

    # -- span bookkeeping --

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, 0.0,
                 adds_start=self._table_adds)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        s.adds_end = self._table_adds
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(s, args, out)
                return out
            finally:
                tracer._close(s)
        return wrapper

    # -- patching --

    def _patch_function(self, orig, name: str, after=None) -> None:
        wrapper = self._wrap(name, orig, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "evoinf"
                                   or mod_name.startswith("evoinf.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _patch_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap the evoinf public names the per-layer metrics are read from."""
        import evoinf.bench as bench
        import evoinf.generate as generate
        import evoinf.graph as graph
        import evoinf.incremental as inc
        import evoinf.select as select
        import evoinf.simulate as simulate

        tracer = self

        def kernel_changes(s, args, out):
            s.attrs["changes"] = len(out)

        def touched(s, args, out):
            s.attrs["touched"] = sum(1 for d in out.values.values()
                                     if d != 0.0)

        def candidates(s, args, out):
            ratios = out.params.get("prune_ratios", [])
            n = args[0].g_new.num_nodes
            s.attrs["candidates"] = round(sum(ratios) * n)
            s.attrs["ratio"] = sum(ratios) / len(ratios) if ratios else 0.0

        def activated(s, args, out):
            s.attrs["activated"] = round(out.mean * out.runs)

        def rows(s, args, out):
            for algo in ("incinf", "mia"):
                s.attrs[algo] = sum(r["wall_time_s"] for r in out["rows"]
                                    if r["algorithm"] == algo)

        self._patch_function(generate.generate_evolving, "generate.generate")
        self._patch_function(graph.apply_all, "graph.apply_all")
        self._patch_function(graph.diff, "graph.diff")
        self._patch_function(inc.accumulate_deltas,
                             "incremental.accumulate_deltas", touched)
        self._patch_function(inc.delta_add_edge, "incremental.add_edge")
        self._patch_function(inc.delta_remove_edge, "incremental.remove_edge")
        self._patch_function(inc.delta_node, "incremental.node")
        self._patch_function(inc.prune, "incremental.prune")
        self._patch_function(inc.incinf_select, "select.incinf_select",
                             candidates)
        self._patch_function(select.mia_select, "select.mia_select")
        self._patch_function(select.greedy_select, "select.greedy_select")
        self._patch_function(simulate.simulate_spread,
                             "simulate.simulate_spread", activated)
        self._patch_function(bench.run_benchmark, "bench.run_benchmark",
                             rows)

        kernel_getter = inc.EvolutionContext.__dict__["kernel_stream"].fget
        self._patch_attr(inc.EvolutionContext, "kernel_stream", property(
            self._wrap("graph.kernel_stream", kernel_getter, kernel_changes)))

        table_add = inc.DeltaTable.add

        def counting_add(table, v, delta):
            tracer._table_adds += 1
            table_add(table, v, delta)
        self._patch_attr(inc.DeltaTable, "add", counting_add)

        best = select.MiaSelector.best
        first_best = self._wrap("select.base", best)
        later_best = self._wrap("select.best", best)

        def traced_best(sel, candidates):
            # the first call computes the standalone spread of every
            # candidate; later calls mostly reuse them
            if sel in tracer._seen_selectors:
                return later_best(sel, candidates)
            tracer._seen_selectors.add(sel)
            return first_best(sel, candidates)
        self._patch_attr(select.MiaSelector, "best", traced_best)
        self._patch_attr(select.MiaSelector, "add_seed", self._wrap(
            "select.add_seed", select.MiaSelector.add_seed))

        est_init = select.LiveEdgeEstimator.__init__

        def live_edge_bytes(s, args, out):
            g, runs = args[1], args[2]
            s.attrs["bytes"] = runs * g.num_edges
        self._patch_attr(select.LiveEdgeEstimator, "__init__", self._wrap(
            "select.live_edge_samples", est_init, live_edge_bytes))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(self._undo):
                setattr(owner, attr, orig)
            self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"id": s.id, "parent": s.parent, "name": s.name,
                        "start": s.start, "end": s.end, **s.attrs}
                       for s in self.spans], fh)
