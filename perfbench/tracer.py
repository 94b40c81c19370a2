"""Layer tracer that wraps the program's public entry points from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces a
fixed list of module and class attributes with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back.  Every wrapped call
becomes one span ``(name, start, end, parent, attrs)`` kept in memory;
:meth:`Tracer.dump` writes them out when the run ends.

The sweep service runs a point on executor threads (``run_point`` on the
default pool, store appends on the single I/O thread), so a span opened
on a thread with no open span of its own takes the innermost open
*anchor* span (``service.submit``, or the benchmark's pass span) as its
parent.  That is exact here because the benchmark submits sequentially:
one point is in flight at a time.

Every attribute is looked up when :meth:`install` runs.  An entry point
that a refactor removes or renames is listed in :attr:`Tracer.missing`,
and one that the program stops calling through the wrapped attribute
leaves no span; :meth:`Tracer.gaps` reports both, and the benchmark
counts each as a failed check, so the layer breakdown never changes
meaning silently.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import threading
import time
import weakref
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

# (module, attribute path, span name); the attribute is looked up at call
# time by the program (module globals and class attributes), which is what
# makes wrapping from outside see every call.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.service.server", "SweepServer.submit", "service.submit"),
    ("repro.service.server", "run_point", "runner.run_point"),
    ("repro.service.server", "config_digest", "hashing.config_digest"),
    ("repro.service.runner", "config_digest", "hashing.config_digest"),
    ("repro.service.runner", "structure_hash", "hashing.structure_hash"),
    ("repro.service.runner", "compile_cholesky", "graph.build"),
    ("repro.service.runner", "compile_lu", "graph.build"),
    ("repro.service.runner", "build_cholesky_graph", "graph.object_build"),
    ("repro.service.runner", "build_lu_graph", "graph.object_build"),
    ("repro.service.runner", "build_cholesky_graph_25d", "graph.object_build"),
    ("repro.service.runner", "build_lu_graph_25d", "graph.object_build"),
    ("repro.service.runner", "compile_graph", "graph.compile_graph"),
    ("repro.service.runner", "simulate_compiled", "simulator.simulate_compiled"),
    ("repro.graph.compiled", "CompiledGraph.comm_plan", "graph.comm_plan"),
    ("repro.runtime.simulator.fast_engine", "compiled_critical_path_priorities",
     "priorities.sweep"),
    ("repro.topology.model", "Topology.compiled", "topology.compile"),
    ("repro.service.store", "ResultStore.__init__", "store.open"),
    ("repro.service.store", "ResultStore.get", "store.get"),
    ("repro.service.store", "ResultStore.get_structure", "store.get"),
    ("repro.service.store", "ResultStore.put", "store.put"),
    ("repro.service.store", "ResultStore.put_structure", "store.put"),
)

#: Spans whose open interval is the parent of spans on other threads.
ANCHORS = ("service.submit", "bench.cold_pass", "bench.replay")

#: Spans every traced cold pass must contain (workloads add their own),
#: and every traced warm replay.
COLD_SPANS = frozenset({
    "bench.cold_pass", "service.submit", "runner.run_point",
    "hashing.config_digest", "hashing.structure_hash", "graph.build",
    "graph.comm_plan", "priorities.sweep", "schedulers.plan",
    "simulator.simulate_compiled", "store.open", "store.get", "store.put",
})
REPLAY_SPANS = frozenset({
    "bench.replay", "service.submit", "hashing.config_digest", "store.open",
    "store.get",
})


def graph_nbytes(cg: Any) -> int:
    """Computed bytes held by a compiled graph and its comm plan arrays."""
    total = 0
    for obj in (cg, getattr(cg, "_plan", None)):
        if obj is None:
            continue
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, np.ndarray):
                total += value.nbytes
    return total


class Tracer:
    """In-memory span recorder over wrapped entry points."""

    def __init__(self) -> None:
        #: one row per span: [name, start, end, parent index, attrs]
        self.spans: list[list[Any]] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._anchors: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        # id -> weak reference of every graph already sized (compiled
        # graphs are unhashable dataclasses, so no WeakSet)
        self._sized: dict[int, "weakref.ref[Any]"] = {}

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._anchors[-1] if self._anchors else -1
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        stack.append(sid)
        if name in ANCHORS:
            self._anchors.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()
        if self.spans[sid][0] in ANCHORS:
            self._anchors.remove(sid)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        sid = self.open(name, **attrs)
        try:
            yield sid
        finally:
            self.close(sid)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], name: str,
              **attrs: Any) -> Callable[..., Any]:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args: Any, **kwargs: Any) -> Any:
                sid = tracer.open(name, **attrs)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = tracer.open(name, **attrs)
            try:
                out = fn(*args, **kwargs)
                tracer._annotate(sid, name, args, out)
                return out
            finally:
                tracer.close(sid)
        return wrapper

    def _annotate(self, sid: int, name: str, args: tuple[Any, ...],
                  out: Any) -> None:
        attrs = self.spans[sid][4]
        if name in ("graph.build", "graph.compile_graph"):
            attrs["tasks"] = out.n_tasks
        elif name == "simulator.simulate_compiled":
            attrs["tasks"] = args[0].n_tasks
        elif name == "graph.comm_plan":
            # Size each graph the runner hands to the simulator once: its
            # plan request is the one made directly under run_point (the
            # simulator's own request hits the cached plan, and a reused
            # graph was sized when it was built).
            cg = args[0]
            parent = self.spans[sid][3]
            seen = self._sized.get(id(cg))
            if (parent >= 0 and self.spans[parent][0] == "runner.run_point"
                    and (seen is None or seen() is not cg)):
                self._sized[id(cg)] = weakref.ref(cg)
                attrs["graph_bytes"] = graph_nbytes(cg)
                attrs["tasks"] = cg.n_tasks

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        for module_name, path, name in ENTRY_POINTS:
            *outer, attr = path.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, self._wrap(fn, name))
        from repro.schedulers import POLICIES

        for policy, cls in sorted(POLICIES.items()):
            if "plan" not in cls.__dict__:
                self.missing.append(f"{cls.__module__}.{cls.__name__}.plan")
                continue
            self._patch(cls, "plan", self._wrap(
                cls.__dict__["plan"], "schedulers.plan", policy=policy))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def gaps(self, expected: "frozenset[str] | set[str]",
             policies: set[str]) -> list[str]:
        """Why the spans cannot be trusted: entry points not found, spans
        in ``expected`` never opened, and policies in ``policies`` whose
        ``plan`` left no span."""
        seen = {row[0] for row in self.spans}
        planned = {row[4]["policy"] for row in self.spans
                   if row[0] == "schedulers.plan"}
        out = [f"tracer: entry point {m} not found" for m in self.missing]
        out += [f"tracer: no {name} span; its entry point is no longer on "
                f"the path" for name in sorted(set(expected) - seen)]
        out += [f"tracer: no schedulers.plan span for policy {p}"
                for p in sorted(policies - planned)]
        return out

    def dump(self, path: str) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                for n, s, e, p, a in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "missing": self.missing}, fh)


# --------------------------------------------------------------------------
# span analysis
# --------------------------------------------------------------------------

#: span name -> cold-pass self-time metric.  The self times of all spans
#: under ``bench.cold_pass`` add up to that span's duration exactly, and
#: the pass span's own self time is the part no layer claims.
COLD_SELF = {
    "bench.cold_pass": "trace.unattributed_s",
    "service.submit": "service.self_s",
    "runner.run_point": "runner.self_s",
    "hashing.config_digest": "hashing.config_digest_s",
    "hashing.structure_hash": "hashing.structure_hash_s",
    "graph.build": "graph.build_s",
    "graph.object_build": "graph.lower_s",
    "graph.compile_graph": "graph.lower_s",
    "graph.comm_plan": "graph.comm_plan_s",
    "priorities.sweep": "priorities.sweep_s",
    "schedulers.plan": "schedulers.plan_s",
    "simulator.simulate_compiled": "simulator.self_s",
    "topology.compile": "topology.compile_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
}

#: span name -> warm-replay self time per submit (us).  ``replay.client_us``
#: is the replay loop's own share: ``SweepClient.submit`` and its event
#: loop round trip outside the server.
REPLAY_SELF = {
    "bench.replay": "replay.client_us",
    "service.submit": "replay.service_self_us",
    "hashing.config_digest": "replay.config_digest_us",
    "store.get": "replay.store_get_us",
}


def self_times(spans: list[list[Any]]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for sid, row in enumerate(spans):
        if row[3] >= 0:
            children[row[3]].append(sid)
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for cs, ce in sorted((spans[c][1], spans[c][2]) for c in children[sid]):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append(end - start - covered)
    return out


def _in_window(spans: list[list[Any]], window: str) -> list[bool]:
    """Per span: is its outermost ancestor the ``window`` span?"""
    out = []
    for sid in range(len(spans)):
        while spans[sid][3] >= 0:
            sid = spans[sid][3]
        out.append(spans[sid][0] == window)
    return out


def cold_layers(spans: list[list[Any]], policies: list[str]) -> dict[str, float]:
    """Per-layer metrics of a traced cold pass, from its spans alone."""
    selfs = self_times(spans)
    inside = _in_window(spans, "bench.cold_pass")
    out = dict.fromkeys(sorted(set(COLD_SELF.values())), 0.0)
    out.update((f"schedulers.plan_s.{p}", 0.0) for p in policies)
    built = sized = sized_bytes = simulated = 0
    run_point = dispatch_wait = 0.0
    kids: dict[int, list[int]] = {}
    for sid, (name, start, end, parent, attrs) in enumerate(spans):
        if not inside[sid]:
            continue
        kids.setdefault(parent, []).append(sid)
        if name in COLD_SELF:
            out[COLD_SELF[name]] += selfs[sid]
        if name == "schedulers.plan":
            out[f"schedulers.plan_s.{attrs['policy']}"] += selfs[sid]
        elif name in ("graph.build", "graph.compile_graph"):
            built += attrs["tasks"]
        elif name == "graph.comm_plan" and "graph_bytes" in attrs:
            sized += attrs["tasks"]
            sized_bytes += attrs["graph_bytes"]
        elif name == "simulator.simulate_compiled":
            simulated += attrs["tasks"]
        elif name == "runner.run_point":
            run_point += end - start
    # Dispatch wait: from the store miss (the end of the submit's last
    # child before the worker starts) to run_point starting on the pool.
    for sid, children in kids.items():
        if sid < 0 or spans[sid][0] != "service.submit":
            continue
        ready = spans[sid][1]
        for c in sorted(children, key=lambda c: spans[c][1]):
            if spans[c][0] == "runner.run_point":
                dispatch_wait += spans[c][1] - ready
                break
            ready = max(ready, spans[c][2])
    out.update({
        "graph.tasks": built,
        # Computed from array nbytes, not measured.
        "graph.bytes_per_task": sized_bytes / sized if sized else 0.0,
        "simulator.us_per_task": (out["simulator.self_s"] / simulated * 1e6
                                  if simulated else 0.0),
        "runner.run_point_s": run_point,
        "service.dispatch_wait_s": dispatch_wait,
    })
    return out


def replay_layers(spans: list[list[Any]], submits: int) -> dict[str, float]:
    """Per-layer metrics of a traced warm replay of ``submits`` points."""
    selfs = self_times(spans)
    inside = _in_window(spans, "bench.replay")
    totals = dict.fromkeys(REPLAY_SELF, 0.0)
    store_open = simulator = 0.0
    for sid, (name, start, end, _, _) in enumerate(spans):
        if not inside[sid]:
            continue
        if name in totals:
            totals[name] += selfs[sid]
        elif name == "store.open":
            store_open += selfs[sid]
        elif name == "simulator.simulate_compiled":
            simulator += end - start
    out = {REPLAY_SELF[k]: v / max(submits, 1) * 1e6 for k, v in totals.items()}
    out["store.open_s"] = store_open
    out["replay.simulator_s"] = simulator
    return out
