"""Outside-in tracing: timing wrappers installed from the benchmark.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
public callables of ``repro`` (class methods, and module functions wherever
a ``repro`` module bound them by name) with wrappers that record one span
per call.  A span carries its name, start, end, parent and the id of the
chunk being pushed; a layer's *self* time is its spans' duration minus the
part their child spans cover.  Aggregates (calls, total, self) are kept for
every span; the raw spans of the first few chunks are kept too and written
out when the run ends.

Every wrapped call costs ``wrapper_ns`` that the untraced program does not
pay.  The cost is calibrated on a no-op (:meth:`Tracer.calibrate`) and
subtracted from the self time it lands in: the part spent between the two
clock reads from the callee's own span, the rest from its parent's.

A fork made while wrappers are installed would carry them into the child,
where nobody reads them; ``os.register_at_fork`` removes them there, so shard
workers run the unwrapped engine.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "LAYER_SPANS", "install_layers"]

#: raw spans are kept for chunks ``0 .. RAW_CHUNKS-1`` of the timed region,
#: and never more than ``RAW_LIMIT`` of them (a TPC-H chunk of 256 inputs is
#: ~4,000 spans; the ISSUE's "first 1,000 chunks" would be the whole run,
#: millions of spans, and would cost more than the run it describes)
RAW_CHUNKS = 8
RAW_LIMIT = 60_000

#: marks a patched method that the class inherited rather than defined
_INHERITED = object()


class Tracer:
    """Span recorder behind the timing wrappers of one process."""

    def __init__(self) -> None:
        #: span name -> [calls, total_ns, self_ns, child_calls]
        self.agg: Dict[str, List[int]] = {}
        #: open spans, innermost last: [child_ns, child_calls, raw_index]
        self._stack: List[List[int]] = []
        #: (name, start_ns, end_ns, parent raw index or -1, chunk)
        self.raw: List[Tuple[str, int, int, int, int]] = []
        #: chunk being pushed (set by the harness loop); -1 outside chunks
        self.chunk = -1
        self._raw_on = [False]
        self._patches: List[Tuple[Any, str, Any]] = []
        #: calibrated cost of one wrapped call, and its part inside the span
        self.wrapper_ns = 0.0
        self.inside_ns = 0.0
        #: what :meth:`export` gave when :meth:`reset` was last called:
        #: the spans of set-up and warm-up
        self.before: Dict[str, List[float]] = {}
        self._fork_hook = False

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span called ``name``.

        ``observe(result, args)`` runs after the span closed (outside the
        timed interval) — for counts measured where the work happens.
        """
        agg = self.agg.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        raw = self.raw
        raw_on = self._raw_on
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [0, 0, -1]
            if raw_on[0]:
                frame[2] = len(raw)
                raw.append(
                    (name, 0, 0, parent[2] if parent else -1, tracer.chunk)
                )
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                agg[3] += frame[1]
                if parent is not None:
                    parent[0] += dur
                    parent[1] += 1
                if frame[2] >= 0:
                    entry = raw[frame[2]]
                    raw[frame[2]] = (name, start, end, entry[3], entry[4])
            if observe is not None:
                observe(result, args)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[Any, tuple], None]] = None,
    ) -> None:
        """Replace the method ``owner.attr`` by its wrapped form.

        Classmethods stay classmethods.  A method ``owner`` only inherits
        is shadowed on ``owner`` itself (and un-shadowed by
        :meth:`uninstall`), so the base class is left alone.
        """
        original = owner.__dict__.get(attr, _INHERITED)
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self.wrap(name, original.__func__, observe))
        elif original is _INHERITED:
            wrapped = self.wrap(name, getattr(owner, attr), observe)
        else:
            wrapped = self.wrap(name, original, observe)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        self._register_fork_hook()

    def patch_function(
        self,
        fn: Callable[..., Any],
        name: str,
        observe: Optional[Callable[[Any, tuple], None]] = None,
    ) -> None:
        """Wrap a module-level function in every ``repro`` module that
        bound it by name (``from .stores import probe_batch`` copies the
        reference, so patching the defining module alone would miss it)."""
        wrapped = self.wrap(name, fn, observe)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)
        self._register_fork_hook()

    def uninstall(self) -> None:
        """Put every patched attribute back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _register_fork_hook(self) -> None:
        if not self._fork_hook:
            self._fork_hook = True
            os.register_at_fork(after_in_child=self.uninstall)

    def set_chunk(self, chunk: int) -> None:
        """Tell the tracer which chunk the following spans belong to."""
        self.chunk = chunk
        self._raw_on[0] = 0 <= chunk < RAW_CHUNKS and len(self.raw) < RAW_LIMIT

    # ------------------------------------------------------------------
    # calibration and read-out
    # ------------------------------------------------------------------
    def calibrate(self, calls: int = 50_000) -> None:
        """Measure what one wrapped call costs on a no-op.

        ``wrapper_ns`` is the extra wall per wrapped call; ``inside_ns`` the
        part of it the callee's own span sees (between its two clock
        reads).  The remainder lands in the parent's self time.
        """

        def noop() -> None:
            return None

        probe = Tracer()
        wrapped = probe.wrap("noop", noop)
        timings = []

        def root() -> None:
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter_ns()
            for _ in range(calls):
                noop()
            timings.extend((t1 - t0, time.perf_counter_ns() - t1))

        probe.wrap("root", root)()
        self.wrapper_ns = max(0.0, (timings[0] - timings[1]) / calls)
        self.inside_ns = min(self.wrapper_ns, probe.agg["noop"][1] / calls)

    def reset(self) -> None:
        """Move every span recorded so far to :attr:`before` (keeps the
        installed wrappers and the calibration) — called when the timed
        region starts."""
        self.before = self.export()
        for entry in self.agg.values():
            entry[:] = [0, 0, 0, 0]
        del self.raw[:]
        self.set_chunk(-1)

    def total_s(self, name: str) -> float:
        """Summed duration of the spans called ``name`` (seconds, less the
        wrapper cost the spans saw themselves)."""
        calls, total, _, _ = self.agg.get(name, (0, 0, 0, 0))
        return max(0.0, total - calls * self.inside_ns) / 1e9

    def self_s(self, name: str) -> float:
        """Self time of the spans called ``name``: duration minus child
        spans, minus the calibrated wrapper cost that landed here."""
        calls, _, self_ns, child_calls = self.agg.get(name, (0, 0, 0, 0))
        outside = self.wrapper_ns - self.inside_ns
        return max(0.0, self_ns - calls * self.inside_ns - child_calls * outside) / 1e9

    def overhead_s(self) -> float:
        """Wall time the wrappers themselves added to the traced region."""
        return sum(entry[0] for entry in self.agg.values()) * self.wrapper_ns / 1e9

    def export(self) -> Dict[str, List[float]]:
        """``name -> [calls, total_s, self_s]`` for every span seen."""
        return {
            name: [entry[0], self.total_s(name), self.self_s(name)]
            for name, entry in sorted(self.agg.items())
            if entry[0]
        }

    def write_raw(self, path: str, header: Dict[str, Any]) -> None:
        """Write the raw spans kept (and the aggregates) as JSON."""
        document = dict(header)
        document["wrapper_ns"] = self.wrapper_ns
        document["aggregates"] = self.export()
        document["span_fields"] = ["name", "start_ns", "end_ns", "parent", "chunk"]
        document["spans"] = self.raw
        with open(path, "w") as handle:
            json.dump(document, handle)
            handle.write("\n")


#: span name -> how to find the callable: ("method", module, class, attr) or
#: ("function", module, attr).  The names are the layer table of README.md.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "core.optimize": ("method", "repro.core.optimizer", "MultiQueryOptimizer", "optimize"),
    "core.build_topology": ("function", "repro.core.topology", "build_topology"),
    "ilp.solve": ("function", "repro.ilp.solvers", "solve_model"),
    "session.push_batch": ("method", "repro.session", "JoinSession", "push_batch"),
    "session.push": ("method", "repro.session", "JoinSession", "push"),
    "session.flush": ("method", "repro.session", "JoinSession", "flush"),
    "runtime.process": ("method", "repro.engine.runtime", "TopologyRuntime", "process"),
    "runtime.flush": ("method", "repro.engine.runtime", "TopologyRuntime", "flush"),
    "routing.target_tasks": ("function", "repro.engine.routing", "target_tasks"),
    "stores.insert": ("method", "repro.engine.stores", "Container", "insert"),
    "stores.evict": ("method", "repro.engine.stores", "StoreTask", "evict"),
    "stores.probe_batch": ("function", "repro.engine.stores", "probe_batch"),
    "stores.probe_container": ("function", "repro.engine.stores", "probe_container"),
    "columnar.insert": ("method", "repro.engine.columnar", "ColumnarContainer", "insert"),
    "columnar.probe_batch": ("method", "repro.engine.columnar", "ColumnarContainer", "probe_batch"),
    "columnar.probe_vector": ("method", "repro.engine.columnar", "ColumnarContainer", "probe_batch_vector"),
    "columnar.evict": ("method", "repro.engine.columnar", "ColumnarContainer", "evict_older_than"),
    "tuples.merge": ("method", "repro.engine.tuples", "StreamTuple", "merge"),
    "metrics.on_result": ("method", "repro.engine.metrics", "EngineMetrics", "on_result"),
    "rewiring.install": ("method", "repro.engine.rewiring", "RewirableRuntime", "install"),
    "adaptivity.rewire": ("method", "repro.engine.adaptivity", "AdaptivityLoop", "rewire"),
    "sharding.process": ("method", "repro.engine.sharding", "ShardedRuntime", "process"),
    "sharding.flush": ("method", "repro.engine.sharding", "ShardedRuntime", "flush"),
    "sharding.shard_of": ("method", "repro.engine.sharding", "ShardRouter", "shard_of"),
    "sharding.ipc_send": ("method", "multiprocessing.connection", "Connection", "send"),
    "sharding.ipc_recv": ("method", "multiprocessing.connection", "Connection", "recv"),
    "sharding.ipc_poll": ("method", "multiprocessing.connection", "Connection", "poll"),
    "sharding.ipc_pickle": ("method", "multiprocessing.reduction", "ForkingPickler", "dumps"),
    "snapshot.write": ("function", "repro.service.snapshot", "write_snapshot"),
    "snapshot.read": ("function", "repro.service.snapshot", "read_snapshot"),
}


def install_layers(
    tracer: Tracer,
    observers: Optional[Dict[str, Callable[[Any, tuple], None]]] = None,
) -> None:
    """Install a wrapper for every entry of :data:`LAYER_SPANS`."""
    import importlib

    observers = observers or {}
    for name, target in LAYER_SPANS.items():
        module = importlib.import_module(target[1])
        if target[0] == "function":
            tracer.patch_function(getattr(module, target[2]), name, observers.get(name))
        else:
            tracer.patch(getattr(module, target[2]), target[3], name, observers.get(name))
