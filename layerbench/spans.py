"""In-memory span recorder and binding-site wrappers for the traced run.

The benchmark times calls into each ``repro`` layer from its own code: it
replaces every reference to a layer's public entry points with a wrapper
that records a span, runs the workload, and puts the originals back.

Engines bind many helpers by name at import time (``from repro.gpu.memory
import gather_transactions_segmented``), so patching the defining module
alone would miss most calls.  :meth:`Patcher.function` therefore rebinds
the function object in *every* loaded ``repro`` module that holds it.

Wrappers are built with the wrapped function's ``__globals__`` and carry
``__wrapped__``, so the kernel certifier, which reads program kernels'
source and resolves their globals, sees exactly what it sees untraced.
The traced run asserts that its exact counts equal the untraced run's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types

#: Layer of each wrapped entry point: ``(module, qualified name, layer)``.
#: A dotted name is ``Class.method``.  Layers follow the ``repro`` module
#: that owns the work; ``frameworks`` is the engine loop (``Engine.run``
#: minus every wrapped child).
FUNCTIONS = (
    ("repro.frameworks.base", "Engine.run", "frameworks"),
    # graph: representation builds
    ("repro.graph.cw", "ConcatenatedWindows.from_graph", "graph"),
    ("repro.graph.shards", "GShards.__init__", "graph"),
    ("repro.graph.csr", "CSR.from_graph", "graph"),
    ("repro.graph.partition", "select_shard_size", "graph"),
    # cache
    ("repro.cache", "RepresentationCache.get", "cache"),
    ("repro.cache", "RepresentationCache.peek", "cache"),
    ("repro.cache", "RepresentationCache.put", "cache"),
    ("repro.cache", "graph_fingerprint", "cache"),
    # analysis gates
    ("repro.analysis.certify", "runtime_gate", "analysis"),
    ("repro.analysis.certify", "certify_program", "analysis"),
    ("repro.analysis.ranges", "analyze_ranges", "analysis"),
    ("repro.analysis.ranges", "narrowing_plan", "analysis"),
    ("repro.frameworks.narrow", "narrow_gate", "analysis"),
    # algorithms / vertexcentric: kernels (program classes are added by
    # Patcher.programs) and the shared reduction
    ("repro.vertexcentric.program", "apply_reductions", "algorithms"),
    # gpu cost model
    ("repro.gpu.memory", "segments_rowwise", "gpu"),
    ("repro.gpu.memory", "gather_transactions", "gpu"),
    ("repro.gpu.memory", "gather_transactions_segmented", "gpu"),
    ("repro.gpu.memory", "contiguous_transactions", "gpu"),
    ("repro.gpu.memory", "contiguous_transactions_segmented", "gpu"),
    ("repro.gpu.memory", "strided_transactions", "gpu"),
    ("repro.gpu.sharedmem", "conflict_replays", "gpu"),
    ("repro.gpu.sharedmem", "conflict_replays_segmented", "gpu"),
    ("repro.gpu.pcie", "transfer_ms", "gpu"),
    ("repro.gpu.warp", "slots_for_contiguous", "gpu"),
    ("repro.gpu.warp", "slots_for_segments", "gpu"),
    ("repro.gpu.warp", "reduction_slots", "gpu"),
    ("repro.gpu.occupancy", "blocks_per_sm", "gpu"),
    ("repro.gpu.occupancy", "occupancy", "gpu"),
    ("repro.gpu.engine", "KernelCostModel.time_ms", "gpu"),
    ("repro.frameworks.wavebatch", "cusha_static_bundle", "gpu"),
    ("repro.frameworks.wavebatch", "streamed_static_bundle", "gpu"),
    ("repro.frameworks.wavebatch", "stats_from_row", "gpu"),
    ("repro.frameworks.wavebatch", "add_row_into", "gpu"),
    ("repro.frameworks.wavebatch", "window_rows_grouped", "gpu"),
    ("repro.frameworks.cusha", "_window_rows_transactions", "gpu"),
    ("repro.frameworks.vwc", "VWCEngine._static_stat_phases", "gpu"),
    ("repro.frameworks.vwc", "VWCEngine._chunk_static_phases", "gpu"),
    ("repro.frameworks.vwc", "VWCEngine._edge_loop_stats", "gpu"),
    # frontier bookkeeping
    ("repro.frameworks.frontier", "ShardFrontier.__init__", "frontier"),
    ("repro.frameworks.frontier", "ShardFrontier.active", "frontier"),
    ("repro.frameworks.frontier", "ShardFrontier.clear", "frontier"),
    ("repro.frameworks.frontier", "ShardFrontier.mark", "frontier"),
    ("repro.frameworks.frontier", "vertex_influence_csr", "frontier"),
    ("repro.frameworks.frontier", "choose_direction", "frontier"),
    # narrowing: storage conversions around the wide kernels
    ("repro.frameworks.narrow", "NarrowedProgram.widen", "narrow"),
    ("repro.frameworks.narrow", "NarrowedProgram.narrow", "narrow"),
    # placement accounting
    ("repro.placement", "multi_device_run", "placement"),
    ("repro.placement", "remote_unit_counts", "placement"),
    ("repro.placement", "resolve_placement", "placement"),
    ("repro.placement", "MultiDeviceRun.note_processed", "placement"),
    ("repro.placement", "MultiDeviceRun.note_all_processed", "placement"),
    ("repro.placement", "MultiDeviceRun.note_updated", "placement"),
    ("repro.placement", "MultiDeviceRun.iteration_time", "placement"),
    ("repro.placement", "MultiDeviceRun.publish", "placement"),
    # telemetry emission (the program's own Tracer, when one is attached)
    ("repro.telemetry.tracer", "Tracer.span", "telemetry"),
    ("repro.telemetry.tracer", "Tracer._close", "telemetry"),
    ("repro.telemetry.tracer", "Tracer.emit", "telemetry"),
    ("repro.telemetry.metrics", "MetricsRegistry.counter", "telemetry"),
    ("repro.telemetry.metrics", "MetricsRegistry.gauge", "telemetry"),
    ("repro.telemetry.metrics", "MetricsRegistry.histogram", "telemetry"),
    ("repro.telemetry.metrics", "Counter.inc", "telemetry"),
    ("repro.telemetry.metrics", "Gauge.set", "telemetry"),
    ("repro.telemetry.metrics", "Histogram.observe", "telemetry"),
    ("repro.telemetry.metrics", "publish_kernel_stats", "telemetry"),
    # service: admission on the client thread, execution on workers
    ("repro.service.api", "Service.submit", "service"),
    ("repro.service.scheduler", "Scheduler._execute", "service"),
)

#: Program kernels timed as the ``algorithms`` layer, on every
#: VertexProgram subclass that defines them.
KERNELS = ("messages", "apply", "init_local", "begin_iteration",
           "initial_values", "static_values", "edge_values")

#: Layers in report order.
LAYERS = ("graph", "cache", "analysis", "frameworks", "algorithms", "gpu",
          "frontier", "narrow", "placement", "telemetry", "service")

_MARK = "__layerbench_span__"


class SpanRecorder:
    """Thread-safe in-memory spans: name, layer, start, end, parent, thread.

    Each thread keeps its own stack, so spans of the service's two worker
    threads and the client thread never adopt each other's parents.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[tuple] = []
        #: Called with a wrapped function's arguments before its span opens,
        #: keyed by span name.
        self.hooks: dict[str, object] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str):
        """A span-recording wrapper of ``fn`` that shares its globals."""
        recorder = self
        # The wrapper runs with ``fn``'s globals: it may use only names
        # bound here and builtins.
        clock = time.perf_counter
        ident = threading.get_ident
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            stack = recorder._stack()
            sid = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(
                        (sid, parent, name, layer, start, end, ident()))

        out = types.FunctionType(wrapper.__code__, fn.__globals__,
                                 fn.__name__, None, wrapper.__closure__)
        functools.update_wrapper(out, fn)
        setattr(out, _MARK, True)
        return out

    def write_jsonl(self, path) -> None:
        """Write every span, one JSON object a line, ordered by start."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, layer, start, end, thread in sorted(
                    self.spans, key=lambda s: s[4]):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "layer": layer, "start": start, "end": end,
                    "thread": thread}) + "\n")


class Patcher:
    """Installs wrappers at every binding site and restores them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple] = []

    def function(self, module: str, qualname: str, layer: str) -> None:
        mod = importlib.import_module(module)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            self._method(getattr(mod, cls_name), attr, f"{module}.{qualname}",
                         layer)
            return
        original = getattr(mod, qualname)
        wrapped = self.recorder.wrap(original, f"{module}.{qualname}", layer)
        # Every binding, including ``from x import f as g``.
        for site in list(sys.modules.values()):
            if not getattr(site, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(site).items()):
                if value is original:
                    self._set(site, key, wrapped)

    def _method(self, cls, attr: str, name: str, layer: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.recorder.wrap(raw.__func__, name, layer))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.recorder.wrap(raw.__func__, name,
                                                      layer))
        else:
            wrapped = self.recorder.wrap(raw, name, layer)
        self._set(cls, attr, wrapped)

    def programs(self) -> None:
        """Wrap the kernels of every loaded VertexProgram subclass."""
        from repro.frameworks.narrow import NarrowedProgram
        from repro.vertexcentric.program import VertexProgram

        seen, todo = set(), [VertexProgram]
        while todo:
            cls = todo.pop()
            for sub in cls.__subclasses__():
                if sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
        for cls in sorted(seen, key=lambda c: (c.__module__, c.__qualname__)):
            # NarrowedProgram's kernels delegate to the wide program; what
            # they add on top is the narrow<->wide conversion.
            layer = "narrow" if cls is NarrowedProgram else "algorithms"
            for attr in KERNELS:
                if attr in cls.__dict__:
                    self._method(cls, attr,
                                 f"{cls.__module__}.{cls.__qualname__}.{attr}",
                                 layer)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Patcher":
        for module, qualname, layer in FUNCTIONS:
            self.function(module, qualname, layer)
        self.programs()
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        leftovers = wrapped_bindings()
        if leftovers:
            raise RuntimeError(f"wrappers left installed: {leftovers[:5]}")

    def __enter__(self) -> "Patcher":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def wrapped_bindings() -> list[str]:
    """Every ``repro`` module global or class attribute still wrapped."""
    found = []
    for site in list(sys.modules.values()):
        if not getattr(site, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(site).items()):
            if getattr(value, _MARK, False):
                found.append(f"{site.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == site.__name__:
                for attr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, _MARK, False):
                        found.append(f"{site.__name__}.{key}.{attr}")
    return found


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    child = {}
    for sid, parent, _name, _layer, start, end, _thread in spans:
        if parent:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {s[0]: (s[5] - s[4]) - child.get(s[0], 0.0) for s in spans}


def layer_self_seconds(spans, roots=("repro.frameworks.base.Engine.run",)):
    """Per-layer self seconds of the spans inside ``roots`` spans, and the
    summed wall of those roots.  Layer self times telescope, so they add up
    to the roots' wall exactly (up to float rounding)."""
    parent_of = {s[0]: s[1] for s in spans}
    root_ids = {s[0] for s in spans if s[2] in roots}
    inside: dict[int, bool] = {}

    def under_root(sid: int) -> bool:
        chain = []
        while sid and sid not in inside:
            if sid in root_ids:
                inside[sid] = True
                break
            chain.append(sid)
            sid = parent_of.get(sid, 0)
        verdict = inside.get(sid, False) if sid else False
        for c in chain:
            inside[c] = verdict
        return verdict

    own = self_times(spans)
    per_layer = {layer: 0.0 for layer in LAYERS}
    root_wall = 0.0
    for s in spans:
        sid = s[0]
        if sid in root_ids and not under_root(s[1]):
            root_wall += s[5] - s[4]
        if under_root(sid):
            per_layer[s[3]] += own[sid]
    return per_layer, root_wall
