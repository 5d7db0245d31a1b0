"""The one iteration driver every engine loop runs under (paper §3-4, Fig 5).

The paper's engine is a single per-iteration loop: sweep the units, stage
the updates, write back, test convergence.  G-Shards, Concatenated
Windows, the streamed chunk schedule and the CSR baselines differ only
inside the sweep.  :class:`IterationDriver` is that loop, and it is the
only place in :mod:`repro.frameworks` (apart from the independent
``scalar`` oracle) that does each of the things around the sweep:

- the run span, the iteration spans and their attributes, the stage spans
  an engine hands back, the ``engine.updated_vertices`` histogram and the
  end-of-run metrics;
- representation-cache lookups (through the run's
  :class:`~repro.cache.RunCache`, which counts every hit and miss of the
  run, the certify and narrow gates' lookups included);
- the frontier: the influence CSR, :class:`ShardFrontier`, the
  per-iteration direction choice, ``begin_iteration``, the updated-vertex
  mask and the pull-side ``defer``;
- multi-device placement: the per-iteration time split and the exchange;
- PCIe transfers and every :class:`~repro.frameworks.base.FaultHooks` site;
- convergence, :class:`~repro.errors.ConvergenceError` and the
  :class:`~repro.frameworks.base.RunResult`.

An engine supplies a :class:`Plan` per run: its representations, its unit
structure (unit size, per-unit edge counts, the frontier flush positions)
and a ``sweep(iteration, push)`` that evaluates the kernels, marks
push-side frontier units at its own write-back boundaries and returns a
:class:`Sweep`.  Spans a sweep emits while it runs come before the
iteration's ``exchange`` span; the stage spans it returns come after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cache import RunCache
from repro.frameworks.base import (ConvergenceError, Engine, IterationTrace,
                                   RunConfig, RunResult)
from repro.frameworks.frontier import ShardFrontier, vertex_influence_csr
from repro.graph.digraph import DiGraph
from repro.gpu.pcie import transfer_ms
from repro.gpu.stats import KernelStats
from repro.placement import multi_device_run, remote_unit_counts
from repro.telemetry.metrics import publish_kernel_stats
from repro.vertexcentric.program import VertexProgram

__all__ = ["RunCache", "Sweep", "Plan", "IterationDriver", "DrivenEngine",
           "concat"]

_EMPTY = np.empty(0, dtype=np.int64)


def concat(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate(parts)``, or an empty index array for no parts."""
    if not parts:
        return _EMPTY
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@dataclass
class Sweep:
    """What one iteration's sweep hands back to the driver."""

    updated: np.ndarray
    """Indices of the vertices the sweep updated."""
    stats: KernelStats
    """The iteration's whole hardware activity."""
    ms: float
    """Single-device modeled milliseconds of the iteration."""
    processed: np.ndarray | None = None
    """Units a push iteration processed (ascending); unused on pulls."""
    updated_units: np.ndarray | None = None
    """Units whose write-back ran (their remote slots exchange); ``None``
    means the units holding :attr:`updated`."""
    stages: tuple = ()
    """``(name, KernelStats)`` stage spans to emit after the exchange; the
    run's ``stage_stats`` are their sums."""
    attrs: dict | None = None
    """Engine-specific iteration-span attributes."""
    buffers: tuple = ()
    """Large per-iteration arrays (the message buffers) the driver keeps
    alive until the next sweep has returned.  Freeing them all at the end
    of a sweep leaves enough free memory at the heap top for glibc to trim
    it, and the next sweep page-faults it back in (an 8k-vertex PageRank
    on ``cusha-cw`` took about 40 times the minor faults and 2.4 times the
    wall time on a 2-core x86 VM)."""


@dataclass
class Plan:
    """An engine's per-run setup: values, unit structure and sweep."""

    values: np.ndarray
    """The live VertexValues the sweep updates in place."""
    sweep: Callable[[int, bool], Sweep]
    representation_bytes: int
    unit_size: int = 1
    unit_edges: np.ndarray | None = None
    """Entries each unit processes.  ``None`` for engines without unit
    structure, which ignore the frontier and placement knobs."""
    flush_pos: np.ndarray | None = None
    """Per-unit frontier flush positions (see ``frontier.resume_dirty``)."""
    h2d_bytes: int | None = None
    """Bulk host-to-device bytes.  ``None`` for host engines: no PCIe
    transfers, launch or transfer faults, or GPU counters."""
    h2d_attrs: dict = field(default_factory=dict)
    launch: tuple[int, int] = (0, 0)
    """Shared bytes requested and their limit, for ``faults.launch``."""
    occupancy: float = 1.0
    """Occupancy the stage spans are priced at."""
    gauges: dict = field(default_factory=dict)
    stage_stats: bool = True
    """Whether the result carries per-stage totals."""
    finish: Callable[[RunResult], None] | None = None
    """Engine-specific end-of-run reporting on the result."""


class IterationDriver:
    """Runs one engine's :class:`Plan` to convergence (see module doc)."""

    def __init__(
        self, engine: "DrivenEngine", graph: DiGraph,
        program: VertexProgram, config: RunConfig, cache: RunCache,
    ) -> None:
        self.engine = engine
        self.graph = graph
        self.program = program
        self.config = config
        self.tracer = config.tracer
        self.trace_on = self.tracer.enabled
        #: The run's cache view (see :meth:`Engine.run`).
        self.cache = cache
        #: The run's dirty bitmap (``None`` with the frontier off); sweeps
        #: read it on push iterations.
        self.frontier: ShardFrontier | None = None
        #: Model-clock start of the current iteration, for the spans a
        #: sweep emits while it runs.
        self.start_ms = 0.0

    def run(self) -> RunResult:
        engine, graph = self.engine, self.graph
        with self.tracer.span(
            engine.name, "run", engine=engine.name,
            program=self.program.name, num_vertices=graph.num_vertices,
            num_edges=graph.num_edges, **engine._run_attrs(),
        ) as run_span:
            return self._iterate(run_span)

    def _iterate(self, run_span) -> RunResult:
        engine, graph, program, config = (
            self.engine, self.graph, self.program, self.config)
        tracer, trace_on = self.tracer, self.trace_on
        name = engine.name
        n = graph.num_vertices
        plan = engine._plan(self)

        unit_edges = plan.unit_edges
        mdr = frontier = last_mask = None
        if unit_edges is not None:
            N, U = plan.unit_size, unit_edges.size
            total_edges = int(unit_edges.sum())
            mdr = multi_device_run(
                config, U, weights=unit_edges,
                remote_counts=lambda placement: self.cache.get(
                    ("remote", N, placement),
                    lambda: remote_unit_counts(graph.src // N,
                                               graph.dst // N, placement),
                ),
                value_bytes=program.vertex_value_bytes, pcie=engine.pcie,
            )
            if config.frontier != "off":
                indptr, targets = self.cache.get(
                    ("frontier", N),
                    lambda: vertex_influence_csr(graph.src, graph.dst, n, N,
                                                 U),
                )
                frontier = self.frontier = ShardFrontier(
                    U, N, indptr, targets, resume=config.resume_frontier,
                    flush_pos=plan.flush_pos,
                )
                last_mask = np.zeros(n, dtype=bool)
        if trace_on and self.cache.cache is not None:
            tracer.metrics.counter("cache.hits").inc(self.cache.hits)
            tracer.metrics.counter("cache.misses").inc(self.cache.misses)

        faults = config.faults
        gpu = plan.h2d_bytes is not None
        h2d_ms = d2h_ms = 0.0
        if gpu:
            d2h_bytes = n * program.vertex_value_bytes
            h2d_ms = transfer_ms(plan.h2d_bytes, engine.pcie)
            d2h_ms = transfer_ms(d2h_bytes, engine.pcie)
            if faults.active:
                faults.launch(name, *plan.launch)
                faults.transfer(name, "h2d")
            tracer.emit("h2d", "transfer", model_start_ms=0.0,
                        model_ms=h2d_ms, bytes=plan.h2d_bytes,
                        **plan.h2d_attrs)

        total = KernelStats()
        stage_totals: dict[str, KernelStats] = {}
        traces: list[IterationTrace] = []
        kernel_ms = 0.0
        converged = False
        iterations = config.start_iteration
        for iteration in range(config.start_iteration + 1,
                               config.max_iterations + 1):
            if faults.active:
                faults.kernel(name, iteration, config.exec_path)
                if mdr is not None:
                    faults.device(name, iteration, config.exec_path,
                                  mdr.placement)
            start_ms = self.start_ms = h2d_ms + kernel_ms
            with tracer.span(f"iter-{iteration}", "iteration",
                             model_start_ms=start_ms) as it_span:
                push = False
                direction = None
                if frontier is not None:
                    program.begin_iteration(iteration)
                    if config.frontier == "auto":
                        direction = frontier.direction(unit_edges,
                                                       total_edges)
                    else:
                        direction = "push"
                    push = direction == "push"
                    last_mask[:] = False
                sweep = plan.sweep(iteration, push)
                updated = int(sweep.updated.size)
                active = 0
                if frontier is not None:
                    last_mask[sweep.updated] = True
                    if push:
                        active = int(sweep.processed.size)
                        frontier.edges_processed += int(
                            unit_edges[sweep.processed].sum())
                        frontier.shards_skipped += U - active
                    else:
                        # Every unit ran: the bitmap is rebuilt from the
                        # mask only if the next direction test needs it.
                        active = U
                        frontier.edges_processed += total_edges
                        frontier.defer(last_mask)
                t_ms = sweep.ms
                if mdr is not None:
                    if push:
                        mdr.note_processed(sweep.processed)
                    units = sweep.updated_units
                    if units is None and updated:
                        units = np.flatnonzero(np.bincount(
                            sweep.updated // N, minlength=U))
                    if units is not None:
                        mdr.note_updated(units)
                    t_ms = mdr.iteration_time(t_ms)
                    if trace_on and mdr.last_exchange_bytes:
                        tracer.emit(
                            "exchange", "transfer",
                            model_start_ms=start_ms + t_ms
                            - mdr.last_exchange_ms,
                            model_ms=mdr.last_exchange_ms,
                            bytes=mdr.last_exchange_bytes,
                            iteration=iteration,
                        )
                kernel_ms += t_ms
                total += sweep.stats
                iterations = iteration
                if config.collect_traces:
                    traces.append(IterationTrace(iteration, updated, t_ms,
                                                 kernel_ms, active))
                if plan.stage_stats:
                    for stage, stats in sweep.stages:
                        if stage in stage_totals:
                            stage_totals[stage] += stats
                        else:
                            stage_totals[stage] = stats.copy()
                if trace_on:
                    it_span.model_ms = t_ms
                    it_span.attrs["updated_vertices"] = updated
                    if sweep.attrs:
                        it_span.attrs.update(sweep.attrs)
                    if frontier is not None:
                        it_span.attrs["frontier_direction"] = direction
                        it_span.attrs["active_shards"] = active
                    tracer.metrics.histogram(
                        "engine.updated_vertices").observe(updated)
                    for stage, stats in sweep.stages:
                        tracer.emit(
                            stage, "stage", model_start_ms=start_ms,
                            model_ms=engine.cost_model.time_ms(
                                stats, occupancy=plan.occupancy),
                            stats=stats, iteration=iteration,
                        )
            if faults.active:
                faults.values(name, iteration, plan.values)
            if updated == 0:
                converged = True
                break

        if not converged and not config.allow_partial:
            raise ConvergenceError(
                f"{name}/{program.name} did not converge in "
                f"{config.max_iterations} iterations"
            )
        if gpu:
            if faults.active:
                faults.transfer(name, "d2h")
            tracer.emit("d2h", "transfer", model_start_ms=h2d_ms + kernel_ms,
                        model_ms=d2h_ms, bytes=d2h_bytes)
        if trace_on:
            m = tracer.metrics
            if gpu:
                publish_kernel_stats(m, total)
            m.counter("engine.iterations").inc(
                iterations - config.start_iteration)
            for gauge, value in plan.gauges.items():
                m.gauge(gauge).set(value)
            if mdr is not None:
                mdr.publish(tracer, engine=name)
            if frontier is not None:
                m.counter("frontier.edges_processed").inc(
                    frontier.edges_processed)
                m.counter("frontier.shards_skipped").inc(
                    frontier.shards_skipped)
            run_span.model_ms = h2d_ms + kernel_ms + d2h_ms
            run_span.attrs["iterations"] = iterations
            run_span.attrs["converged"] = converged
            if frontier is not None:
                run_span.attrs["frontier"] = config.frontier
        result = RunResult(
            engine=name,
            program=program.name,
            values=plan.values,
            iterations=iterations,
            converged=converged,
            kernel_time_ms=kernel_ms,
            h2d_ms=h2d_ms,
            d2h_ms=d2h_ms,
            representation_bytes=plan.representation_bytes,
            stats=total,
            traces=traces,
            num_edges=graph.num_edges,
            stage_stats=stage_totals if plan.stage_stats else None,
            exec_path=config.exec_path,
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            edges_processed=0 if frontier is None
            else frontier.edges_processed,
            shards_skipped=0 if frontier is None else frontier.shards_skipped,
            frontier_mask=None if last_mask is None else last_mask.copy(),
            # Engines without units ignore the placement knobs.
            devices=1 if unit_edges is None else config.devices,
            exchange_bytes=0 if mdr is None else mdr.exchange_bytes,
            exchange_ms=0.0 if mdr is None else mdr.exchange_ms,
        )
        if plan.finish is not None:
            plan.finish(result)
        return result


class DrivenEngine(Engine):
    """An engine whose run is the :class:`IterationDriver` over its
    :meth:`_plan`.  Subclasses set ``name``, ``cache`` and — when they
    model a GPU — ``pcie`` and ``cost_model``."""

    def _run(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig,
        cache: RunCache,
    ) -> RunResult:
        return IterationDriver(self, graph, program, config, cache).run()

    def _run_attrs(self) -> dict:
        """Extra attributes of the run span."""
        return {}

    def _plan(self, run: IterationDriver) -> Plan:
        """Set up one run: build representations through ``run.cache``
        and return the engine's :class:`Plan`."""
        raise NotImplementedError
