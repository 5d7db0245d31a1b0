"""Multithreaded CPU CSR baseline (the paper's MTCPU-CSR).

The paper's baseline is a pthreads implementation where each thread owns a
contiguous range of vertices of the incoming-edge CSR.  Python threads
cannot reproduce that timing directly (the GIL serializes them), so this
engine computes the *values* with the same chunked-per-thread semantics and
prices the run with a calibrated multicore cost model
(:class:`repro.gpu.spec.CPUSpec`):

- issue time — per-edge and per-vertex instruction costs divided by the
  effective parallelism of the chosen thread count (physical cores, then
  diminishing SMT returns, then oversubscription penalties);
- memory time — streamed CSR bytes plus the random ``VertexValues`` gather,
  whose cache-line miss rate grows as the vertex working set outgrows the
  LLC;
- synchronization — one barrier per iteration, linear in thread count.

As in the paper, the *best* thread count depends on the graph, and a
single-thread run bounds the CPU's worst case (Table 6's maxima).
"""

from __future__ import annotations

from repro.frameworks.base import RunConfig
from repro.frameworks.csrloop import CSRProblem, cached_csr, iterate_chunks
from repro.frameworks.driver import (DrivenEngine, IterationDriver, Plan,
                                     RunCache, Sweep)
from repro.graph.digraph import DiGraph
from repro.gpu.spec import CPUSpec, I7_3930K
from repro.gpu.stats import KernelStats
from repro.vertexcentric.program import VertexProgram

__all__ = ["MTCPUEngine", "MTCPU_THREAD_COUNTS"]

MTCPU_THREAD_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
"""The thread counts the paper sweeps."""


class MTCPUEngine(DrivenEngine):
    """CSR processing on the modeled host CPU with ``threads`` workers."""

    def __init__(
        self, threads: int = 12, *, spec: CPUSpec = I7_3930K, cache=None
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be positive")
        self.threads = threads
        self.spec = spec
        self.cache = cache
        self.name = f"mtcpu-{threads}"

    # ------------------------------------------------------------------
    def _iteration_ms(self, graph: DiGraph, program: VertexProgram) -> float:
        spec = self.spec
        n, m = graph.num_vertices, graph.num_edges
        vbytes = program.vertex_value_bytes
        ebytes = program.edge_value_bytes
        sbytes = program.static_value_bytes

        issue_cycles = m * spec.edge_cycles + n * spec.vertex_cycles
        issue_s = issue_cycles / (spec.clock_ghz * 1e9) / spec.effective_parallelism(
            self.threads
        )

        # Random gathers: one potential cache line per edge, discounted by
        # how much of the vertex working set the LLC covers.
        working_set = max(1, n * (vbytes + sbytes))
        miss_rate = min(1.0, max(0.05, 1.0 - spec.llc_bytes / working_set))
        random_bytes = m * spec.cache_line_bytes * miss_rate
        stream_bytes = m * (4 + ebytes) + n * (2 * vbytes + 8)
        mem_s = (random_bytes + stream_bytes) / (spec.mem_bandwidth_gb_per_s * 1e9)

        sync_s = self.threads * spec.sync_overhead_us_per_thread / 1e6
        return (max(issue_s, mem_s) + sync_s) * 1e3

    # ------------------------------------------------------------------
    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> tuple:
        """The CSR this run iterates, via the same cache key the run uses."""
        cache = False if config.exec_path == "reference" else self.cache
        return (cached_csr(graph, RunCache(graph, cache)),)

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """The CPU baseline emits no GPU kernel stats: nothing to
        predict (its time model is analytic, not counter-driven)."""
        return {}

    # ------------------------------------------------------------------
    def _run_attrs(self) -> dict:
        return {"threads": self.threads}

    def _plan(self, run: IterationDriver) -> Plan:
        graph, program, config = run.graph, run.program, run.config
        problem = CSRProblem.build(graph, program, cache=run.cache)
        if config.resume_values is not None:
            problem.vertex_values = config.initial_values(graph, program)
        chunk = max(1, -(-graph.num_vertices // self.threads))
        iter_ms = self._iteration_ms(graph, program)
        metrics = run.tracer.metrics if run.trace_on else None

        def sweep(iteration: int, push: bool) -> Sweep:
            updated_idx, _ops = iterate_chunks(problem, chunk, metrics=metrics)
            # No GPU profiler metrics for CPU runs.
            return Sweep(updated=updated_idx, stats=KernelStats(), ms=iter_ms)

        return Plan(
            values=problem.vertex_values,
            sweep=sweep,
            representation_bytes=problem.csr.memory_bytes(
                program.vertex_value_bytes,
                program.edge_value_bytes,
                program.static_value_bytes,
            ),
            # CPU runs pay no PCIe transfers and have no stage breakdown.
            stage_stats=False,
            gauges={"mtcpu.threads": self.threads,
                    "mtcpu.chunk_vertices": chunk},
        )
