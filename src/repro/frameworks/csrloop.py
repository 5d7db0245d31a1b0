"""Shared CSR iteration machinery for the VWC and MTCPU baselines.

Both baselines walk the same incoming-edge CSR with the same semantics: the
vertex set is processed in contiguous chunks; within a chunk values are
computed from the *live* ``VertexValues`` array and applied at chunk end
(chunked Gauss–Seidel).  This matches Figure 14, where vertex updates land
directly in the single-version ``VertexValues`` and become visible to
concurrently running virtual warps — the reason the paper's Figure 7 shows
CSR converging in fewer (but slower) iterations than CuSha's multi-version
shards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frameworks.driver import RunCache
from repro.graph.csr import CSR
from repro.graph.digraph import DiGraph
from repro.vertexcentric.program import VertexProgram, apply_reductions

__all__ = ["CSRProblem", "cached_csr", "run_chunk", "iterate_chunks"]


def cached_csr(graph: DiGraph, cache: RunCache) -> CSR:
    """The incoming-edge CSR of ``graph``, shared through the cache."""
    return cache.get(("csr",), lambda: CSR.from_graph(graph))


@dataclass
class CSRProblem:
    """CSR arrays plus program data, ready to iterate."""

    csr: CSR
    program: VertexProgram
    vertex_values: np.ndarray
    slot_static: np.ndarray | None  # source's static record, CSR slot order
    edge_values: np.ndarray | None  # CSR slot order
    destinations: np.ndarray  # per CSR slot, int64
    sources: np.ndarray  # per CSR slot, int64

    @classmethod
    def build(
        cls, graph: DiGraph, program: VertexProgram, cache=None
    ) -> "CSRProblem":
        """Assemble the problem, memoizing the structural pieces.

        The CSR arrays and the per-slot destination map depend only on the
        graph's topology, so they are cached by fingerprint (see
        :mod:`repro.cache`); the per-slot sources and the value arrays are
        built fresh, once per run, in CSR slot order (static records are
        gathered through the sources here, not in every chunk).
        ``cache`` is an engine cache option (``cache=False`` disables the
        memo) or a run's :class:`~repro.cache.RunCache`.
        """
        if not isinstance(cache, RunCache):
            cache = RunCache(graph, cache)
        csr = cached_csr(graph, cache)
        destinations = cache.get(
            ("csr-dest",), lambda: csr.destinations().astype(np.int64)
        )
        sources = csr.src_indxs.astype(np.int64)
        sv = program.static_values(graph)
        ev = program.edge_values(graph)
        return cls(
            csr=csr,
            program=program,
            vertex_values=program.initial_values(graph),
            slot_static=None if sv is None else sv[sources],
            edge_values=None if ev is None else csr.gather_edge_values(ev),
            destinations=destinations,
            sources=sources,
        )


def run_chunk(problem: CSRProblem, a: int, b: int) -> tuple[np.ndarray, int]:
    """Process vertices ``[a, b)``; apply updates in place.

    Returns ``(updated_vertex_indices, reduction_ops)``.
    """
    prog = problem.program
    vv = problem.vertex_values
    lo = int(problem.csr.in_edge_idxs[a])
    hi = int(problem.csr.in_edge_idxs[b])
    old = vv[a:b]
    local = prog.init_local(old)
    ops = 0
    if hi > lo:
        dests = problem.destinations[lo:hi]
        msgs, mask = prog.messages(
            vv[problem.sources[lo:hi]],
            None if problem.slot_static is None else problem.slot_static[lo:hi],
            None if problem.edge_values is None else problem.edge_values[lo:hi],
            vv[dests],
        )
        ops = apply_reductions(prog, local, dests - a, msgs, mask)
    final, upd = prog.apply(local, old)
    idx = a + np.flatnonzero(upd)
    if idx.size:
        vv[idx] = final[upd]
    return idx, ops


def iterate_chunks(
    problem: CSRProblem, chunk_size: int, *, metrics=None
) -> tuple[np.ndarray, int]:
    """One full iteration over all vertices in ``chunk_size`` chunks.

    Returns ``(updated_vertex_indices, reduction_ops)`` for the iteration.
    When a :class:`~repro.telemetry.MetricsRegistry` is passed via
    ``metrics``, the iteration's reduction-op and chunk counts are published
    under the ``csr.*`` namespace.
    """
    n = problem.csr.num_vertices
    updated: list[np.ndarray] = []
    ops = 0
    chunks = 0
    for a in range(0, n, chunk_size):
        idx, chunk_ops = run_chunk(problem, a, min(a + chunk_size, n))
        ops += chunk_ops
        chunks += 1
        if idx.size:
            updated.append(idx)
    if metrics is not None:
        metrics.counter("csr.reduction_ops").inc(ops)
        metrics.counter("csr.chunks").inc(chunks)
    if updated:
        return np.concatenate(updated), ops
    return np.empty(0, dtype=np.int64), ops
