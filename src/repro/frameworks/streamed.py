"""Multi-streamed CuSha for graphs larger than device memory.

The paper leaves this as future work (section 5.1): *"If graphs do not fit
in the GPU RAM, a multi-streamed procedure should be incorporated to overlap
computation and data transfer."*  This engine implements that procedure on
the simulator:

- shards are grouped into **chunks** whose representation fits the device
  memory budget;
- per iteration, chunk ``k+1``'s entry arrays are copied host-to-device on
  one CUDA stream while chunk ``k`` computes on another, so transfer time
  is hidden behind compute (up to the slower of the two, per chunk);
- ``VertexValues`` (which every chunk reads and writes) stays resident on
  the device; the write-back targets of a chunk may live in a currently
  evicted chunk, so window updates destined for non-resident shards are
  spooled into a device-resident staging buffer and applied when the owner
  chunk streams back in — the same deferred-visibility semantics as a
  ``sync_mode="bsp"`` schedule across chunk boundaries.

Timing per iteration is therefore
``sum_k max(compute_ms[k], h2d_ms[k+1]) + h2d_ms[0]`` plus the staging
traffic; the engine reports both the effective time and the *unoverlapped*
time so the benefit of streaming is visible.

Vertex values are computed exactly (same fixpoint as every other engine);
only the schedule and the transfer accounting differ.

``config.exec_path`` selects the iteration core.  Because every shard owns
its destination-vertex slice and write-backs are deferred to the iteration
boundary, *all* shards in an iteration are independent: the fast path
(default) evaluates the whole iteration in one vectorized step and recovers
the per-chunk stats — and therefore the identical per-chunk compute times
feeding the overlap model — from segmented pricing.  It reads sources live
from ``VertexValues`` and prices the CW write-back without executing it
(the write-back only restores ``SrcValue == VertexValues[SrcIndex]``).
``"reference"`` keeps the original per-shard chunk loop.
"""

from __future__ import annotations

import numpy as np

from repro.cache import graph_fingerprint, resolve_cache
from repro.frameworks.base import (ConvergenceError, Engine, IterationTrace,
                                   RunConfig, RunResult)
from repro.frameworks.cusha import CuShaEngine
from repro.frameworks.frontier import ShardFrontier, vertex_influence_csr
from repro.frameworks.wavebatch import (multi_arange, stats_from_row,
                                        streamed_static_bundle)
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.gpu.pcie import transfer_ms
from repro.gpu.spec import GTX780, GPUSpec, PCIeSpec
from repro.gpu.stats import KernelStats
from repro.vertexcentric.program import VertexProgram, apply_reductions
from repro.gpu.memory import (contiguous_transactions, gather_transactions,
                              gather_transactions_segmented)
from repro.gpu.stats import LOAD_GRANULARITY_BYTES, STORE_GRANULARITY_BYTES
from repro.gpu.engine import KernelCostModel
from repro.frameworks import costs
from repro.gpu.warp import slots_for_contiguous
from repro.placement import multi_device_run
from repro.telemetry.metrics import publish_kernel_stats

__all__ = ["StreamedCuShaEngine"]


def _counts_between(mask: np.ndarray | None, bounds: np.ndarray) -> np.ndarray:
    """Set entries of ``mask`` in each range ``bounds[k]:bounds[k + 1]``
    (all entries when ``mask`` is ``None``); an empty range counts 0."""
    if mask is None:
        return np.diff(bounds)
    run = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=run[1:])
    return run[bounds[1:]] - run[bounds[:-1]]


class StreamedCuShaEngine(Engine):
    """Out-of-core CuSha (CW representation) with transfer/compute overlap.

    Parameters
    ----------
    device_memory_bytes:
        Device memory available for shard entry arrays (``VertexValues``
    and the staging buffer are budgeted separately).  Chunks are sized to
        fit half of it, leaving room for the double-buffered incoming chunk.
    vertices_per_shard:
        The paper's ``|N|``; ``None`` auto-selects like
        :class:`~repro.frameworks.cusha.CuShaEngine`.
    cache:
        Representation/stats memo selection, as in
        :class:`~repro.frameworks.cusha.CuShaEngine` (``None`` = process
        default, ``False`` = disabled, or an explicit
        :class:`~repro.cache.RepresentationCache`).
    """

    def __init__(
        self,
        *,
        device_memory_bytes: int = 64 * 1024 * 1024,
        vertices_per_shard: int | None = None,
        spec: GPUSpec = GTX780,
        pcie: PCIeSpec | None = None,
        cache=None,
    ) -> None:
        if device_memory_bytes <= 0:
            raise ValueError("device_memory_bytes must be positive")
        self.device_memory_bytes = device_memory_bytes
        self.vertices_per_shard = vertices_per_shard
        self.spec = spec
        self.pcie = pcie or PCIeSpec()
        self.cache = cache
        self.cost_model = KernelCostModel(spec)
        self.name = "cusha-streamed"

    # ------------------------------------------------------------------
    def _chunk_shards(
        self, cw: ConcatenatedWindows, entry_bytes: int
    ) -> list[tuple[int, int]]:
        """Group shards into contiguous chunks fitting half the budget."""
        budget = max(1, self.device_memory_bytes // 2)
        chunks: list[tuple[int, int]] = []
        sh = cw.shards
        start = 0
        used = 0
        for i in range(sh.num_shards):
            size = sh.shard_size(i) * entry_bytes
            if used and used + size > budget:
                chunks.append((start, i))
                start, used = i, 0
            used += size
        chunks.append((start, sh.num_shards))
        return chunks

    # ------------------------------------------------------------------
    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> tuple:
        """The CW structure the streamed run chunks, via the shared cache."""
        inner = CuShaEngine(
            "cw",
            vertices_per_shard=self.vertices_per_shard,
            spec=self.spec,
            pcie=self.pcie,
        )
        N = inner._choose_shard_size(graph, program)
        cache = resolve_cache(self.cache)
        if cache is not None:
            cw = cache.get(
                ("cw", graph_fingerprint(graph), N),
                lambda: ConcatenatedWindows.from_graph(graph, N),
            )
        else:
            cw = ConcatenatedWindows.from_graph(graph, N)
        return (cw,)

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """Static per-sweep stats of every compute chunk plus the
        full-sweep write-back, from the same cached bundle the fast path
        executes with."""
        (cw,) = self.preflight_representations(
            graph, program, RunConfig()
        )
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size
        entry_bytes = 4 + vbytes + sbytes + ebytes + 4 + 4
        cache = resolve_cache(self.cache)
        N = cw.vertices_per_shard
        if cache is not None:
            chunks, bundle = cache.get(
                ("streamed-stats", graph_fingerprint(graph), N, warp,
                 vbytes, sbytes, ebytes, self.device_memory_bytes),
                lambda: (
                    lambda ch: (ch, streamed_static_bundle(
                        cw, ch, warp, vbytes, sbytes, ebytes))
                )(self._chunk_shards(cw, entry_bytes)),
            )
        else:
            chunks = self._chunk_shards(cw, entry_bytes)
            bundle = streamed_static_bundle(
                cw, chunks, warp, vbytes, sbytes, ebytes
            )
        out = {
            f"chunk-{k}-compute": stats_from_row(bundle.chunk_static[k])
            for k in range(len(chunks))
        }
        out["writeback"] = stats_from_row(bundle.writeback.sum(axis=0))
        return out

    # ------------------------------------------------------------------
    def _run(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> RunResult:
        tracer = config.tracer
        with tracer.span(
            self.name,
            "run",
            engine=self.name,
            program=program.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        ) as run_span:
            if config.exec_path == "reference":
                return self._execute_reference(graph, program, config, run_span)
            return self._execute_fast(graph, program, config, run_span)

    # ------------------------------------------------------------------
    # Fast path: whole-iteration batching with per-chunk stat recovery
    # ------------------------------------------------------------------
    def _execute_fast(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig, run_span
    ) -> RunResult:
        max_iterations = config.max_iterations
        tracer = config.tracer
        trace_on = tracer.enabled
        inner = CuShaEngine(
            "cw",
            vertices_per_shard=self.vertices_per_shard,
            spec=self.spec,
            pcie=self.pcie,
        )
        N = inner._choose_shard_size(graph, program)
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size
        entry_bytes = 4 + vbytes + sbytes + ebytes + 4 + 4  # + mapper slot

        cache = resolve_cache(self.cache)
        cache_hits = cache_misses = 0
        if cache is not None:
            hits0, misses0 = cache.counters()
            fp = graph_fingerprint(graph)
            cw = cache.get(
                ("cw", fp, N),
                lambda: ConcatenatedWindows.from_graph(graph, N),
            )
            chunks, bundle = cache.get(
                ("streamed-stats", fp, N, warp, vbytes, sbytes, ebytes,
                 self.device_memory_bytes),
                lambda: (
                    lambda ch: (ch, streamed_static_bundle(
                        cw, ch, warp, vbytes, sbytes, ebytes))
                )(self._chunk_shards(cw, entry_bytes)),
            )
            hits1, misses1 = cache.counters()
            cache_hits, cache_misses = hits1 - hits0, misses1 - misses0
            if trace_on:
                tracer.metrics.counter("cache.hits").inc(cache_hits)
                tracer.metrics.counter("cache.misses").inc(cache_misses)
        else:
            cw = ConcatenatedWindows.from_graph(graph, N)
            chunks = self._chunk_shards(cw, entry_bytes)
            bundle = streamed_static_bundle(
                cw, chunks, warp, vbytes, sbytes, ebytes
            )
        sh = cw.shards
        S = sh.num_shards
        C = len(chunks)
        mdr = multi_device_run(
            config, S,
            weights=np.diff(sh.shard_offsets),
            src_unit=graph.src // N,
            dst_unit=graph.dst // N,
            value_bytes=vbytes,
            pcie=self.pcie,
        )

        # Host-side state (the "disk" copy); device residency is modeled.
        vertex_values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        src_static = None if static_all is None else static_all[sh.src_index]
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]

        dest_global = bundle.dest_global
        # Sources are read live, VertexValues[SrcIndex]; one int64 copy per
        # run (not cached: it would be duplicated in every layout's bundle).
        src_global = sh.src_index.astype(np.int64)
        chunk_static = bundle.chunk_static
        wb_mat = bundle.writeback
        # Chunk entry bounds and the shard->chunk map for attributing the
        # dynamic stats (atomic ops, conditional stores) back to their chunk.
        chunk_entry_bounds = sh.shard_offsets[
            [a for a, _ in chunks] + [S]
        ].astype(np.int64)
        shard_chunk = np.repeat(
            np.arange(C, dtype=np.int64),
            np.array([b - a for a, b in chunks], dtype=np.int64),
        )
        chunk_byte_sizes = np.diff(chunk_entry_bounds) * entry_bytes
        shard_entry_sizes = np.diff(sh.shard_offsets)
        shard_byte_sizes = shard_entry_sizes * entry_bytes
        total_entries = int(sh.shard_offsets[-1])
        n = graph.num_vertices
        shard_static = bundle.shard_static

        # ----- frontier state ------------------------------------------------
        frontier_on = config.frontier != "off"
        frontier = None
        last_mask = None
        if frontier_on:
            if cache is not None:
                infl = cache.get(
                    ("frontier", fp, N),
                    lambda: vertex_influence_csr(graph.src, graph.dst, n, N, S),
                )
            else:
                infl = vertex_influence_csr(graph.src, graph.dst, n, N, S)
            # Write-back runs once per iteration after every chunk (BSP
            # across chunks), so all marks survive: flush_pos == 0.
            frontier = ShardFrontier(
                S, N, infl[0], infl[1],
                resume=config.resume_frontier,
                flush_pos=np.zeros(S, dtype=np.int64),
            )
            last_mask = np.zeros(n, dtype=bool)

        # Transfers: VertexValues resident once, chunks stream per iteration.
        h2d_fixed_ms = transfer_ms(
            graph.num_vertices * (vbytes + sbytes), self.pcie
        )
        d2h_ms = transfer_ms(graph.num_vertices * vbytes, self.pcie)
        faults = config.faults
        if faults.active:
            faults.launch(self.name, 0, self.device_memory_bytes)
            faults.transfer(self.name, "h2d")
        tracer.emit(
            "h2d", "transfer", model_start_ms=0.0, model_ms=h2d_fixed_ms,
            bytes=graph.num_vertices * (vbytes + sbytes), resident=True,
        )
        transfer_times = [
            transfer_ms(int(cb), self.pcie) for cb in chunk_byte_sizes
        ]

        total_stats = KernelStats()
        traces: list[IterationTrace] = []
        kernel_ms = 0.0
        unoverlapped_ms = 0.0
        converged = False
        iterations = config.start_iteration

        for iteration in range(config.start_iteration + 1, max_iterations + 1):
            if faults.active:
                faults.kernel(self.name, iteration, config.exec_path)
                if mdr is not None:
                    faults.device(
                        self.name, iteration, config.exec_path, mdr.placement
                    )
            iter_start_ms = h2d_fixed_ms + kernel_ms
            with tracer.span(
                f"iter-{iteration}", "iteration", model_start_ms=iter_start_ms
            ) as it_span:
                push = False
                direction = None
                track = False
                active_vertices = 0
                active_shard_count = 0
                if frontier_on:
                    program.begin_iteration(iteration)
                    if config.frontier == "auto":
                        direction = frontier.direction(
                            shard_entry_sizes, total_entries
                        )
                    else:
                        direction = "push"
                    push = direction == "push"
                    track = trace_on
                    last_mask[:] = False
                if push:
                    act = frontier.active(0, S)
                    frontier.shards_skipped += S - act.size
                    frontier.clear(act)
                    active_shard_count = int(act.size)
                    if mdr is not None:
                        mdr.note_processed(act)
                    frontier.edges_processed += int(
                        shard_entry_sizes[act].sum()
                    )
                    # Frontier gather: pack the active shards' vertex
                    # slices and entry ranges, rebase destinations into
                    # the packed coordinate space, and run the same
                    # whole-iteration step over the subset (every shard
                    # owns its destination slice, so the gather is closed).
                    v_lo = act * N
                    v_hi = np.minimum(v_lo + N, n)
                    v_idx = multi_arange(v_lo, v_hi)
                    e_idx = multi_arange(
                        sh.shard_offsets[act], sh.shard_offsets[act + 1]
                    )
                    packed_off = np.zeros(act.size + 1, dtype=np.int64)
                    np.cumsum(v_hi - v_lo, out=packed_off[1:])
                    dest_sub = dest_global[e_idx] - np.repeat(
                        v_lo - packed_off[:-1], shard_entry_sizes[act]
                    )
                    old = vertex_values[v_idx]
                    local = program.init_local(old)
                    msgs, mask = program.messages(
                        vertex_values[src_global[e_idx]],
                        None if src_static is None else src_static[e_idx],
                        None if edge_vals is None else edge_vals[e_idx],
                        old[dest_sub],
                    )
                    ops_total, changed = apply_reductions(
                        program, local, dest_sub, msgs, mask,
                        track_changed=track,
                    )
                    # e_idx ascends, so each chunk is one run of it.
                    masked_per_chunk = _counts_between(
                        mask, np.searchsorted(e_idx, chunk_entry_bounds)
                    )
                else:
                    if frontier_on:  # pull: dense sweep over everything
                        active_shard_count = S
                        frontier.edges_processed += total_entries
                    # One vectorized step over every entry: shards only read
                    # their own vertex slice pre-update and write-back is
                    # deferred to the iteration boundary, so the concatenated
                    # evaluation is bit-identical to the per-chunk loop.
                    local = program.init_local(vertex_values)
                    msgs, mask = program.messages(
                        vertex_values[src_global], src_static, edge_vals,
                        vertex_values[dest_global],
                    )
                    ops_total, changed = apply_reductions(
                        program, local, dest_global, msgs, mask,
                        track_changed=track,
                    )
                    masked_per_chunk = _counts_between(
                        mask, chunk_entry_bounds
                    )
                if track and changed is not None:
                    active_vertices = int(changed.sum())
                n_fields = len(msgs)
                ops_per_chunk = masked_per_chunk * n_fields
                if push:
                    final, upd = program.apply(local, old)
                    idx = v_idx[np.flatnonzero(upd)]
                else:
                    final, upd = program.apply(local, vertex_values)
                    idx = np.flatnonzero(upd)
                updated_total = int(idx.size)
                store_tx_chunk = np.zeros(C, dtype=np.float64)
                store_bytes_chunk = np.zeros(C, dtype=np.float64)
                if updated_total:
                    vertex_values[idx] = final[upd]
                    shard_counts = np.bincount(idx // N, minlength=S)
                    seg = np.zeros(S + 1, dtype=np.int64)
                    np.cumsum(shard_counts, out=seg[1:])
                    _, per_shard_tx = gather_transactions_segmented(
                        idx, vbytes, seg, warp_size=warp,
                        transaction_bytes=STORE_GRANULARITY_BYTES,
                        per_segment=True,
                    )
                    store_tx_chunk = np.bincount(
                        shard_chunk, weights=per_shard_tx, minlength=C
                    )
                    store_bytes_chunk = np.bincount(
                        shard_chunk, weights=shard_counts * vbytes,
                        minlength=C,
                    )
                    upd_shards = np.flatnonzero(shard_counts)
                else:
                    upd_shards = np.empty(0, dtype=np.int64)
                if mdr is not None:
                    mdr.note_updated(upd_shards)

                if push:
                    # Only the active shards stream in, and chunks with no
                    # active shard launch no kernel and transfer nothing.
                    chunk_rows = np.zeros(
                        (C, shard_static.shape[1]), dtype=np.float64
                    )
                    np.add.at(chunk_rows, shard_chunk[act], shard_static[act])
                    chunk_act_bytes = np.zeros(C, dtype=np.int64)
                    np.add.at(
                        chunk_act_bytes, shard_chunk[act], shard_byte_sizes[act]
                    )
                    iter_tt = [
                        transfer_ms(int(bb), self.pcie) if bb else 0.0
                        for bb in chunk_act_bytes
                    ]
                    iter_bytes = chunk_act_bytes
                    run_chunks = np.flatnonzero(
                        np.bincount(shard_chunk[act], minlength=C)
                    ).tolist()
                else:
                    chunk_rows = chunk_static
                    iter_tt = transfer_times
                    iter_bytes = chunk_byte_sizes
                    run_chunks = list(range(C))
                iter_stats = KernelStats()
                iter_stats.kernel_launches = len(run_chunks)
                compute_times: list[float] = []
                chunk_tt: list[float] = []
                for k in run_chunks:
                    row = chunk_rows[k].copy()
                    row[2] += store_tx_chunk[k]
                    row[3] += store_bytes_chunk[k]
                    row[7] += ops_per_chunk[k]
                    stats = stats_from_row(row)
                    compute_times.append(self.cost_model.time_ms(stats))
                    chunk_tt.append(iter_tt[k])
                    iter_stats += stats
                    if trace_on:
                        tracer.emit(
                            f"chunk-{k}-compute", "stage",
                            model_start_ms=iter_start_ms,
                            model_ms=compute_times[-1],
                            stats=stats, iteration=iteration, chunk=k,
                        )
                        tracer.emit(
                            f"chunk-{k}-h2d", "transfer",
                            model_start_ms=iter_start_ms,
                            model_ms=iter_tt[k],
                            bytes=int(iter_bytes[k]),
                            iteration=iteration, chunk=k,
                        )
                assert ops_total == int(ops_per_chunk.sum())
                # Write-back (CW) runs once per iteration after all chunks
                # (BSP across chunks).  It is priced, not executed: it would
                # leave SrcValue == VertexValues[SrcIndex], which is what the
                # next iteration reads live.
                if upd_shards.size:
                    wb_stats = stats_from_row(wb_mat[upd_shards].sum(axis=0))
                else:
                    wb_stats = KernelStats()
                wb_ms = self.cost_model.time_ms(wb_stats)
                iter_stats += wb_stats
                if frontier_on:
                    # Iteration-end flush: sources now read the new
                    # values, so mark the updaters' shards and everything
                    # they influence (all marks survive under BSP).  A
                    # pull defers the marks to the next direction test.
                    last_mask[idx] = True
                    if push:
                        frontier.mark(idx)
                    else:
                        frontier.defer(last_mask)

                # Overlap model: chunk k+1's H2D hides under chunk k's
                # compute.
                pipelined = chunk_tt[0] if chunk_tt else 0.0
                for k, comp in enumerate(compute_times):
                    incoming = chunk_tt[k + 1] if k + 1 < len(chunk_tt) else 0.0
                    pipelined += max(comp, incoming)
                serial = sum(compute_times) + sum(chunk_tt)
                t_ms = pipelined + wb_ms
                if mdr is not None:
                    t_ms = mdr.iteration_time(t_ms)
                    if trace_on and mdr.last_exchange_bytes:
                        tracer.emit(
                            "exchange", "transfer",
                            model_start_ms=iter_start_ms + t_ms
                            - mdr.last_exchange_ms,
                            model_ms=mdr.last_exchange_ms,
                            bytes=mdr.last_exchange_bytes,
                            iteration=iteration,
                        )
                kernel_ms += t_ms
                unoverlapped_ms += serial + wb_ms
                total_stats += iter_stats
                iterations = iteration
                if config.collect_traces:
                    traces.append(
                        IterationTrace(
                            iteration, updated_total, t_ms, kernel_ms,
                            active_shard_count,
                        )
                    )
                if trace_on:
                    tracer.emit(
                        "writeback", "stage", model_start_ms=iter_start_ms,
                        model_ms=wb_ms, stats=wb_stats, iteration=iteration,
                    )
                    it_span.model_ms = t_ms
                    it_span.attrs["updated_vertices"] = updated_total
                    it_span.attrs["overlap_saved_ms"] = serial - pipelined
                    if frontier_on:
                        it_span.attrs["frontier_direction"] = direction
                        it_span.attrs["active_shards"] = active_shard_count
                        it_span.attrs["active_vertices"] = active_vertices
                    tracer.metrics.histogram(
                        "engine.updated_vertices"
                    ).observe(updated_total)
            if faults.active:
                faults.values(self.name, iteration, vertex_values)
            if updated_total == 0:
                converged = True
                break

        if not converged and not config.allow_partial:
            raise ConvergenceError(
                f"{self.name}/{program.name} did not converge in "
                f"{max_iterations} iterations"
            )
        if faults.active:
            faults.transfer(self.name, "d2h")
        tracer.emit(
            "d2h", "transfer", model_start_ms=h2d_fixed_ms + kernel_ms,
            model_ms=d2h_ms, bytes=graph.num_vertices * vbytes,
        )
        if trace_on:
            m = tracer.metrics
            publish_kernel_stats(m, total_stats)
            m.counter("engine.iterations").inc(
                iterations - config.start_iteration
            )
            m.gauge("streamed.num_chunks").set(C)
            m.gauge("streamed.device_memory_bytes").set(self.device_memory_bytes)
            m.counter("streamed.overlap_saved_ms").inc(
                max(0.0, unoverlapped_ms - kernel_ms)
            )
            if mdr is not None:
                mdr.publish(tracer, engine=self.name)
            if frontier_on:
                m.counter("frontier.edges_processed").inc(
                    frontier.edges_processed
                )
                m.counter("frontier.shards_skipped").inc(
                    frontier.shards_skipped
                )
            run_span.model_ms = h2d_fixed_ms + kernel_ms + d2h_ms
            run_span.attrs["iterations"] = iterations
            run_span.attrs["converged"] = converged
            if frontier_on:
                run_span.attrs["frontier"] = config.frontier
        result = RunResult(
            engine=self.name,
            program=program.name,
            values=vertex_values,
            iterations=iterations,
            converged=converged,
            kernel_time_ms=kernel_ms,
            h2d_ms=h2d_fixed_ms,
            d2h_ms=d2h_ms,
            representation_bytes=cw.memory_bytes(vbytes, ebytes, sbytes),
            stats=total_stats,
            traces=traces,
            num_edges=graph.num_edges,
            exec_path="fast",
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            edges_processed=0 if frontier is None else frontier.edges_processed,
            shards_skipped=0 if frontier is None else frontier.shards_skipped,
            frontier_mask=None if last_mask is None else last_mask.copy(),
            devices=config.devices,
            exchange_bytes=0 if mdr is None else mdr.exchange_bytes,
            exchange_ms=0.0 if mdr is None else mdr.exchange_ms,
        )
        # Extra reporting: how much the overlap saved.
        result.unoverlapped_ms = unoverlapped_ms  # type: ignore[attr-defined]
        result.num_chunks = C  # type: ignore[attr-defined]
        return result

    # ------------------------------------------------------------------
    # Reference path: the original per-shard chunk loop
    # ------------------------------------------------------------------
    def _execute_reference(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig, run_span
    ) -> RunResult:
        max_iterations = config.max_iterations
        tracer = config.tracer
        trace_on = tracer.enabled
        inner = CuShaEngine(
            "cw",
            vertices_per_shard=self.vertices_per_shard,
            spec=self.spec,
            pcie=self.pcie,
        )
        N = inner._choose_shard_size(graph, program)
        cw = ConcatenatedWindows.from_graph(graph, N)
        sh = cw.shards
        S = sh.num_shards
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size
        entry_bytes = 4 + vbytes + sbytes + ebytes + 4 + 4  # + mapper slot
        chunks = self._chunk_shards(cw, entry_bytes)
        n = graph.num_vertices
        shard_entry_sizes = np.diff(sh.shard_offsets)
        total_entries = int(sh.shard_offsets[-1])
        mdr = multi_device_run(
            config, S,
            weights=shard_entry_sizes,
            src_unit=graph.src // N,
            dst_unit=graph.dst // N,
            value_bytes=vbytes,
            pcie=self.pcie,
        )

        # ----- frontier state ------------------------------------------------
        frontier_on = config.frontier != "off"
        frontier = None
        last_mask = None
        if frontier_on:
            infl = vertex_influence_csr(graph.src, graph.dst, n, N, S)
            # Write-back runs once per iteration after every chunk (BSP
            # across chunks), so all marks survive: flush_pos == 0.
            frontier = ShardFrontier(
                S, N, infl[0], infl[1],
                resume=config.resume_frontier,
                flush_pos=np.zeros(S, dtype=np.int64),
            )
            last_mask = np.zeros(n, dtype=bool)

        # Host-side state (the "disk" copy); device residency is modeled.
        vertex_values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        src_value = vertex_values[sh.src_index].copy()
        src_static = None if static_all is None else static_all[sh.src_index]
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]

        def chunk_bytes(c: tuple[int, int]) -> int:
            lo = int(sh.shard_offsets[c[0]])
            hi = int(sh.shard_offsets[c[1]])
            return (hi - lo) * entry_bytes

        def chunk_compute(
            c: tuple[int, int], push: bool = False, track: bool = False
        ) -> tuple[KernelStats, int, list[int], list[np.ndarray], int, int]:
            """Execute stages 1-3 for every (frontier-active) shard in the
            chunk; returns the chunk's kernel stats, updated-vertex count,
            updated shards, updated vertex indices, processed-shard count,
            and changed-vertex count."""
            stats = KernelStats()
            updated = 0
            upd_shards: list[int] = []
            upd_idx: list[np.ndarray] = []
            act_count = 0
            changed_count = 0
            for i in range(*c):
                if push and not frontier.dirty[i]:
                    frontier.shards_skipped += 1
                    continue
                if frontier_on:
                    frontier.dirty[i] = False
                    frontier.edges_processed += int(shard_entry_sizes[i])
                act_count += 1
                lo, hi = sh.vertex_range(i)
                o = int(sh.shard_offsets[i])
                m_i = sh.shard_size(i)
                sl = slice(o, o + m_i)
                old = vertex_values[lo:hi]
                local = program.init_local(old)
                dest_local = sh.dest_index[sl].astype(np.int64) - lo
                msgs, mask = program.messages(
                    src_value[sl],
                    None if src_static is None else src_static[sl],
                    None if edge_vals is None else edge_vals[sl],
                    old[dest_local],
                )
                ops, changed = apply_reductions(
                    program, local, dest_local, msgs, mask, track_changed=track
                )
                if track and changed is not None:
                    changed_count += int(changed.sum())
                stats.add_atomics(shared=ops)
                n_i = hi - lo
                stats.add_load(contiguous_transactions(
                    n_i, vbytes, start_byte=lo * vbytes, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
                stats.add_lanes(*slots_for_contiguous(n_i, warp),
                                instructions_per_row=costs.INSTR_INIT)
                for b in filter(None, (vbytes, 4, sbytes, ebytes)):
                    stats.add_load(contiguous_transactions(
                        m_i, b, start_byte=o * b, warp_size=warp,
                        transaction_bytes=LOAD_GRANULARITY_BYTES))
                stats.add_lanes(*slots_for_contiguous(m_i, warp),
                                instructions_per_row=costs.INSTR_COMPUTE)
                final, upd = program.apply(local, old)
                n_upd = int(upd.sum())
                if n_upd:
                    idx = lo + np.flatnonzero(upd)
                    vertex_values[idx] = final[upd]
                    stats.add_store(gather_transactions(
                        idx, vbytes, warp_size=warp,
                        transaction_bytes=STORE_GRANULARITY_BYTES))
                    updated += n_upd
                    upd_shards.append(i)
                    upd_idx.append(idx)
            return stats, updated, upd_shards, upd_idx, act_count, changed_count

        # Transfers: VertexValues resident once, chunks stream per iteration.
        h2d_fixed_ms = transfer_ms(
            graph.num_vertices * (vbytes + sbytes), self.pcie
        )
        d2h_ms = transfer_ms(graph.num_vertices * vbytes, self.pcie)
        faults = config.faults
        if faults.active:
            faults.launch(self.name, 0, self.device_memory_bytes)
            faults.transfer(self.name, "h2d")
        tracer.emit(
            "h2d", "transfer", model_start_ms=0.0, model_ms=h2d_fixed_ms,
            bytes=graph.num_vertices * (vbytes + sbytes), resident=True,
        )

        total_stats = KernelStats()
        traces: list[IterationTrace] = []
        kernel_ms = 0.0
        unoverlapped_ms = 0.0
        converged = False
        iterations = config.start_iteration

        for iteration in range(config.start_iteration + 1, max_iterations + 1):
            if faults.active:
                faults.kernel(self.name, iteration, config.exec_path)
                if mdr is not None:
                    faults.device(
                        self.name, iteration, config.exec_path, mdr.placement
                    )
            iter_start_ms = h2d_fixed_ms + kernel_ms
            with tracer.span(
                f"iter-{iteration}", "iteration", model_start_ms=iter_start_ms
            ) as it_span:
                push = False
                direction = None
                track = False
                active_vertices = 0
                active_shard_count = 0
                if frontier_on:
                    program.begin_iteration(iteration)
                    if config.frontier == "auto":
                        direction = frontier.direction(
                            shard_entry_sizes, total_entries
                        )
                    else:
                        direction = "push"
                    push = direction == "push"
                    track = trace_on
                    last_mask[:] = False
                updated_total = 0
                updated_shards_all: list[int] = []
                upd_idx_all: list[np.ndarray] = []
                compute_times: list[float] = []
                chunk_tt: list[float] = []
                launches = 0
                iter_stats = KernelStats()
                if mdr is not None and push:
                    # Marks only flush at the iteration boundary (flush_pos
                    # == 0), so the dirty set is exactly the shards the
                    # chunk loop is about to process.
                    mdr.note_processed(np.flatnonzero(frontier.dirty))
                for k, c in enumerate(chunks):
                    if push:
                        act_bits = frontier.dirty[c[0]:c[1]]
                        if not act_bits.any():
                            # Quiescent chunk: no kernel launch and no H2D
                            # transfer at all.
                            frontier.shards_skipped += c[1] - c[0]
                            continue
                        cb = int(
                            shard_entry_sizes[c[0]:c[1]][act_bits].sum()
                        ) * entry_bytes
                    else:
                        cb = chunk_bytes(c)
                    tr = transfer_ms(cb, self.pcie)
                    stats, updated, upd_shards, upd_idx, act_count, ch_count = (
                        chunk_compute(c, push, track)
                    )
                    launches += 1
                    if frontier_on:
                        active_shard_count += act_count
                    active_vertices += ch_count
                    updated_total += updated
                    updated_shards_all.extend(upd_shards)
                    upd_idx_all.extend(upd_idx)
                    compute_times.append(self.cost_model.time_ms(stats))
                    chunk_tt.append(tr)
                    iter_stats += stats
                    if trace_on:
                        tracer.emit(
                            f"chunk-{k}-compute", "stage",
                            model_start_ms=iter_start_ms,
                            model_ms=compute_times[-1],
                            stats=stats, iteration=iteration, chunk=k,
                        )
                        tracer.emit(
                            f"chunk-{k}-h2d", "transfer",
                            model_start_ms=iter_start_ms,
                            model_ms=tr,
                            bytes=cb, iteration=iteration, chunk=k,
                        )
                iter_stats.kernel_launches = launches
                if mdr is not None:
                    mdr.note_updated(
                        np.asarray(updated_shards_all, dtype=np.int64)
                    )
                # Write-back (CW) is applied once per iteration after all
                # chunks ran: cross-chunk staging semantics (BSP across chunks).
                wb_stats = KernelStats()
                for i in updated_shards_all:
                    csl = cw.cw_slice(i)
                    src_value[cw.mapper[csl]] = vertex_values[cw.cw_src_index[csl]]
                    L = cw.cw_size(i)
                    cwo = int(cw.cw_offsets[i])
                    wb_stats.add_load(contiguous_transactions(
                        L, 4, start_byte=cwo * 4, warp_size=warp,
                        transaction_bytes=LOAD_GRANULARITY_BYTES))
                    wb_stats.add_store(gather_transactions(
                        cw.mapper[csl], vbytes, warp_size=warp,
                        transaction_bytes=STORE_GRANULARITY_BYTES))
                    wb_stats.add_lanes(*slots_for_contiguous(L, warp),
                                       instructions_per_row=costs.INSTR_WRITEBACK)
                wb_ms = self.cost_model.time_ms(wb_stats)
                iter_stats += wb_stats
                if frontier_on and upd_idx_all:
                    # Iteration-end flush: src_value now carries the new
                    # values, so mark the updaters' shards and everything
                    # they influence (all marks survive under BSP).
                    all_idx = np.concatenate(upd_idx_all)
                    last_mask[all_idx] = True
                    frontier.mark(all_idx)

                # Overlap model: chunk k+1's H2D hides under chunk k's compute.
                pipelined = chunk_tt[0] if chunk_tt else 0.0
                for k, comp in enumerate(compute_times):
                    incoming = chunk_tt[k + 1] if k + 1 < len(chunk_tt) else 0.0
                    pipelined += max(comp, incoming)
                serial = sum(compute_times) + sum(chunk_tt)
                t_ms = pipelined + wb_ms
                if mdr is not None:
                    t_ms = mdr.iteration_time(t_ms)
                    if trace_on and mdr.last_exchange_bytes:
                        tracer.emit(
                            "exchange", "transfer",
                            model_start_ms=iter_start_ms + t_ms
                            - mdr.last_exchange_ms,
                            model_ms=mdr.last_exchange_ms,
                            bytes=mdr.last_exchange_bytes,
                            iteration=iteration,
                        )
                kernel_ms += t_ms
                unoverlapped_ms += serial + wb_ms
                total_stats += iter_stats
                iterations = iteration
                if config.collect_traces:
                    traces.append(
                        IterationTrace(
                            iteration, updated_total, t_ms, kernel_ms,
                            active_shard_count,
                        )
                    )
                if trace_on:
                    tracer.emit(
                        "writeback", "stage", model_start_ms=iter_start_ms,
                        model_ms=wb_ms, stats=wb_stats, iteration=iteration,
                    )
                    it_span.model_ms = t_ms
                    it_span.attrs["updated_vertices"] = updated_total
                    it_span.attrs["overlap_saved_ms"] = serial - pipelined
                    if frontier_on:
                        it_span.attrs["frontier_direction"] = direction
                        it_span.attrs["active_shards"] = active_shard_count
                        it_span.attrs["active_vertices"] = active_vertices
                    tracer.metrics.histogram(
                        "engine.updated_vertices"
                    ).observe(updated_total)
            if faults.active:
                faults.values(self.name, iteration, vertex_values)
            if updated_total == 0:
                converged = True
                break

        if not converged and not config.allow_partial:
            raise ConvergenceError(
                f"{self.name}/{program.name} did not converge in "
                f"{max_iterations} iterations"
            )
        if faults.active:
            faults.transfer(self.name, "d2h")
        tracer.emit(
            "d2h", "transfer", model_start_ms=h2d_fixed_ms + kernel_ms,
            model_ms=d2h_ms, bytes=graph.num_vertices * vbytes,
        )
        if trace_on:
            m = tracer.metrics
            publish_kernel_stats(m, total_stats)
            m.counter("engine.iterations").inc(
                iterations - config.start_iteration
            )
            m.gauge("streamed.num_chunks").set(len(chunks))
            m.gauge("streamed.device_memory_bytes").set(self.device_memory_bytes)
            m.counter("streamed.overlap_saved_ms").inc(
                max(0.0, unoverlapped_ms - kernel_ms)
            )
            if mdr is not None:
                mdr.publish(tracer, engine=self.name)
            if frontier_on:
                m.counter("frontier.edges_processed").inc(
                    frontier.edges_processed
                )
                m.counter("frontier.shards_skipped").inc(
                    frontier.shards_skipped
                )
            run_span.model_ms = h2d_fixed_ms + kernel_ms + d2h_ms
            run_span.attrs["iterations"] = iterations
            run_span.attrs["converged"] = converged
            if frontier_on:
                run_span.attrs["frontier"] = config.frontier
        result = RunResult(
            engine=self.name,
            program=program.name,
            values=vertex_values,
            iterations=iterations,
            converged=converged,
            kernel_time_ms=kernel_ms,
            h2d_ms=h2d_fixed_ms,
            d2h_ms=d2h_ms,
            representation_bytes=cw.memory_bytes(vbytes, ebytes, sbytes),
            stats=total_stats,
            traces=traces,
            num_edges=graph.num_edges,
            exec_path="reference",
            edges_processed=0 if frontier is None else frontier.edges_processed,
            shards_skipped=0 if frontier is None else frontier.shards_skipped,
            frontier_mask=None if last_mask is None else last_mask.copy(),
            devices=config.devices,
            exchange_bytes=0 if mdr is None else mdr.exchange_bytes,
            exchange_ms=0.0 if mdr is None else mdr.exchange_ms,
        )
        # Extra reporting: how much the overlap saved.
        result.unoverlapped_ms = unoverlapped_ms  # type: ignore[attr-defined]
        result.num_chunks = len(chunks)  # type: ignore[attr-defined]
        return result
