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

Execution paths
---------------
The engine supplies its representations, its unit structure (shards, all
flushed once at the iteration boundary) and a per-iteration sweep that
runs the chunk schedule and returns the overlapped iteration time; the
:class:`~repro.frameworks.driver.IterationDriver` runs the loop around it.
``config.exec_path`` selects the sweep.  Because every shard owns its
destination-vertex slice and write-backs are deferred to the iteration
boundary, *all* shards in an iteration are independent: the fast sweep
(default) evaluates the whole iteration in one vectorized step and
recovers the per-chunk stats — and therefore the identical per-chunk
compute times feeding the overlap model — from segmented pricing.  It
reads sources live from ``VertexValues`` and prices the CW write-back
without executing it (the write-back only restores
``SrcValue == VertexValues[SrcIndex]``).  ``"reference"`` keeps the
original per-shard chunk loop, write-back scatter included.
"""

from __future__ import annotations

import numpy as np

from repro.frameworks import costs
from repro.frameworks.base import RunConfig
from repro.frameworks.cusha import choose_shard_size, concatenated_windows
from repro.frameworks.driver import (DrivenEngine, IterationDriver, Plan,
                                     RunCache, Sweep, concat)
from repro.frameworks.wavebatch import (multi_arange, stats_from_row,
                                        streamed_static_bundle)
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.gpu.engine import KernelCostModel
from repro.gpu.memory import (contiguous_transactions, gather_transactions,
                              gather_transactions_segmented)
from repro.gpu.pcie import transfer_ms
from repro.gpu.spec import GTX780, GPUSpec, PCIeSpec
from repro.gpu.stats import (KernelStats, LOAD_GRANULARITY_BYTES,
                             STORE_GRANULARITY_BYTES)
from repro.gpu.warp import slots_for_contiguous
from repro.vertexcentric.program import VertexProgram, apply_reductions

__all__ = ["StreamedCuShaEngine"]


def _counts_between(mask: np.ndarray | None, bounds: np.ndarray) -> np.ndarray:
    """Set entries of ``mask`` in each range ``bounds[k]:bounds[k + 1]``
    (all entries when ``mask`` is ``None``); an empty range counts 0."""
    if mask is None:
        return np.diff(bounds)
    run = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=run[1:])
    return run[bounds[1:]] - run[bounds[:-1]]


def _entry_bytes(program: VertexProgram) -> int:
    """Streamed bytes of one shard entry, its mapper slot included."""
    return (4 + program.vertex_value_bytes + program.static_value_bytes
            + program.edge_value_bytes + 4 + 4)


class StreamedCuShaEngine(DrivenEngine):
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

    def _windows(self, graph: DiGraph, program: VertexProgram,
                 cache: RunCache) -> ConcatenatedWindows:
        N = choose_shard_size(graph, program, self.spec,
                              self.vertices_per_shard)
        return concatenated_windows(graph, N, cache)

    def _static_bundle(self, cw, program: VertexProgram, cache: RunCache):
        """``(chunks, bundle)``: the chunk schedule and the fast path's
        static stats for it."""
        warp = self.spec.warp_size
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes

        def build():
            chunks = self._chunk_shards(cw, _entry_bytes(program))
            return chunks, streamed_static_bundle(
                cw, chunks, warp, vbytes, sbytes, ebytes)

        return cache.get(
            ("streamed-stats", cw.vertices_per_shard, warp, vbytes, sbytes,
             ebytes, self.device_memory_bytes),
            build,
        )

    # ------------------------------------------------------------------
    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig,
        cache: RunCache,
    ) -> tuple:
        """The CW structure the streamed run chunks, via the shared cache."""
        return (self._windows(graph, program, cache),)

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """Static per-sweep stats of every compute chunk plus the
        full-sweep write-back, from the same cached bundle the fast path
        executes with."""
        cache = RunCache(graph, self.cache)
        cw = self._windows(graph, program, cache)
        chunks, bundle = self._static_bundle(cw, program, cache)
        out = {
            f"chunk-{k}-compute": stats_from_row(bundle.chunk_static[k])
            for k in range(len(chunks))
        }
        out["writeback"] = stats_from_row(bundle.writeback.sum(axis=0))
        return out

    # ------------------------------------------------------------------
    def _plan(self, run: IterationDriver) -> Plan:
        graph, program, config = run.graph, run.program, run.config
        cw = self._windows(graph, program, run.cache)
        sh = cw.shards
        S = sh.num_shards
        n = graph.num_vertices
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        # Host-side state (the "disk" copy); device residency is modeled.
        values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        src_static = None if static_all is None else static_all[sh.src_index]
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]
        unoverlapped = [0.0]
        if config.exec_path == "reference":
            chunks = self._chunk_shards(cw, _entry_bytes(program))
            sweep = self._reference_sweep(
                run, cw, chunks, values, src_static, edge_vals, unoverlapped)
        else:
            chunks, bundle = self._static_bundle(cw, program, run.cache)
            sweep = self._fast_sweep(
                run, cw, chunks, bundle, values, src_static, edge_vals,
                unoverlapped)

        def finish(result) -> None:
            # Extra reporting: how much the overlap saved.
            result.unoverlapped_ms = unoverlapped[0]
            result.num_chunks = len(chunks)
            if run.trace_on:
                run.tracer.metrics.counter("streamed.overlap_saved_ms").inc(
                    max(0.0, unoverlapped[0] - result.kernel_time_ms))

        return Plan(
            values=values,
            sweep=sweep,
            representation_bytes=cw.memory_bytes(vbytes, ebytes, sbytes),
            unit_size=cw.vertices_per_shard,
            unit_edges=np.diff(sh.shard_offsets),
            # Write-back runs once per iteration after every chunk (BSP
            # across chunks), so all marks survive: flush_pos == 0.
            flush_pos=np.zeros(S, dtype=np.int64),
            # Transfers: VertexValues resident once, chunks stream per
            # iteration.
            h2d_bytes=n * (vbytes + sbytes),
            h2d_attrs={"resident": True},
            launch=(0, self.device_memory_bytes),
            gauges={
                "streamed.num_chunks": len(chunks),
                "streamed.device_memory_bytes": self.device_memory_bytes,
            },
            stage_stats=False,
            finish=finish,
        )

    def _chunk_spans(self, run, iteration, k, stats, compute_ms, h2d_ms,
                     nbytes) -> None:
        start = run.start_ms
        run.tracer.emit(
            f"chunk-{k}-compute", "stage", model_start_ms=start,
            model_ms=compute_ms, stats=stats, iteration=iteration, chunk=k,
        )
        run.tracer.emit(
            f"chunk-{k}-h2d", "transfer", model_start_ms=start,
            model_ms=h2d_ms, bytes=nbytes, iteration=iteration, chunk=k,
        )

    def _overlapped(self, unoverlapped, updated, iter_stats, compute_times,
                    chunk_tt, wb_stats, processed, units,
                    buffers=()) -> Sweep:
        """The iteration's :class:`Sweep` under the overlap model: chunk
        ``k+1``'s H2D hides under chunk ``k``'s compute, and the write-back
        (CW) runs once after all chunks (BSP across chunks)."""
        wb_ms = self.cost_model.time_ms(wb_stats)
        iter_stats += wb_stats
        pipelined = chunk_tt[0] if chunk_tt else 0.0
        for k, comp in enumerate(compute_times):
            incoming = chunk_tt[k + 1] if k + 1 < len(chunk_tt) else 0.0
            pipelined += max(comp, incoming)
        serial = sum(compute_times) + sum(chunk_tt)
        unoverlapped[0] += serial + wb_ms
        return Sweep(
            updated=updated, stats=iter_stats, ms=pipelined + wb_ms,
            processed=processed, updated_units=units,
            stages=(("writeback", wb_stats),),
            attrs={"overlap_saved_ms": serial - pipelined},
            buffers=buffers,
        )

    # ------------------------------------------------------------------
    # Fast sweep: whole-iteration batching with per-chunk stat recovery
    # ------------------------------------------------------------------
    def _fast_sweep(self, run, cw, chunks, bundle, vertex_values, src_static,
                    edge_vals, unoverlapped):
        program = run.program
        sh = cw.shards
        S = sh.num_shards
        N = cw.vertices_per_shard
        n = sh.num_vertices
        C = len(chunks)
        vbytes = program.vertex_value_bytes
        warp = self.spec.warp_size
        entry_bytes = _entry_bytes(program)
        dest_global = bundle.dest_global
        # Sources are read live, VertexValues[SrcIndex]; one int64 copy per
        # run (not cached: it would be duplicated in every layout's bundle).
        src_global = sh.src_index.astype(np.int64)
        chunk_static = bundle.chunk_static
        shard_static = bundle.shard_static
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
        transfer_times = [
            transfer_ms(int(cb), self.pcie) for cb in chunk_byte_sizes
        ]

        def sweep(iteration: int, push: bool) -> Sweep:
            act = None
            if push:
                frontier = run.frontier
                act = frontier.active(0, S)
                frontier.clear(act)
                # Frontier gather: pack the active shards' vertex slices and
                # entry ranges, rebase destinations into the packed
                # coordinate space, and run the same whole-iteration step
                # over the subset (every shard owns its destination slice,
                # so the gather is closed).
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
                ops_total = apply_reductions(
                    program, local, dest_sub, msgs, mask
                )
                # e_idx ascends, so each chunk is one run of it.
                masked_per_chunk = _counts_between(
                    mask, np.searchsorted(e_idx, chunk_entry_bounds)
                )
                final, upd = program.apply(local, old)
                idx = v_idx[np.flatnonzero(upd)]
            else:
                # One vectorized step over every entry: shards only read
                # their own vertex slice pre-update and write-back is
                # deferred to the iteration boundary, so the concatenated
                # evaluation is bit-identical to the per-chunk loop.
                local = program.init_local(vertex_values)
                msgs, mask = program.messages(
                    vertex_values[src_global], src_static, edge_vals,
                    vertex_values[dest_global],
                )
                ops_total = apply_reductions(
                    program, local, dest_global, msgs, mask
                )
                masked_per_chunk = _counts_between(mask, chunk_entry_bounds)
                final, upd = program.apply(local, vertex_values)
                idx = np.flatnonzero(upd)
            ops_per_chunk = masked_per_chunk * len(msgs)
            store_tx_chunk = np.zeros(C, dtype=np.float64)
            store_bytes_chunk = np.zeros(C, dtype=np.float64)
            upd_shards = concat([])
            if idx.size:
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
                    shard_chunk, weights=shard_counts * vbytes, minlength=C,
                )
                upd_shards = np.flatnonzero(shard_counts)

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
                if run.trace_on:
                    self._chunk_spans(run, iteration, k, stats,
                                      compute_times[-1], iter_tt[k],
                                      int(iter_bytes[k]))
            assert ops_total == int(ops_per_chunk.sum())
            # Write-back (CW) is priced, not executed: it would leave
            # SrcValue == VertexValues[SrcIndex], which is what the next
            # iteration reads live.
            if upd_shards.size:
                wb_stats = stats_from_row(wb_mat[upd_shards].sum(axis=0))
            else:
                wb_stats = KernelStats()
            if push:
                # Iteration-end flush: sources now read the new values, so
                # mark the updaters' shards and everything they influence
                # (all marks survive under BSP).
                run.frontier.mark(idx)
            return self._overlapped(unoverlapped, idx, iter_stats,
                                    compute_times, chunk_tt, wb_stats, act,
                                    upd_shards, buffers=(msgs, mask))

        return sweep

    # ------------------------------------------------------------------
    # Reference sweep: the original per-shard chunk loop
    # ------------------------------------------------------------------
    def _reference_sweep(self, run, cw, chunks, vertex_values, src_static,
                         edge_vals, unoverlapped):
        program = run.program
        sh = cw.shards
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size
        entry_bytes = _entry_bytes(program)
        shard_entry_sizes = np.diff(sh.shard_offsets)
        src_value = vertex_values[sh.src_index].copy()

        def chunk_compute(c: tuple[int, int], dirty, processed, updated,
                          upd_shards) -> KernelStats:
            """Execute stages 1-3 for every (frontier-active) shard in the
            chunk, appending to the iteration's processed shards, updated
            vertex indices and updated shards; returns the chunk's stats."""
            stats = KernelStats()
            for i in range(*c):
                if dirty is not None:
                    if not dirty[i]:
                        continue
                    dirty[i] = False
                processed.append(i)
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
                ops = apply_reductions(
                    program, local, dest_local, msgs, mask
                )
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
                if upd.any():
                    idx = lo + np.flatnonzero(upd)
                    vertex_values[idx] = final[upd]
                    stats.add_store(gather_transactions(
                        idx, vbytes, warp_size=warp,
                        transaction_bytes=STORE_GRANULARITY_BYTES))
                    updated.append(idx)
                    upd_shards.append(i)
            return stats

        def sweep(iteration: int, push: bool) -> Sweep:
            dirty = run.frontier.dirty if push else None
            updated: list[np.ndarray] = []
            upd_shards: list[int] = []
            processed: list[int] = []
            compute_times: list[float] = []
            chunk_tt: list[float] = []
            iter_stats = KernelStats()
            for k, c in enumerate(chunks):
                if push:
                    act_bits = dirty[c[0]:c[1]]
                    if not act_bits.any():
                        # Quiescent chunk: no kernel launch and no H2D
                        # transfer at all.
                        continue
                    cb = int(
                        shard_entry_sizes[c[0]:c[1]][act_bits].sum()
                    ) * entry_bytes
                else:
                    cb = int(
                        sh.shard_offsets[c[1]] - sh.shard_offsets[c[0]]
                    ) * entry_bytes
                tr = transfer_ms(cb, self.pcie)
                stats = chunk_compute(c, dirty, processed, updated,
                                      upd_shards)
                compute_times.append(self.cost_model.time_ms(stats))
                chunk_tt.append(tr)
                iter_stats += stats
                if run.trace_on:
                    self._chunk_spans(run, iteration, k, stats,
                                      compute_times[-1], tr, cb)
            iter_stats.kernel_launches = len(compute_times)
            # Write-back (CW) is applied once per iteration after all chunks
            # ran: cross-chunk staging semantics (BSP across chunks).
            wb_stats = KernelStats()
            for i in upd_shards:
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
            updated_idx = concat(updated)
            if push and updated_idx.size:
                # Iteration-end flush: src_value now carries the new values,
                # so mark the updaters' shards and everything they
                # influence (all marks survive under BSP).
                run.frontier.mark(updated_idx)
            return self._overlapped(
                unoverlapped, updated_idx, iter_stats, compute_times,
                chunk_tt, wb_stats, np.asarray(processed, dtype=np.int64),
                np.asarray(upd_shards, dtype=np.int64))

        return sweep
