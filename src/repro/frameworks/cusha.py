"""The CuSha engine (paper sections 3-4, Figure 5).

One simulated GPU block processes one shard per iteration, in the paper's
four stages:

1. fetch the shard's vertex range from ``VertexValues`` into shared memory
   (coalesced loads);
2. run ``compute`` over the shard entries in parallel, reducing into the
   shared local values with shared-memory atomics (coalesced entry loads);
3. run ``update_condition`` and conditionally store back to ``VertexValues``
   (coalesced loads, conditional coalesced stores);
4. if anything updated, propagate the shard's new vertex values into the
   ``SrcValue`` slots of every computation window that sources from this
   shard — warp-per-window walks under G-Shards (``mode="gs"``), one thread
   per Concatenated-Window entry under CW (``mode="cw"``).

Both modes propagate *identical values* (CW merely reorders the write-back
work list), so they converge identically; they differ in the lane- and
transaction-level activity the stats record — exactly the paper's story.

``sync_mode`` selects the shard schedule: ``"wave"`` (default) executes
shards in waves of concurrently-resident blocks with write-backs visible at
wave boundaries — the visibility a real grid of blocks provides, and the
reason CuSha needs a few more iterations than single-version CSR (paper
Figure 7); ``"async"`` makes every write-back immediately visible (fully
sequential schedule), ``"bsp"`` defers all visibility to the iteration
boundary.  All three converge to the same fixpoint; hardware accounting is
identical.

Execution paths
---------------
``config.exec_path`` selects the iteration core.  The default ``"fast"``
path batches each wave into one vectorized step: within a wave, shards only
communicate through ``SrcValue`` (refreshed at wave boundaries) and each
shard exclusively owns its destination-vertex slice, so concatenating a
wave's shard entries and running ``messages`` / ``apply_reductions`` /
``apply`` once over the whole wave is bit-identical to the per-shard loop
(``ufunc.at`` applies updates sequentially in entry order, which the
concatenation preserves).  At every wave boundary the write-back leaves
``SrcValue == VertexValues[SrcIndex]``, and a wave computes all its
messages before it applies any update, so the fast path reads sources live
as ``VertexValues[SrcIndex]`` and prices stage 4 without executing it.
Hardware pricing uses the segmented helpers so warp rows never span shard
boundaries; the per-shard stage-4 stats are one matrix whose updated rows
are summed per iteration.  ``"reference"`` preserves the original per-shard
loop, stage-4 scatter included, as the equivalence baseline.
"""

from __future__ import annotations

import numpy as np

from repro.cache import graph_fingerprint, resolve_cache
from repro.frameworks import costs
from repro.frameworks.base import (ConvergenceError, Engine, IterationTrace,
                                   RunConfig, RunResult)
from repro.frameworks.frontier import ShardFrontier, vertex_influence_csr
from repro.frameworks.wavebatch import (add_row_into, cusha_static_bundle,
                                        multi_arange, stats_from_row,
                                        STAT_FIELDS)
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.graph.partition import select_shard_size
from repro.gpu.engine import KernelCostModel
from repro.gpu.memory import (contiguous_transactions, gather_transactions,
                              gather_transactions_segmented, TransactionCount)
from repro.gpu.occupancy import blocks_per_sm, occupancy, shared_mem_per_block
from repro.gpu.pcie import transfer_ms
from repro.gpu.spec import GTX780, GPUSpec, PCIeSpec
from repro.gpu.stats import (KernelStats, LOAD_GRANULARITY_BYTES,
                             STORE_GRANULARITY_BYTES)
from repro.gpu.sharedmem import conflict_replays
from repro.gpu.warp import slots_for_contiguous, slots_for_segments
from repro.placement import multi_device_run
from repro.telemetry.metrics import publish_kernel_stats
from repro.vertexcentric.program import VertexProgram, apply_reductions

__all__ = ["CuShaEngine"]


def _scaled(stats: KernelStats, factor: int) -> KernelStats:
    """A static per-iteration stat repeated over ``factor`` iterations."""
    out = KernelStats()
    out.load_transactions = stats.load_transactions * factor
    out.load_bytes_requested = stats.load_bytes_requested * factor
    out.store_transactions = stats.store_transactions * factor
    out.store_bytes_requested = stats.store_bytes_requested * factor
    out.active_lane_slots = stats.active_lane_slots * factor
    out.total_lane_slots = stats.total_lane_slots * factor
    out.warp_instructions = stats.warp_instructions * factor
    out.shared_atomics = stats.shared_atomics * factor
    out.global_atomics = stats.global_atomics * factor
    return out


def _window_rows_transactions(
    starts: np.ndarray, stops: np.ndarray, item_bytes: int,
    *, warp_size: int = 32, transaction_bytes: int = 128,
) -> TransactionCount:
    """Transactions of warp-per-window walks over contiguous windows.

    Each window ``[starts[k], stops[k])`` (element offsets) is processed in
    rows of ``warp_size`` consecutive elements; every row's byte span is
    priced separately, exactly as the hardware would.
    """
    sizes = stops - starts
    nz = sizes > 0
    if not nz.any():
        return TransactionCount(0, 0)
    st = starts[nz].astype(np.int64)
    sz = sizes[nz].astype(np.int64)
    rows_per = -(-sz // warp_size)
    total_rows = int(rows_per.sum())
    w_idx = np.repeat(np.arange(st.size, dtype=np.int64), rows_per)
    row_starts = np.concatenate([[0], np.cumsum(rows_per)[:-1]])
    row_in_window = np.arange(total_rows, dtype=np.int64) - np.repeat(
        row_starts, rows_per
    )
    row_lo = st[w_idx] + row_in_window * warp_size
    row_hi = np.minimum(row_lo + warp_size, st[w_idx] + sz[w_idx])
    lo_b = row_lo * item_bytes
    hi_b = row_hi * item_bytes
    txs = (hi_b - 1) // transaction_bytes - lo_b // transaction_bytes + 1
    return TransactionCount(int(txs.sum()), int(sz.sum()) * item_bytes)


_EMPTY_SHARDS = np.empty(0, dtype=np.int64)


class CuShaEngine(Engine):
    """CuSha over G-Shards (``mode="gs"``) or Concatenated Windows
    (``mode="cw"``).

    Parameters
    ----------
    mode:
        Representation used for the write-back stage.
    vertices_per_shard:
        The paper's ``|N|``; ``None`` auto-selects via
        :func:`repro.graph.partition.select_shard_size`.
    spec, pcie:
        Hardware models; defaults are the paper's GTX 780 system.
    resident_blocks:
        Blocks CuSha aims to co-locate per SM when auto-selecting ``|N|``
        (the paper's example uses 2).
    sync_mode:
        ``"async"`` (paper) or ``"bsp"`` (ablation); see module docstring.
    cache:
        ``None`` (default) memoizes representations and static stats in the
        process-wide :func:`repro.cache.default_cache`; ``False`` disables
        caching; an explicit :class:`~repro.cache.RepresentationCache`
        scopes it.  Only the fast path consults the cache.
    """

    def __init__(
        self,
        mode: str = "cw",
        *,
        vertices_per_shard: int | None = None,
        spec: GPUSpec = GTX780,
        pcie: PCIeSpec | None = None,
        resident_blocks: int = 2,
        threads_per_block: int = 512,
        sync_mode: str = "wave",
        always_writeback: bool = False,
        cache=None,
    ) -> None:
        if mode not in ("gs", "cw"):
            raise ValueError("mode must be 'gs' or 'cw'")
        if sync_mode not in ("wave", "async", "bsp"):
            raise ValueError("sync_mode must be 'wave', 'async', or 'bsp'")
        self.mode = mode
        self.vertices_per_shard = vertices_per_shard
        self.spec = spec
        self.pcie = pcie or PCIeSpec()
        self.resident_blocks = resident_blocks
        self.threads_per_block = threads_per_block
        self.sync_mode = sync_mode
        # Ablation of Figure 5's ``values_updated`` flag: when set, stage 4
        # runs for every shard every iteration instead of only updated ones.
        self.always_writeback = always_writeback
        self.cache = cache
        self.cost_model = KernelCostModel(spec)
        self.name = f"cusha-{mode}"

    # ------------------------------------------------------------------
    def _choose_shard_size(self, graph: DiGraph, program: VertexProgram) -> int:
        if self.vertices_per_shard is not None:
            return self.vertices_per_shard
        plan = select_shard_size(
            graph,
            target_window_size=self.spec.warp_size,
            shared_mem_per_block_bytes=self.spec.shared_mem_per_sm_bytes
            // self.resident_blocks,
            vertex_value_bytes=program.vertex_value_bytes,
            warp_size=self.spec.warp_size,
        )
        return plan.vertices_per_shard

    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> tuple:
        """The CW structure (and through it the shards) this run executes
        over, built via the same cache key :meth:`_run` uses."""
        N = self._choose_shard_size(graph, program)
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
        """Static per-sweep stats of the four pipeline stages, from the
        same cached bundle the fast path executes with.  Stage 4 is the
        full-sweep cost (every shard writing back)."""
        N = self._choose_shard_size(graph, program)
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size
        cache = resolve_cache(self.cache)
        if cache is not None:
            fp = graph_fingerprint(graph)
            cw = cache.get(
                ("cw", fp, N),
                lambda: ConcatenatedWindows.from_graph(graph, N),
            )
            bundle = cache.get(
                ("cusha-stats", fp, self.mode, N, warp, vbytes, sbytes, ebytes),
                lambda: cusha_static_bundle(
                    cw, self.mode, warp, vbytes, sbytes, ebytes
                ),
            )
        else:
            cw = ConcatenatedWindows.from_graph(graph, N)
            bundle = cusha_static_bundle(
                cw, self.mode, warp, vbytes, sbytes, ebytes
            )
        return {
            "stage1-fetch": bundle.base1.copy(),
            "stage2-compute": bundle.base2.copy(),
            "stage3-update": bundle.base3.copy(),
            "stage4-writeback": stats_from_row(bundle.stage4.sum(axis=0)),
        }

    def _wave_size(self, shared_bytes: int) -> int:
        if self.sync_mode == "async":
            return 1
        if self.sync_mode == "bsp":
            return max(1, 10**18)  # effectively all shards in one wave
        resident = max(
            1, blocks_per_sm(self.spec, shared_bytes, self.threads_per_block)
        )
        return max(1, self.spec.num_sms * resident)

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
    # Fast path: wave-batched vectorized core
    # ------------------------------------------------------------------
    def _execute_fast(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig, run_span
    ) -> RunResult:
        max_iterations = config.max_iterations
        tracer = config.tracer
        trace_on = tracer.enabled
        N = self._choose_shard_size(graph, program)
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size

        cache = resolve_cache(self.cache)
        cache_hits = cache_misses = 0
        if cache is not None:
            hits0, misses0 = cache.counters()
            fp = graph_fingerprint(graph)
            cw = cache.get(
                ("cw", fp, N),
                lambda: ConcatenatedWindows.from_graph(graph, N),
            )
            bundle = cache.get(
                ("cusha-stats", fp, self.mode, N, warp, vbytes, sbytes, ebytes),
                lambda: cusha_static_bundle(
                    cw, self.mode, warp, vbytes, sbytes, ebytes
                ),
            )
            hits1, misses1 = cache.counters()
            cache_hits, cache_misses = hits1 - hits0, misses1 - misses0
            if trace_on:
                tracer.metrics.counter("cache.hits").inc(cache_hits)
                tracer.metrics.counter("cache.misses").inc(cache_misses)
        else:
            cw = ConcatenatedWindows.from_graph(graph, N)
            bundle = cusha_static_bundle(
                cw, self.mode, warp, vbytes, sbytes, ebytes
            )
        sh = cw.shards
        S = sh.num_shards
        n = graph.num_vertices
        mdr = multi_device_run(
            config, S,
            weights=np.diff(sh.shard_offsets),
            src_unit=graph.src // N,
            dst_unit=graph.dst // N,
            value_bytes=vbytes,
            pcie=self.pcie,
        )

        # ----- device arrays -------------------------------------------------
        vertex_values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        src_static = None if static_all is None else static_all[sh.src_index]
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]

        base1, base2, base3 = bundle.base1, bundle.base2, bundle.base3
        st4_mat = bundle.stage4
        base = base1 + base2 + base3

        shared_bytes = shared_mem_per_block(N, vbytes)
        occ = occupancy(self.spec, shared_bytes, self.threads_per_block)
        faults = config.faults
        if faults.active:
            faults.launch(
                self.name, shared_bytes, self.spec.shared_mem_per_sm_bytes
            )

        # ----- transfers (Figure 10) -----------------------------------------
        rep_bytes = (
            cw.memory_bytes(vbytes, ebytes, sbytes)
            if self.mode == "cw"
            else sh.memory_bytes(vbytes, ebytes, sbytes)
        )
        h2d_ms = transfer_ms(rep_bytes, self.pcie)
        d2h_ms = transfer_ms(graph.num_vertices * vbytes, self.pcie)
        if faults.active:
            faults.transfer(self.name, "h2d")
        tracer.emit(
            "h2d", "transfer", model_start_ms=0.0, model_ms=h2d_ms,
            bytes=rep_bytes,
        )

        wave_size = min(self._wave_size(shared_bytes), S)

        # Per-wave loop invariants, hoisted out of the iteration loop: the
        # wave's vertex slice, its entry slice, its source indices, and the
        # destination indices rebased to the wave's vertex origin.
        dest_global = bundle.dest_global
        # Sources are read live, VertexValues[SrcIndex]; one int64 copy per
        # run (not cached: it would be duplicated in every layout's bundle).
        src_global = sh.src_index.astype(np.int64)
        waves = []
        for a in range(0, S, wave_size):
            b = min(a + wave_size, S)
            vlo = a * N
            vhi = min(b * N, n)
            eo = int(sh.shard_offsets[a])
            ee = int(sh.shard_offsets[b])
            waves.append((a, b, vlo, vhi, eo, ee, src_global[eo:ee],
                          dest_global[eo:ee] - vlo))

        # ----- frontier state -------------------------------------------------
        frontier_on = config.frontier != "off"
        frontier = None
        last_mask = None
        st1m = st2m = st3m = None
        full1 = full2 = full3 = None
        entries_per_shard = None
        total_entries = 0
        if frontier_on:
            if cache is not None:
                infl = cache.get(
                    ("frontier", fp, N),
                    lambda: vertex_influence_csr(graph.src, graph.dst, n, N, S),
                )
            else:
                infl = vertex_influence_csr(graph.src, graph.dst, n, N, S)
            frontier = ShardFrontier(
                S, N, infl[0], infl[1],
                resume=config.resume_frontier,
                flush_pos=np.arange(S, dtype=np.int64) // wave_size,
            )
            last_mask = np.zeros(n, dtype=bool)
            st1m, st2m, st3m = bundle.stage1, bundle.stage2, bundle.stage3
            full1 = st1m.sum(axis=0)
            full2 = st2m.sum(axis=0)
            full3 = st3m.sum(axis=0)
            entries_per_shard = np.diff(sh.shard_offsets)
            total_entries = int(sh.shard_offsets[-1])

        # ----- iterate --------------------------------------------------------
        total_stats = KernelStats()
        stage3_dynamic = KernelStats()
        stage2_dynamic = KernelStats()
        stage4_total_row = np.zeros(len(STAT_FIELDS), dtype=np.float64)
        nf = len(STAT_FIELDS)
        s1_total = np.zeros(nf, dtype=np.float64)
        s2_total = np.zeros(nf, dtype=np.float64)
        s3_total = np.zeros(nf, dtype=np.float64)
        traces: list[IterationTrace] = []
        kernel_ms = 0.0
        converged = False
        iterations = config.start_iteration

        for iteration in range(config.start_iteration + 1, max_iterations + 1):
            if faults.active:
                faults.kernel(self.name, iteration, config.exec_path)
                if mdr is not None:
                    faults.device(
                        self.name, iteration, config.exec_path, mdr.placement
                    )
            iter_start_ms = h2d_ms + kernel_ms
            with tracer.span(
                f"iter-{iteration}", "iteration", model_start_ms=iter_start_ms
            ) as it_span:
                push = False
                direction = None
                track = False
                active_vertices = 0
                processed_shards = 0
                if frontier_on:
                    program.begin_iteration(iteration)
                    if config.frontier == "auto":
                        direction = frontier.direction(
                            entries_per_shard, total_entries
                        )
                    else:
                        direction = "push"
                    push = direction == "push"
                    track = trace_on
                    last_mask[:] = False
                if push:
                    iter_stats = KernelStats()
                    s1_row = np.zeros(nf, dtype=np.float64)
                    s2_row = np.zeros(nf, dtype=np.float64)
                    s3_row = np.zeros(nf, dtype=np.float64)
                else:
                    iter_stats = base.copy()
                    if frontier_on:
                        s1_row, s2_row, s3_row = full1, full2, full3
                iter_stats.kernel_launches = 1
                if trace_on:
                    dyn2 = KernelStats()
                    dyn3 = KernelStats()
                updated_total = 0
                updated_shard_count = 0
                st4_row = np.zeros(len(STAT_FIELDS), dtype=np.float64)
                for a, b, vlo, vhi, eo, ee, src_w, dest_local in waves:
                    sparse = False
                    act = None
                    if push:
                        act = frontier.active(a, b)
                        frontier.shards_skipped += (b - a) - act.size
                        if act.size == 0:
                            continue
                        frontier.clear(act)
                        processed_shards += act.size
                        if mdr is not None:
                            mdr.note_processed(act)
                        sparse = act.size < b - a
                        if not sparse:
                            s1_row += st1m[a:b].sum(axis=0)
                            s2_row += st2m[a:b].sum(axis=0)
                            s3_row += st3m[a:b].sum(axis=0)
                    elif frontier_on:  # pull: dense sweep, marks deferred
                        processed_shards += b - a
                    if sparse:
                        # Frontier gather: pack the active shards' vertex
                        # slices and entry ranges, rebase destinations into
                        # the packed coordinate space, and run the same
                        # kernels over the subset.
                        v_lo = act * N
                        v_hi = np.minimum(v_lo + N, n)
                        v_cnt = v_hi - v_lo
                        v_idx = multi_arange(v_lo, v_hi)
                        e_lo = sh.shard_offsets[act]
                        e_hi = sh.shard_offsets[act + 1]
                        e_idx = multi_arange(e_lo, e_hi)
                        packed_off = np.zeros(act.size + 1, dtype=np.int64)
                        np.cumsum(v_cnt, out=packed_off[1:])
                        dest_sub = dest_global[e_idx] - np.repeat(
                            v_lo - packed_off[:-1], e_hi - e_lo
                        )
                        frontier.edges_processed += int(e_idx.size)
                        s1_row += st1m[act].sum(axis=0)
                        s2_row += st2m[act].sum(axis=0)
                        s3_row += st3m[act].sum(axis=0)
                        old = vertex_values[v_idx]
                        local = program.init_local(old)
                        msgs, mask = program.messages(
                            vertex_values[src_global[e_idx]],
                            None if src_static is None else src_static[e_idx],
                            None if edge_vals is None else edge_vals[e_idx],
                            old[dest_sub],
                        )
                        ops, changed = apply_reductions(
                            program, local, dest_sub, msgs, mask,
                            track_changed=track,
                        )
                    else:
                        if frontier_on:
                            frontier.edges_processed += ee - eo
                        old = vertex_values[vlo:vhi]
                        local = program.init_local(old)
                        msgs, mask = program.messages(
                            vertex_values[src_w],
                            None if src_static is None else src_static[eo:ee],
                            None if edge_vals is None else edge_vals[eo:ee],
                            old[dest_local],
                        )
                        ops, changed = apply_reductions(
                            program, local, dest_local, msgs, mask,
                            track_changed=track,
                        )
                    if track and changed is not None:
                        active_vertices += int(changed.sum())
                    iter_stats.add_atomics(shared=ops)
                    stage2_dynamic.add_atomics(shared=ops)
                    if trace_on:
                        dyn2.add_atomics(shared=ops)
                    final, upd = program.apply(local, old)
                    n_upd = int(upd.sum())
                    wave_shards = _EMPTY_SHARDS
                    idx = None
                    if n_upd:
                        if sparse:
                            pos = np.flatnonzero(upd)
                            idx = v_idx[pos]
                            vertex_values[idx] = final[upd]
                            # Per-shard store pricing over the packed
                            # segments (warp rows never span shards).
                            seg_of = (
                                np.searchsorted(
                                    packed_off, pos, side="right"
                                ) - 1
                            )
                            counts = np.bincount(
                                seg_of, minlength=act.size
                            )
                            seg = np.zeros(act.size + 1, dtype=np.int64)
                            np.cumsum(counts, out=seg[1:])
                            wave_shards = act[np.flatnonzero(counts)]
                        else:
                            idx = vlo + np.flatnonzero(upd)
                            vertex_values[idx] = final[upd]
                            # Per-shard store pricing: segment the updated
                            # indices by owning shard so warp rows never span
                            # shard boundaries (as in the reference loop).
                            counts = np.bincount(idx // N - a, minlength=b - a)
                            seg = np.zeros(b - a + 1, dtype=np.int64)
                            np.cumsum(counts, out=seg[1:])
                            wave_shards = a + np.flatnonzero(counts)
                        store_tc = gather_transactions_segmented(
                            idx, vbytes, seg, warp_size=warp,
                            transaction_bytes=STORE_GRANULARITY_BYTES)
                        iter_stats.add_store(store_tc)
                        stage3_dynamic.add_store(store_tc)
                        if trace_on:
                            dyn3.add_store(store_tc)
                        updated_total += n_upd
                        if frontier_on:
                            last_mask[idx] = True
                    if self.always_writeback:
                        wave_shards = (
                            act if sparse else np.arange(a, b, dtype=np.int64)
                        )
                    if wave_shards.size:
                        updated_shard_count += wave_shards.size
                        if mdr is not None:
                            mdr.note_updated(wave_shards)
                        # Stage 4 is priced, not executed: sources are read
                        # live from VertexValues, which equals the SrcValue
                        # the wave-boundary write-back would have left.
                        st4_row += st4_mat[wave_shards].sum(axis=0)
                    if push and idx is not None:
                        # Wave-boundary frontier marking: the updaters' own
                        # shards plus everything they influence (visible
                        # now that the wave's updates are in VertexValues).
                        frontier.mark(idx)
                if push:
                    add_row_into(iter_stats, s1_row + s2_row + s3_row)
                elif frontier_on:
                    # Every shard ran: the bitmap is rebuilt from the mask
                    # only if the next direction test needs it.
                    frontier.defer(last_mask)
                add_row_into(iter_stats, st4_row)
                stage4_total_row += st4_row
                if frontier_on:
                    s1_total += s1_row
                    s2_total += s2_row
                    s3_total += s3_row
                t_ms = self.cost_model.time_ms(iter_stats, occupancy=occ)
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
                total_stats += iter_stats
                iterations = iteration
                if config.collect_traces:
                    traces.append(
                        IterationTrace(
                            iteration, updated_total, t_ms, kernel_ms,
                            processed_shards,
                        )
                    )
                if trace_on:
                    it_span.model_ms = t_ms
                    it_span.attrs["updated_vertices"] = updated_total
                    it_span.attrs["updated_shards"] = updated_shard_count
                    if frontier_on:
                        it_span.attrs["frontier_direction"] = direction
                        it_span.attrs["active_shards"] = processed_shards
                        it_span.attrs["active_vertices"] = active_vertices
                    tracer.metrics.histogram(
                        "engine.updated_vertices"
                    ).observe(updated_total)
                    if frontier_on:
                        span1 = stats_from_row(s1_row)
                        span2 = stats_from_row(s2_row) + dyn2
                        span3 = stats_from_row(s3_row) + dyn3
                    else:
                        span1 = base1.copy()
                        span2 = base2 + dyn2
                        span3 = base3 + dyn3
                    for sname, sstats in (
                        ("stage1-fetch", span1),
                        ("stage2-compute", span2),
                        ("stage3-update", span3),
                        ("stage4-writeback", stats_from_row(st4_row)),
                    ):
                        tracer.emit(
                            sname,
                            "stage",
                            model_start_ms=iter_start_ms,
                            model_ms=self.cost_model.time_ms(
                                sstats, occupancy=occ
                            ),
                            stats=sstats,
                            iteration=iteration,
                        )
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
            "d2h", "transfer", model_start_ms=h2d_ms + kernel_ms,
            model_ms=d2h_ms, bytes=graph.num_vertices * vbytes,
        )
        if trace_on:
            m = tracer.metrics
            publish_kernel_stats(m, total_stats)
            m.counter("engine.iterations").inc(
                iterations - config.start_iteration
            )
            m.gauge("cusha.num_shards").set(S)
            m.gauge("cusha.vertices_per_shard").set(N)
            m.gauge("cusha.wave_size").set(wave_size)
            m.gauge("cusha.waves_per_iteration").set(-(-S // wave_size))
            if mdr is not None:
                mdr.publish(tracer, engine=self.name)
            if frontier_on:
                m.counter("frontier.edges_processed").inc(
                    frontier.edges_processed
                )
                m.counter("frontier.shards_skipped").inc(
                    frontier.shards_skipped
                )
            run_span.model_ms = h2d_ms + kernel_ms + d2h_ms
            run_span.attrs["iterations"] = iterations
            run_span.attrs["converged"] = converged
            if frontier_on:
                run_span.attrs["frontier"] = config.frontier
        executed = iterations - config.start_iteration
        if frontier_on:
            stage_stats = {
                "stage1-fetch": stats_from_row(s1_total),
                "stage2-compute": stats_from_row(s2_total) + stage2_dynamic,
                "stage3-update": stats_from_row(s3_total) + stage3_dynamic,
                "stage4-writeback": stats_from_row(stage4_total_row),
            }
        else:
            stage_stats = {
                "stage1-fetch": _scaled(base1, executed),
                "stage2-compute": _scaled(base2, executed) + stage2_dynamic,
                "stage3-update": _scaled(base3, executed) + stage3_dynamic,
                "stage4-writeback": stats_from_row(stage4_total_row),
            }
        return RunResult(
            engine=self.name,
            program=program.name,
            values=vertex_values,
            iterations=iterations,
            converged=converged,
            kernel_time_ms=kernel_ms,
            h2d_ms=h2d_ms,
            d2h_ms=d2h_ms,
            representation_bytes=rep_bytes,
            stats=total_stats,
            traces=traces,
            num_edges=graph.num_edges,
            stage_stats=stage_stats,
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

    # ------------------------------------------------------------------
    # Reference path: the original per-shard loop (equivalence baseline)
    # ------------------------------------------------------------------
    def _execute_reference(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig, run_span
    ) -> RunResult:
        max_iterations = config.max_iterations
        tracer = config.tracer
        N = self._choose_shard_size(graph, program)
        cw = ConcatenatedWindows.from_graph(graph, N)
        sh = cw.shards
        S = sh.num_shards
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size
        mdr = multi_device_run(
            config, S,
            weights=np.diff(sh.shard_offsets),
            src_unit=graph.src // N,
            dst_unit=graph.dst // N,
            value_bytes=vbytes,
            pcie=self.pcie,
        )

        # ----- device arrays -------------------------------------------------
        vertex_values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        src_value = vertex_values[sh.src_index].copy()
        src_static = None if static_all is None else static_all[sh.src_index]
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]

        # ----- static per-iteration hardware stats (split per stage) ---------
        # Per-shard resolution throughout (frontier-gated iterations charge
        # only the shards they process); aggregates are exact sums.
        stage1 = [KernelStats() for _ in range(S)]
        stage2 = [KernelStats() for _ in range(S)]
        stage3 = [KernelStats() for _ in range(S)]
        stage4 = [KernelStats() for _ in range(S)]
        # Loop invariants of the iteration loop, computed once: vertex
        # ranges, entry slices, rebased destination indices, CW slices.
        shard_meta: list[tuple[int, int, slice, np.ndarray, slice]] = []
        for i in range(S):
            lo, hi = sh.vertex_range(i)
            n_i = hi - lo
            m_i = sh.shard_size(i)
            o = int(sh.shard_offsets[i])
            sl_i = slice(o, o + m_i)
            dest_local = sh.dest_index[sl_i].astype(np.int64) - lo
            shard_meta.append((lo, hi, sl_i, dest_local, cw.cw_slice(i)))
            st1, st2, st3 = stage1[i], stage2[i], stage3[i]
            # Stage 1: coalesced VertexValues fetch.
            st1.add_load(
                contiguous_transactions(n_i, vbytes, start_byte=lo * vbytes,
                                        warp_size=warp,
                                        transaction_bytes=LOAD_GRANULARITY_BYTES)
            )
            st1.add_lanes(*slots_for_contiguous(n_i, warp),
                          instructions_per_row=costs.INSTR_INIT)
            # Stage 2: coalesced shard-entry loads (SoA field arrays).
            for b in (vbytes, 4):  # SrcValue, DestIndex
                st2.add_load(contiguous_transactions(
                    m_i, b, start_byte=o * b, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
            if sbytes:
                st2.add_load(contiguous_transactions(
                    m_i, sbytes, start_byte=o * sbytes, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
            if ebytes:
                st2.add_load(contiguous_transactions(
                    m_i, ebytes, start_byte=o * ebytes, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
            st2.add_lanes(*slots_for_contiguous(m_i, warp),
                          instructions_per_row=costs.INSTR_COMPUTE)
            # Shared-memory atomic bank conflicts: destination indices that
            # collide modulo the bank count serialize within a warp round.
            replays = conflict_replays(dest_local, warp_size=warp)
            st2.add_instructions(replays * costs.INSTR_ATOMIC_REPLAY)
            # Stage 3: coalesced VertexValues read (stores are dynamic).
            st3.add_load(
                contiguous_transactions(n_i, vbytes, start_byte=lo * vbytes,
                                        warp_size=warp,
                                        transaction_bytes=LOAD_GRANULARITY_BYTES)
            )
            st3.add_lanes(*slots_for_contiguous(n_i, warp),
                          instructions_per_row=costs.INSTR_UPDATE)
            # Stage 4 (charged only on iterations where the shard updates).
            st4 = stage4[i]
            if self.mode == "gs":
                starts = sh.window_offsets[:, i].copy()
                stops = sh.window_offsets[:, i + 1].copy()
                st4.add_load(_window_rows_transactions(
                    starts, stops, 4, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
                st4.add_store(_window_rows_transactions(
                    starts, stops, vbytes, warp_size=warp,
                    transaction_bytes=STORE_GRANULARITY_BYTES))
                active, total = slots_for_segments(stops - starts, warp)
                st4.add_lanes(active, total,
                              instructions_per_row=costs.INSTR_WRITEBACK)
                # The warps must visit every window W_ij — including empty
                # ones — to read its bounds and decide whether to copy: a
                # per-shard cost linear in S (quadratic per iteration) that
                # CW eliminates.  Bounds live in a transposed, contiguous
                # offsets row.
                st4.add_load(contiguous_transactions(
                    S + 1, 8, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
                st4.add_instructions(S * costs.INSTR_GS_WINDOW_SCAN)
            else:
                L = cw.cw_size(i)
                cwo = int(cw.cw_offsets[i])
                # SrcIndex and Mapper are both contiguous 4-byte reads over
                # the same CW slot range, so their pricing is identical:
                # compute once, charge twice.  The SrcValue stores scatter
                # through the mapper.
                cw_read = contiguous_transactions(
                    L, 4, start_byte=cwo * 4, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES)
                st4.add_load(cw_read)
                st4.add_load(cw_read)
                st4.add_store(gather_transactions(
                    cw.mapper[cw.cw_slice(i)], vbytes, warp_size=warp,
                    transaction_bytes=STORE_GRANULARITY_BYTES))
                st4.add_lanes(*slots_for_contiguous(L, warp),
                              instructions_per_row=costs.INSTR_WRITEBACK)
        base1 = sum(stage1, KernelStats())
        base2 = sum(stage2, KernelStats())
        base3 = sum(stage3, KernelStats())
        base = base1 + base2 + base3

        shared_bytes = shared_mem_per_block(N, vbytes)
        occ = occupancy(self.spec, shared_bytes, self.threads_per_block)
        faults = config.faults
        if faults.active:
            faults.launch(
                self.name, shared_bytes, self.spec.shared_mem_per_sm_bytes
            )

        # ----- transfers (Figure 10) -----------------------------------------
        rep_bytes = (
            cw.memory_bytes(vbytes, ebytes, sbytes)
            if self.mode == "cw"
            else sh.memory_bytes(vbytes, ebytes, sbytes)
        )
        h2d_ms = transfer_ms(rep_bytes, self.pcie)
        d2h_ms = transfer_ms(graph.num_vertices * vbytes, self.pcie)
        if faults.active:
            faults.transfer(self.name, "h2d")
        tracer.emit(
            "h2d", "transfer", model_start_ms=0.0, model_ms=h2d_ms,
            bytes=rep_bytes,
        )

        # ----- iterate --------------------------------------------------------
        total_stats = KernelStats()
        stage3_dynamic = KernelStats()
        stage2_dynamic = KernelStats()
        stage4_total = KernelStats()
        traces: list[IterationTrace] = []
        kernel_ms = 0.0
        converged = False
        iterations = config.start_iteration

        # Shards execute in waves of concurrently resident blocks; a shard's
        # write-back becomes visible to other shards only at its wave
        # boundary — the visibility a real grid of blocks on num_sms SMs
        # provides (and the reason CuSha needs a few more iterations than
        # the single-version CSR baselines, paper Figure 7).
        wave_size = min(self._wave_size(shared_bytes), S)

        # ----- frontier state -------------------------------------------------
        frontier_on = config.frontier != "off"
        frontier = None
        last_mask = None
        entries_per_shard = None
        total_entries = 0
        stage1_run = KernelStats()
        stage2_run = KernelStats()
        stage3_run = KernelStats()
        if frontier_on:
            n = graph.num_vertices
            infl = vertex_influence_csr(graph.src, graph.dst, n, N, S)
            frontier = ShardFrontier(
                S, N, infl[0], infl[1],
                resume=config.resume_frontier,
                flush_pos=np.arange(S, dtype=np.int64) // wave_size,
            )
            last_mask = np.zeros(n, dtype=bool)
            entries_per_shard = np.diff(sh.shard_offsets)
            total_entries = int(sh.shard_offsets[-1])

        trace_on = tracer.enabled
        for iteration in range(config.start_iteration + 1, max_iterations + 1):
            if faults.active:
                faults.kernel(self.name, iteration, config.exec_path)
                if mdr is not None:
                    faults.device(
                        self.name, iteration, config.exec_path, mdr.placement
                    )
            iter_start_ms = h2d_ms + kernel_ms
            with tracer.span(
                f"iter-{iteration}", "iteration", model_start_ms=iter_start_ms
            ) as it_span:
                push = False
                direction = None
                track = False
                active_vertices = 0
                processed_shards = 0
                if frontier_on:
                    program.begin_iteration(iteration)
                    if config.frontier == "auto":
                        direction = frontier.direction(
                            entries_per_shard, total_entries
                        )
                    else:
                        direction = "push"
                    push = direction == "push"
                    track = trace_on
                    last_mask[:] = False
                if push:
                    iter_stats = KernelStats()
                    s1_it = KernelStats()
                    s2_it = KernelStats()
                    s3_it = KernelStats()
                elif frontier_on:
                    iter_stats = base.copy()
                    s1_it = base1.copy()
                    s2_it = base2.copy()
                    s3_it = base3.copy()
                else:
                    iter_stats = base.copy()
                iter_stats.kernel_launches = 1
                if trace_on:
                    # Per-iteration dynamic deltas, tracked only when a real
                    # tracer is attached so untraced runs do no extra work.
                    dyn2 = KernelStats()
                    dyn3 = KernelStats()
                    st4_iter = KernelStats()
                updated_total = 0
                updated_shards: list[int] = []
                mdr_processed: list[int] = []
                pending_writeback: list[int] = []
                wave_upd: list[np.ndarray] = []
                for i in range(S):
                    skip = push and not frontier.dirty[i]
                    if skip:
                        frontier.shards_skipped += 1
                    else:
                        if push and mdr is not None:
                            mdr_processed.append(i)
                        if frontier_on:
                            frontier.dirty[i] = False
                            frontier.edges_processed += int(
                                entries_per_shard[i]
                            )
                            processed_shards += 1
                            if push:
                                s1_it += stage1[i]
                                s2_it += stage2[i]
                                s3_it += stage3[i]
                                iter_stats += stage1[i]
                                iter_stats += stage2[i]
                                iter_stats += stage3[i]
                        lo, hi, sl, dest_local, _csl = shard_meta[i]
                        old = vertex_values[lo:hi]
                        local = program.init_local(old)
                        msgs, mask = program.messages(
                            src_value[sl],
                            None if src_static is None else src_static[sl],
                            None if edge_vals is None else edge_vals[sl],
                            old[dest_local],
                        )
                        ops, changed = apply_reductions(
                            program, local, dest_local, msgs, mask,
                            track_changed=track,
                        )
                        if track and changed is not None:
                            active_vertices += int(changed.sum())
                        iter_stats.add_atomics(shared=ops)
                        stage2_dynamic.add_atomics(shared=ops)
                        if trace_on:
                            dyn2.add_atomics(shared=ops)
                        final, upd = program.apply(local, old)
                        n_upd = int(upd.sum())
                        if n_upd:
                            idx = lo + np.flatnonzero(upd)
                            vertex_values[idx] = final[upd]
                            store_tc = gather_transactions(
                                idx, vbytes, warp_size=warp,
                                transaction_bytes=STORE_GRANULARITY_BYTES)
                            iter_stats.add_store(store_tc)
                            stage3_dynamic.add_store(store_tc)
                            if trace_on:
                                dyn3.add_store(store_tc)
                            updated_total += n_upd
                            updated_shards.append(i)
                            pending_writeback.append(i)
                            if frontier_on:
                                last_mask[idx] = True
                                wave_upd.append(idx)
                        elif self.always_writeback:
                            updated_shards.append(i)
                            pending_writeback.append(i)
                    if (i + 1) % wave_size == 0 or i == S - 1:
                        for j in pending_writeback:
                            csl = shard_meta[j][4]
                            src_value[cw.mapper[csl]] = vertex_values[
                                cw.cw_src_index[csl]
                            ]
                        pending_writeback.clear()
                        if frontier_on and wave_upd:
                            # Wave-boundary frontier marking, in lockstep
                            # with write-back visibility.
                            frontier.mark(np.concatenate(wave_upd))
                            wave_upd.clear()
                if mdr is not None:
                    if push:
                        mdr.note_processed(
                            np.asarray(mdr_processed, dtype=np.int64)
                        )
                    mdr.note_updated(
                        np.asarray(updated_shards, dtype=np.int64)
                    )
                for i in updated_shards:
                    iter_stats += stage4[i]
                    stage4_total += stage4[i]
                    if trace_on:
                        st4_iter += stage4[i]
                if frontier_on:
                    stage1_run += s1_it
                    stage2_run += s2_it
                    stage3_run += s3_it
                t_ms = self.cost_model.time_ms(iter_stats, occupancy=occ)
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
                total_stats += iter_stats
                iterations = iteration
                if config.collect_traces:
                    traces.append(
                        IterationTrace(
                            iteration, updated_total, t_ms, kernel_ms,
                            processed_shards,
                        )
                    )
                if trace_on:
                    it_span.model_ms = t_ms
                    it_span.attrs["updated_vertices"] = updated_total
                    it_span.attrs["updated_shards"] = len(updated_shards)
                    if frontier_on:
                        it_span.attrs["frontier_direction"] = direction
                        it_span.attrs["active_shards"] = processed_shards
                        it_span.attrs["active_vertices"] = active_vertices
                    tracer.metrics.histogram(
                        "engine.updated_vertices"
                    ).observe(updated_total)
                    # Stage spans: the stage's stats delta this iteration plus
                    # its standalone modeled cost (no launch overhead — the
                    # per-stage stats carry kernel_launches=0).
                    if frontier_on:
                        span1 = s1_it.copy()
                        span2 = s2_it + dyn2
                        span3 = s3_it + dyn3
                    else:
                        span1 = base1.copy()
                        span2 = base2 + dyn2
                        span3 = base3 + dyn3
                    for sname, sstats in (
                        ("stage1-fetch", span1),
                        ("stage2-compute", span2),
                        ("stage3-update", span3),
                        ("stage4-writeback", st4_iter),
                    ):
                        tracer.emit(
                            sname,
                            "stage",
                            model_start_ms=iter_start_ms,
                            model_ms=self.cost_model.time_ms(
                                sstats, occupancy=occ
                            ),
                            stats=sstats,
                            iteration=iteration,
                        )
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
            "d2h", "transfer", model_start_ms=h2d_ms + kernel_ms,
            model_ms=d2h_ms, bytes=graph.num_vertices * vbytes,
        )
        if trace_on:
            m = tracer.metrics
            publish_kernel_stats(m, total_stats)
            m.counter("engine.iterations").inc(
                iterations - config.start_iteration
            )
            m.gauge("cusha.num_shards").set(S)
            m.gauge("cusha.vertices_per_shard").set(N)
            m.gauge("cusha.wave_size").set(wave_size)
            m.gauge("cusha.waves_per_iteration").set(-(-S // wave_size))
            if mdr is not None:
                mdr.publish(tracer, engine=self.name)
            if frontier_on:
                m.counter("frontier.edges_processed").inc(
                    frontier.edges_processed
                )
                m.counter("frontier.shards_skipped").inc(
                    frontier.shards_skipped
                )
            run_span.model_ms = h2d_ms + kernel_ms + d2h_ms
            run_span.attrs["iterations"] = iterations
            run_span.attrs["converged"] = converged
            if frontier_on:
                run_span.attrs["frontier"] = config.frontier
        executed = iterations - config.start_iteration
        if frontier_on:
            stage_stats = {
                "stage1-fetch": stage1_run,
                "stage2-compute": stage2_run + stage2_dynamic,
                "stage3-update": stage3_run + stage3_dynamic,
                "stage4-writeback": stage4_total,
            }
        else:
            stage_stats = {
                "stage1-fetch": _scaled(base1, executed),
                "stage2-compute": _scaled(base2, executed) + stage2_dynamic,
                "stage3-update": _scaled(base3, executed) + stage3_dynamic,
                "stage4-writeback": stage4_total,
            }
        return RunResult(
            engine=self.name,
            program=program.name,
            values=vertex_values,
            iterations=iterations,
            converged=converged,
            kernel_time_ms=kernel_ms,
            h2d_ms=h2d_ms,
            d2h_ms=d2h_ms,
            representation_bytes=rep_bytes,
            stats=total_stats,
            traces=traces,
            num_edges=graph.num_edges,
            stage_stats=stage_stats,
            exec_path="reference",
            edges_processed=0 if frontier is None else frontier.edges_processed,
            shards_skipped=0 if frontier is None else frontier.shards_skipped,
            frontier_mask=None if last_mask is None else last_mask.copy(),
            devices=config.devices,
            exchange_bytes=0 if mdr is None else mdr.exchange_bytes,
            exchange_ms=0.0 if mdr is None else mdr.exchange_ms,
        )
