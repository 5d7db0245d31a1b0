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
The engine supplies its representations, its unit structure (shards of
``|N|`` vertices, flushed at wave boundaries) and a per-iteration sweep;
the :class:`~repro.frameworks.driver.IterationDriver` runs the loop around
it — frontier direction, placement exchange, transfers, fault sites,
spans, metrics and convergence.  ``config.exec_path`` selects the sweep.
The default ``"fast"`` sweep batches each wave into one vectorized step:
within a wave, shards only communicate through ``SrcValue`` (refreshed at
wave boundaries) and each shard exclusively owns its destination-vertex
slice, so concatenating a wave's shard entries and running ``messages`` /
``apply_reductions`` / ``apply`` once over the whole wave is bit-identical
to the per-shard loop (``ufunc.at`` applies updates sequentially in entry
order, which the concatenation preserves).  At every wave boundary the
write-back leaves ``SrcValue == VertexValues[SrcIndex]``, and a wave
computes all its messages before it applies any update, so the fast sweep
reads sources live as ``VertexValues[SrcIndex]`` and prices stage 4
without executing it.  Hardware pricing uses the segmented helpers so warp
rows never span shard boundaries; the per-shard stage-4 stats are one
matrix whose updated rows are summed per iteration.  ``"reference"`` is
the original per-shard sweep, stage-4 scatter included, kept as the
equivalence baseline.
"""

from __future__ import annotations

import numpy as np

from repro.frameworks import costs
from repro.frameworks.base import RunConfig
from repro.frameworks.driver import (DrivenEngine, IterationDriver, Plan,
                                     RunCache, Sweep, concat)
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
from repro.gpu.spec import GTX780, GPUSpec, PCIeSpec
from repro.gpu.stats import (KernelStats, LOAD_GRANULARITY_BYTES,
                             STORE_GRANULARITY_BYTES)
from repro.gpu.sharedmem import conflict_replays
from repro.gpu.warp import slots_for_contiguous, slots_for_segments
from repro.vertexcentric.program import VertexProgram, apply_reductions

__all__ = ["CuShaEngine", "choose_shard_size", "concatenated_windows"]


def choose_shard_size(
    graph: DiGraph, program: VertexProgram, spec: GPUSpec,
    vertices_per_shard: int | None = None, resident_blocks: int = 2,
) -> int:
    """The paper's ``|N|``: ``vertices_per_shard`` when given, otherwise
    auto-selected for ``resident_blocks`` co-resident blocks per SM."""
    if vertices_per_shard is not None:
        return vertices_per_shard
    plan = select_shard_size(
        graph,
        target_window_size=spec.warp_size,
        shared_mem_per_block_bytes=spec.shared_mem_per_sm_bytes
        // resident_blocks,
        vertex_value_bytes=program.vertex_value_bytes,
        warp_size=spec.warp_size,
    )
    return plan.vertices_per_shard


def concatenated_windows(
    graph: DiGraph, N: int, cache: RunCache
) -> ConcatenatedWindows:
    """The CW structure (and through it the G-Shards) for ``|N|``, shared
    through the cache by both CW modes and the streamed engine."""
    return cache.get(
        ("cw", N), lambda: ConcatenatedWindows.from_graph(graph, N)
    )


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




class CuShaEngine(DrivenEngine):
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
        return choose_shard_size(graph, program, self.spec,
                                 self.vertices_per_shard, self.resident_blocks)

    def _static_bundle(self, cw, program: VertexProgram, cache: RunCache):
        """The fast path's static stats bundle for this layout."""
        N = cw.vertices_per_shard
        warp = self.spec.warp_size
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        return cache.get(
            ("cusha-stats", self.mode, N, warp, vbytes, sbytes, ebytes),
            lambda: cusha_static_bundle(
                cw, self.mode, warp, vbytes, sbytes, ebytes
            ),
        )

    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig,
        cache: RunCache,
    ) -> tuple:
        """The CW structure (and through it the shards) this run executes
        over, built via the same cache key the run uses."""
        N = self._choose_shard_size(graph, program)
        return (concatenated_windows(graph, N, cache),)

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """Static per-sweep stats of the four pipeline stages, from the
        same cached bundle the fast path executes with.  Stage 4 is the
        full-sweep cost (every shard writing back)."""
        cache = RunCache(graph, self.cache)
        N = self._choose_shard_size(graph, program)
        bundle = self._static_bundle(
            concatenated_windows(graph, N, cache), program, cache
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
    def _plan(self, run: IterationDriver) -> Plan:
        graph, program, config = run.graph, run.program, run.config
        N = self._choose_shard_size(graph, program)
        cw = concatenated_windows(graph, N, run.cache)
        sh = cw.shards
        S = sh.num_shards
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        src_static = None if static_all is None else static_all[sh.src_index]
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]
        shared_bytes = shared_mem_per_block(N, vbytes)
        occ = occupancy(self.spec, shared_bytes, self.threads_per_block)
        # Shards execute in waves of concurrently resident blocks; a shard's
        # write-back becomes visible to other shards only at its wave
        # boundary — the visibility a real grid of blocks on num_sms SMs
        # provides (and the reason CuSha needs a few more iterations than
        # the single-version CSR baselines, paper Figure 7).
        wave_size = min(self._wave_size(shared_bytes), S)
        if config.exec_path == "reference":
            sweep = self._reference_sweep(
                run, cw, values, src_static, edge_vals, wave_size, occ)
        else:
            sweep = self._fast_sweep(
                run, cw, values, src_static, edge_vals, wave_size, occ)
        rep_bytes = (
            cw.memory_bytes(vbytes, ebytes, sbytes)
            if self.mode == "cw"
            else sh.memory_bytes(vbytes, ebytes, sbytes)
        )
        return Plan(
            values=values,
            sweep=sweep,
            representation_bytes=rep_bytes,
            unit_size=N,
            unit_edges=np.diff(sh.shard_offsets),
            flush_pos=np.arange(S, dtype=np.int64) // wave_size,
            h2d_bytes=rep_bytes,
            launch=(shared_bytes, self.spec.shared_mem_per_sm_bytes),
            occupancy=occ,
            gauges={
                "cusha.num_shards": S,
                "cusha.vertices_per_shard": N,
                "cusha.wave_size": wave_size,
                "cusha.waves_per_iteration": -(-S // wave_size),
            },
        )

    # ------------------------------------------------------------------
    # Fast sweep: wave-batched vectorized core
    # ------------------------------------------------------------------
    def _fast_sweep(self, run, cw, vertex_values, src_static, edge_vals,
                    wave_size, occ):
        program = run.program
        sh = cw.shards
        S = sh.num_shards
        N = cw.vertices_per_shard
        n = sh.num_vertices
        vbytes = program.vertex_value_bytes
        warp = self.spec.warp_size
        bundle = self._static_bundle(cw, program, run.cache)
        base1, base2, base3 = bundle.base1, bundle.base2, bundle.base3
        base = base1 + base2 + base3
        st1m, st2m, st3m = bundle.stage1, bundle.stage2, bundle.stage3
        st4_mat = bundle.stage4
        nf = len(STAT_FIELDS)

        # Per-wave loop invariants: the wave's vertex slice, its entry
        # slice, its source indices, and the destination indices rebased to
        # the wave's vertex origin.
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

        def sweep(iteration: int, push: bool) -> Sweep:
            frontier = run.frontier
            if push:
                iter_stats = KernelStats()
                s1_row = np.zeros(nf, dtype=np.float64)
                s2_row = np.zeros(nf, dtype=np.float64)
                s3_row = np.zeros(nf, dtype=np.float64)
            else:
                iter_stats = base.copy()
            iter_stats.kernel_launches = 1
            dyn2 = KernelStats()
            dyn3 = KernelStats()
            st4_row = np.zeros(nf, dtype=np.float64)
            updated: list[np.ndarray] = []
            units: list[np.ndarray] = []
            processed: list[np.ndarray] = []
            buffers = ()
            for a, b, vlo, vhi, eo, ee, src_w, dest_local in waves:
                sparse = False
                act = None
                if push:
                    act = frontier.active(a, b)
                    if act.size == 0:
                        continue
                    frontier.clear(act)
                    processed.append(act)
                    sparse = act.size < b - a
                    if not sparse:
                        s1_row += st1m[a:b].sum(axis=0)
                        s2_row += st2m[a:b].sum(axis=0)
                        s3_row += st3m[a:b].sum(axis=0)
                if sparse:
                    # Frontier gather: pack the active shards' vertex
                    # slices and entry ranges, rebase destinations into the
                    # packed coordinate space, and run the same kernels
                    # over the subset.
                    v_lo = act * N
                    v_hi = np.minimum(v_lo + N, n)
                    v_idx = multi_arange(v_lo, v_hi)
                    e_lo = sh.shard_offsets[act]
                    e_hi = sh.shard_offsets[act + 1]
                    e_idx = multi_arange(e_lo, e_hi)
                    packed_off = np.zeros(act.size + 1, dtype=np.int64)
                    np.cumsum(v_hi - v_lo, out=packed_off[1:])
                    dest_sub = dest_global[e_idx] - np.repeat(
                        v_lo - packed_off[:-1], e_hi - e_lo
                    )
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
                    ops = apply_reductions(
                        program, local, dest_sub, msgs, mask
                    )
                else:
                    old = vertex_values[vlo:vhi]
                    local = program.init_local(old)
                    msgs, mask = program.messages(
                        vertex_values[src_w],
                        None if src_static is None else src_static[eo:ee],
                        None if edge_vals is None else edge_vals[eo:ee],
                        old[dest_local],
                    )
                    ops = apply_reductions(
                        program, local, dest_local, msgs, mask
                    )
                iter_stats.add_atomics(shared=ops)
                dyn2.add_atomics(shared=ops)
                buffers = (msgs, mask)
                final, upd = program.apply(local, old)
                wave_shards = None
                idx = None
                if upd.any():
                    if sparse:
                        pos = np.flatnonzero(upd)
                        idx = v_idx[pos]
                        vertex_values[idx] = final[upd]
                        # Per-shard store pricing over the packed segments
                        # (warp rows never span shards).
                        seg_of = (
                            np.searchsorted(packed_off, pos, side="right")
                            - 1
                        )
                        counts = np.bincount(seg_of, minlength=act.size)
                        seg = np.zeros(act.size + 1, dtype=np.int64)
                        np.cumsum(counts, out=seg[1:])
                        wave_shards = act[np.flatnonzero(counts)]
                    else:
                        idx = vlo + np.flatnonzero(upd)
                        vertex_values[idx] = final[upd]
                        # Per-shard store pricing: segment the updated
                        # indices by owning shard so warp rows never span
                        # shard boundaries (as in the reference sweep).
                        counts = np.bincount(idx // N - a, minlength=b - a)
                        seg = np.zeros(b - a + 1, dtype=np.int64)
                        np.cumsum(counts, out=seg[1:])
                        wave_shards = a + np.flatnonzero(counts)
                    store_tc = gather_transactions_segmented(
                        idx, vbytes, seg, warp_size=warp,
                        transaction_bytes=STORE_GRANULARITY_BYTES)
                    iter_stats.add_store(store_tc)
                    dyn3.add_store(store_tc)
                    updated.append(idx)
                if self.always_writeback:
                    wave_shards = (
                        act if sparse else np.arange(a, b, dtype=np.int64)
                    )
                if wave_shards is not None and wave_shards.size:
                    units.append(wave_shards)
                    # Stage 4 is priced, not executed: sources are read
                    # live from VertexValues, which equals the SrcValue the
                    # wave-boundary write-back would have left.
                    st4_row += st4_mat[wave_shards].sum(axis=0)
                if push and idx is not None:
                    # Wave-boundary frontier marking: the updaters' own
                    # shards plus everything they influence (visible now
                    # that the wave's updates are in VertexValues).
                    frontier.mark(idx)
            if push:
                add_row_into(iter_stats, s1_row + s2_row + s3_row)
                span1 = stats_from_row(s1_row)
                span2 = stats_from_row(s2_row) + dyn2
                span3 = stats_from_row(s3_row) + dyn3
            else:
                span1, span2, span3 = base1, base2 + dyn2, base3 + dyn3
            span4 = stats_from_row(st4_row)
            iter_stats += span4
            units_all = concat(units)
            return Sweep(
                updated=concat(updated),
                stats=iter_stats,
                ms=self.cost_model.time_ms(iter_stats, occupancy=occ),
                processed=concat(processed),
                updated_units=units_all,
                stages=(("stage1-fetch", span1), ("stage2-compute", span2),
                        ("stage3-update", span3),
                        ("stage4-writeback", span4)),
                attrs={"updated_shards": int(units_all.size)},
                buffers=buffers,
            )

        return sweep

    # ------------------------------------------------------------------
    # Reference sweep: the original per-shard loop (equivalence baseline)
    # ------------------------------------------------------------------
    def _reference_sweep(self, run, cw, vertex_values, src_static,
                         edge_vals, wave_size, occ):
        program = run.program
        sh = cw.shards
        S = sh.num_shards
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size
        src_value = vertex_values[sh.src_index].copy()

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

        def sweep(iteration: int, push: bool) -> Sweep:
            dirty = run.frontier.dirty if push else None
            if push:
                iter_stats = KernelStats()
                s1 = KernelStats()
                s2 = KernelStats()
                s3 = KernelStats()
            else:
                iter_stats = base.copy()
                s1, s2, s3 = base1.copy(), base2.copy(), base3.copy()
            iter_stats.kernel_launches = 1
            dyn2 = KernelStats()
            dyn3 = KernelStats()
            st4_it = KernelStats()
            updated: list[np.ndarray] = []
            updated_shards: list[int] = []
            processed: list[int] = []
            pending_writeback: list[int] = []
            wave_upd: list[np.ndarray] = []
            for i in range(S):
                if not push or dirty[i]:
                    if push:
                        dirty[i] = False
                        processed.append(i)
                        s1 += stage1[i]
                        s2 += stage2[i]
                        s3 += stage3[i]
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
                    ops = apply_reductions(
                        program, local, dest_local, msgs, mask
                    )
                    iter_stats.add_atomics(shared=ops)
                    dyn2.add_atomics(shared=ops)
                    final, upd = program.apply(local, old)
                    if upd.any():
                        idx = lo + np.flatnonzero(upd)
                        vertex_values[idx] = final[upd]
                        store_tc = gather_transactions(
                            idx, vbytes, warp_size=warp,
                            transaction_bytes=STORE_GRANULARITY_BYTES)
                        iter_stats.add_store(store_tc)
                        dyn3.add_store(store_tc)
                        updated.append(idx)
                        updated_shards.append(i)
                        pending_writeback.append(i)
                        if push:
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
                    if wave_upd:
                        # Wave-boundary frontier marking, in lockstep with
                        # write-back visibility.
                        run.frontier.mark(np.concatenate(wave_upd))
                        wave_upd.clear()
            for i in updated_shards:
                iter_stats += stage4[i]
                st4_it += stage4[i]
            return Sweep(
                updated=concat(updated),
                stats=iter_stats,
                ms=self.cost_model.time_ms(iter_stats, occupancy=occ),
                processed=np.asarray(processed, dtype=np.int64),
                updated_units=np.asarray(updated_shards, dtype=np.int64),
                stages=(("stage1-fetch", s1), ("stage2-compute", s2 + dyn2),
                        ("stage3-update", s3 + dyn3),
                        ("stage4-writeback", st4_it)),
                attrs={"updated_shards": len(updated_shards)},
            )

        return sweep
