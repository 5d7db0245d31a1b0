"""Static performance auditor, drift gate, and benchmark comparator.

The paper's claims are performance *ratios* — coalesced transactions,
full-warp CW write-back, shared-memory-bounded occupancy (Tables 4-7,
Figures 8-13) — so this module makes the performance model itself a
checked contract, in three layers:

**Static audit** (:func:`perf_audit`)
    Given only a graph's representations (through the same
    ``preflight_representations()`` hooks the structural validators use),
    derive per-stage cost bounds *without running an iteration* and
    assert the paper-contract properties: CW write-back occupancy at
    least G-Shards' (``P301``), shard footprint within shared memory
    (``P302``), write-back payload equal to ``|E|`` vertex values under
    both schemes (``P303``/``P304``), bounded bank-conflict replays and
    load efficiencies (``P305``/``P306``), the analytic scatter bound
    a window-grouped Mapper guarantees (``P307``), and frontier-gated
    sweep pricing — the per-shard stats rows a ``frontier="sparse"``
    iteration charges must reproduce the full-sweep prediction exactly
    when every shard is active, so skipping a quiescent shard subtracts
    exactly that shard's cost (``P308``).  The cost constants in
    :mod:`repro.frameworks.costs` are checked against their contracted
    mirror in :mod:`repro.analysis.budgets` (``P310``).

**Drift gate** (:func:`drift_gate`)
    Price every stage independently (a per-shard mirror of the reference
    formulas, deliberately *not* sharing code with the wave-batched fast
    path), run the engine with the tracer on, and diff the measured
    :class:`~repro.gpu.stats.KernelStats` span counters against the
    predictions — exact for transaction/lane/byte counters (``P311``),
    toleranced for instruction costs (``P312``).  This is what catches a
    fast-path or pricing refactor that silently changes the model.

**Benchmark layers** (:data:`BENCH_LAYERS`, :func:`compare_reports`)
    One table row per benchmark layer.  Each diffs a fresh
    ``BENCH_<layer>.json`` against its committed baseline after checking
    the two runs are comparable at all (same workload and, per engine,
    same ``exec_path``; ``P321``): an exact metric must not change and a
    timing metric must not regress beyond its one-sided relative
    threshold.  The drift codes are ``P320`` (perf smoke), ``P323``
    (service), ``P325`` (frontier), ``P327`` (ranges) and ``P329``
    (placement).  Four layers also hold an absolute contract that needs
    no baseline: batched service throughput (``P322``); frontier work
    efficiency, where sparse tail iterations must price at least
    :data:`~repro.analysis.budgets.FRONTIER_MIN_MODEL_SAVINGS` times
    fewer modeled warp instructions than the full sweep (``P324``);
    the modeled byte reduction of proven-safe narrowing (``P326``); and
    bit-exact multi-device placement with a priced exchange and a
    modeled speedup (``P328``).  ``python -m repro perfgate`` drives all
    of it.

CuSha stage predictions here intentionally mirror the *reference*
per-shard pricing loop using only the simple (non-segmented) primitives;
agreement with the measured fast path therefore cross-validates the
segmented pricing helpers in :mod:`repro.frameworks.wavebatch` as well.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import budgets
from repro.analysis.violations import Violation
from repro.frameworks import costs
from repro.frameworks.base import RunConfig
from repro.frameworks.cusha import CuShaEngine
from repro.frameworks.streamed import StreamedCuShaEngine
from repro.frameworks.vwc import VWCEngine
from repro.graph.cw import ConcatenatedWindows
from repro.graph.shards import GShards
from repro.gpu.memory import contiguous_transactions, gather_transactions
from repro.gpu.occupancy import occupancy_report
from repro.gpu.sharedmem import conflict_replays, replay_fraction
from repro.gpu.stats import (COUNTER_FIELDS, KernelStats,
                             LOAD_GRANULARITY_BYTES, STORE_GRANULARITY_BYTES,
                             field_diffs)
from repro.gpu.warp import slots_for_contiguous
from repro.telemetry.tracer import Tracer

__all__ = [
    "StagePrediction",
    "DriftReport",
    "cost_contract_check",
    "predict_cusha_stages",
    "predict_streamed_chunks",
    "static_predictions",
    "audit_cw",
    "narrowed_audit",
    "perf_audit",
    "drift_gate",
    "BenchLayer",
    "BENCH_LAYERS",
    "compare_reports",
    "check_service_contract",
    "check_frontier_contract",
    "check_ranges_contract",
    "check_placement_contract",
]


@dataclass(frozen=True)
class StagePrediction:
    """Per-sweep static cost prediction for one pipeline stage.

    ``stats`` is what one full sweep (every shard active) costs;
    ``dynamic_fields`` names the counters the static model deliberately
    does not cover (they depend on which vertices update) and which the
    drift gate therefore skips.
    """

    stage: str
    stats: KernelStats
    dynamic_fields: tuple[str, ...] = ()

    @property
    def exact_fields(self) -> tuple[str, ...]:
        return tuple(f for f in COUNTER_FIELDS if f not in self.dynamic_fields)


@dataclass
class DriftReport:
    """Outcome of one :func:`drift_gate` run."""

    engine: str
    program: str
    iterations: int
    stages_checked: int
    fields_checked: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# Cost contract (P310)
# ----------------------------------------------------------------------

def cost_contract_check() -> list[Violation]:
    """Diff the live :mod:`repro.frameworks.costs` constants against the
    contracted mirror in :mod:`repro.analysis.budgets` (``P310``)."""
    out: list[Violation] = []
    for name, want in budgets.COST_CONTRACT.items():
        have = getattr(costs, name, None)
        if have is None or float(have) != float(want):
            out.append(Violation(
                "P310",
                f"costs.{name} = {have!r} diverges from the contracted "
                f"value {want!r} in analysis.budgets",
                subject="frameworks.costs",
            ))
    for name in dir(costs):
        if name.startswith("INSTR_") and name not in budgets.COST_CONTRACT:
            out.append(Violation(
                "P310",
                f"costs.{name} is not covered by "
                "analysis.budgets.COST_CONTRACT",
                subject="frameworks.costs",
            ))
    return out


# ----------------------------------------------------------------------
# Independent per-stage predictors
# ----------------------------------------------------------------------

def predict_cusha_stages(
    cw: ConcatenatedWindows,
    mode: str,
    *,
    vbytes: int,
    sbytes: int = 0,
    ebytes: int = 0,
    warp: int = 32,
) -> dict[str, StagePrediction]:
    """Per-sweep stage costs of the CuSha pipeline, from the arrays alone.

    Mirrors the reference per-shard pricing (paper Figure 5 stages) with
    the simple one-range primitives: per shard, stage 1/3 fetch the
    vertex slice, stage 2 streams the SoA entry fields and pays atomic
    bank-conflict replays, stage 4 is a warp-per-window walk (``gs``) or
    a thread-per-CW-entry scatter through the Mapper (``cw``).
    """
    sh = cw.shards
    S = sh.num_shards
    st1, st2, st3, st4 = (KernelStats() for _ in range(4))
    for i in range(S):
        lo, hi = sh.vertex_range(i)
        n_i = hi - lo
        m_i = sh.shard_size(i)
        o = int(sh.shard_offsets[i])
        vv_load = contiguous_transactions(
            n_i, vbytes, start_byte=lo * vbytes, warp_size=warp,
            transaction_bytes=LOAD_GRANULARITY_BYTES)
        st1.add_load(vv_load)
        st1.add_lanes(*slots_for_contiguous(n_i, warp),
                      instructions_per_row=costs.INSTR_INIT)
        for b in (vbytes, 4, sbytes, ebytes):
            if b:
                st2.add_load(contiguous_transactions(
                    m_i, b, start_byte=o * b, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
        st2.add_lanes(*slots_for_contiguous(m_i, warp),
                      instructions_per_row=costs.INSTR_COMPUTE)
        dest_local = sh.dest_index[o:o + m_i].astype(np.int64) - lo
        st2.add_instructions(
            conflict_replays(dest_local, warp_size=warp)
            * costs.INSTR_ATOMIC_REPLAY)
        st3.add_load(vv_load)
        st3.add_lanes(*slots_for_contiguous(n_i, warp),
                      instructions_per_row=costs.INSTR_UPDATE)
        if mode == "gs":
            starts = sh.window_offsets[:, i]
            stops = sh.window_offsets[:, i + 1]
            for j in np.flatnonzero(stops - starts):
                w = int(stops[j] - starts[j])
                s0 = int(starts[j])
                st4.add_load(contiguous_transactions(
                    w, 4, start_byte=s0 * 4, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
                st4.add_store(contiguous_transactions(
                    w, vbytes, start_byte=s0 * vbytes, warp_size=warp,
                    transaction_bytes=STORE_GRANULARITY_BYTES))
                st4.add_lanes(*slots_for_contiguous(w, warp),
                              instructions_per_row=costs.INSTR_WRITEBACK)
            st4.add_load(contiguous_transactions(
                S + 1, 8, warp_size=warp,
                transaction_bytes=LOAD_GRANULARITY_BYTES))
            st4.add_instructions(S * costs.INSTR_GS_WINDOW_SCAN)
        else:
            L = cw.cw_size(i)
            cwo = int(cw.cw_offsets[i])
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
    return {
        "stage1-fetch": StagePrediction("stage1-fetch", st1),
        "stage2-compute": StagePrediction(
            "stage2-compute", st2, dynamic_fields=("shared_atomics",)),
        "stage3-update": StagePrediction(
            "stage3-update", st3,
            dynamic_fields=("store_transactions", "store_bytes_requested")),
        "stage4-writeback": StagePrediction("stage4-writeback", st4),
    }


def predict_streamed_chunks(
    cw: ConcatenatedWindows,
    chunks: list[tuple[int, int]],
    *,
    vbytes: int,
    sbytes: int = 0,
    ebytes: int = 0,
    warp: int = 32,
) -> dict[str, StagePrediction]:
    """Per-sweep static costs of the streamed engine's compute chunks.

    A chunk's kernel runs stages 1-2 for its shard range; stores and
    atomic ops are dynamic and excluded from the exact contract.
    """
    sh = cw.shards
    dynamic = ("store_transactions", "store_bytes_requested",
               "shared_atomics")
    out: dict[str, StagePrediction] = {}
    for k, (a, b) in enumerate(chunks):
        st = KernelStats()
        for i in range(a, b):
            lo, hi = sh.vertex_range(i)
            n_i = hi - lo
            m_i = sh.shard_size(i)
            o = int(sh.shard_offsets[i])
            st.add_load(contiguous_transactions(
                n_i, vbytes, start_byte=lo * vbytes, warp_size=warp,
                transaction_bytes=LOAD_GRANULARITY_BYTES))
            st.add_lanes(*slots_for_contiguous(n_i, warp),
                         instructions_per_row=costs.INSTR_INIT)
            for fb in (vbytes, 4, sbytes, ebytes):
                if fb:
                    st.add_load(contiguous_transactions(
                        m_i, fb, start_byte=o * fb, warp_size=warp,
                        transaction_bytes=LOAD_GRANULARITY_BYTES))
            st.add_lanes(*slots_for_contiguous(m_i, warp),
                         instructions_per_row=costs.INSTR_COMPUTE)
        name = f"chunk-{k}-compute"
        out[name] = StagePrediction(name, st, dynamic_fields=dynamic)
    return out


def static_predictions(
    engine, graph, program, config: RunConfig | None = None
) -> dict[str, StagePrediction]:
    """Per-sweep stage predictions for an engine's run over ``graph``.

    CuSha and streamed predictions are derived independently here; VWC
    predictions come from the engine's own static schedule export (its
    three lockstep phases are re-emitted verbatim every iteration, so the
    drift gate still pins the measured spans to them bit-for-bit).
    Engines that model no GPU (mtcpu, scalar) predict nothing.
    """
    cfg = config or RunConfig()
    vbytes = program.vertex_value_bytes
    sbytes = program.static_value_bytes
    ebytes = program.edge_value_bytes
    if isinstance(engine, CuShaEngine):
        (cw,) = engine.preflight_representations(
            graph, program, cfg, engine.run_cache(graph, cfg))
        return predict_cusha_stages(
            cw, engine.mode, vbytes=vbytes, sbytes=sbytes, ebytes=ebytes,
            warp=engine.spec.warp_size)
    if isinstance(engine, StreamedCuShaEngine):
        (cw,) = engine.preflight_representations(
            graph, program, cfg, engine.run_cache(graph, cfg))
        entry_bytes = 4 + vbytes + sbytes + ebytes + 4 + 4
        chunks = engine._chunk_shards(cw, entry_bytes)
        return predict_streamed_chunks(
            cw, chunks, vbytes=vbytes, sbytes=sbytes, ebytes=ebytes,
            warp=engine.spec.warp_size)
    if isinstance(engine, VWCEngine):
        phases = engine.predicted_stage_stats(graph, program)
        return {k: StagePrediction(k, v) for k, v in phases.items()}
    return {}


# ----------------------------------------------------------------------
# Static audit (P301-P308)
# ----------------------------------------------------------------------

def audit_cw(
    cw: ConcatenatedWindows,
    *,
    vbytes: int,
    sbytes: int = 0,
    ebytes: int = 0,
    spec,
    threads_per_block: int = 512,
    subject: str = "",
) -> list[Violation]:
    """Assert the paper's performance contract over one CW structure."""
    out: list[Violation] = []
    sh = cw.shards
    S = sh.num_shards
    E = cw.num_edges
    warp = spec.warp_size
    N = cw.vertices_per_shard
    subject = subject or repr(cw)

    # P302 — shard footprint vs shared memory.
    rep = occupancy_report(spec, N, vbytes, threads_per_block)
    if not rep.fits:
        out.append(Violation(
            "P302",
            f"shard of {N} vertices needs {rep.shared_bytes_per_block} "
            f"shared bytes/block; 0 blocks fit an SM "
            f"({spec.shared_mem_per_sm_bytes} bytes, "
            f"{threads_per_block} threads/block)",
            subject=subject,
        ))

    win_sizes = np.diff(sh.window_offsets, axis=1)  # w_ji: row j, column i
    col_sizes = win_sizes.sum(axis=0)  # entries written back per target shard
    L = np.diff(cw.cw_offsets)

    # P303 — both write-back schemes must store exactly |E| vertex values.
    gs_payload = int(win_sizes.sum()) * vbytes
    cw_payload = int(L.sum()) * vbytes
    if not (gs_payload == cw_payload == E * vbytes):
        out.append(Violation(
            "P303",
            f"stage-4 store payloads disagree: GS {gs_payload} B, "
            f"CW {cw_payload} B, expected |E|*vbytes = {E * vbytes} B",
            subject=subject,
        ))

    # P304 — CW lane slots must be the dense packing of the same entries
    # the GS windows cover (L_i = sum_j w_ji), mapper covering every slot.
    if int(cw.mapper.size) != E or not np.array_equal(L, col_sizes):
        out.append(Violation(
            "P304",
            "CW write-back lane slots deviate from the dense-packing "
            f"optimum: per-shard CW sizes {L.tolist()[:8]}... vs window "
            f"column totals {col_sizes.tolist()[:8]}... "
            f"(mapper covers {int(cw.mapper.size)}/{E} slots)",
            subject=subject,
        ))

    # P301 — CW write-back occupancy must not fall below G-Shards.
    nz = win_sizes[win_sizes > 0]
    gs_total = int((-(-nz // warp)).sum()) * warp
    cw_total = int((-(-L // warp)).sum()) * warp
    occ_cw = E / cw_total if cw_total else 1.0
    occ_gs = E / gs_total if gs_total else 1.0
    if occ_cw < occ_gs - budgets.OCCUPANCY_EPSILON:
        out.append(Violation(
            "P301",
            f"predicted CW write-back lane occupancy {occ_cw:.4f} < "
            f"G-Shards {occ_gs:.4f} (paper claims CW >= GS)",
            subject=subject,
        ))

    # P305 — stage-2 atomic replays vs the fully serialized worst case.
    replays = 0
    rows2 = 0
    for i in range(S):
        o = int(sh.shard_offsets[i])
        m_i = sh.shard_size(i)
        lo, _hi = sh.vertex_range(i)
        dest_local = sh.dest_index[o:o + m_i].astype(np.int64) - lo
        replays += conflict_replays(dest_local, warp_size=warp)
        rows2 += -(-m_i // warp) if m_i else 0
    frac = replay_fraction(replays, rows2, warp_size=warp)
    if rows2 >= budgets.REPLAY_WARN_MIN_ROWS and \
            frac >= budgets.REPLAY_WARN_FRACTION:
        out.append(Violation(
            "P305",
            f"predicted stage-2 atomic replays at {frac:.0%} of the fully "
            f"serialized worst case ({replays} replays over {rows2} warp "
            "rows): destinations concentrate in few banks",
            subject=subject,
            severity="warning",
        ))

    # P306 / P307 need the per-stage predictions (cheap at audit sizes).
    preds = predict_cusha_stages(
        cw, "cw", vbytes=vbytes, sbytes=sbytes, ebytes=ebytes, warp=warp)
    for stage in ("stage1-fetch", "stage2-compute"):
        eff = preds[stage].stats.gld_efficiency
        if eff < budgets.STAGE_LOAD_EFFICIENCY_FLOOR:
            out.append(Violation(
                "P306",
                f"predicted {stage} load efficiency {eff:.2f} below the "
                f"coalescing floor {budgets.STAGE_LOAD_EFFICIENCY_FLOOR}",
                subject=subject,
                severity="warning",
            ))

    # P307 — analytic scatter bound for a window-grouped Mapper: each
    # nonzero window is a contiguous ascending SrcValue run costing at
    # most ceil(bytes/128)+1 store transactions, plus at most one extra
    # per warp row for runs split at row boundaries.
    predicted_tx = preds["stage4-writeback"].stats.store_transactions
    bound = int(
        (-(-(nz * vbytes) // STORE_GRANULARITY_BYTES)).sum()
        + nz.size
        + (-(-L // warp)).sum()
    )
    if predicted_tx > bound:
        out.append(Violation(
            "P307",
            f"CW write-back predicts {predicted_tx} store transactions, "
            f"above the window-grouped Mapper bound {bound}: the mapper "
            "scatters instead of grouping windows",
            subject=subject,
        ))

    # P308 — frontier-gated sweep pricing.  A frontier="sparse" iteration
    # charges the row sums of the per-shard static matrices over the
    # shards it actually processes; with every shard active those sums
    # must reproduce this module's independent full-sweep prediction
    # field-for-field, so skipping a quiescent shard subtracts exactly
    # that shard's cost and an all-active sparse sweep prices identically
    # to frontier="off".
    from repro.frameworks.wavebatch import cusha_static_bundle, stats_from_row
    for mode in ("cw", "gs"):
        bundle = cusha_static_bundle(cw, mode, warp, vbytes, sbytes, ebytes)
        mode_preds = preds if mode == "cw" else predict_cusha_stages(
            cw, mode, vbytes=vbytes, sbytes=sbytes, ebytes=ebytes, warp=warp)
        for mat, key in (
            (bundle.stage1, "stage1-fetch"),
            (bundle.stage2, "stage2-compute"),
            (bundle.stage3, "stage3-update"),
            (bundle.stage4, "stage4-writeback"),
        ):
            summed = stats_from_row(mat.sum(axis=0))
            bad = field_diffs(summed, mode_preds[key].stats)
            if bad:
                out.append(Violation(
                    "P308",
                    f"frontier per-shard pricing for {mode}/{key} does "
                    "not sum to the full-sweep prediction: "
                    + ", ".join(f"{f}: {a} != {b}"
                                for f, (a, b) in sorted(bad.items())),
                    subject=subject,
                ))
    return out


def perf_audit(
    engine, graph, program, config: RunConfig | None = None, cache=None
) -> list[Violation]:
    """Layer-1 static audit behind ``RunConfig(validate="perf")``.

    Checks the cost contract (``P310``) and, for every CW / G-Shards
    representation the engine is about to execute over, the structural
    performance contract (``P301``-``P308``).  A ``narrow != "off"``
    config additionally re-prices the sweep at the proven narrowed
    widths (``P309``).  Engines that model no GPU hardware only get the
    cost-contract check.  The representations come through ``cache``,
    the run's :class:`~repro.cache.RunCache` (a fresh
    :meth:`Engine.run_cache` when not given).
    """
    cfg = config or RunConfig()
    out = cost_contract_check()
    spec = getattr(engine, "spec", None)
    if spec is None or not hasattr(spec, "warp_size"):
        return out
    if cache is None:
        cache = engine.run_cache(graph, cfg)
    tpb = getattr(engine, "threads_per_block", 512)
    subject = f"{engine.name}/{program.name}"
    for rep in engine.preflight_representations(graph, program, cfg, cache):
        if isinstance(rep, ConcatenatedWindows):
            cw = rep
        elif isinstance(rep, GShards):
            cw = ConcatenatedWindows(rep)
        else:
            continue
        out.extend(audit_cw(
            cw,
            vbytes=program.vertex_value_bytes,
            sbytes=program.static_value_bytes,
            ebytes=program.edge_value_bytes,
            spec=spec,
            threads_per_block=tpb,
            subject=subject,
        ))
    if getattr(cfg, "narrow", "off") != "off":
        out.extend(narrowed_audit(engine, graph, program, cfg, cache))
    return out


def narrowed_audit(
    engine, graph, program, config: RunConfig | None = None, cache=None
) -> list[Violation]:
    """``P309``: static predictions at proven narrowed widths stay exact.

    When the range certificates justify a narrowing plan, the per-shard
    static cost matrices priced at the *narrowed* ``vertex_value_bytes``
    must row-sum to the independent full-sweep prediction at the same
    widths, field-for-field — the same closure property P308 holds at the
    declared widths.  This is what lets the auditor hand the tighter byte
    bounds to the narrowed fast path without a second pricing model.
    """
    from repro.analysis.ranges import analyze_ranges, narrowing_plan
    from repro.frameworks.narrow import NarrowedProgram

    out: list[Violation] = []
    spec = getattr(engine, "spec", None)
    if spec is None or not hasattr(spec, "warp_size"):
        return out
    cfg = config or RunConfig()
    if cache is None:
        cache = engine.run_cache(graph, cfg)
    subject = f"{engine.name}/{program.name}"
    cert = analyze_ranges(program, graph, cache=cache)
    plan = narrowing_plan(cert, program)
    if not plan:
        return out
    narrowed = NarrowedProgram(
        program, plan, {f: cert.field_range(f) for f in plan}
    )
    vbytes = narrowed.vertex_value_bytes
    if vbytes >= program.vertex_value_bytes:
        out.append(Violation(
            "P309",
            f"narrowing plan {sorted(plan)} did not shrink the vertex "
            f"value ({vbytes} bytes vs declared "
            f"{program.vertex_value_bytes})",
            subject=subject,
        ))
        return out
    sbytes = narrowed.static_value_bytes
    ebytes = narrowed.edge_value_bytes
    warp = spec.warp_size
    from repro.frameworks.wavebatch import cusha_static_bundle, stats_from_row
    for rep in engine.preflight_representations(graph, program, cfg, cache):
        if isinstance(rep, ConcatenatedWindows):
            cw = rep
        elif isinstance(rep, GShards):
            cw = ConcatenatedWindows(rep)
        else:
            continue
        for mode in ("cw", "gs"):
            bundle = cusha_static_bundle(
                cw, mode, warp, vbytes, sbytes, ebytes)
            preds = predict_cusha_stages(
                cw, mode, vbytes=vbytes, sbytes=sbytes, ebytes=ebytes,
                warp=warp)
            for mat, key in (
                (bundle.stage1, "stage1-fetch"),
                (bundle.stage2, "stage2-compute"),
                (bundle.stage3, "stage3-update"),
                (bundle.stage4, "stage4-writeback"),
            ):
                summed = stats_from_row(mat.sum(axis=0))
                bad = field_diffs(summed, preds[key].stats)
                if bad:
                    out.append(Violation(
                        "P309",
                        f"narrowed per-shard pricing for {mode}/{key} "
                        "does not sum to the narrowed full-sweep "
                        "prediction: "
                        + ", ".join(f"{f}: {a} != {b}"
                                    for f, (a, b) in sorted(bad.items())),
                        subject=subject,
                    ))
    return out


# ----------------------------------------------------------------------
# Drift gate (P311 / P312)
# ----------------------------------------------------------------------

def _drift_runner(engine):
    """The engine actually run by the drift gate.

    CuSha's stage-4 cost is dynamic (only updated shards write back), so
    the gate runs the engine's existing ``always_writeback`` ablation —
    values and iteration counts are unchanged, but every stage becomes a
    full sweep the static model prices exactly.
    """
    if isinstance(engine, CuShaEngine) and not engine.always_writeback:
        return CuShaEngine(
            engine.mode,
            vertices_per_shard=engine.vertices_per_shard,
            spec=engine.spec,
            pcie=engine.pcie,
            resident_blocks=engine.resident_blocks,
            threads_per_block=engine.threads_per_block,
            sync_mode=engine.sync_mode,
            always_writeback=True,
            cache=engine.cache,
        )
    return engine


def _compare(
    pred: StagePrediction,
    got: KernelStats,
    *,
    scale: int,
    subject: str,
    what: str,
) -> tuple[list[Violation], int]:
    """Exact + toleranced comparison of one stage; returns (violations,
    number of fields checked)."""
    vios: list[Violation] = []
    exact = pred.exact_fields
    for f, (want, g) in field_diffs(pred.stats, got, exact,
                                    scale=scale).items():
        vios.append(Violation(
            "P311",
            f"{pred.stage}: {what} {f} = {g} != predicted {want} "
            f"({scale}x per-sweep)",
            subject=subject,
        ))
    want_instr = pred.stats.warp_instructions * scale
    tol = budgets.INSTRUCTION_DRIFT_TOLERANCE * max(1.0, abs(want_instr))
    if abs(got.warp_instructions - want_instr) > tol:
        vios.append(Violation(
            "P312",
            f"{pred.stage}: {what} warp_instructions = "
            f"{got.warp_instructions:.1f} drifts beyond "
            f"{budgets.INSTRUCTION_DRIFT_TOLERANCE:.0%} from predicted "
            f"{want_instr:.1f}",
            subject=subject,
        ))
    return vios, len(exact) + 1


def drift_gate(
    engine, graph, program, *, max_iterations: int = 16, metrics=None,
    narrow: str = "off",
) -> DriftReport:
    """Layer-2 model-vs-measured check for one engine/program/graph.

    Diffs (a) the engine's own static-stats export and (b) the traced
    per-stage span counters of a real run against the independent
    predictions.  Exact counters must match bit-for-bit over however
    many iterations ran; instruction totals get the budgeted tolerance.

    ``narrow="auto"`` runs the gate at the proven narrowed widths: the
    predictions price the narrowed program and the measured run executes
    with ``RunConfig(narrow="auto")``, so the same exact-counter contract
    holds for the narrowed fast path.
    """
    subject = f"{engine.name}/{program.name}"
    pred_program = program
    if narrow != "off":
        from repro.analysis.ranges import analyze_ranges, narrowing_plan
        from repro.frameworks.narrow import NarrowedProgram

        cert = analyze_ranges(
            program, graph, cache=getattr(engine, "cache", None))
        plan = narrowing_plan(cert, program)
        if plan:
            pred_program = NarrowedProgram(
                program, plan, {f: cert.field_range(f) for f in plan})
    preds = static_predictions(engine, graph, pred_program)
    exports = engine.predicted_stage_stats(graph, pred_program)
    vios: list[Violation] = []
    fields_checked = 0

    # (a) engine's static export vs independent predictions.  When the
    # prediction *is* the export (VWC), the self-comparison is skipped.
    for stage, pred in preds.items():
        exp = exports.get(stage)
        if exp is None:
            vios.append(Violation(
                "P311",
                f"engine exports no static stats for predicted stage "
                f"{stage}",
                subject=subject,
            ))
            continue
        if exp is pred.stats:
            continue
        v, n = _compare(pred, exp, scale=1, subject=subject,
                        what="exported")
        vios.extend(v)
        fields_checked += n

    # (b) traced run vs predictions.
    tracer = Tracer()
    runner = _drift_runner(engine)
    result = runner.run(graph, program, config=RunConfig(
        max_iterations=max_iterations,
        allow_partial=True,
        collect_traces=False,
        tracer=tracer,
        exec_path="fast",
        narrow=narrow,
    ))
    iterations = result.iterations
    measured: dict[str, KernelStats] = {}
    for span in tracer.find(kind="stage"):
        st = span.kernel_stats()
        if span.name in measured:
            measured[span.name] += st
        else:
            measured[span.name] = st
    stages_checked = 0
    for stage, pred in preds.items():
        got = measured.get(stage)
        if got is None:
            vios.append(Violation(
                "P311",
                f"run emitted no '{stage}' stage spans to check",
                subject=subject,
            ))
            continue
        stages_checked += 1
        v, n = _compare(pred, got, scale=iterations, subject=subject,
                        what="measured")
        vios.extend(v)
        fields_checked += n

    report = DriftReport(
        engine=engine.name,
        program=program.name,
        iterations=iterations,
        stages_checked=stages_checked,
        fields_checked=fields_checked,
        violations=vios,
    )
    if metrics is not None:
        metrics.counter("analysis.perf.stages_checked").inc(stages_checked)
        metrics.counter("analysis.perf.fields_checked").inc(fields_checked)
        metrics.counter("analysis.perf.drift_violations").inc(len(vios))
        metrics.gauge(
            f"analysis.perf.iterations.{engine.name}").set(iterations)
    return report


# ----------------------------------------------------------------------
# Benchmark layers (P320-P329): absolute contracts, then one comparator
# ----------------------------------------------------------------------

def check_service_contract(report: dict) -> list[Violation]:
    """Check a fresh ``BENCH_service.json`` against the absolute contract.

    ``P322`` when the batched-vs-sequential modeled throughput ratio
    falls below :data:`~repro.analysis.budgets.SERVICE_MIN_BATCH_SPEEDUP`
    (or is missing).  This needs no baseline: the ratio is computed from
    deterministic cost-model output, so the floor is a property of the
    checkout itself.
    """
    floor = budgets.SERVICE_MIN_BATCH_SPEEDUP
    speedup = report.get("service", {}).get("model_speedup")
    if not isinstance(speedup, (int, float)):
        return [Violation(
            "P322",
            "BENCH_service.json carries no service.model_speedup; the "
            "batching contract cannot be checked",
            subject="service",
        )]
    if speedup < floor:
        return [Violation(
            "P322",
            f"batched multi-source execution is only {speedup:.2f}x the "
            f"sequential modeled throughput (contract floor {floor:.1f}x)",
            subject="service",
        )]
    return []


def check_frontier_contract(report: dict) -> list[Violation]:
    """Check a fresh ``BENCH_frontier.json`` against the absolute contract.

    ``P324`` when sparse execution's modeled warp instructions on the
    road-network fixture's tail iterations are not at least
    :data:`~repro.analysis.budgets.FRONTIER_MIN_MODEL_SAVINGS` times
    cheaper than the full sweep's, when the run skips fewer than
    :data:`~repro.analysis.budgets.FRONTIER_MIN_SKIP_FRACTION` of its
    shard-sweeps, or when the bench could not certify sparse results
    bit-identical to ``frontier="off"``.  All three are deterministic
    cost-model / equivalence facts, so no baseline and no noise band
    are involved.
    """
    row = report.get("frontier", {})
    out: list[Violation] = []
    if row.get("bit_exact") is not True:
        out.append(Violation(
            "P324",
            "BENCH_frontier.json does not certify sparse results "
            "bit-identical to the full sweep (bit_exact "
            f"{row.get('bit_exact')!r})",
            subject="frontier",
        ))
    savings = row.get("tail_model_savings")
    floor = budgets.FRONTIER_MIN_MODEL_SAVINGS
    if not isinstance(savings, (int, float)):
        out.append(Violation(
            "P324",
            "BENCH_frontier.json carries no frontier.tail_model_savings; "
            "the work-efficiency contract cannot be checked",
            subject="frontier",
        ))
    elif savings < floor:
        out.append(Violation(
            "P324",
            f"sparse tail iterations price only {savings:.2f}x fewer "
            f"modeled warp instructions than the full sweep "
            f"(contract floor {floor:.1f}x)",
            subject="frontier",
        ))
    skip = row.get("skip_fraction")
    skip_floor = budgets.FRONTIER_MIN_SKIP_FRACTION
    if not isinstance(skip, (int, float)) or skip < skip_floor:
        out.append(Violation(
            "P324",
            f"sparse run skipped {skip!r} of its shard-sweeps, below "
            f"the contract floor {skip_floor:.0%}",
            subject="frontier",
        ))
    return out


def check_ranges_contract(report: dict) -> list[Violation]:
    """Check a fresh ``BENCH_ranges.json`` against the absolute contract.

    ``P326`` when the ``narrow="auto"`` run's total modeled load+store
    bytes are not at least
    :data:`~repro.analysis.budgets.RANGES_MIN_BYTE_REDUCTION` below the
    ``narrow="off"`` run's, when no field actually narrowed, or when the
    bench could not certify narrowed results bit-identical to the wide
    run.  All three are deterministic cost-model / equivalence facts, so
    no baseline and no noise band are involved.
    """
    row = report.get("ranges", {})
    out: list[Violation] = []
    if row.get("bit_exact") is not True:
        out.append(Violation(
            "P326",
            "BENCH_ranges.json does not certify narrowed results "
            f"bit-identical to narrow='off' (bit_exact "
            f"{row.get('bit_exact')!r})",
            subject="ranges",
        ))
    if not row.get("narrowed_fields"):
        out.append(Violation(
            "P326",
            "BENCH_ranges.json reports no narrowed fields; the range "
            "certificates proved no narrowing plan on the bench fixture",
            subject="ranges",
        ))
    reduction = row.get("byte_reduction")
    floor = budgets.RANGES_MIN_BYTE_REDUCTION
    if not isinstance(reduction, (int, float)):
        out.append(Violation(
            "P326",
            "BENCH_ranges.json carries no ranges.byte_reduction; the "
            "narrowing contract cannot be checked",
            subject="ranges",
        ))
    elif reduction < floor:
        out.append(Violation(
            "P326",
            f"narrow='auto' reduced modeled bytes by only "
            f"{reduction:.1%}, below the contract floor {floor:.0%}",
            subject="ranges",
        ))
    return out


def check_placement_contract(report: dict) -> list[Violation]:
    """Check a fresh ``BENCH_placement.json`` against the absolute contract.

    ``P328`` when the bench could not certify the N-device run bit-exact
    with single-device, when the per-iteration exchange-byte accounting
    came back zero (no cross-device edge was ever charged), or when the
    modeled multi-device speedup falls below
    :data:`~repro.analysis.budgets.PLACEMENT_MIN_MODEL_SPEEDUP`.  All
    three are deterministic cost-model / equivalence facts, so no
    baseline and no noise band are involved.
    """
    row = report.get("placement", {})
    out: list[Violation] = []
    if row.get("bit_exact") is not True:
        out.append(Violation(
            "P328",
            "BENCH_placement.json does not certify the multi-device run "
            f"bit-identical to single-device (bit_exact "
            f"{row.get('bit_exact')!r})",
            subject="placement",
        ))
    exchange = row.get("exchange_bytes")
    if not isinstance(exchange, int) or exchange <= 0:
        out.append(Violation(
            "P328",
            f"BENCH_placement.json charged {exchange!r} exchange bytes; "
            "a multi-device run over a connected fixture must price a "
            "nonzero bulk-synchronous value exchange",
            subject="placement",
        ))
    speedup = row.get("model_speedup")
    floor = budgets.PLACEMENT_MIN_MODEL_SPEEDUP
    if not isinstance(speedup, (int, float)):
        out.append(Violation(
            "P328",
            "BENCH_placement.json carries no placement.model_speedup; "
            "the placement contract cannot be checked",
            subject="placement",
        ))
    elif speedup < floor:
        out.append(Violation(
            "P328",
            f"multi-device execution models only {speedup:.2f}x the "
            f"single-device time (contract floor {floor:.1f}x)",
            subject="placement",
        ))
    return out


#: Per-engine keys naming the execution paths a perf_smoke row measured;
#: timings taken on different paths are not comparable (``P321``).
_EXEC_PATH_KEYS = ("exec_path", "reference_exec_path")


@dataclass(frozen=True)
class BenchLayer:
    """One benchmark layer of ``python -m repro perfgate``.

    ``run_bench`` in ``benchmarks/<module>.py`` measures the layer's
    report; ``contract``, when set, checks it against its absolute floor,
    and :meth:`diff` compares it with the committed :attr:`baseline`.
    ``per_engine`` layers gate every row of the report's ``engines``
    mapping; the others gate the one section named after the layer.
    """

    name: str
    code: str
    match_keys: tuple[str, ...]
    exact_metrics: tuple[str, ...]
    timing_metrics: tuple[str, ...]
    contract: Callable[[dict], list[Violation]] | None = None
    per_engine: bool = False

    @property
    def module(self) -> str:
        return f"bench_{self.name}"

    @property
    def baseline(self) -> str:
        """The committed baseline, relative to the repository root."""
        return f"benchmarks/baselines/{self.name}.json"

    def rows(self, report: dict) -> dict:
        """The report's gated rows, by engine or section name."""
        if self.per_engine:
            return report.get("engines", {})
        return {self.name: report.get(self.name, {})}

    def diff(
        self, baseline: dict, current: dict
    ) -> tuple[list[Violation], list[Violation]]:
        """``(hard, timing)`` violations of ``current`` against ``baseline``.

        ``hard`` holds what no re-measurement can clear: ``P321`` when the
        runs are not comparable (a match key, the engine set, or a row's
        execution path differs) and :attr:`code` when an exact metric
        changed.  ``timing`` holds :attr:`code` for every timing metric
        that regressed beyond the one-sided
        :data:`~repro.analysis.budgets.PERFGATE_TIMING_THRESHOLD`, which
        may be machine noise.  Improvements never fail.
        """
        def violation(code: str, message: str) -> Violation:
            return Violation(code, message, subject=self.name)

        hard = [
            violation("P321", f"{self.name} workload '{key}' differs: "
                      f"baseline {baseline.get(key)!r} vs current "
                      f"{current.get(key)!r}")
            for key in self.match_keys
            if baseline.get(key) != current.get(key)
        ]
        timing = []
        brows, crows = self.rows(baseline), self.rows(current)
        if set(brows) != set(crows):
            hard.append(violation(
                "P321", f"engine sets differ: baseline {sorted(brows)} vs "
                f"current {sorted(crows)}"))
        thr = budgets.PERFGATE_TIMING_THRESHOLD
        for name in sorted(set(brows) & set(crows)):
            b, c = brows[name], crows[name]
            for pk in _EXEC_PATH_KEYS if self.per_engine else ():
                if b.get(pk) != c.get(pk):
                    hard.append(violation(
                        "P321", f"{name}: {pk} differs (baseline "
                        f"{b.get(pk)!r} vs current {c.get(pk)!r}); refusing "
                        "to compare timings across execution paths"))
            for mk in self.exact_metrics:
                if b.get(mk) != c.get(mk):
                    hard.append(violation(
                        self.code, f"{name}: exact metric {mk} changed from "
                        f"{b.get(mk)!r} to {c.get(mk)!r}"))
            for mk in self.timing_metrics:
                bv, cv = b.get(mk), c.get(mk)
                if not isinstance(bv, (int, float)) or \
                        not isinstance(cv, (int, float)) or bv <= 0:
                    continue
                rel = (cv - bv) / bv
                if rel > thr:
                    timing.append(violation(
                        self.code, f"{name}: {mk} regressed {rel:+.1%} "
                        f"({bv:.4f}s -> {cv:.4f}s), threshold +{thr:.0%}"))
        return hard, timing

    def fold(self, a: dict, b: dict, fn: Callable) -> dict:
        """Report ``a`` with every timing metric folded with ``b``'s by
        ``fn``.  Exact metrics keep ``a``'s values: a re-measurement must
        never launder a behavioural change.

        The gate's retries fold with ``min`` (the fastest honestly
        observed run); ``--rebaseline`` folds with ``max``, so a committed
        baseline is a speed reproducible across runs, not one lucky
        sample.
        """
        out = copy.deepcopy(a)
        other = self.rows(b)
        for name, row in self.rows(out).items():
            for mk in self.timing_metrics:
                x, y = row.get(mk), other.get(name, {}).get(mk)
                if isinstance(x, (int, float)) and isinstance(y, (int, float)):
                    row[mk] = fn(x, y)
        return out


#: The benchmark layers ``python -m repro perfgate`` runs, in order, with
#: the drift code each one reports.
BENCH_LAYERS: dict[str, BenchLayer] = {layer.name: layer for layer in (
    BenchLayer("perf_smoke", "P320", budgets.PERFGATE_MATCH_KEYS,
               budgets.PERFGATE_EXACT_METRICS,
               budgets.PERFGATE_TIMING_METRICS, per_engine=True),
    BenchLayer("service", "P323", budgets.SERVICE_MATCH_KEYS,
               budgets.SERVICE_EXACT_METRICS,
               budgets.SERVICE_TIMING_METRICS, check_service_contract),
    BenchLayer("frontier", "P325", budgets.FRONTIER_MATCH_KEYS,
               budgets.FRONTIER_EXACT_METRICS,
               budgets.FRONTIER_TIMING_METRICS, check_frontier_contract),
    BenchLayer("ranges", "P327", budgets.RANGES_MATCH_KEYS,
               budgets.RANGES_EXACT_METRICS, (), check_ranges_contract),
    BenchLayer("placement", "P329", budgets.PLACEMENT_MATCH_KEYS,
               budgets.PLACEMENT_EXACT_METRICS,
               budgets.PLACEMENT_TIMING_METRICS, check_placement_contract),
)}


def compare_reports(layer: str, baseline: dict, current: dict
                    ) -> list[Violation]:
    """Every violation of a fresh ``layer`` report against its baseline
    (see :meth:`BenchLayer.diff`)."""
    hard, timing = BENCH_LAYERS[layer].diff(baseline, current)
    return hard + timing
