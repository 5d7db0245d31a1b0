"""Telemetry subsystem: tracer semantics, no-op guarantee, exporters.

Four concerns, per the telemetry design contract:

- span nesting/ordering invariants of :class:`~repro.telemetry.Tracer`;
- the :class:`~repro.telemetry.NullTracer` zero-overhead guarantee —
  a traced run must return the *same* :class:`RunResult` values as an
  untraced one (tracing is observational, never behavioral);
- exporter round-trips (JSONL read-back, schema validation, Chrome trace
  structure, CSV);
- regression: CuSha's per-stage trace spans must sum back to the run's
  aggregate :class:`~repro.gpu.stats.KernelStats`.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import make_program
from repro.frameworks import CuShaEngine, MTCPUEngine, VWCEngine, make_engine
from repro.frameworks.base import RunConfig
from repro.frameworks.streamed import StreamedCuShaEngine
from repro.graph import generators
from repro.gpu.stats import KernelStats
from repro.telemetry import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    aggregate_stage_stats,
    chrome_trace,
    publish_kernel_stats,
    read_jsonl,
    stats_from_dict,
    stats_to_dict,
    validate_jsonl,
    write_csv,
    write_jsonl,
)


def small_graph():
    return generators.random_weights(
        generators.rmat(300, 2400, seed=11), seed=12
    )


def traced_run(engine, program_name="sssp", graph=None):
    g = graph if graph is not None else small_graph()
    p = make_program(
        program_name, g,
        **({"source": 0} if program_name in ("bfs", "sssp", "sswp") else {}),
    )
    tracer = Tracer()
    config = RunConfig(max_iterations=200, allow_partial=True, tracer=tracer)
    res = engine.run(g, p, config=config)
    return res, tracer


# ---------------------------------------------------------------------------
class TestTracerCore:
    def test_span_nesting_records_parent(self):
        t = Tracer()
        with t.span("outer", "run") as outer:
            with t.span("inner", "iteration") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert t.children(outer) == [inner]

    def test_spans_appear_in_completion_order(self):
        t = Tracer()
        with t.span("a", "run"):
            t.emit("b", "stage")
            t.emit("c", "stage")
        names = [s.name for s in t.spans]
        # Spans are recorded in creation order (parent first).
        assert names == ["a", "b", "c"]

    def test_emit_normalizes_kernel_stats(self):
        t = Tracer()
        ks = KernelStats()
        ks.add_load_raw(4, 128)
        s = t.emit("st", "stage", stats=ks)
        assert isinstance(s.stats, dict)
        assert s.kernel_stats().load_transactions == 4

    def test_wall_time_measured(self):
        t = Tracer()
        with t.span("outer", "run") as sp:
            sum(range(1000))
        assert sp.wall_ms >= 0.0

    def test_find_filters_by_kind_and_name(self):
        t = Tracer()
        with t.span("run", "run"):
            t.emit("iter-0", "iteration")
            t.emit("h2d", "transfer")
        assert len(t.find(kind="iteration")) == 1
        assert t.find(name="h2d")[0].kind == "transfer"

    def test_invalid_kind_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError):
            t.emit("x", "not-a-kind")

    def test_stats_round_trip(self):
        ks = KernelStats()
        ks.add_load_raw(3, 96)
        ks.add_store_raw(2, 64)
        ks.add_lanes(10, 32)
        ks.add_atomics(shared=5, global_=1)
        back = stats_from_dict(stats_to_dict(ks))
        assert back == ks

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_stats_to_dict_equals_asdict(self, data):
        ks = KernelStats(**{
            f.name: data.draw(
                st.floats(0, 1e12) if isinstance(f.default, float)
                else st.integers(0, 2**40), label=f.name)
            for f in dataclasses.fields(KernelStats)
        })
        d = stats_to_dict(ks)
        expected = dataclasses.asdict(ks)
        assert list(d) == list(expected)
        assert d == expected
        assert stats_from_dict(d) == ks


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        nt = NullTracer()
        assert not nt.enabled
        with nt.span("x", "run") as sp:
            sp.model_ms = 5.0  # silently dropped
        assert nt.spans == []
        assert len(nt) == 0
        nt.metrics.counter("c").inc(3)  # no-op registry
        assert nt.metrics.as_dict() == {}

    @pytest.mark.parametrize("engine_factory", [
        lambda: CuShaEngine("cw", vertices_per_shard=16),
        lambda: CuShaEngine("gs", vertices_per_shard=16),
        lambda: VWCEngine(8),
        lambda: MTCPUEngine(2),
        lambda: StreamedCuShaEngine(device_memory_bytes=200_000),
    ])
    def test_traced_equals_untraced(self, engine_factory):
        """Tracing must never perturb the modeled result."""
        g = small_graph()
        p1 = make_program("sssp", g, source=0)
        p2 = make_program("sssp", g, source=0)
        base = engine_factory().run(
            g, p1, config=RunConfig(max_iterations=200, allow_partial=True)
        )
        traced, tracer = traced_run(engine_factory(), "sssp", g)
        assert len(tracer) > 0
        assert np.array_equal(base.values, traced.values)
        assert base.iterations == traced.iterations
        assert base.total_ms == traced.total_ms  # byte-identical floats
        assert base.kernel_time_ms == traced.kernel_time_ms
        assert base.stats == traced.stats

    def test_default_run_uses_null_tracer(self):
        g = small_graph()
        p = make_program("bfs", g, source=0)
        res = CuShaEngine("cw").run(g, p)
        assert res.converged
        assert NULL_TRACER.spans == []


# ---------------------------------------------------------------------------
class TestSpanStructure:
    def test_cusha_one_stage_span_per_stage_per_iteration(self):
        res, tracer = traced_run(CuShaEngine("cw", vertices_per_shard=16))
        iters = tracer.find(kind="iteration")
        assert len(iters) == res.iterations
        stage_names = (
            "stage1-fetch", "stage2-compute",
            "stage3-update", "stage4-writeback",
        )
        for it in iters:
            kids = tracer.children(it)
            got = [s.name for s in kids if s.kind == "stage"]
            assert got == list(stage_names)

    def test_cusha_transfer_spans(self):
        _res, tracer = traced_run(CuShaEngine("gs", vertices_per_shard=16))
        names = {s.name for s in tracer.find(kind="transfer")}
        assert {"h2d", "d2h"} <= names

    def test_model_timeline_tiles(self):
        """h2d, then iterations back to back, then d2h."""
        res, tracer = traced_run(CuShaEngine("cw", vertices_per_shard=16))
        h2d = tracer.find(kind="transfer", name="h2d")[0]
        d2h = tracer.find(kind="transfer", name="d2h")[0]
        iters = tracer.find(kind="iteration")
        assert h2d.model_start_ms == 0.0
        cursor = h2d.model_ms
        for it in iters:
            assert it.model_start_ms == pytest.approx(cursor)
            cursor += it.model_ms
        assert d2h.model_start_ms == pytest.approx(cursor)
        assert res.total_ms == pytest.approx(cursor + d2h.model_ms)

    def test_vwc_phase_spans(self):
        _res, tracer = traced_run(VWCEngine(8))
        names = {s.name for s in tracer.find(kind="stage")}
        assert {"sisd", "edge-loop", "reduction", "stores"} <= names

    def test_run_span_wraps_everything(self):
        _res, tracer = traced_run(MTCPUEngine(2))
        runs = tracer.find(kind="run")
        assert len(runs) == 1
        assert runs[0].parent_id is None
        for s in tracer.spans:
            if s is not runs[0]:
                assert s.parent_id is not None


class TestStageSumRegression:
    @pytest.mark.parametrize("mode", ["gs", "cw"])
    def test_stage_spans_sum_to_run_stats(self, mode):
        """Per-stage trace deltas must reassemble the engine's aggregate.

        ``kernel_launches`` is excluded: stage spans carry per-stage work,
        while launches are a per-iteration (whole pipeline) property.
        """
        res, tracer = traced_run(CuShaEngine(mode, vertices_per_shard=16))
        stages = aggregate_stage_stats(tracer)
        total = KernelStats()
        for s in stages.values():
            total += s
        for field in (
            "load_transactions", "load_bytes_requested",
            "store_transactions", "store_bytes_requested",
            "active_lane_slots", "total_lane_slots",
            "shared_atomics", "global_atomics",
        ):
            assert getattr(total, field) == getattr(res.stats, field), field
        assert total.warp_instructions == pytest.approx(
            res.stats.warp_instructions
        )

    def test_aggregate_matches_legacy_stage_stats(self):
        res, tracer = traced_run(CuShaEngine("cw", vertices_per_shard=16))
        stages = aggregate_stage_stats(tracer)
        assert set(stages) == set(res.stage_stats)
        for name, s in stages.items():
            legacy = res.stage_stats[name]
            assert s.load_transactions == legacy.load_transactions
            assert s.store_transactions == legacy.store_transactions


# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.counter("c").inc(4)
        m.gauge("g").set(2.5)
        h = m.histogram("h")
        for v in (1, 2, 100):
            h.observe(v)
        assert m.counter("c").value == 5
        assert m.gauge("g").value == 2.5
        snap = m.as_dict()
        assert snap["h"]["count"] == 3
        assert snap["h"]["max"] == 100

    def test_type_conflict_raises(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_counter_rejects_negative(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.counter("c").inc(-1)

    def test_publish_kernel_stats(self):
        m = MetricsRegistry()
        ks = KernelStats()
        ks.add_load_raw(7, 224)
        ks.add_store_raw(3, 96)
        publish_kernel_stats(m, ks)
        assert m.counter("engine.load_transactions").value == 7
        assert m.counter("engine.store_transactions").value == 3

    def test_engines_publish_metrics(self):
        _res, tracer = traced_run(CuShaEngine("cw", vertices_per_shard=16))
        m = tracer.metrics
        assert "engine.iterations" in m
        assert "engine.load_transactions" in m
        assert "cusha.num_shards" in m
        assert m.histogram("engine.updated_vertices").count > 0


# ---------------------------------------------------------------------------
class TestExporters:
    @pytest.fixture()
    def traced(self):
        return traced_run(CuShaEngine("cw", vertices_per_shard=16))

    def test_jsonl_round_trip(self, tmp_path, traced):
        _res, tracer = traced
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path, meta={"engine": "cusha-cw"})
        back = read_jsonl(path)
        assert len(back) == len(tracer.spans)
        for a, b in zip(back, tracer.spans):
            assert isinstance(a, Span)
            assert (a.span_id, a.parent_id, a.name, a.kind) == (
                b.span_id, b.parent_id, b.name, b.kind
            )
            assert a.model_ms == b.model_ms
            assert a.stats == b.stats

    def test_jsonl_header_and_validation(self, tmp_path, traced):
        _res, tracer = traced
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["schema"] == "repro-trace"
        assert first["version"] == 1
        assert validate_jsonl(path) == []

    def test_validation_catches_corruption(self, tmp_path, traced):
        _res, tracer = traced
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["kind"] = "bogus"
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        assert validate_jsonl(path) != []

    def test_chrome_trace_structure(self, traced):
        _res, tracer = traced
        doc = chrome_trace(tracer)
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(events) == len(tracer.spans)
        for e in events:
            assert e["ts"] >= 0 and e["dur"] >= 0
        names = {e["name"] for e in events}
        assert "stage2-compute" in names
        meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        assert any(m["name"] == "thread_name" for m in meta)

    def test_chrome_trace_loads_from_jsonl(self, tmp_path, traced):
        """The ISSUE acceptance: JSONL dump -> Chrome exporter."""
        _res, tracer = traced
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        doc = chrome_trace(read_jsonl(path))
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(events) == len(tracer.spans)

    def test_csv_export(self, tmp_path, traced):
        _res, tracer = traced
        path = write_csv(tracer, tmp_path / "trace.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer.spans) + 1  # header
        assert lines[0].startswith("span_id,")


# ---------------------------------------------------------------------------
class TestRunConfigAPI:
    def test_legacy_kwargs_raise_typeerror(self):
        g = small_graph()
        p = make_program("bfs", g, source=0)
        with pytest.raises(TypeError, match="RunConfig"):
            CuShaEngine("cw").run(g, p, max_iterations=5,
                                  allow_partial=True)

    def test_legacy_kwargs_rejected_alongside_config(self):
        g = small_graph()
        p = make_program("bfs", g, source=0)
        with pytest.raises(TypeError, match="max_iterations"):
            CuShaEngine("cw").run(
                g, p, config=RunConfig(), max_iterations=5
            )

    def test_tracer_kwarg_shorthand(self):
        g = small_graph()
        p = make_program("bfs", g, source=0)
        tracer = Tracer()
        CuShaEngine("cw").run(g, p, tracer=tracer)
        assert len(tracer) > 0

    def test_facade_runs(self):
        import repro

        g = small_graph()
        res = repro.run(g, "sssp", engine="cusha-cw", source=0)
        ref = repro.run(g, "sssp", engine="vwc-8", source=0)
        assert np.array_equal(
            res.field_values("dist"), ref.field_values("dist")
        )

    def test_make_engine_unknown_key(self):
        from repro.frameworks import EngineKeyError

        with pytest.raises(EngineKeyError):
            make_engine("tesla-v100")

    @pytest.mark.parametrize("key", [
        "cusha-gs", "cusha-cw", "vwc-4", "mtcpu", "mtcpu-8",
        "scalar", "csrloop", "streamed",
    ])
    def test_make_engine_keys(self, key):
        eng = make_engine(key)
        assert hasattr(eng, "run")
