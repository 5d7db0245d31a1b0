"""Proven-safe dtype narrowing tests (``RunConfig(narrow="auto")``).

Covers bit-exactness of narrowed execution against the wide run across
the engine × program × exec-path matrix, the ``NarrowedProgram``
wrapper's sentinel remapping, the no-op behavior for fields the
certificates cannot narrow, the ``validate="full"`` runtime range probe
(typed W504 on escape), the narrowed static perf audit (P309) and
narrow-mode drift gate, and the knobs: service batching keys include
``narrow`` and ``RunConfig`` rejects unknown modes.  See the narrowing
contract in ``docs/programming_guide.md``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import make_program
from repro.analysis.perf import drift_gate, narrowed_audit, perf_audit
from repro.analysis.ranges import analyze_ranges, narrowing_plan
from repro.errors import ConfigError, ValidationError
from repro.frameworks import RunConfig, make_engine
from repro.frameworks.base import NULL_FAULTS
from repro.frameworks.narrow import NarrowedProgram, RangeProbeHooks
from repro.frameworks.registry import engine_keys
from repro.graph import generators
from repro.service.batching import _config_key
from repro.telemetry import Tracer
from repro.vertexcentric.datatypes import UINT_INF


@pytest.fixture(scope="module")
def graph():
    return generators.random_weights(
        generators.rmat(256, 2048, seed=5), seed=9)


def _pair(key, graph, name, path, **kwargs):
    """(narrow=off, narrow=auto) results for one configuration."""
    out = []
    for mode in ("off", "auto"):
        config = RunConfig(exec_path=path, max_iterations=64,
                           allow_partial=True, narrow=mode, **kwargs)
        out.append(make_engine(key).run(
            graph, make_program(name, graph), config=config))
    return out


def _bit_exact(off, auto) -> bool:
    return (off.values.dtype == auto.values.dtype
            and off.values.tobytes() == auto.values.tobytes()
            and off.iterations == auto.iterations
            and off.converged == auto.converged)


class TestBitExactness:
    @pytest.mark.parametrize("key", engine_keys())
    def test_every_engine_bfs_fast(self, key, graph):
        assert _bit_exact(*_pair(key, graph, "bfs", "fast"))

    @pytest.mark.parametrize("key", ["cusha-cw", "cusha-gs",
                                     "cusha-streamed", "vwc-8", "scalar"])
    @pytest.mark.parametrize("name", ["bfs", "cc", "sswp"])
    @pytest.mark.parametrize("path", ["fast", "reference"])
    def test_narrowable_matrix(self, key, name, path, graph):
        assert _bit_exact(*_pair(key, graph, name, path))

    def test_unnarrowable_program_is_a_noop(self, graph):
        # PageRank's rank field is float: no narrowing plan can exist,
        # so the gate must pass the program through untouched.
        tracer = Tracer()
        off, auto = _pair("cusha-cw", graph, "pr", "fast")
        assert _bit_exact(off, auto)
        config = RunConfig(max_iterations=64, allow_partial=True,
                           narrow="auto").with_tracer(tracer)
        make_engine("cusha-cw").run(
            graph, make_program("pr", graph), config=config)
        metrics = tracer.metrics.as_dict()
        assert metrics["analysis.ranges.gate.noop"]["value"] == 1
        assert "analysis.ranges.gate.narrowed" not in metrics

    def test_gate_publishes_metrics(self, graph):
        tracer = Tracer()
        config = RunConfig(max_iterations=64, allow_partial=True,
                           narrow="auto").with_tracer(tracer)
        make_engine("cusha-cw").run(
            graph, make_program("bfs", graph), config=config)
        metrics = tracer.metrics.as_dict()
        assert metrics["analysis.ranges.gate.narrowed"]["value"] == 1
        assert metrics["analysis.ranges.proved"]["value"] == 4
        assert metrics["analysis.ranges.fields.bfs"]["value"] == 1

    def test_narrowed_traffic_actually_shrinks(self, graph):
        off, auto = _pair("cusha-cw", graph, "bfs", "fast")
        assert auto.stats.total_bytes_requested < \
            off.stats.total_bytes_requested


class TestNarrowedProgram:
    @pytest.fixture()
    def narrowed(self, graph):
        program = make_program("bfs", graph)
        cert = analyze_ranges(program, graph, cache=False)
        plan = narrowing_plan(cert, program)
        assert plan == {"level": np.dtype(np.uint16)}
        return program, NarrowedProgram(program, plan, dict(cert.ranges))

    def test_narrow_widen_round_trip_remaps_the_sentinel(self, narrowed,
                                                         graph):
        program, wrapped = narrowed
        wide = program.initial_values(graph)
        assert wide["level"].dtype == np.uint32
        narrow = wrapped.initial_values(graph)
        assert narrow["level"].dtype == np.uint16
        # The UINT_INF sentinel lands on the narrow dtype's max...
        assert (narrow["level"] == np.iinfo(np.uint16).max).sum() == \
            (wide["level"] == UINT_INF).sum()
        # ...and widening restores the original bytes exactly.
        assert wrapped.widen(narrow).tobytes() == wide.tobytes()

    def test_delegated_declarations(self, narrowed):
        program, wrapped = narrowed
        assert wrapped.name == program.name
        assert wrapped.reduce_ops == program.reduce_ops
        assert wrapped.vertex_dtype["level"] == np.dtype(np.uint16)
        assert wrapped.vertex_dtype.itemsize < program.vertex_dtype.itemsize


class TestRangeProbe:
    def test_full_validation_with_narrowing_runs(self, graph):
        config = RunConfig(max_iterations=64, allow_partial=True,
                           narrow="auto", validate="full")
        result = make_engine("cusha-cw").run(
            graph, make_program("bfs", graph), config=config)
        assert result.converged

    def test_probe_raises_typed_w504_on_escape(self, graph):
        program = make_program("bfs", graph)
        probe = RangeProbeHooks(NULL_FAULTS, program,
                                {"level": (0.0, 10.0, True)})
        values = np.zeros(4, dtype=program.vertex_dtype)
        values["level"] = [0, 5, 99, 2]
        with pytest.raises(ValidationError) as exc:
            probe.values("cusha-cw", 1, values)
        v = exc.value.violations[0]
        assert v.code == "W504"
        assert "'level'" in v.message and "99" in v.message

    def test_probe_ignores_sentinel_lanes(self, graph):
        program = make_program("bfs", graph)
        probe = RangeProbeHooks(NULL_FAULTS, program,
                                {"level": (0.0, 10.0, True)})
        values = np.zeros(4, dtype=program.vertex_dtype)
        values["level"] = [0, 5, UINT_INF, 2]
        probe.values("cusha-cw", 1, values)  # must not raise


class TestNarrowedPerfContract:
    @pytest.mark.parametrize("key", ["cusha-cw", "cusha-gs"])
    def test_narrowed_audit_rowsums_exactly(self, key, graph):
        engine = make_engine(key)
        program = make_program("bfs", graph)
        cfg = RunConfig(max_iterations=64, allow_partial=True, narrow="auto")
        assert narrowed_audit(engine, graph, program, cfg) == []
        assert perf_audit(engine, graph, program, cfg) == []

    def test_drift_gate_in_narrow_mode(self, graph):
        rep = drift_gate(make_engine("cusha-cw"), graph,
                         make_program("bfs", graph),
                         max_iterations=8, narrow="auto")
        assert rep.ok, rep.violations


class TestKnobs:
    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(narrow="bogus")

    def test_service_batch_key_covers_narrow(self):
        off = _config_key(RunConfig(narrow="off"))
        auto = _config_key(RunConfig(narrow="auto"))
        assert off != auto


def _generic_widen(wrapped, arr):
    """The per-field conversion loop: a struct copy per record and a
    boolean scatter for the sentinel."""
    out = np.empty(arr.shape, dtype=wrapped.inner.vertex_dtype)
    for fname in out.dtype.names:
        data = arr[fname]
        if fname in wrapped._sentinel:
            base, smax = wrapped._sentinel[fname]
            w = data.astype(base)
            w[data == smax] = UINT_INF
            out[fname] = w
        else:
            out[fname] = data
    return out


def _generic_narrow(wrapped, arr):
    out = np.empty(arr.shape, dtype=wrapped.vertex_dtype)
    for fname in out.dtype.names:
        data = arr[fname]
        if fname in wrapped._sentinel:
            ft = out.dtype.fields[fname][0]
            n = data.astype(ft.base)
            n[data == UINT_INF] = wrapped._sentinel[fname][1]
            out[fname] = n
        else:
            out[fname] = data
    return out


_LAYOUTS = {
    # name -> vertex dtype for k subarray columns; "c" narrows to int16
    "single": lambda k: [("level", np.uint32)],
    "subarray": lambda k: [("level", np.uint32, (k,))],
    "multi": lambda k: [("level", np.uint32), ("w", np.float32),
                        ("c", np.int32)],
    "multi-subarray": lambda k: [("c", np.int32), ("level", np.uint32, (k,))],
}


@st.composite
def _narrowing_case(draw):
    layout = draw(st.sampled_from(sorted(_LAYOUTS)))
    k = draw(st.integers(1, 4))
    narrow = np.dtype(draw(st.sampled_from([np.uint8, np.uint16])))
    hi = draw(st.integers(0, int(np.iinfo(narrow).max) - 1))
    n = draw(st.integers(0, 40))
    levels = draw(st.lists(
        st.one_of(st.just(hi), st.just(int(UINT_INF)), st.integers(0, hi)),
        min_size=n * k, max_size=n * k))
    ints = draw(st.lists(st.integers(-30000, 30000), min_size=n,
                         max_size=n))
    return layout, k, narrow, hi, levels, ints


def _case_arrays(graph, case):
    layout, k, narrow, hi, levels, ints = case
    program = make_program("bfs", graph)
    program.vertex_dtype = np.dtype(_LAYOUTS[layout](k))
    plan = {"level": narrow}
    ranges = {"level": (0.0, float(hi), True)}
    if "c" in program.vertex_dtype.names:
        plan["c"] = np.dtype(np.int16)
        ranges["c"] = (-30000.0, 30000.0, False)
    wrapped = NarrowedProgram(program, plan, ranges)
    wide = np.zeros(len(ints), dtype=program.vertex_dtype)
    shape = wide["level"].shape
    wide["level"] = np.asarray(levels[:int(np.prod(shape))],
                               dtype=np.uint32).reshape(shape)
    for fname in set(wide.dtype.names) - {"level"}:
        wide[fname] = ints
    return wrapped, wide


class TestFastConversions:
    @settings(max_examples=120, deadline=None)
    @given(case=_narrowing_case())
    def test_round_trip_and_generic_agreement(self, graph, case):
        wrapped, wide = _case_arrays(graph, case)
        narrow = wrapped.narrow(wide)
        assert narrow.dtype == wrapped.vertex_dtype
        assert narrow.tobytes() == _generic_narrow(wrapped, wide).tobytes()
        back = wrapped.widen(narrow)
        assert back.dtype == wide.dtype
        assert back.tobytes() == wide.tobytes()
        assert back.tobytes() == _generic_widen(wrapped, narrow).tobytes()

    def test_single_field_widen_is_a_fresh_array(self, graph):
        wrapped, wide = _case_arrays(
            graph, ("single", 1, np.dtype(np.uint16), 9, [9, UINT_INF, 0],
                    [0, 0, 0]))
        narrow = wrapped.narrow(wide)
        back = wrapped.widen(narrow)
        assert not np.shares_memory(back, narrow)
        back["level"][:] = 1
        assert wrapped.widen(narrow).tobytes() == wide.tobytes()
