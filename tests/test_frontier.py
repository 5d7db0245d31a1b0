"""Equivalence gate for frontier-centric execution.

``RunConfig(frontier="sparse"|"auto")`` must be invisible in every
observable output — vertex values bit-identical, same iteration count,
same convergence flag, same per-iteration updated-vertex curve — across
every engine × program × sync-mode × exec-path combination; only the
modeled hardware work (and the new ``edges_processed`` /
``shards_skipped`` counters) may differ.  Plus: a hypothesis sweep over
random graphs and lattice shapes, and unit tests pinning the
Beamer-style push↔pull direction switch on a star vs. a path graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import PROGRAM_NAMES, make_program
from repro.frameworks import (CuShaEngine, RunConfig, StreamedCuShaEngine,
                              VWCEngine, make_engine)
from repro.frameworks.frontier import (DIRECTION_ALPHA, FRONTIER_MODES,
                                       ShardFrontier, choose_direction,
                                       vertex_influence_csr)
from repro.graph.digraph import DiGraph
from repro.graph.generators import (path, random_weights, rmat,
                                    road_network, star)
from repro.telemetry.tracer import Tracer


def _config(mode, exec_path="fast", max_iterations=300, tracer=None):
    kwargs = {} if tracer is None else {"tracer": tracer}
    return RunConfig(max_iterations=max_iterations, allow_partial=True,
                     frontier=mode, exec_path=exec_path, **kwargs)


def _curve(result):
    return [t.updated_vertices for t in result.traces]


def _assert_bit_exact(gated, off, label=""):
    assert gated.iterations == off.iterations, label
    assert gated.converged == off.converged, label
    assert gated.values.tobytes() == off.values.tobytes(), label
    assert _curve(gated) == _curve(off), label


@pytest.fixture(scope="module")
def graph():
    """A lattice with a few shortcuts: frontier-friendly but not trivial."""
    return random_weights(
        road_network(40, 8, shortcut_fraction=0.002, seed=3), seed=4)


@pytest.fixture(scope="module")
def long_graph():
    """Elongated lattice: the regime where sparse sweeps skip most shards."""
    return random_weights(
        road_network(200, 3, shortcut_fraction=0.0, seed=1), seed=2)


class TestCuShaMatrix:
    """sparse/auto ≡ off across mode × sync_mode × exec_path × program."""

    @pytest.mark.parametrize("mode", ["gs", "cw"])
    @pytest.mark.parametrize("sync_mode", ["wave", "async", "bsp"])
    @pytest.mark.parametrize("exec_path", ["fast", "reference"])
    @pytest.mark.parametrize("program_name", ["bfs", "sssp"])
    def test_equivalence(self, graph, mode, sync_mode, exec_path,
                         program_name):
        def run(frontier):
            eng = CuShaEngine(mode, sync_mode=sync_mode,
                              vertices_per_shard=32)
            return eng.run(graph, make_program(program_name, graph),
                           config=_config(frontier, exec_path))

        off = run("off")
        for frontier in ("sparse", "auto"):
            _assert_bit_exact(
                run(frontier), off,
                f"{mode}/{sync_mode}/{exec_path}/{program_name}/{frontier}")

    @pytest.mark.parametrize("program_name", sorted(PROGRAM_NAMES))
    def test_all_programs(self, graph, program_name):
        def run(frontier):
            eng = CuShaEngine("cw", vertices_per_shard=64)
            return eng.run(graph, make_program(program_name, graph),
                           config=_config(frontier, max_iterations=120))

        off = run("off")
        _assert_bit_exact(run("sparse"), off, program_name)
        _assert_bit_exact(run("auto"), off, program_name)


class TestOtherEngines:
    @pytest.mark.parametrize("device_memory", [64 * 1024 * 1024, 48 * 1024])
    @pytest.mark.parametrize("exec_path", ["fast", "reference"])
    @pytest.mark.parametrize("program_name", ["bfs", "cc"])
    def test_streamed(self, graph, device_memory, exec_path, program_name):
        def run(frontier):
            eng = StreamedCuShaEngine(device_memory_bytes=device_memory,
                                      vertices_per_shard=32)
            return eng.run(graph, make_program(program_name, graph),
                           config=_config(frontier, exec_path))

        off = run("off")
        for frontier in ("sparse", "auto"):
            _assert_bit_exact(
                run(frontier), off,
                f"{device_memory}/{exec_path}/{program_name}/{frontier}")

    @pytest.mark.parametrize("warp", [4, 8])
    @pytest.mark.parametrize("exec_path", ["fast", "reference"])
    @pytest.mark.parametrize("program_name", ["bfs", "sssp"])
    def test_vwc(self, graph, warp, exec_path, program_name):
        def run(frontier):
            eng = VWCEngine(warp, chunk_vertices=64)
            return eng.run(graph, make_program(program_name, graph),
                           config=_config(frontier, exec_path))

        off = run("off")
        for frontier in ("sparse", "auto"):
            _assert_bit_exact(run(frontier), off,
                              f"vwc-{warp}/{exec_path}/{program_name}")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(frontier="dense")
        assert RunConfig().frontier == "off"
        for mode in FRONTIER_MODES:
            assert RunConfig(frontier=mode).frontier == mode


class TestCounters:
    def test_off_counters_zero(self, graph):
        eng = CuShaEngine("cw", vertices_per_shard=32)
        res = eng.run(graph, make_program("bfs", graph),
                      config=_config("off"))
        assert res.edges_processed == 0
        assert res.shards_skipped == 0
        assert res.frontier_mask is None
        assert all(t.active_shards == 0 for t in res.traces)

    def test_sparse_counters_populated(self, long_graph):
        eng = CuShaEngine("cw", vertices_per_shard=16)
        res = eng.run(long_graph, make_program("bfs", long_graph),
                      config=_config("sparse", max_iterations=1000))
        assert res.converged
        assert res.edges_processed > 0
        assert res.shards_skipped > 0
        assert res.frontier_mask is not None
        assert res.frontier_mask.shape == (long_graph.num_vertices,)
        assert res.frontier_mask.dtype == np.bool_
        # Every iteration that ran scheduled at least one shard-sweep.
        assert all(t.active_shards >= 1 for t in res.traces)

    def test_elongated_lattice_skips_majority(self, long_graph):
        """The headline effect: a thin BFS wavefront leaves most shards
        quiescent, so most of the iterations×shards sweep grid is skipped
        (the committed perfgate fixture holds this above 80%; the small
        in-test lattice clears a looser floor)."""
        vps = 16
        eng = CuShaEngine("cw", vertices_per_shard=vps)
        res = eng.run(long_graph, make_program("bfs", long_graph),
                      config=_config("sparse", max_iterations=1000))
        num_shards = -(-long_graph.num_vertices // vps)
        skip_fraction = res.shards_skipped / (res.iterations * num_shards)
        assert skip_fraction > 0.5

    def test_auto_skips_on_elongated(self, long_graph):
        """auto must actually push (and therefore skip) once the
        wavefront is thin — if it pulled every iteration the counters
        would match the dense sweep."""
        eng = CuShaEngine("cw", vertices_per_shard=16)
        res = eng.run(long_graph, make_program("bfs", long_graph),
                      config=_config("auto", max_iterations=1000))
        assert res.shards_skipped > 0


class TestDirectionSwitch:
    def test_choose_direction_unit(self):
        # Boundary: pull iff active_edges * alpha >= total_edges.
        assert choose_direction(14, 14 * 14) == "pull"
        assert choose_direction(13, 14 * 14) == "push"
        assert choose_direction(0, 100) == "push"
        # A star's single-vertex frontier owns every edge -> pull.
        assert choose_direction(60, 60) == "pull"
        # A path's frontier owns ~1 of n-1 edges -> push for long paths.
        assert choose_direction(1, 199) == "push"
        assert DIRECTION_ALPHA == 14.0

    @staticmethod
    def _directions(graph, vps):
        tracer = Tracer()
        eng = CuShaEngine("cw", vertices_per_shard=vps)
        res = eng.run(graph, make_program("bfs", graph),
                      config=_config("auto", max_iterations=3000,
                                     tracer=tracer))
        dirs = [s.attrs["frontier_direction"] for s in tracer.spans
                if "frontier_direction" in s.attrs]
        assert len(dirs) == res.iterations
        return dirs

    def test_star_always_pulls(self):
        # The center's out-edges ARE the whole edge set, so every
        # iteration's frontier clears the 1/alpha density threshold.
        dirs = self._directions(star(60), 8)
        assert dirs and set(dirs) == {"pull"}

    def test_path_pushes_after_warmup(self):
        # Iteration 1 starts all-dirty (a fresh run's first sweep is
        # full), then the frontier is a single vertex touching ~2 of
        # 199 edges: 2 * 14 < 199, so every later iteration pushes.
        dirs = self._directions(path(200), 4)
        assert dirs[0] == "pull"
        assert set(dirs[1:]) == {"push"}

    def test_off_run_emits_no_direction(self, graph):
        tracer = Tracer()
        eng = CuShaEngine("cw", vertices_per_shard=32)
        eng.run(graph, make_program("bfs", graph),
                config=_config("off", tracer=tracer))
        assert not any("frontier_direction" in s.attrs
                       for s in tracer.spans)


@st.composite
def small_graphs(draw, max_vertices=40, max_edges=160):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.integers(1, 30), min_size=m, max_size=m))
    return DiGraph(
        np.array(src, np.int64), np.array(dst, np.int64), n,
        np.array(w, np.float64),
    )


class TestPropertySweep:
    @given(small_graphs(), st.sampled_from(["wave", "async", "bsp"]),
           st.sampled_from(["gs", "cw"]),
           st.sampled_from(["bfs", "sssp", "cc"]),
           st.sampled_from(["sparse", "auto"]),
           st.integers(2, 16))
    @settings(max_examples=25, deadline=None)
    def test_bit_exact_on_random_graphs(self, g, sync_mode, mode, program,
                                        frontier, shard_size):
        def run(f):
            eng = CuShaEngine(mode, sync_mode=sync_mode,
                              vertices_per_shard=shard_size)
            return eng.run(g, make_program(program, g),
                           config=_config(f, max_iterations=400))

        _assert_bit_exact(run(frontier), run("off"))

    @given(st.integers(3, 40), st.integers(2, 12), st.integers(2, 64))
    @settings(max_examples=25, deadline=None)
    def test_lattice_frontier_unimodal(self, rows, cols, vps):
        """Level-synchronous BFS on a clean lattice has a unimodal
        wavefront: it grows to the lattice's width, plateaus, and only
        shrinks after the peak.  (bsp only: wave/async let values hop
        through multiple shards per iteration, perturbing the curve —
        legitimately, since only the curve's *values* are contractual.)
        """
        g = road_network(rows, cols, shortcut_fraction=0.0, seed=1)
        eng = CuShaEngine("cw", sync_mode="bsp", vertices_per_shard=vps)
        off = eng.run(g, make_program("bfs", g),
                      config=_config("off", max_iterations=5000))
        eng = CuShaEngine("cw", sync_mode="bsp", vertices_per_shard=vps)
        res = eng.run(g, make_program("bfs", g),
                      config=_config("sparse", max_iterations=5000))
        _assert_bit_exact(res, off)
        curve = _curve(res)
        tail = curve[int(np.argmax(curve)):]
        assert all(a >= b for a, b in zip(tail, tail[1:])), curve


@st.composite
def deferral_cases(draw):
    """A graph, a unit size, a flush discipline and per-iteration update
    densities (each iteration's mask is drawn from a seeded generator)."""
    # Small units over a sparse graph, so that pushes (frontiers under
    # 1/alpha of the edges) follow pulls often.
    g = draw(small_graphs(max_vertices=120, max_edges=240))
    unit = draw(st.integers(1, 6))
    num_units = -(-g.num_vertices // unit)
    discipline = draw(st.sampled_from(["wave", "async", "bsp"]))
    if discipline == "wave":
        flush_pos = np.arange(num_units) // draw(st.integers(1, 4))
    elif discipline == "async":
        flush_pos = np.arange(num_units)
    else:
        flush_pos = np.zeros(num_units, dtype=np.int64)
    densities = draw(st.lists(st.sampled_from([0.0, 0.01, 0.03, 0.1, 0.5]),
                              min_size=1, max_size=10))
    return g, unit, flush_pos.astype(np.int64), densities, draw(
        st.integers(0, 2**16))


class TestDeferredMarks:
    """Pull iterations hand their mask to :meth:`ShardFrontier.defer`
    instead of clearing and marking; the direction test must still see
    exactly what eager marking would have left."""

    @given(deferral_cases())
    @settings(max_examples=60, deadline=None)
    def test_defer_matches_eager_marking(self, case):
        g, unit, flush_pos, densities, seed = case
        n = g.num_vertices
        num_units = flush_pos.size
        indptr, targets = vertex_influence_csr(g.src, g.dst, n, unit,
                                               num_units)
        unit_of = np.arange(n) // unit
        unit_edges = np.bincount(g.dst // unit, minlength=num_units)
        eager = ShardFrontier(num_units, unit, indptr, targets,
                              flush_pos=flush_pos)
        lazy = ShardFrontier(num_units, unit, indptr, targets,
                             flush_pos=flush_pos)
        rng = np.random.default_rng(seed)
        for density in densities:
            direction = lazy.direction(unit_edges, g.num_edges)
            assert direction == choose_direction(
                int(unit_edges[eager.dirty].sum()), g.num_edges)
            push = direction == "push"
            if push:
                assert np.array_equal(lazy.dirty, eager.dirty)
            proposed = rng.random(n) < density
            updated = np.zeros(n, dtype=bool)
            # Flush groups in processing order: clear the group's units,
            # run them, then mark from their updates.
            for pos in np.unique(flush_pos):
                units = np.flatnonzero(flush_pos == pos)
                if push:
                    units = units[eager.dirty[units]]
                group_upd = proposed & np.isin(unit_of, units)
                updated |= group_upd
                for frontier in (eager, lazy) if push else (eager,):
                    frontier.clear(units)
                    frontier.mark(np.flatnonzero(group_upd))
            if not push:
                lazy.defer(updated)

    @pytest.mark.parametrize("engine_key,opts", [
        ("cusha-cw", {"shard_size": 8}),
        ("cusha-streamed", {"shard_size": 8,
                            "device_memory_bytes": 24 * 1024}),
        ("vwc-8", {"chunk_vertices": 8}),
    ])
    def test_pull_iterations_do_no_frontier_work(self, monkeypatch,
                                                 engine_key, opts):
        """``mark`` never runs in a pull iteration, and ``resume_dirty``
        runs only when the deferred mask's own-unit bound would push."""
        from repro.frameworks import frontier as frontier_mod

        calls = {"resolve": 0, "skip": 0, "pull": 0, "push": 0}
        state = {"direction": None, "resumes": 0}
        orig_mark = ShardFrontier.mark
        orig_direction = ShardFrontier.direction
        orig_resume = frontier_mod.resume_dirty

        def mark(self, updated):
            assert state["direction"] != "pull", "mark() in a pull iteration"
            orig_mark(self, updated)

        def resume_dirty(*args):
            state["resumes"] += 1
            return orig_resume(*args)

        def direction(self, unit_edges, total_edges):
            mask = self.deferred
            before = state["resumes"]
            result = orig_direction(self, unit_edges, total_edges)
            resumed = state["resumes"] - before
            if mask is None:
                assert resumed == 0
            else:
                own = np.unique(np.flatnonzero(mask) // self.unit_size)
                bound = choose_direction(int(unit_edges[own].sum()),
                                         total_edges)
                assert resumed == (bound == "push")
                calls["resolve" if resumed else "skip"] += 1
            state["direction"] = result
            calls[result] += 1
            return result

        monkeypatch.setattr(ShardFrontier, "mark", mark)
        monkeypatch.setattr(ShardFrontier, "direction", direction)
        monkeypatch.setattr(frontier_mod, "resume_dirty", resume_dirty)
        g = rmat(2048, 8192, seed=5)
        res = make_engine(engine_key, cache=False, **opts).run(
            g, make_program("pr", g), config=_config("auto"))
        assert res.converged
        assert calls["pull"] + calls["push"] == res.iterations
        assert calls["skip"] > 0 and calls["resolve"] > 0
        # Every pull defers, and the next direction test resolves or
        # skips that deferral exactly once.
        deferred = calls["pull"] - (state["direction"] == "pull")
        assert calls["resolve"] + calls["skip"] == deferred
        assert state["resumes"] == calls["resolve"]


class TestFrontierGate:
    """Unit tests for the P324/P325 gate functions over synthetic reports
    shaped like ``benchmarks/bench_frontier.py`` output."""

    @staticmethod
    def _report(**frontier):
        base = {
            "graph": {"generator": "road_network", "rows": 1000, "cols": 16,
                      "shortcut_fraction": 0.0002, "seed": 11,
                      "weight_seed": 8},
            "program": "bfs", "engine": "cusha-cw",
            "vertices_per_shard": 128, "max_iterations": 400, "repeats": 3,
            "frontier": {
                "bit_exact": True, "iterations": 193, "peak_iteration": 30,
                "edges_processed": 500_000, "shards_skipped": 21_000,
                "skip_fraction": 0.88, "tail_model_savings": 8.7,
                "full_model_ms": 60.0, "sparse_model_ms": 47.0,
                "model_speedup": 1.28,
                "full_wall_min_s": 0.10, "sparse_wall_min_s": 0.085,
            },
        }
        base["frontier"].update(frontier)
        return base

    def test_contract_passes(self):
        from repro.analysis.perf import check_frontier_contract

        assert check_frontier_contract(self._report()) == []

    def test_contract_fails_below_savings_floor(self):
        from repro.analysis.perf import check_frontier_contract

        violations = check_frontier_contract(
            self._report(tail_model_savings=3.0))
        assert [v.code for v in violations] == ["P324"]

    def test_contract_fails_below_skip_floor(self):
        from repro.analysis.perf import check_frontier_contract

        violations = check_frontier_contract(self._report(skip_fraction=0.5))
        assert [v.code for v in violations] == ["P324"]

    def test_contract_fails_without_bit_exactness(self):
        from repro.analysis.perf import check_frontier_contract

        violations = check_frontier_contract(self._report(bit_exact=False))
        assert [v.code for v in violations] == ["P324"]

    def test_contract_fails_when_metrics_missing(self):
        from repro.analysis.perf import check_frontier_contract

        report = self._report()
        del report["frontier"]["tail_model_savings"]
        assert [v.code for v in check_frontier_contract(report)] == ["P324"]

    def test_compare_identical_passes(self):
        from repro.analysis.perf import compare_reports

        assert compare_reports("frontier", self._report(), self._report()) == []

    def test_compare_flags_exact_metric_change(self):
        from repro.analysis.perf import compare_reports

        current = self._report(shards_skipped=19_000)
        violations = compare_reports("frontier", self._report(), current)
        assert [v.code for v in violations] == ["P325"]

    def test_compare_flags_wall_regression(self):
        from repro.analysis.perf import compare_reports

        current = self._report(sparse_wall_min_s=0.5)
        assert "P325" in [
            v.code
            for v in compare_reports("frontier", self._report(), current)
        ]

    def test_compare_tolerates_improvement(self):
        from repro.analysis.perf import compare_reports

        current = self._report(sparse_wall_min_s=0.01,
                               full_wall_min_s=0.01)
        assert compare_reports("frontier", self._report(), current) == []

    def test_compare_flags_workload_mismatch(self):
        from repro.analysis.perf import compare_reports

        current = self._report()
        current["engine"] = "cusha-gs"
        violations = compare_reports("frontier", self._report(), current)
        assert "P321" in [v.code for v in violations]
