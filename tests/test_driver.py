"""The iteration driver: one home for the loop around every engine's sweep.

Two contracts live here.  The design guard keeps the cross-cutting hook
sites in ``frameworks/driver.py`` (and in the independent ``scalar``
oracle), so an overlay is woven into one loop, not one per engine and
path.  The cache-accounting matrix checks that a run's reported
``cache_hits`` / ``cache_misses`` count every lookup the run made,
frontier lookups and the certify and narrow gates' lookups included.
The set-up guard checks that a warm overlay run repeats no set-up pass
a cache could serve.
"""

import inspect
import re
import sys
from pathlib import Path

import pytest

import repro.cache
import repro.frameworks.driver
import repro.placement
from repro.algorithms import make_program
from repro.cache import RepresentationCache
from repro.frameworks import make_engine
from repro.frameworks.base import RunConfig
from repro.graph.digraph import DiGraph
from repro.graph.generators import rmat
from repro.telemetry.tracer import Tracer

FRAMEWORKS = Path(__file__).resolve().parents[1] / "src" / "repro" / "frameworks"

#: Call sites only the driver (and the scalar oracle) may contain.
DRIVER_ONLY = (
    "faults.kernel(",
    "faults.device(",
    "faults.values(",
    "mdr.iteration_time(",
    "frontier.direction(",
    "ConvergenceError(",
    "publish_kernel_stats(",
    '"engine.updated_vertices"',
)


class TestDesignGuard:
    def test_hooks_live_only_in_the_driver(self):
        offenders = []
        for path in sorted(FRAMEWORKS.glob("*.py")):
            if path.name in ("driver.py", "scalar.py"):
                continue
            text = path.read_text()
            offenders += [f"{path.name}: {site}" for site in DRIVER_ONLY
                          if site in text]
        assert offenders == []

    def test_driver_has_one_call_site_per_hook(self):
        text = (FRAMEWORKS / "driver.py").read_text()
        for site in DRIVER_ONLY:
            assert len(re.findall(re.escape(site), text)) == 1, site


ENGINES = {
    "cusha-gs": {"shard_size": 16},
    "cusha-cw": {"shard_size": 16},
    "cusha-streamed": {"shard_size": 16, "device_memory_bytes": 16 * 1024},
    "vwc-8": {"chunk_vertices": 32},
    "mtcpu": {},
}


class TestCacheAccounting:
    @pytest.mark.parametrize("frontier", ["off", "sparse", "auto"])
    @pytest.mark.parametrize("engine_key", list(ENGINES))
    def test_reported_counts_match_the_cache(self, engine_key, frontier):
        g = rmat(512, 2048, seed=7)
        cache = RepresentationCache()
        engine = make_engine(engine_key, cache=cache, **ENGINES[engine_key])
        for warm in (False, True):
            tracer = Tracer()
            h0, m0 = cache.counters()
            res = engine.run(g, make_program("cc", g), config=RunConfig(
                frontier=frontier, tracer=tracer))
            h1, m1 = cache.counters()
            assert (res.cache_hits, res.cache_misses) == (h1 - h0, m1 - m0)
            metrics = tracer.metrics.as_dict()
            assert metrics["cache.hits"]["value"] == res.cache_hits
            assert metrics["cache.misses"]["value"] == res.cache_misses
            if warm:
                assert res.cache_misses == 0 and res.cache_hits > 0
            else:
                assert res.cache_hits == 0 and res.cache_misses > 0

    def test_reference_path_reports_no_lookups(self):
        g = rmat(512, 2048, seed=7)
        cache = RepresentationCache()
        for engine_key, opts in ENGINES.items():
            res = make_engine(engine_key, cache=cache, **opts).run(
                g, make_program("cc", g),
                config=RunConfig(exec_path="reference", frontier="auto"))
            assert (res.cache_hits, res.cache_misses) == (0, 0)
        assert cache.counters() == (0, 0)


#: Every overlay that derives something from the graph before the first
#: sweep.
OVERLAYS = dict(certify="warn", narrow="auto", devices=2, frontier="auto")


class TestOverlayCacheAccounting:
    @pytest.mark.parametrize("engine_key", list(ENGINES))
    def test_reported_counts_match_the_cache(self, engine_key):
        g = rmat(512, 2048, seed=7)
        cache = RepresentationCache()
        engine = make_engine(engine_key, cache=cache, **ENGINES[engine_key])
        for warm in (False, True):
            tracer = Tracer()
            h0, m0 = cache.counters()
            res = engine.run(g, make_program("cc", g), config=RunConfig(
                tracer=tracer, **OVERLAYS))
            h1, m1 = cache.counters()
            assert (res.cache_hits, res.cache_misses) == (h1 - h0, m1 - m0)
            metrics = tracer.metrics.as_dict()
            assert metrics["cache.hits"]["value"] == res.cache_hits
            assert metrics["cache.misses"]["value"] == res.cache_misses
            assert (res.cache_misses == 0) == warm


class _Calls:
    """Counts calls through monkeypatched functions."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.n: dict[str, int] = {}

    def count(self, name, owners, attr, when=lambda: True):
        original = getattr(owners[0], attr)
        self.n[name] = 0

        def counted(*args, **kwargs):
            if when():
                self.n[name] += 1
            return original(*args, **kwargs)

        for owner in owners:
            self.monkeypatch.setattr(owner, attr, counted)


def _from_ranges() -> bool:
    """Was the counted call made from ``repro.analysis.ranges``?  (Frame 1
    is the counting wrapper; frame 2 made the call.)"""
    return sys._getframe(2).f_globals.get("__name__") == \
        "repro.analysis.ranges"


class TestOverlaySetUp:
    """A warm run with every overlay on pays no per-run set-up pass that
    a cache could serve: the graph is hashed once, and kernel sources,
    degree maxima and remote-unit counts come from memos."""

    @pytest.mark.parametrize("engine_key",
                             ["cusha-cw", "cusha-streamed", "vwc-8"])
    def test_warm_run_repeats_no_set_up(self, engine_key, monkeypatch):
        g = rmat(512, 2048, seed=7)
        engine = make_engine(engine_key, cache=RepresentationCache(),
                             **ENGINES[engine_key])
        config = RunConfig(**OVERLAYS)
        cold = engine.run(g, make_program("cc", g), config=config)

        calls = _Calls(monkeypatch)
        calls.count("getsource", [inspect], "getsource")
        calls.count("fingerprint", [repro.cache], "graph_fingerprint")
        calls.count("remote", [repro.placement, repro.frameworks.driver],
                    "remote_unit_counts")
        calls.count("in_degrees", [DiGraph], "in_degrees", _from_ranges)
        calls.count("out_degrees", [DiGraph], "out_degrees", _from_ranges)
        warm = engine.run(g, make_program("cc", g), config=config)

        assert calls.n == {"getsource": 0, "fingerprint": 1, "remote": 0,
                           "in_degrees": 0, "out_degrees": 0}
        assert warm.values.tobytes() == cold.values.tobytes()
        assert warm.total_ms == cold.total_ms
        assert warm.exchange_bytes == cold.exchange_bytes > 0

    @pytest.mark.parametrize("gates", [{}, {"certify": "warn",
                                            "narrow": "auto"}])
    @pytest.mark.parametrize("validate", ["structure", "perf"])
    @pytest.mark.parametrize("engine_key",
                             ["cusha-cw", "cusha-streamed", "vwc-8"])
    def test_warm_validated_run_hashes_once(self, engine_key, validate,
                                            gates, monkeypatch):
        # The preflight looks its representations and certificates up
        # through the run's cache, so validation adds no graph hash and
        # its lookups count as the run's.
        g = rmat(512, 2048, seed=7)
        cache = RepresentationCache()
        engine = make_engine(engine_key, cache=cache, **ENGINES[engine_key])
        config = RunConfig(validate=validate, **gates)
        h0, m0 = cache.counters()
        cold = engine.run(g, make_program("cc", g), config=config)
        h1, m1 = cache.counters()
        assert (cold.cache_hits, cold.cache_misses) == (h1 - h0, m1 - m0)

        calls = _Calls(monkeypatch)
        calls.count("fingerprint", [repro.cache], "graph_fingerprint")
        warm = engine.run(g, make_program("cc", g), config=config)

        assert calls.n == {"fingerprint": 1}
        assert warm.cache_misses == 0
        assert (warm.cache_hits, 0) == tuple(
            a - b for a, b in zip(cache.counters(), (h1, m1)))
        assert warm.values.tobytes() == cold.values.tobytes()

    def test_single_device_never_counts_remote_units(self, monkeypatch):
        calls = _Calls(monkeypatch)
        calls.count("remote", [repro.placement, repro.frameworks.driver],
                    "remote_unit_counts")
        g = rmat(512, 2048, seed=7)
        for engine_key in ("cusha-cw", "cusha-streamed", "vwc-8"):
            engine = make_engine(engine_key, cache=RepresentationCache(),
                                 **ENGINES[engine_key])
            engine.run(g, make_program("cc", g),
                       config=RunConfig(**dict(OVERLAYS, devices=1)))
        assert calls.n["remote"] == 0
