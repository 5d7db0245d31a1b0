"""The iteration driver: one home for the loop around every engine's sweep.

Two contracts live here.  The design guard keeps the cross-cutting hook
sites in ``frameworks/driver.py`` (and in the independent ``scalar``
oracle), so an overlay is woven into one loop, not one per engine and
path.  The cache-accounting matrix checks that a run's reported
``cache_hits`` / ``cache_misses`` count every lookup the run made,
frontier lookups included.
"""

import re
from pathlib import Path

import pytest

from repro.algorithms import make_program
from repro.cache import RepresentationCache
from repro.frameworks import make_engine
from repro.frameworks.base import RunConfig
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
