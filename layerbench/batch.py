"""The batch workloads: ``matrix-rmat``, ``overlays-dense``, ``overlays-sparse``.

One *pass* runs every cell (engine x program) of a workload once, closed
loop, one client.  Set-up is input generation plus one pass on a fresh
:class:`~repro.cache.RepresentationCache`; the timed passes then reuse
that warm cache, as a paper reproducer's later runs do.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.algorithms import make_program
from repro.cache import RepresentationCache
from repro.frameworks import RunConfig, make_engine
from repro.graph.generators import random_weights, rmat, road_network
from repro.telemetry import Tracer

import checks
import metrics
import report as rep
import spans

RMAT_VERTICES = 60_000
RMAT_EDGES = 240_000
ROAD_ROWS = 1_000
ROAD_COLS = 16
ROAD_SHORTCUTS = 0.0002
SHARD_SIZE = 128
#: R-MAT traversal roots are drawn from this many highest out-degree
#: vertices, so every seed's traversal covers most of the graph.
SOURCE_POOL = 16
#: Road traversal roots are the candidate whose BFS needs the number of
#: levels closest to ROAD_DEPTH.  The lattice's few shortcuts move a
#: random root's depth between about 100 and 270, which would make one
#: seed's pass several times another's.
ROAD_CANDIDATES = 64
ROAD_DEPTH = 180
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
MIN_PASSES = 2

ENGINE_OPTS = {
    "cusha-gs": {"shard_size": SHARD_SIZE},
    "cusha-cw": {"shard_size": SHARD_SIZE},
    "cusha-streamed": {"shard_size": SHARD_SIZE,
                       "device_memory_bytes": 8 * 1024 * 1024},
    "vwc-8": {},
    "mtcpu": {},
}


@dataclass(frozen=True)
class Spec:
    name: str
    salt: int
    graph: str            # "rmat" or "road"
    engines: tuple
    programs: tuple
    overlays: bool


SPECS = {
    s.name: s for s in (
        Spec("matrix-rmat", 1, "rmat",
             ("cusha-gs", "cusha-cw", "cusha-streamed", "vwc-8", "mtcpu"),
             ("pr", "cc", "sssp"), overlays=False),
        Spec("overlays-dense", 2, "rmat",
             ("cusha-cw", "cusha-streamed", "vwc-8"), ("pr", "cc"),
             overlays=True),
        Spec("overlays-sparse", 3, "road",
             ("cusha-cw", "cusha-streamed", "vwc-8"), ("bfs", "sssp"),
             overlays=True),
    )
}


@dataclass
class Inputs:
    graph: object
    source: int
    cells: list           # [(engine, program)]


def near_depth(graph, rng, depth: int, keep: int) -> np.ndarray:
    """Of ROAD_CANDIDATES random vertices, the ``keep`` whose BFS needs the
    number of levels closest to ``depth``."""
    n = graph.num_vertices
    candidates = rng.choice(n, size=ROAD_CANDIDATES, replace=False)
    adjacency = sp.csr_matrix(
        (np.ones(graph.num_edges), (graph.src, graph.dst)), shape=(n, n))
    hops = csgraph.shortest_path(adjacency, unweighted=True,
                                 indices=candidates)
    levels = np.where(np.isfinite(hops), hops, -1).max(axis=1)
    order = np.argsort(np.abs(levels - depth), kind="stable")
    return candidates[order[:keep]]


def pick_source(graph, rng, road: bool) -> int:
    if road:
        return int(near_depth(graph, rng, ROAD_DEPTH, 1)[0])
    pool = np.argsort(-graph.out_degrees(), kind="stable")[:SOURCE_POOL]
    return int(rng.choice(pool))


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Every graph and source of one workload, from ``seed`` alone."""
    rng = np.random.default_rng([seed, spec.salt])
    graph_seed, weight_seed = (int(x) for x in rng.integers(0, 2**31, 2))
    if spec.graph == "rmat":
        g = rmat(RMAT_VERTICES, RMAT_EDGES, seed=graph_seed)
    else:
        g = road_network(ROAD_ROWS, ROAD_COLS,
                         shortcut_fraction=ROAD_SHORTCUTS, seed=graph_seed)
    graph = random_weights(g, seed=weight_seed)
    cells = [(e, p) for e in spec.engines for p in spec.programs]
    return Inputs(graph, pick_source(graph, rng, spec.graph == "road"), cells)


def _program(inputs: Inputs, name: str):
    if name == "pr":
        return make_program("pr", inputs.graph, tolerance=checks.PR_TOLERANCE)
    if name in ("bfs", "sssp"):
        return make_program(name, inputs.graph, source=inputs.source)
    return make_program(name, inputs.graph)


def _config(spec: Spec) -> RunConfig:
    if spec.overlays:
        return RunConfig(frontier="auto", narrow="auto", certify="warn",
                         devices=4, tracer=Tracer())
    return RunConfig()


def run_pass(spec: Spec, inputs: Inputs, cache, tracer=None):
    """One pass: ``[(wall_s, RunResult, config)]`` in cell order."""
    out = []
    for engine, program in inputs.cells:
        eng = make_engine(engine, cache=cache, **ENGINE_OPTS[engine])
        prog = _program(inputs, program)
        config = _config(spec)
        if tracer is not None:
            config = config.with_tracer(tracer)
        t0 = time.perf_counter()
        result = eng.run(inputs.graph, prog, config=config)
        out.append((time.perf_counter() - t0, result, config))
    return out


def verify(inputs, results, report, oracle) -> None:
    """Compare one pass's values with the oracles (outside any timing)."""
    for (engine, program), result in zip(inputs.cells, results):
        source = inputs.source if program in ("bfs", "sssp") else None
        if not oracle.check(inputs.graph, program, source, result.values):
            report.wrong += 1
            report.failed += 1
            report.note(f"WRONG ANSWER {engine}/{program}")


def measure(spec: Spec, seed: int, seconds: float, report) -> None:
    """The untraced run: end-to-end metrics."""
    with rep.Calibration() as calibration:
        calibration.sample(3)
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            inputs = make_inputs(spec, seed)
            cache = RepresentationCache()
            cold = run_pass(spec, inputs, cache)
            setups.append(time.perf_counter() - t0)
        reference = [r for _, r, _ in cold]
        report.attempted += SETUPS * len(cold)

        walls, passes = [], 0
        deadline = time.perf_counter() + seconds
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            calibration.sample()
            for (wall, result, _), ref, cell in zip(
                    run_pass(spec, inputs, cache), reference, inputs.cells):
                walls.append(wall)
                report.attempted += 1
                if not checks.same_run(result, ref):
                    report.wrong += 1
                    report.failed += 1
                    report.note(f"NOT REPRODUCIBLE {cell[0]}/{cell[1]}")
            passes += 1
    # Before the checkers allocate their golden answers.
    rss = rep.peak_rss_mb()
    verify(inputs, reference, report, checks.Oracle())

    n = len(walls)
    tail = rep.guide_tail(n)
    speed = calibration.factor
    report.add("setup_s", speed * statistics.median(setups), "s", SETUPS)
    report.add("lat_ms_geomean", speed * 1e3 * rep.geomean(walls), "ms", n)
    report.add("setup_s.wall", statistics.median(setups), "s", SETUPS)
    report.add("lat_ms_geomean.wall", 1e3 * rep.geomean(walls), "ms", n)
    report.add("calibration_ms", statistics.median(calibration.samples),
               "ms", len(calibration.samples))
    for q in sorted({50, 90, 95, tail}):
        report.add(f"run_s_p{q:g}", rep.percentile(walls, q), "s", n)
    report.add("wall_teps", inputs.graph.num_edges * n / sum(walls),
               "edges/s", n)
    report.add("model_ms", sum(r.total_ms for r in reference), "ms",
               len(reference))
    report.add("iterations", sum(r.iterations for r in reference), "count",
               len(reference))
    report.add("peak_rss_mb", rss, "MB", 1)
    report.add("fail_ratio", report.failed / report.attempted, "ratio",
               report.attempted)
    report.note(f"{passes} warm passes; p{tail:g} is the highest percentile "
                f"with at least ten of the {n} runs beyond it")


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

#: Fig-10 stage of each program stage/transfer span name.  Streamed chunk
#: spans are ``chunk-<k>-compute`` / ``chunk-<k>-h2d``; VWC's lockstep
#: phases map onto the CuSha stage doing the same job.
STAGE_OF_SPAN = {
    "stage1-fetch": "fetch", "stage2-compute": "compute",
    "stage3-update": "update", "stage4-writeback": "writeback",
    "compute": "compute", "writeback": "writeback",
    "sisd": "fetch", "edge-loop": "compute", "reduction": "update",
    "stores": "writeback",
    "h2d": "h2d", "d2h": "d2h", "exchange": "exchange",
}


def stage_of(span_name: str) -> str:
    if span_name.startswith("chunk-"):
        span_name = span_name.split("-", 2)[2]
    return STAGE_OF_SPAN[span_name]


def stage_ms(tracers) -> dict[str, float]:
    out = {s: 0.0 for s in metrics.STAGES}
    for tracer in tracers:
        for span in tracer.spans:
            if span.kind in ("stage", "transfer"):
                out[stage_of(span.name)] += span.model_ms
    return out


def model_counts(results) -> dict[str, float]:
    """Exact model-clock counts of one pass."""
    lanes = sum(r.stats.active_lane_slots for r in results)
    slots = sum(r.stats.total_lane_slots for r in results)
    skipped = sum(r.shards_skipped for r in results)
    active = sum(t.active_shards for r in results for t in r.traces)
    return {
        "graph.rep_bytes": sum(r.representation_bytes for r in results),
        "frameworks.iterations": sum(r.iterations for r in results),
        "gpu.transactions": sum(r.stats.total_transactions for r in results),
        "gpu.bytes_moved": sum(r.stats.load_bytes_moved
                               + r.stats.store_bytes_moved
                               for r in results),
        "gpu.warp_exec_eff": rep.ratio(lanes, slots),
        "gpu.transfer_ms": sum(r.h2d_ms + r.d2h_ms for r in results),
        "frontier.skip_ratio": rep.ratio(skipped, skipped + active),
        "frontier.edges_processed": sum(r.edges_processed for r in results),
        "placement.exchange_bytes": sum(r.exchange_bytes for r in results),
        "placement.exchange_ms": sum(r.exchange_ms for r in results),
    }


def trace(spec: Spec, seed: int, report, out_path) -> None:
    """The traced run: one cold and one warm pass, untraced and then
    traced, with identical exact counts; per-layer metrics."""
    inputs = make_inputs(spec, seed)
    # A first pass warms the process (imports, allocator), so that neither
    # side of trace.overhead_ratio pays for it.
    first = run_pass(spec, inputs, RepresentationCache())
    cache = RepresentationCache()
    untraced = run_pass(spec, inputs, cache)
    untraced += run_pass(spec, inputs, cache)
    cells = len(inputs.cells)
    warm = [r for _, r, _ in untraced[cells:]]

    recorder = spans.SpanRecorder()
    traced_cache = RepresentationCache()
    with spans.Patcher(recorder):
        traced = run_pass(spec, inputs, traced_cache)
        traced += run_pass(spec, inputs, traced_cache)
    report.attempted += len(first) + len(untraced) + len(traced)
    for (_, a, _), (_, b, _) in zip(first + untraced, untraced + traced):
        if not checks.same_run(a, b):
            report.wrong += 1
            report.failed += 1
            report.note(f"traced run diverged: {a.engine}/{a.program}")
    verify(inputs, warm, report, checks.Oracle())
    recorder.write_jsonl(out_path)

    if spec.overlays:
        tracers = [c.tracer for _, _, c in untraced[cells:]]
    else:
        # Stage spans need a program Tracer; this extra pass is priced on
        # the model clock only and its counts must match the warm pass.
        tracer = Tracer()
        extra = run_pass(spec, inputs, cache, tracer=tracer)
        report.attempted += len(extra)
        for (_, a, _), b in zip(extra, warm):
            if not checks.same_run(a, b):
                report.wrong += 1
                report.failed += 1
        tracers = [tracer]
    per_layer, root_wall = spans.layer_self_seconds(recorder.spans)
    overhead = sum(w for w, _, _ in traced[cells:]) / sum(
        w for w, _, _ in untraced[cells:])
    hits, misses = traced_cache.counters()
    iterations = sum(r.iterations for _, r, _ in traced)

    for layer, name in metrics.LAYER_SECONDS.items():
        report.add(name, per_layer[layer], n="traced")
    report.add("frameworks.run_s", root_wall, n=len(traced))
    report.add("analysis.gate_share", per_layer["analysis"] / root_wall)
    report.add("frameworks.self_s_per_iter",
               per_layer["frameworks"] / iterations, n=iterations)
    report.add("cache.hit_ratio", hits / (hits + misses), n=hits + misses)
    report.add("cache.misses", misses)
    for name, value in model_counts(warm).items():
        report.add(name, value, n="warm pass")
    for stage, ms in stage_ms(tracers).items():
        report.add(f"gpu.stage_ms.{stage}", ms, n="warm pass")
    report.add("telemetry.spans",
               sum(len(t.spans) for t in tracers) if spec.overlays else 0)
    report.add("trace.overhead_ratio", overhead, n="warm pass")
    report.note(f"traced region: 1 cold + 1 warm pass; layer self times sum "
                f"to {sum(per_layer.values()):.6f} s of {root_wall:.6f} s "
                f"Engine.run wall")
