"""Golden engine traces: every span, metric and result field, byte for byte.

Five engines × {fast, reference} × {plain, ``frontier="auto"`` on two
devices} run connected components on a small R-MAT and BFS on a small road
lattice, always with a :class:`~repro.telemetry.Tracer`.  Each run is
rendered as text: every span in emission order (kind, name, parent name,
model start and duration, sorted attributes and stats fields), the metrics
snapshot, and the :class:`~repro.frameworks.base.RunResult` fields that
carry the model clock (iterations, stats, stage stats, traces, frontier and
exchange counts, cache counts, and digests of the values and the frontier
mask).  Wall times and span ids are left out, so the rendering is
deterministic.

The rendering is compared with the committed
``tests/golden/engine_traces.expected``; the ``.actual`` file is written
under ``tmp_path`` so a failing run can be diffed by hand.  Any change to
what an engine loop computes, emits or publishes shows up as a diff.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.algorithms import make_program
from repro.frameworks import make_engine
from repro.frameworks.base import RunConfig
from repro.graph.generators import rmat, road_network
from repro.gpu.stats import KernelStats
from repro.telemetry.tracer import Tracer

GOLDEN = Path(__file__).parent / "golden" / "engine_traces.expected"

ENGINES = {
    # |N| = 2 gives 128 shards on the R-MAT: three waves of 48 blocks.
    "cusha-gs": {"shard_size": 2},
    "cusha-cw": {"shard_size": 2},
    "cusha-streamed": {"shard_size": 2, "device_memory_bytes": 4 * 1024},
    "vwc-8": {"chunk_vertices": 8},
    "mtcpu": {},
}

WORKLOADS = {
    "cc/rmat": ("cc", lambda: rmat(256, 1024, seed=3)),
    # A long two-lane lattice split one row per shard: after the first
    # full sweep the BFS frontier is a few units wide, so "auto" pushes.
    "bfs/road": ("bfs", lambda: road_network(80, 2, shortcut_fraction=0.0,
                                             seed=1)),
}

#: Caps the road BFS (about 80 levels) to keep the file small; those runs
#: end unconverged under ``allow_partial``.
MAX_ITERATIONS = 20

MODES = {
    "plain": {},
    "auto-2dev": {"frontier": "auto", "devices": 2},
}


def _num(x):
    """Exact text of a number: ``repr`` of floats, ``int`` otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(x)


def _fields(d) -> str:
    return " ".join(f"{k}={_num(d[k])}" for k in sorted(d))


#: Stats render as bare values in this (sorted) field order.
STAT_KEYS = tuple(sorted(vars(KernelStats())))


def _stats(d) -> str:
    assert tuple(sorted(d)) == STAT_KEYS
    return ",".join(_num(d[k]) for k in STAT_KEYS)


def _digest(arr) -> str:
    if arr is None:
        return "None"
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _render_run(engine_key, workload, path, mode) -> list[str]:
    program_name, make_graph = WORKLOADS[workload]
    graph = make_graph()
    tracer = Tracer()
    engine = make_engine(engine_key, cache=False, **ENGINES[engine_key])
    result = engine.run(
        graph, make_program(program_name, graph),
        config=RunConfig(exec_path=path, max_iterations=MAX_ITERATIONS,
                         allow_partial=True, tracer=tracer, **MODES[mode]),
    )
    lines = [f"== {engine_key} {workload} {path} {mode}"]
    by_id = {s.span_id: s for s in tracer.spans}
    for s in tracer.spans:
        parent = by_id[s.parent_id].name if s.parent_id in by_id else "-"
        line = (f"  {s.kind} {s.name} <{parent}> "
                f"start={_num(s.model_start_ms)} ms={_num(s.model_ms)}")
        if s.attrs:
            line += f" | {_fields(s.attrs)}"
        if s.stats is not None:
            line += f" | stats {_stats(s.stats)}"
        lines.append(line)
    lines.append("  metrics " + json.dumps(tracer.metrics.as_dict(),
                                           sort_keys=True))
    r = result
    lines.append(
        f"  result iterations={r.iterations} converged={r.converged} "
        f"completed={r.completed} exec_path={r.exec_path} "
        f"devices={r.devices}")
    lines.append(
        f"  result kernel_time_ms={_num(r.kernel_time_ms)} "
        f"h2d_ms={_num(r.h2d_ms)} d2h_ms={_num(r.d2h_ms)} "
        f"representation_bytes={r.representation_bytes}")
    lines.append(f"  result stats {_stats(vars(r.stats))}")
    for name in sorted(r.stage_stats or {}):
        lines.append(f"  result stage {name} "
                     f"{_stats(vars(r.stage_stats[name]))}")
    for t in r.traces:
        lines.append(
            f"  trace {t.iteration} updated={t.updated_vertices} "
            f"ms={_num(t.time_ms)} cum={_num(t.cumulative_time_ms)} "
            f"active={t.active_shards}")
    lines.append(
        f"  result edges_processed={r.edges_processed} "
        f"shards_skipped={r.shards_skipped} "
        f"exchange_bytes={r.exchange_bytes} "
        f"exchange_ms={_num(r.exchange_ms)} "
        f"cache_hits={r.cache_hits} cache_misses={r.cache_misses}")
    lines.append(f"  result values={_digest(r.values)} "
                 f"frontier_mask={_digest(r.frontier_mask)}")
    return lines


def render_traces() -> str:
    lines = ["stats fields: " + ",".join(STAT_KEYS)]
    for engine_key in ENGINES:
        for workload in WORKLOADS:
            for path in ("fast", "reference"):
                for mode in MODES:
                    lines.extend(_render_run(engine_key, workload, path, mode))
    return "\n".join(lines) + "\n"


def test_engine_traces_match_golden(tmp_path):
    actual = render_traces()
    (tmp_path / "engine_traces.actual").write_text(actual)
    expected = GOLDEN.read_text()
    assert actual == expected
