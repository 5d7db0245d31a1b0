"""Golden ``frontier="auto"`` schedule: direction, work and model time.

Each traced iteration of four sharded engines × {PageRank on a small
R-MAT, BFS on a small road lattice} is rendered as one line holding its
push/pull direction, the units it processed, the vertices it updated and
its modeled milliseconds.  The rendering is compared with the committed
``tests/golden/frontier_auto_schedule.expected``; the ``.actual`` file is
written under ``tmp_path`` so a failing run can be diffed by hand.  Any
change to how the frontier schedules its sweeps, or what they cost on
the model clock, shows up as a diff of that file.
"""

from pathlib import Path

from repro.algorithms import make_program
from repro.frameworks import make_engine
from repro.frameworks.base import RunConfig
from repro.graph.generators import rmat, road_network
from repro.telemetry.tracer import Tracer

GOLDEN = Path(__file__).parent / "golden" / "frontier_auto_schedule.expected"

ENGINES = {
    "cusha-gs": {"shard_size": 8},
    "cusha-cw": {"shard_size": 8},
    "cusha-streamed": {"shard_size": 8, "device_memory_bytes": 24 * 1024},
    "vwc-8": {"chunk_vertices": 8},
}

WORKLOADS = {
    "pr/rmat": ("pr", lambda: rmat(2048, 8192, seed=5)),
    # Long and thin with a few shortcuts: the frontier switches between
    # push and pull in both directions several times.
    "bfs/road": ("bfs", lambda: road_network(160, 3, shortcut_fraction=0.003,
                                             seed=1)),
}


def _schedule(engine_key, workload):
    program_name, make_graph = WORKLOADS[workload]
    graph = make_graph()
    tracer = Tracer()
    engine = make_engine(engine_key, cache=False, **ENGINES[engine_key])
    result = engine.run(
        graph, make_program(program_name, graph),
        config=RunConfig(frontier="auto", max_iterations=500, tracer=tracer),
    )
    lines = [f"{engine_key} {workload}: {result.iterations} iterations, "
             f"converged={result.converged}"]
    for span in tracer.spans:
        if span.kind != "iteration":
            continue
        a = span.attrs
        lines.append(
            f"  {span.name:>8} {a['frontier_direction']:<4} "
            f"active={a['active_shards']} updated={a['updated_vertices']} "
            f"model_ms={round(span.model_ms, 6)!r}"
        )
    return lines


def render_schedules() -> str:
    lines = []
    for engine_key in ENGINES:
        for workload in WORKLOADS:
            lines.extend(_schedule(engine_key, workload))
    return "\n".join(lines) + "\n"


def test_auto_schedule_matches_golden(tmp_path):
    actual = render_schedules()
    (tmp_path / "frontier_auto_schedule.actual").write_text(actual)
    expected = GOLDEN.read_text()
    assert actual == expected
