"""The benchmark's metric tables; ``BENCHMARK.json`` mirrors them.

End-to-end metrics are printed on every workload with ``--trace 0``.
Batch workloads (``matrix-rmat``, ``overlays-*``) time one warm
``Engine.run`` per sample; ``service-mix`` times one request, from when it
was due to when it finished:

- ``setup_s``: the median of several set-ups.  Batch: graph generation
  plus one pass on a fresh cache.  Service: start plus a warm-up on the
  hot graphs.
- ``lat_ms_geomean``: geometric mean of the samples.  Batch: every warm
  ``Engine.run``; the geometric mean weighs each cell alike, where a
  percentile over cells of very different cost jumps between cells from
  seed to seed.  Service: every request at the light and heavy rates.
- ``model_ms``: batch: modeled ms of one pass, ``sum(RunResult.total_ms)``,
  the paper's quantity; service: geometric mean modeled ms per served
  request (a coalesced run's time is split evenly across its jobs).
- ``peak_rss_mb``: peak resident memory of the process before the
  correctness checks run.

``setup_s`` and ``lat_ms_geomean`` are scaled to the reference machine
speed by ``report.Calibration``; the table also prints them unscaled
(``.wall``).  Bounds: even scaled, wall-clock figures on a shared 2-core
VM spread 0.1-0.2 between runs minutes apart, so their bounds sit at the
0.25 maximum.  ``model_ms`` repeats exactly for a seed; its bound covers
the spread between seeds' inputs and, on ``service-mix``, how requests
were coalesced and shed.

Per-layer metrics are printed with ``--trace 1``; ``README.md`` records
which end-to-end metric each should move, and on which workload.
"""

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("lat_ms_geomean", "ms", "lower", 0.25),
    ("model_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Fig-10 stages of ``gpu.stage_ms.<stage>``.
STAGES = ("fetch", "compute", "update", "writeback", "h2d", "d2h",
           "exchange")

PER_LAYER = (
    # name, unit, better
    ("graph.build_s", "s", "lower"),
    ("graph.rep_bytes", "bytes", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.get_s", "s", "lower"),
    ("analysis.gate_s", "s", "lower"),
    ("analysis.gate_share", "ratio", "lower"),
    ("frameworks.run_s", "s", "lower"),
    ("frameworks.self_s", "s", "lower"),
    ("frameworks.self_s_per_iter", "s", "lower"),
    ("frameworks.iterations", "count", "lower"),
    ("algorithms.kernel_s", "s", "lower"),
    ("gpu.cost_s", "s", "lower"),
    ("gpu.transactions", "count", "lower"),
    ("gpu.bytes_moved", "bytes", "lower"),
    ("gpu.warp_exec_eff", "ratio", "higher"),
    ("gpu.transfer_ms", "ms", "lower"),
) + tuple((f"gpu.stage_ms.{s}", "ms", "lower") for s in STAGES) + (
    ("frontier.mark_s", "s", "lower"),
    ("frontier.skip_ratio", "ratio", "higher"),
    ("frontier.edges_processed", "count", "lower"),
    ("narrow.widen_s", "s", "lower"),
    ("placement.account_s", "s", "lower"),
    ("placement.exchange_bytes", "bytes", "lower"),
    ("placement.exchange_ms", "ms", "lower"),
    ("telemetry.emit_s", "s", "lower"),
    ("telemetry.spans", "count", "lower"),
    ("service.self_s", "s", "lower"),
    ("service.submit_ms_p50", "ms", "lower"),
    ("service.submit_ms_p99", "ms", "lower"),
    ("service.queue_ms_p99", "ms", "lower"),
    ("service.exec_ms_p50", "ms", "lower"),
    ("service.batch_mean", "count", "higher"),
    ("service.coalesce_ratio", "ratio", "higher"),
    ("service.shed_ratio", "ratio", "lower"),
    ("service.backlog_max", "count", "lower"),
    ("loadgen.lag_ms_p99", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: The per-layer self-time metric of each traced layer (spans.LAYERS).
LAYER_SECONDS = {
    "graph": "graph.build_s",
    "cache": "cache.get_s",
    "analysis": "analysis.gate_s",
    "frameworks": "frameworks.self_s",
    "algorithms": "algorithms.kernel_s",
    "gpu": "gpu.cost_s",
    "frontier": "frontier.mark_s",
    "narrow": "narrow.widen_s",
    "placement": "placement.account_s",
    "telemetry": "telemetry.emit_s",
    "service": "service.self_s",
}

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
