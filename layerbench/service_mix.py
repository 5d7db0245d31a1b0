"""The ``service-mix`` workload: open-loop Poisson traffic against
``Service(workers=2)``.

The generator runs on one client thread.  It submits each request when it
falls due, and between submissions it polls the outstanding handles for
completion, so no thread waits per request.  Each latency runs from the
request's *due* time to the poll that saw it finish, which charges the
wait a stalled generator imposes on later requests; how late the
generator itself ran is reported as ``loadgen.lag_ms_p99``.

The traffic is a fixed ladder of arrival rates, each held for a fixed
share of ``--seconds``.  Every graph, source, tenant and arrival comes
from the seed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.frameworks import make_engine
from repro.algorithms import make_program
from repro.graph.generators import random_weights, rmat, road_network
from repro.service import JobRequest, Service, TenantQuota
from repro.service.quotas import job_cost

import batch
import checks
import metrics
import report as rep
import spans

HOT_RMAT = 3
RMAT_VERTICES = 8_000
RMAT_EDGES = 48_000
ROAD_ROWS = 250
ROAD_COLS = 16
ROAD_SHORTCUTS = 0.0002
TENANTS = ("t0", "t1", "t2", "t3")
#: ``t3`` may spend the model cost of this many BFS queries on the first
#: hot graph before its jobs are shed to a degraded engine.
BUDGET_QUERIES = 6
#: The request mix, drawn in shuffled blocks of 20 so every stretch of
#: traffic carries it exactly: 16 bfs/sssp queries on the hot graphs
#: (2 per graph and program), 3 whole-graph pr/cc jobs on hot graphs, and
#: 1 query on a graph the service has never seen.
WHOLE_PER_BLOCK = 3
#: R-MAT query sources come from this many highest out-degree vertices,
#: so a query traverses most of its graph; road query sources from the
#: vertices whose BFS depth is nearest ROAD_DEPTH (see batch.near_depth).
SOURCE_POOL = 256
ROAD_DEPTH = 150
ROAD_POOL = 16

#: Arrival rates in requests/s.  A request costs about 35 ms of one core
#: (2-core x86 VM), and the two workers share one interpreter lock, so the
#: service keeps up to about 20 qps.  ``light`` and ``heavy`` sit far below
#: that knee: when the VM is contended, queueing multiplies the slowdown
#: several times over in the service's latency (a 10% slower calibration
#: kernel came with up to 2x the latency at 6 and 11 qps).  Each rung runs
#: for its share of ``--seconds``; the short rungs at and past the knee
#: only feed ``qps_at_slo``.
LIGHT_QPS = 4.0
HEAVY_QPS = 8.0
LADDER = ((LIGHT_QPS, 0.45), (HEAVY_QPS, 0.45), (20.0, 0.05), (32.0, 0.05))
#: Latency limit on the tail percentile for ``qps_at_slo``.
SLO_MS = 500.0
TAIL = 90.0
SETUPS = 5
#: Seconds the generator waits for stragglers after a rung's last arrival.
DRAIN_S = 20.0
POLL_S = 0.001


@dataclass
class Request:
    due: float             # seconds after the rung starts
    graph: object
    program: str
    source: int | None
    tenant: str


@dataclass
class Inputs:
    hot: list
    rungs: list            # [(qps, seconds, [Request])]


@dataclass
class Graph:
    """A graph and the pool its query sources are drawn from."""
    graph: object
    sources: np.ndarray


def _graph(kind: str, rng) -> Graph:
    graph_seed, weight_seed = (int(x) for x in rng.integers(0, 2**31, 2))
    if kind == "rmat":
        g = random_weights(rmat(RMAT_VERTICES, RMAT_EDGES, seed=graph_seed),
                           seed=weight_seed)
        pool = np.argsort(-g.out_degrees(), kind="stable")[:SOURCE_POOL]
    else:
        g = random_weights(road_network(ROAD_ROWS, ROAD_COLS,
                                        shortcut_fraction=ROAD_SHORTCUTS,
                                        seed=graph_seed), seed=weight_seed)
        pool = batch.near_depth(g, rng, ROAD_DEPTH, ROAD_POOL)
    return Graph(g, pool)


def _block(rng, hot: list) -> list:
    """One shuffled block of the mix: ``[(program, graph index or None)]``,
    ``None`` for a never-seen graph."""
    queries = [(p, g) for g in range(len(hot)) for p in ("bfs", "sssp")] * 2
    whole = [(p, g) for g in range(len(hot)) for p in ("pr", "cc")]
    picks = rng.choice(len(whole), size=WHOLE_PER_BLOCK, replace=False)
    block = queries + [whole[int(i)] for i in picks]
    block.append((("bfs", "sssp")[int(rng.integers(2))], None))
    return [block[int(i)] for i in rng.permutation(len(block))]


def schedule(rng, qps: float, seconds: float, hot: list) -> list:
    """Poisson arrivals at ``qps`` for ``seconds``, carrying the mix."""
    out, t, mix = [], 0.0, []
    tenants: list[str] = []
    while True:
        t += rng.exponential(1.0 / qps)
        if t >= seconds:
            return out
        if not mix:
            mix = _block(rng, hot)
            tenants = [TENANTS[int(i)] for i in rng.permutation(
                np.arange(len(mix)) % len(TENANTS))]
        program, index = mix.pop()
        graph = _graph("rmat", rng) if index is None else hot[index]
        source = int(rng.choice(graph.sources)) \
            if program in ("bfs", "sssp") else None
        out.append(Request(t, graph.graph, program, source, tenants.pop()))


def make_inputs(seed: int, seconds: float) -> Inputs:
    """Every graph, source and arrival of one run, from ``seed`` alone."""
    rng = np.random.default_rng([seed, 4])
    hot = [_graph("rmat", rng) for _ in range(HOT_RMAT)] + [_graph("road", rng)]
    return Inputs([h.graph for h in hot],
                  [(qps, share * seconds,
                    schedule(rng, qps, share * seconds, hot))
                   for qps, share in LADDER])


def start_service(inputs: Inputs) -> Service:
    """Start the service and warm it on every hot graph and program."""
    probe = make_program("bfs", inputs.hot[0], source=0)
    budget = BUDGET_QUERIES * job_cost(make_engine("cusha-cw"), inputs.hot[0],
                                       probe)
    service = Service(workers=2,
                      quotas={"t3": TenantQuota(cost_budget=budget)})
    service.run_batch(
        JobRequest(g, p, source=0 if p in ("bfs", "sssp") else None,
                   tenant="warmup")
        for g in inputs.hot for p in ("bfs", "sssp", "pr", "cc"))
    return service


@dataclass
class Outcome:
    request: Request
    due: float
    lag: float = 0.0
    submitted: float = 0.0
    done: float = float("inf")
    handle: object = None
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


def drive(service: Service, requests: list) -> tuple[list, list]:
    """Run one open-loop schedule; returns outcomes and backlog samples
    ``(t, outstanding)``."""
    outcomes = []
    pending: list[Outcome] = []
    backlog = []
    clock = time.perf_counter
    base = clock() + 0.01
    i = 0
    deadline = None
    while i < len(requests) or pending:
        now = clock()
        if i < len(requests) and now >= base + requests[i].due:
            req = requests[i]
            out = Outcome(req, base + req.due)
            t0 = clock()
            out.lag = t0 - out.due
            try:
                out.handle = service.submit(JobRequest(
                    req.graph, req.program, source=req.source,
                    tenant=req.tenant))
            except Exception as exc:  # refused: counts as failed
                out.error = f"{type(exc).__name__}: {exc}"
            out.submitted = clock()
            outcomes.append(out)
            if out.handle is not None:
                pending.append(out)
            i += 1
            continue
        still = []
        for out in pending:
            if out.handle.poll() in ("done", "failed", "cancelled"):
                out.done = now
            else:
                still.append(out)
        pending = still
        backlog.append((now - base, len(pending)))
        if i == len(requests):
            deadline = deadline or now + DRAIN_S
            if now > deadline:
                for out in pending:
                    out.error = "not finished within the drain limit"
                break
            wait = POLL_S
        else:
            wait = min(POLL_S, base + requests[i].due - clock())
        if wait > 0:
            time.sleep(wait)
    service.drain()
    return outcomes, backlog


def backlog_grows(backlog, seconds: float) -> bool:
    """Outstanding work in the last quarter of the schedule well above the
    second quarter's: the service is falling behind."""
    def mean(lo, hi):
        xs = [n for t, n in backlog if lo <= t < hi]
        return statistics.fmean(xs) if xs else 0.0
    return mean(0.75 * seconds, seconds) > 2.0 * mean(0.25 * seconds,
                                                      0.5 * seconds) + 4


def account(outcomes, report, oracle) -> list:
    """Count failures and wrong answers; returns the finished outcomes.

    Every answer is compared with a golden answer computed for that
    request alone.  A refused, failed or wrong request gets an infinite
    latency, so it misses any latency limit.
    """
    finished = []
    for out in outcomes:
        report.attempted += 1
        try:
            if out.handle is None or out.error:
                raise RuntimeError(out.error)
            req = out.request
            values = out.handle.result(timeout=60).values
        except Exception:  # refused, or the job raised
            report.failed += 1
            out.done = float("inf")
            continue
        # The service builds PageRank at its default tolerance.
        tol = 1e-3 if req.program == "pr" else checks.PR_TOLERANCE
        if not oracle.check(req.graph, req.program, req.source, values,
                            pr_tolerance=tol):
            report.wrong += 1
            report.failed += 1
            out.done = float("inf")
            report.note(f"WRONG ANSWER {req.program} source={req.source}")
            continue
        finished.append(out)
    return finished


def measure(seed: int, seconds: float, report) -> None:
    """The untraced run: end-to-end metrics at every rate of the ladder."""
    inputs = make_inputs(seed, seconds)
    with rep.Calibration() as calibration:
        calibration.sample(5)
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            service = start_service(inputs)
            setups.append(time.perf_counter() - t0)
            if len(setups) < SETUPS:
                service.close()
        rungs = []
        try:
            for qps, duration, requests in inputs.rungs:
                outcomes, backlog = drive(service, requests)
                rungs.append((qps, duration, outcomes, backlog))
                calibration.sample(3)  # the service is drained and idle
        finally:
            service.close()
    oracle = checks.Oracle()

    # Before the checkers allocate their golden answers.
    report.add("peak_rss_mb", rep.peak_rss_mb(), "MB", 1)
    speed = calibration.factor
    report.add("setup_s", speed * statistics.median(setups), "s", SETUPS)
    report.add("setup_s.wall", statistics.median(setups), "s", SETUPS)
    report.add("calibration_ms", statistics.median(calibration.samples),
               "ms", len(calibration.samples))
    model, lags, named = [], [], []
    qps_ok = 0.0
    for qps, duration, outcomes, backlog in rungs:
        finished = account(outcomes, report, oracle)
        lat = [o.latency_ms for o in outcomes]
        lags += [o.lag * 1e3 for o in outcomes]
        model += [o.handle.result().total_ms for o in finished]
        growing = backlog_grows(backlog, duration)
        tag = {LIGHT_QPS: ".light", HEAVY_QPS: ".heavy"}.get(qps, "")
        if tag:
            named += lat
        n = len(lat)
        for q in (50, TAIL, 99):
            report.add(f"lat_ms_p{q:g}@{qps:g}qps{tag}",
                       rep.percentile(lat, q), "ms", n)
        report.note(f"{qps:g} qps for {duration:g} s: {n} requests, guide "
                    f"tail p{rep.guide_tail(n):g}, backlog "
                    f"{'GROWING' if growing else 'steady'}, peak outstanding "
                    f"{max((b for _, b in backlog), default=0)}")
        if rep.percentile(lat, TAIL) <= SLO_MS and not growing:
            qps_ok = max(qps_ok, qps)
    report.add("lat_ms_geomean", speed * rep.geomean(named), "ms",
               len(named))
    report.add("lat_ms_geomean.wall", rep.geomean(named), "ms", len(named))
    report.add("qps_at_slo", qps_ok, "1/s", len(rungs))
    report.note(f"qps_at_slo: highest of {[q for q, _ in LADDER]} qps with "
                f"p{TAIL:g} <= {SLO_MS:g} ms and a steady backlog")
    report.add("model_ms", rep.geomean(model), "ms", len(model))
    report.add("model_ms.mean", statistics.fmean(model), "ms", len(model))
    report.add("loadgen.lag_ms_p99", rep.percentile(lags, 99), "ms",
               len(lags))
    report.add("fail_ratio", rep.ratio(report.failed, report.attempted),
               "ratio", report.attempted)


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

SUBMIT = "repro.service.api.Service.submit"
EXECUTE = "repro.service.scheduler.Scheduler._execute"
ENGINE_RUN = "repro.frameworks.base.Engine.run"


def trace(seed: int, seconds: float, report, out_path) -> None:
    """The rate ladder untraced, then the same schedules traced on a fresh
    service; per-layer and service metrics."""
    inputs = make_inputs(seed, seconds)
    oracle = checks.Oracle()

    def run_all():
        service = start_service(inputs)
        runs = []
        try:
            for _qps, _seconds, requests in inputs.rungs:
                runs.append(drive(service, requests))
        finally:
            service.close()
        return runs

    untraced = run_all()
    recorder = spans.SpanRecorder()
    started: dict[str, float] = {}
    groups: list[int] = []

    def on_execute(_scheduler, group):
        now = time.perf_counter()
        groups.append(len(group))
        for job in group:
            started[job.id] = now

    recorder.hooks[EXECUTE] = on_execute
    with spans.Patcher(recorder):
        traced = run_all()
    recorder.write_jsonl(out_path)

    lat_u, lat_t, lags, finished = [], [], [], []
    for (out_u, _), (out_t, _) in zip(untraced, traced):
        account(out_u, report, oracle)
        finished += account(out_t, report, oracle)
        lat_u += [o.latency_ms for o in out_u]
        lat_t += [o.latency_ms for o in out_t]
        lags += [o.lag * 1e3 for o in out_u]
        for u, t in zip(out_u, out_t):
            if u.handle is not None and t.handle is not None and \
                    u.handle.result().values.tobytes() != \
                    t.handle.result().values.tobytes():
                report.wrong += 1
                report.failed += 1
                report.note("traced service answer diverged")
    queue = [(started[o.handle.job_id] - o.submitted) * 1e3
             for o in finished if o.handle.job_id in started]
    batchable = [o for o in finished
                 if o.request.program in ("bfs", "sssp") and not o.handle.shed]
    submits = [(s[5] - s[4]) * 1e3 for s in recorder.spans if s[2] == SUBMIT]
    execs = [(s[5] - s[4]) * 1e3 for s in recorder.spans if s[2] == EXECUTE]

    per_layer, _ = spans.layer_self_seconds(recorder.spans,
                                            roots=(SUBMIT, EXECUTE))
    for layer, name in metrics.LAYER_SECONDS.items():
        report.add(name, per_layer[layer], n="traced")
    run_wall = sum(s[5] - s[4] for s in recorder.spans if s[2] == ENGINE_RUN)
    report.add("frameworks.run_s", run_wall)
    report.add("analysis.gate_share", rep.ratio(per_layer["analysis"],
                                                run_wall))
    results = [o.handle.result() for o in finished]
    iterations = sum(r.iterations for r in results)
    report.add("frameworks.iterations", iterations, n=len(results))
    report.add("frameworks.self_s_per_iter",
               rep.ratio(per_layer["frameworks"], iterations))
    hits = sum(r.cache_hits for r in results)
    misses = sum(r.cache_misses for r in results)
    report.add("cache.hit_ratio", rep.ratio(hits, hits + misses),
               n=hits + misses)
    report.add("cache.misses", misses)
    for q in (50, 99):
        report.add(f"service.submit_ms_p{q}", rep.percentile(submits, q),
                   n=len(submits))
    report.add("service.queue_ms_p99", rep.percentile(queue, 99), n=len(queue))
    report.add("service.exec_ms_p50", rep.percentile(execs, 50), n=len(execs))
    report.add("service.batch_mean", rep.ratio(sum(groups), len(groups)),
               n=len(groups))
    report.add("service.coalesce_ratio",
               rep.ratio(sum(o.handle.batched_with > 1 for o in batchable),
                         len(batchable)), n=len(batchable))
    report.add("service.shed_ratio",
               rep.ratio(sum(o.handle.shed for o in finished), len(finished)),
               n=len(finished))
    report.add("service.backlog_max",
               max(b for _, backlog in traced for _, b in backlog))
    report.add("loadgen.lag_ms_p99", rep.percentile(lags, 99), n=len(lags))
    report.add("trace.overhead_ratio",
               rep.geomean(lat_t) / rep.geomean(lat_u))
    report.note("service-mix attaches no program Tracer: a shared Tracer's "
                "span stack is not thread-safe across the service's worker "
                "threads (ROADMAP item 4), so telemetry.* stay 0 here")
    report.note("trace.overhead_ratio here is the latency geometric mean "
                "traced / untraced over the same schedules; model "
                "counts are not reported because coalescing, and so the "
                "modeled work, depends on timing")
