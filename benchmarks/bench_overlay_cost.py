"""What each run-time overlay costs over a plain run, on both clocks.

Regenerates the overlay-cost table of ``docs/performance.md``: every
engine of the ``overlays-dense`` workload (``cusha-cw``, ``cusha-streamed``,
``vwc-8``) runs PageRank, connected components, and connected components
capped at 5 iterations (a short run, where per-run set-up dominates),
once plain and once under each overlay alone (``frontier="auto"``,
``narrow="auto"``, ``certify="warn"``, ``devices=4``, a ``Tracer``) and
under all five together.

Every cell runs on a 60k-vertex, 240k-edge R-MAT with a warm
representation cache, shard size 128.  Each side runs in its own worker
process; the script interleaves every cell and side round-robin, so
host drift hits all of them alike, and reports the minimum wall time
over ``--repeats`` runs next to the run's modeled milliseconds
(``RunResult.total_ms``, which repeats exactly).

``--before SRC`` adds a second side: the ``src`` directory of another
checkout (e.g. the parent commit, unpacked with ``git archive``), shown
as the "before" column.

Usage::

    PYTHONPATH=src python benchmarks/bench_overlay_cost.py \\
        [--before OTHER/src] [--repeats 9] [--out table.md]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

VERTICES = 60_000
EDGES = 240_000
GRAPH_SEED = 1
WEIGHT_SEED = 2
SHARD_SIZE = 128
PR_TOLERANCE = 1e-6
SHORT_ITERATIONS = 5

ENGINES = ("cusha-cw", "cusha-streamed", "vwc-8")
PROGRAMS = ("pr", "cc", "cc-5")
OVERLAYS = ("none", "frontier", "narrow", "certify", "devices", "tracer",
            "all five")

ENGINE_OPTS = {
    "cusha-cw": {"shard_size": SHARD_SIZE},
    "cusha-streamed": {"shard_size": SHARD_SIZE,
                       "device_memory_bytes": 8 * 1024 * 1024},
    "vwc-8": {},
}

#: RunConfig fields of each overlay (``tracer`` is added per run).
OVERLAY_KNOBS = {
    "none": {},
    "frontier": {"frontier": "auto"},
    "narrow": {"narrow": "auto"},
    "certify": {"certify": "warn"},
    "devices": {"devices": 4},
    "tracer": {},
    "all five": {"frontier": "auto", "narrow": "auto", "certify": "warn",
                 "devices": 4},
}

OVERLAY_LABEL = {
    "none": "none",
    "frontier": '`frontier="auto"`',
    "narrow": '`narrow="auto"`',
    "certify": '`certify="warn"`',
    "devices": "`devices=4`",
    "tracer": "`Tracer()`",
    "all five": "all five",
}

PROGRAM_LABEL = {"pr": "PR", "cc": "CC",
                 "cc-5": f"CC, {SHORT_ITERATIONS} iterations"}


# ----------------------------------------------------------------------
# Worker: one checkout, one warm cache, one cell per request
# ----------------------------------------------------------------------

def serve() -> None:
    """Answer ``{"engine", "program", "overlay"}`` lines on stdin with
    ``{"wall_s", "model_ms"}`` lines on stdout."""
    from repro.algorithms import make_program
    from repro.cache import RepresentationCache
    from repro.frameworks import RunConfig, make_engine
    from repro.graph.generators import random_weights, rmat
    from repro.telemetry import Tracer

    graph = random_weights(rmat(VERTICES, EDGES, seed=GRAPH_SEED),
                           seed=WEIGHT_SEED)
    cache = RepresentationCache()
    engines = {key: make_engine(key, cache=cache, **opts)
               for key, opts in ENGINE_OPTS.items()}
    out = sys.stdout
    for line in sys.stdin:
        cell = json.loads(line)
        knobs = dict(OVERLAY_KNOBS[cell["overlay"]])
        if cell["overlay"] in ("tracer", "all five"):
            knobs["tracer"] = Tracer()
        if cell["program"] == "pr":
            program = make_program("pr", graph, tolerance=PR_TOLERANCE)
        else:
            program = make_program("cc", graph)
        if cell["program"] == "cc-5":
            knobs.update(max_iterations=SHORT_ITERATIONS, allow_partial=True)
        t0 = time.perf_counter()
        result = engines[cell["engine"]].run(graph, program,
                                             config=RunConfig(**knobs))
        wall = time.perf_counter() - t0
        out.write(json.dumps({"wall_s": wall,
                              "model_ms": result.total_ms}) + "\n")
        out.flush()


class Worker:
    """A ``serve`` process importing ``repro`` from one ``src`` tree."""

    def __init__(self, src: pathlib.Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, engine: str, program: str, overlay: str) -> dict:
        self.proc.stdin.write(json.dumps(
            {"engine": engine, "program": program, "overlay": overlay})
            + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("overlay-cost worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def measure(sides: dict, repeats: int, echo=print) -> dict:
    """``{side: {(engine, program, overlay): (min wall s, model_ms)}}``."""
    cells = [(e, p, o) for e in ENGINES for p in PROGRAMS for o in OVERLAYS]
    workers = {side: Worker(src) for side, src in sides.items()}
    walls = {side: {cell: [] for cell in cells} for side in sides}
    model = {side: {} for side in sides}
    try:
        for cell in cells:  # warm every cache entry and code path
            for worker in workers.values():
                worker.run(*cell)
        for rep in range(repeats):
            for cell in cells:
                for side, worker in workers.items():
                    got = worker.run(*cell)
                    walls[side][cell].append(got["wall_s"])
                    model[side][cell] = got["model_ms"]
            echo(f"round {rep + 1}/{repeats} done")
    finally:
        for worker in workers.values():
            worker.close()
    return {side: {cell: (min(walls[side][cell]), model[side][cell])
                   for cell in cells} for side in sides}


def _wall(table: dict, cell: tuple) -> str:
    """``cell``'s minimum wall, with its change over the plain run."""
    wall = table[cell][0] * 1e3
    text = f"{wall:.0f} ms" if wall >= 10 else f"{wall:.1f} ms"
    if cell[2] == "none":
        return text
    plain = table[(cell[0], cell[1], "none")][0] * 1e3
    return f"{text} ({100.0 * (wall / plain - 1.0):+.0f}%)"


def markdown(results: dict) -> str:
    """The overlay-cost table; walls carry their change over "none"."""
    sides = list(results)
    head = ["engine", "program", "overlay", *sides, "model_ms"]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]
    last = results[sides[-1]]
    for cell in last:
        engine, program, overlay = cell
        lines.append("| " + " | ".join([
            f"`{engine}`", PROGRAM_LABEL[program], OVERLAY_LABEL[overlay],
            *(_wall(results[side], cell) for side in sides),
            f"{last[cell][1]:.3f}",
        ]) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--before", type=pathlib.Path, default=None,
                        help="src directory of the checkout to compare "
                             "against")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the markdown table here")
    args = parser.parse_args(argv)
    if args.serve:
        serve()
        return 0
    here = pathlib.Path(__file__).resolve().parents[1] / "src"
    sides = {"wall": here}
    if args.before is not None:
        sides = {"before": args.before.resolve(), "after": here}
    results = measure(sides, args.repeats,
                      echo=lambda s: print(s, file=sys.stderr))
    for cell in results[list(sides)[-1]]:
        models = {results[side][cell][1] for side in sides}
        if len(models) > 1:
            print(f"model_ms differs between sides on {cell}: {models}",
                  file=sys.stderr)
            return 1
    table = markdown(results)
    if args.out is not None:
        args.out.write_text(table)
    print(table, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
