"""Run one layerbench workload and print its metrics.

Usage (from the repository root)::

    python3 layerbench/run.py --workload matrix-rmat --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
traced run and prints the per-layer metrics.  A table of every metric,
with units and sample counts, comes first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer
exits 1, a checkout without ``src/repro`` exits 2.  Traced runs write
their spans to ``layerbench/out/``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "matrix-rmat": "every engine x pr/cc/sssp on one R-MAT, warm cache, no "
                   "overlay: build, kernels, cost model and engine loop; "
                   "the bypass case for every overlay",
    "overlays-dense": "the R-MAT with frontier, narrowing, certify, 4 devices "
                      "and a Tracer on: frontier skips nothing, so it shows "
                      "what each overlay costs",
    "overlays-sparse": "BFS/SSSP on a road lattice with the same overlays: "
                       "~200 iterations, most sweeps skipped, per-iteration "
                       "fixed costs dominate",
    "service-mix": "open-loop Poisson traffic on Service(workers=2): "
                   "admission, quotas, queueing, coalescing, shedding, and "
                   "cold graphs on the request path",
}


def _import_repro():
    """Put this checkout's ``src`` first on the path; refuse anything else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"layerbench: cannot import repro from {src}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if pathlib.Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"layerbench: repro imported from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_repro()

    import batch
    import metrics
    import report as rep
    import service_mix

    report = rep.Report(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-{args.seed}.jsonl"
        if args.workload == "service-mix":
            service_mix.trace(args.seed, args.seconds, report, path)
        else:
            batch.trace(batch.SPECS[args.workload], args.seed, report, path)
        gated = {name: unit for name, unit, _ in metrics.PER_LAYER}
        have = {row[0] for row in report.rows}
        missing = [name for name in gated if name not in have]
        for name in missing:
            report.add(name, 0.0, gated[name], "n/a")
        if missing:
            report.note(f"not measured on {args.workload} (printed as 0): "
                        + ", ".join(missing))
        report.note(f"spans written to {path.relative_to(ROOT)}")
    else:
        if args.workload == "service-mix":
            service_mix.measure(args.seed, args.seconds, report)
        else:
            batch.measure(batch.SPECS[args.workload], args.seed, args.seconds,
                          report)
        gated = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    print(report.render(gated), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
