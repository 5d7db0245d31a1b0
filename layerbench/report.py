"""Percentiles, memory, and the printed report of one benchmark run."""

from __future__ import annotations

import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys

import metrics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort
    last.  No samples reads as 0 (the row's sample count says so)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values) -> float:
    """Geometric mean of the finite samples; failed requests (``inf``) are
    counted in the run's ``failed`` total instead."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise ValueError("geometric mean of no finished samples")
    return math.exp(math.fsum(math.log(v) for v in finite) / len(finite))


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when there is nothing to divide."""
    return part / whole if whole else 0.0


def guide_tail(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples
    beyond it, or 50 when there are too few samples for any tail."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


#: Milliseconds one calibration kernel run takes on the reference machine,
#: a 2-core x86 VM.
CALIBRATION_REF_MS = 100.0


class Calibration:
    """How fast the machine runs right now (see ``calibrate.py``).

    The VM these bounds were set on drifts in speed by up to a third over
    minutes (CPU time tracks wall time, so it is not steal).  The kernel's
    median over 15-second windows tracked a fixed overlays-sparse pass with
    correlation 0.92, and dividing by it cut that pass's quartile spread
    across windows from 0.19 to 0.05.  Wall-clock figures are multiplied by
    :attr:`factor`.  Sample only while the benchmark runs nothing else.
    Use as a context manager: it owns the kernel's child process.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._child = None

    def __enter__(self) -> "Calibration":
        self._child = subprocess.Popen(
            [sys.executable, str(pathlib.Path(__file__).with_name(
                "calibrate.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self._child.stdin.write("\n")
            self._child.stdin.flush()
            self.samples.append(float(self._child.stdout.readline()))

    @property
    def factor(self) -> float:
        return CALIBRATION_REF_MS / statistics.median(self.samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """Named metrics with units and sample counts, printed as a table; the
    gated subset is printed last as the one-line JSON result."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: int) -> None:
        self.header = (f"layerbench workload={workload} seed={seed} "
                       f"seconds={seconds:g} trace={trace}")
        self.rows: list[tuple[str, float, str, str]] = []
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, name: str, value: float, unit: str | None = None,
            n="") -> None:
        """Record a metric; ``unit`` defaults to its unit in metrics.py."""
        if unit is None:
            unit = metrics.UNITS[name]
        self.rows.append((name, float(value), unit, str(n)))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def value(self, name: str) -> float:
        for row in self.rows:
            if row[0] == name:
                return row[1]
        raise KeyError(name)

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def render(self, gated: dict[str, str]) -> str:
        """The table, then the JSON line with the metrics in ``gated``
        (name -> unit)."""
        lines = [self.header]
        lines.append(f"{'metric':34s} {'value':>16s} {'unit':10s} n")
        for name, value, unit, n in self.rows:
            lines.append(f"{name:34s} {value:16.6g} {unit:10s} {n}")
        for text in self.notes:
            lines.append(f"note: {text}")
        lines.append(f"attempted={self.attempted} failed={self.failed} "
                     f"wrong={self.wrong} fail_ratio="
                     f"{ratio(self.failed, self.attempted):.6g}")
        result = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.value(name), "unit": unit}
                        for name, unit in gated.items()},
        }
        lines.append(json.dumps(result, allow_nan=False))
        return "\n".join(lines)
