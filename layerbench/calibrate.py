"""Calibration kernel: how fast the machine runs right now.

``report.Calibration`` starts this file as a child process, so the
kernel's arrays never count towards the benchmark's peak memory.  Each
line read from stdin runs the kernel once and prints its milliseconds.
The kernel scatters, gathers and sorts over a few MB, as the engines do,
and shares no code with ``repro``.
"""

import sys
import time

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    index = rng.integers(0, 500_000, 2_000_000)
    values = rng.random(2_000_000)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        acc = np.zeros(500_000)
        np.add.at(acc, index[:400_000], values[:400_000])
        values[index].sum()
        values[np.argsort(index[:500_000], kind="stable")].cumsum()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        print((time.perf_counter() - t0) * 1e3, flush=True)


if __name__ == "__main__":
    main()
