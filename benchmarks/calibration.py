"""The reference work every time is scaled by, and a process that times it.

    python3 benchmarks/calibration.py

reads one line per request on standard input and answers each with the
seconds ``calibrate()`` took.  The workload process asks it before each
block and after each request; it never imports ``sandpiles``, so nothing the
program leaves behind in the workload process (a larger heap, changed GC
settings) changes the reference.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work that no version of
    the program can change (Fraction, int, dict and sort operations): the
    median of five tries."""
    times = []
    for _ in range(5):
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 600):
            acc += Fraction((i * 2654435761) % 10**12 + 1, i)
        table = {}
        for i in range(30000):
            table[(i * 7919) % 10007] = i
        sorted((i * 2654435761) % 1000003 for i in range(30000))
        times.append(perf_counter() - start)
    return statistics.median(times)


class Calibrator:
    """``calibrate()`` run in a process of its own; call to time it once."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()


def main() -> int:
    for _ in sys.stdin:
        print(calibrate(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
