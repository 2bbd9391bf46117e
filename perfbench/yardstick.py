"""The host-speed yardstick, run as a child process of the benchmark.

Reads a count ``n`` per line on standard input, times a fixed piece of
numpy and pure-Python work ``n`` times and answers with the ``n`` times
in seconds on one line. Ends at end of input. It uses numpy only, never
the program under test.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    table = rng.random((8, 256))
    codes = rng.integers(0, 256, (20_000, 8))
    matrix = rng.random((96, 96))
    for line in sys.stdin:
        # The first pass after the child has slept runs slow; leave it untimed.
        table[np.arange(8), codes].sum(axis=1)
        times = []
        for _ in range(int(line)):
            t0 = time.perf_counter()
            acc = 0
            for i in range(6_000):
                acc += i * i
            for _ in range(4):
                dist = table[np.arange(8), codes].sum(axis=1)
                np.argpartition(dist, 10)
            for _ in range(8):
                matrix @ matrix
            times.append(time.perf_counter() - t0)
        print(" ".join(repr(t) for t in times), flush=True)


if __name__ == "__main__":
    main()
