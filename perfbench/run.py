"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-fastpq --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment. The program is imported from ``src/`` of the
current directory, never from an installed copy: without it the run
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

WORKLOAD_NAMES = ("batch-fastpq", "churn-sharded")
#: Thread-pool caps of the BLAS/OpenMP builds numpy may be linked with.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated run still closes its engines, whose pools would
    # otherwise outlive it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'repro'}", file=sys.stderr)
        return 2
    # Single-threaded BLAS here and in every worker the program spawns;
    # this must happen before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [str(src)]

    from common import WorkDir, Yardstick, environment, reap_children
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    try:
        with Yardstick() as yardstick, WorkDir(root, args.workload) as work:
            outcome = WORKLOADS[args.workload](
                args.seed, args.seconds, bool(args.trace), work, yardstick
            )
    finally:
        reap_children()
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    for problem in outcome.errors:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "env": environment(root),
                "workload": args.workload,
                "seed": args.seed,
                "unscaled": outcome.raw,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not outcome.errors,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
