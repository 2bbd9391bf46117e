"""Run one workload N times in fresh processes and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload batch-fastpq --runs 10 --first-seed 1

Each run is ``perfbench/run.py`` with its own seed (``--first-seed``,
``--first-seed + 1``, ...) and measures ``run_seconds`` from
``BENCHMARK.json``. For every metric the table gives the median,
the quartiles (``statistics.quantiles(values, n=4)``), min, max and the
relative spread ``(q3 - q1) / median``; with ``--trace 0`` each spread is
also compared with the metric's bound in ``BENCHMARK.json`` (the aim is a
spread under a third of the bound). Exits with code 1 when a run fails,
reports incorrect output, or the failed share differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs, ok = [], True
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        # The line before the result holds the times before host scaling.
        for name, value in json.loads(lines[-2]).get("unscaled", {}).items():
            result["metrics"][f"unscaled.{name}"] = {"value": value, "unit": ""}
        runs.append(result)
        share = result["failed"] / result["attempted"]
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} (share {share:.6f}) wall {wall:.1f} s",
            file=sys.stderr,
        )
        ok &= bool(result["correct"])
    shares = {r["failed"] / r["attempted"] for r in runs}
    if len(shares) > 1:
        print(f"failed share differs between runs: {sorted(shares)}", file=sys.stderr)
        ok = False

    print(f"{'metric':34} {'unit':>11} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name) if not args.trace else None
        flag = "" if bound is None else ("  " if spread < bound / 3 else " !")
        print(f"{name:34} {first['unit']:>11} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(values):12.6g} {max(values):12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
