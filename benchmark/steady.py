#!/usr/bin/env python3
"""Run workloads repeatedly and report the spread of every end-to-end metric.

    python3 benchmark/steady.py --workload oracle --runs 10 --seconds 20

Run k (from 1) is one ``run.py`` process with ``--seed k --trace 0``,
started only after the previous one has ended.  For every end-to-end metric
the median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and their distance as a share of the median are printed, next to
the metric's bound from ``BENCHMARK.json``.  All results are saved to
``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, int]:
    """The result of one run and the number of its rounds whose outputs
    differed from its first round's."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    differed = proc.stderr.count("differs from the first round")
    return json.loads(proc.stdout.strip().splitlines()[-1]), differed


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    RESULTS.mkdir(exist_ok=True)
    ok = True
    for name in names:
        runs = [run_once(name, seed, seconds) for seed in range(1, args.runs + 1)]
        results = [result for result, _ in runs]
        out = RESULTS / f"steady-{name}.json"
        out.write_text(json.dumps(results, indent=1) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: {args.runs} runs of {seconds} s, failed share "
              f"{sorted(shares)}, all correct: {all(r['correct'] for r in results)}, "
              f"rounds that differed from their run's first: {sum(d for _, d in runs)}")
        ok &= len(shares) == 1 and all(r["correct"] for r in results)
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, share = spread(values)
            bound = bounds[metric]
            print(f"  {metric:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {share:7.2%}  bound {bound:.3f}"
                  f"  {'ok' if share < bound / 3 else 'WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
