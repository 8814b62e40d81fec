"""One short run of each benchmark workload, as ``BENCHMARK.json`` runs it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The operations that fail in every round on a known fault of qcl: the
#: ``simulate`` of ``line_n4`` on staircase (``KNOWN_FAULTS`` in
#: benchmark/workloads.py).
KEPT_FAILURES = {"staircase": 1, "wide-surface": 0, "oracle": 0}


def _files(directory: Path) -> dict[str, int]:
    return {str(p): p.stat().st_mtime_ns for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("workload", sorted(KEPT_FAILURES))
def test_benchmark_workload_runs_and_checks(workload):
    # --seconds 0 runs one round.  No bytecode is written, so the run leaves
    # the benchmark's directory as it was.
    before = _files(ROOT / "benchmark")
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True, out.stderr
    assert result["failed"] <= KEPT_FAILURES[workload], out.stderr
    assert set(result["metrics"]) == {"setup_s", "wall_s", "events_per_s",
                                      "oracle_us_per_step", "peak_rss_mb"}
    assert _files(ROOT / "benchmark") == before
