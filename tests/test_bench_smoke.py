"""The benchmark's smoke test, run as part of the test suite.

`bench/smoke.py` runs every workload at a tiny size, traced and untraced, so
it fails when a change drops or renames a function the benchmark traces or
times.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
