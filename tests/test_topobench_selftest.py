"""The benchmark's self-test passes against this checkout.

topobench/selftest.py checks the benchmark's oracles against fintopo,
that injected faults are reported, and that the tracer restores every
name it wraps.  A refactor that breaks any of these fails here rather
than only when the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, 'topobench/selftest.py'], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
