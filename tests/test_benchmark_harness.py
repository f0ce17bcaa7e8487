"""The benchmark harness under perfbench/ still runs against the package.

The harness wraps named layer functions, re-solves restart 0 with its own
numpy oracle and counts numpy's FFT calls independently; its self-test
runs every workload at a tiny size and fails when any of that breaks.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
