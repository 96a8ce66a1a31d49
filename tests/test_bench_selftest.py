"""The benchmark's own tests run with the engine's.

`perfbench/selftest.py` tests the benchmark itself: the tracer binds and
restores every engine name it wraps, tasks run under the tracer still pass
their output checks, a stdout digest mismatch fails a task, and the seeded
workloads repeat.  Running it here makes a broken tracer binding or a
failing traced task fail this suite, not only `perfbench/run.py --trace 1`
runs.  It takes about a second.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
