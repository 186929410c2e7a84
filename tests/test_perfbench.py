"""The benchmark's own self-test, run as part of the suite.

The benchmark's tracer wraps conelab functions by name and binds some of
their arguments by name, and its self-test pins call shapes of the build
and the flow.  A change that breaks either fails here, not first in a
traced benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "13 of 13 self-test checks passed" in proc.stdout, proc.stdout
