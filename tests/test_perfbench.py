"""The benchmark's self-check keeps working as the library changes."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selfcheck_passes():
    # One pass of every benchmark workload at n = 2, correctness only.
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--selfcheck"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert '"failed": 0' in proc.stdout
