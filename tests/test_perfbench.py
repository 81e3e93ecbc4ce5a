"""The benchmark harness still runs against the package.

perfbench hooks package functions by name and needs every metric that
BENCHMARK.json declares, so a renamed or deleted hooked function fails here
rather than only when the benchmark is next run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest passed"
