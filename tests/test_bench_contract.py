"""The benchmark's own self-test, run as part of the test suite.

The benchmark calls or wraps library names (``oracle.angle_residuals``,
``alpha_set_numeric``, ``refine_alpha_members``, ``AthetaFamily.distance``,
``CircleComponent.distance``, ``root_count_on_circle``); renaming or
reshaping one of them makes ``bench/selftest.py`` fail, and so this test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "selftest: passed" in proc.stdout.splitlines()
