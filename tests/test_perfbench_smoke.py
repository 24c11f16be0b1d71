"""The benchmark's self-test, run as part of the suite.

``perfbench/run.py`` patches package functions by module and name (see
``perfbench/tracing.py``), checks sweeps against ``perfbench/reference.py``
and must report every metric ``BENCHMARK.json`` names. Running its smoke
mode here makes a rename or removal of any of those names fail the tests,
not only a later benchmark run.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_smoke_suite_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "suite.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
