"""The benchmark's self-test must pass: every span it needs opens, and the
span wrappers change no report byte."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    # -B: leave no bytecode under bench/
    proc = subprocess.run([sys.executable, "-B", str(SELFTEST)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
