"""Argument checks and report formatting of benchmarks/bench_kernels.py."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench_kernels.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("value", ["0", "-3"])
def test_rejects_nonpositive_repeat(value):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeat", value],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "must be a positive integer" in proc.stderr
    assert proc.stdout == ""


def test_speedup_column():
    bench = load_script()
    assert bench._speedup([0.5]).strip() == "n/a"
    assert bench._speedup([0.5, 2.0]).strip() == "4.00x"
