"""Self-checks of the benchmark: traced counts repeat exactly, the benchmark
refuses to run outside a blochiso checkout, and compare.py refuses results
that are not comparable and flags changed output bytes.

Run from the repository root: python -m pytest blochbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_totals(workload: str, outdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "run", workload, "7", "0.2", "1", str(outdir)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["traced"]["failed"] == 0, result["traced"]["errors"]
    return result["totals"]


def per_request(totals: dict) -> dict:
    """Counts per request; the traced half runs whole pool cycles, so they are exact."""
    n = totals["requests"]
    out = {f"{key}:{name}": v / n for key in ("calls", "extra", "unique") for name, v in totals[key].items()}
    for cls, table in totals["classes"].items():
        out.update({f"{cls}:{name}": v / table["requests"] for name, v in table["calls"].items()})
    return out


@pytest.mark.parametrize("workload", ["channels", "geometry", "cli"])
def test_traced_counts_repeat(workload, tmp_path):
    assert per_request(traced_totals(workload, tmp_path)) == per_request(traced_totals(workload, tmp_path))


def test_layer_counts_match_the_paths(tmp_path):
    channels = traced_totals("channels", tmp_path)["classes"]
    unitary = channels["unitary"]
    assert unitary["calls"]["kernels.jacobi_hermitian"] == 10 * unitary["requests"]
    not_tp = channels["not_tp"]
    assert not_tp["calls"]["kernels.jacobi_hermitian"] == 2 * not_tp["requests"]
    geometry = traced_totals("geometry", tmp_path)
    assert "kernels.jacobi_hermitian" not in geometry["calls"]
    assert geometry["calls"]["isomorphism.phi_inverse"] == 3 * geometry["requests"]


def test_refuses_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "channels", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def compare(tmp_path, base: dict, new: dict) -> int:
    paths = []
    for name, result in (("base.json", base), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(result))
        paths.append(str(tmp_path / name))
    return subprocess.run([sys.executable, str(HERE / "compare.py"), *paths], capture_output=True, timeout=60).returncode


def test_compare_refuses_mismatches_and_flags_byte_changes(tmp_path):
    def result(**changes):
        out = {
            "stamp": {"workload": "channels", "seed": 1, "trace": 0, "backend": "python"},
            "summary": {"correct": True, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.0, "unit": "ms"}}},
            "digests": {"diagram": "aa"},
        }
        for key, value in changes.items():
            section, field = key.split("__")
            out[section][field] = value
        return out

    assert compare(tmp_path, result(), result()) == 0
    assert compare(tmp_path, result(), result(stamp__trace=1)) == 2
    assert compare(tmp_path, result(), result(stamp__seed=2)) == 2
    assert compare(tmp_path, result(), result(stamp__backend="cython")) == 2
    assert compare(tmp_path, result(), result(digests__diagram="bb")) == 1
    assert compare(tmp_path, result(), result(summary__correct=False)) == 1
