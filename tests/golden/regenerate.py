"""Regenerate the golden CLI fixtures.

Run from the repository root after an intentional output-format change:

    python tests/golden/regenerate.py

Inputs are frozen literal documents; expected files capture the exact bytes
the CLI prints for them. The byte-equality tests compare against these files
without regenerating.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).parent
# The checkout's tests/ and src/, so that the script runs without an install.
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from helpers import GOLDEN_CASES, build_golden_inputs, run_golden_case  # noqa: E402


def regenerate() -> None:
    inputs = HERE / "inputs"
    expected = HERE / "expected"
    inputs.mkdir(exist_ok=True)
    expected.mkdir(exist_ok=True)
    for name, text in build_golden_inputs().items():
        (inputs / name).write_text(text, encoding="utf-8")
    for expected_name, argv in GOLDEN_CASES:
        code, out = run_golden_case(argv)
        if code != 0:
            raise SystemExit(f"golden case {expected_name} exited {code}")
        (expected / expected_name).write_text(out, encoding="utf-8")
        print(f"wrote {expected_name} ({len(out)} bytes)")


if __name__ == "__main__":
    regenerate()
