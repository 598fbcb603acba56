"""Importing the CLI loads no module it does not need at start-up.

Every ``blochiso`` process pays for what ``import blochiso.cli`` loads.
The check runs the interpreter with ``-S``, so that no ``site`` step
(a ``.pth`` file, say) preloads modules, and compares what the import loads
with what the standard-library modules the CLI does need load by
themselves on the same interpreter: ``dataclasses`` and ``inspect`` may
appear only if those already bring them, and so may ``typing`` and
``random``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("dataclasses", "inspect", "typing", "random", "blochiso.sampling")
NEEDED = "import argparse, json, cmath, enum, functools"


def _loaded_after(statement: str) -> set[str]:
    code = f"import sys\n{statement}\nprint(*[m for m in {DEFERRED!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_defers_what_only_some_commands_need():
    assert _loaded_after("import blochiso.cli") <= _loaded_after(NEEDED)


def test_the_check_sees_a_deferred_module():
    assert _loaded_after("import blochiso.sampling") >= {"blochiso.sampling", "random"}
