"""Importing the CLI loads no module it does not need at start-up.

Every ``blochiso`` process pays for what ``import blochiso.cli`` loads.
The check runs the interpreter with ``-S``, so that no ``site`` step
(a ``.pth`` file, say) preloads modules, and compares what the import loads
with what the standard-library modules the CLI does need load by
themselves on the same interpreter: ``dataclasses`` and ``inspect`` may
appear only if those already bring them, and so may ``typing`` and
``random``. One command line loads none of the modules argparse's default
help formatter imports to read the terminal width.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("dataclasses", "inspect", "typing", "random", "blochiso.sampling")
NEEDED = "import argparse, json, cmath, enum, functools"
TERMINAL_WIDTH = ("shutil", "bz2", "lzma", "zlib", "fnmatch")
GOLDEN_KRAUS = Path(__file__).resolve().parent / "golden" / "inputs" / "kraus_unitary_tilted.json"


def _loaded_after(statement: str, modules: tuple[str, ...] = DEFERRED) -> set[str]:
    code = f"import sys\n{statement}\nprint(*[m for m in {modules!r} if m in sys.modules])"
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


def test_a_command_line_builds_its_parser_without_the_terminal_width():
    main = (
        "import io, blochiso.cli\n"
        "sys.stdout = io.StringIO()\n"
        f"assert blochiso.cli.main(['classify', {str(GOLDEN_KRAUS)!r}]) == 0\n"
        "sys.stdout = sys.__stdout__"
    )
    assert _loaded_after(main, TERMINAL_WIDTH) == set()


def test_the_check_sees_the_terminal_width_modules():
    assert _loaded_after("import shutil", TERMINAL_WIDTH) >= {"shutil", "fnmatch"}
