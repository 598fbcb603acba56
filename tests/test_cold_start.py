"""Importing the CLI loads no module it does not need at start-up.

Every ``blochiso`` process pays for what ``import blochiso.cli`` loads.
The check runs the interpreter with ``-S``, so that no ``site`` step
(a ``.pth`` file, say) preloads modules, and compares what the import loads
with what the standard-library modules the CLI does need load by
themselves on the same interpreter: ``dataclasses`` and ``inspect`` may
appear only if those already bring them, and so may ``typing``,
``random``, ``argparse`` and its ``gettext``. A document command line, which
the CLI parses without argparse, loads neither of the last two; a line that
argparse parses loads none of the modules argparse's default help formatter
imports to read the terminal width.
"""

import os
import subprocess
import sys
from pathlib import Path

from helpers import GOLDEN_CASES, resolve_golden_argv

SRC = Path(__file__).resolve().parent.parent / "src"
PARSER = ("argparse", "gettext")
DEFERRED = ("dataclasses", "inspect", "typing", "random", "blochiso.sampling", *PARSER)
NEEDED = "import json, cmath, enum, functools, types"
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


def _main_on(lines: list[list[str]], exit_code: int = 0) -> str:
    """A statement that runs ``main`` on each line, with stdout discarded."""
    calls = "".join(
        f"try:\n    code = blochiso.cli.main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
        f"assert code == {exit_code}, code\n"
        for argv in lines
    )
    return f"import io, blochiso.cli\nsys.stdout = io.StringIO()\n{calls}sys.stdout = sys.__stdout__"


def test_cli_import_defers_what_only_some_commands_need():
    assert _loaded_after("import blochiso.cli") <= _loaded_after(NEEDED)


def test_the_check_sees_a_deferred_module():
    assert _loaded_after("import blochiso.sampling") >= {"blochiso.sampling", "random"}


def test_a_document_command_loads_no_parser():
    lines = [resolve_golden_argv(argv) for _, argv in GOLDEN_CASES]
    assert _loaded_after(_main_on(lines), PARSER) == set()


def test_the_check_sees_the_parser():
    assert _loaded_after(_main_on([["classify", "-h"]]), PARSER) == set(PARSER)


def test_a_command_line_builds_its_parser_without_the_terminal_width():
    # The "=" form, which only argparse parses.
    main = _main_on([["classify", "--tol=1e-3", str(GOLDEN_KRAUS)]])
    assert _loaded_after(main, TERMINAL_WIDTH) == set()


def test_the_check_sees_the_terminal_width_modules():
    assert _loaded_after("import shutil", TERMINAL_WIDTH) >= {"shutil", "fnmatch"}
