"""The geometry layer stands below the channel, sampling and CLI layers.

``bloch``, ``so3``, ``su2`` and ``isomorphism`` are read as source and
their imports listed, at module level or inside functions, relative or
absolute; none may name ``channels``, ``cli`` or ``sampling``. So
``channels`` can call ``phi`` without an import cycle.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blochiso"
GEOMETRY = ("bloch", "so3", "su2", "isomorphism")
ABOVE = {"channels", "cli", "sampling"}


def imported_modules(source: str) -> set[str]:
    """Each blochiso module a source file imports, by its short name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names if a.name.startswith("blochiso.")]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("blochiso"):
                continue
            base = base.removeprefix("blochiso").lstrip(".")
            # ``from . import so3`` and ``from blochiso import so3`` name
            # modules in the alias list.
            modules = [base] if base else [alias.name for alias in node.names]
        else:
            continue
        names.update(m.removeprefix("blochiso.").split(".")[0] for m in modules)
    return names


def test_the_reader_sees_every_form():
    source = "\n".join(
        [
            "from .channels import x",
            "from . import cli, so3",
            "import blochiso.sampling",
            "from blochiso import matrix",
            "from blochiso.su2 import y",
            "def f():\n    from .bloch import z",
            "import json",
            "from math import pi",
        ]
    )
    assert imported_modules(source) == {"channels", "cli", "so3", "sampling", "matrix", "su2", "bloch"}


@pytest.mark.parametrize("module", GEOMETRY)
def test_geometry_imports_nothing_above_it(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert imported_modules(source) & ABOVE == set()
