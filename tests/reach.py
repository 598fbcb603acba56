"""Statement reach of the test suite over ``src/blochiso``.

Run from anywhere: ``python tests/reach.py``. It traces every line the
tier-1 suite runs in the package's own frames, then lists each statement of
the package that never ran. Function docstrings and the bodies of ``if
TYPE_CHECKING:`` blocks are not code that runs, so they are left out. It
exits 1 when the suite fails, when a statement outside ``ALLOWED`` never
ran, or when an ``ALLOWED`` entry does not name exactly one unreached
statement, and 0 otherwise. Stdlib only; the tracer is set before pytest
is imported, so the package's import-time lines are seen too.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blochiso"

# Statements no test can run, each named by its file and a substring of its
# source, with the reason it stays. Each must name exactly one unreached
# statement, so an entry that goes stale fails too.
ALLOWED = (
    # Only a spawned ``python -m blochiso.cli`` runs the entry point.
    ("cli.py", "sys.exit(main())"),
)

_prefix = str(PACKAGE) + "/"
_ran: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_prefix):
        return None
    _ran.setdefault(filename, set()).add(frame.f_lineno)
    return _local


def _children(node: ast.stmt) -> list[ast.stmt]:
    out = []
    for field in ("body", "orelse", "finalbody"):
        out.extend(getattr(node, field, ()))
    for handler in getattr(node, "handlers", ()):
        out.extend(handler.body)
    return out


def _runs(child: ast.stmt, node: ast.stmt) -> bool:
    """Whether ``child``, a statement directly inside ``node``, is code that
    runs: not a function's docstring, nor under ``if TYPE_CHECKING:``."""
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name):
        return not (node.test.id == "TYPE_CHECKING" and child in node.body)
    return not (
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and child is node.body[0]
        and isinstance(child, ast.Expr)
        and isinstance(child.value, ast.Constant)
        and isinstance(child.value.value, str)
    )


def _unreached(tree: ast.Module, ran: set[int]) -> list[ast.stmt]:
    """Statements none of whose own lines ran. A compound statement owns the
    lines of its header (decorators included); it also counts as reached
    when a statement inside it ran."""
    missed = []

    def visit(node: ast.stmt) -> bool:
        children = _children(node)
        inner = [visit(child) for child in children if _runs(child, node)]
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        last = children[0].lineno - 1 if children else node.end_lineno
        reached = any(inner) or not ran.isdisjoint(range(first, max(first, last) + 1))
        if not reached:
            missed.append(node)
        return reached

    for node in tree.body:
        visit(node)
    return sorted(missed, key=lambda n: n.lineno)


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(_global)
    threading.settrace(_global)
    import pytest

    status = pytest.main(["-q", str(ROOT / "tests")])
    sys.settrace(None)
    threading.settrace(None)

    failures = []
    matches = dict.fromkeys(ALLOWED, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text("utf-8")
        for node in _unreached(ast.parse(text), _ran.get(str(path), set())):
            source = ast.get_source_segment(text, node) or ""
            where = f"{path.relative_to(ROOT)}:{node.lineno}: {source.splitlines()[0]}"
            entry = next((e for e in ALLOWED if e[0] == path.name and e[1] in source), None)
            if entry is None:
                failures.append(f"never ran {where}")
            else:
                matches[entry] += 1
                print(f"reach: allowed {where}")
    for (name, needle), count in matches.items():
        if count != 1:
            failures.append(f"allowed entry {name}: {needle!r} names {count} unreached statements, not 1")
    if status != 0:
        failures.append(f"the suite failed (pytest exit {int(status)})")
    for failure in failures:
        print(f"reach: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
