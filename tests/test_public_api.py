"""The package exports exactly the names README's public API table keeps.

Every name in the table's "kept" rows must be a public attribute of
``blochiso`` and every public attribute must be in those rows, so an export
added without a caller or a reason changes this test and the table together.
"""

import inspect
import re
from pathlib import Path

import pytest

import blochiso

README = Path(__file__).resolve().parent.parent / "README.md"


def kept_names() -> set[str]:
    text = README.read_text("utf-8")
    table = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 4 and cells[2] == "kept":
            names.update(re.findall(r"`(\w+)`", cells[0]))
    return names


def test_exports_are_the_kept_rows():
    exported = {
        name
        for name, value in vars(blochiso).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == kept_names()


@pytest.mark.parametrize(
    "owner, name",
    [
        (blochiso.ChoiMatrix, "eigenvalues"),
        (blochiso.ChoiMatrix, "rank"),
        (blochiso.ChannelKind, "INVERTIBLE_WITH_CPTP_INVERSE"),
        (blochiso.ComplexMatrix, "identity"),
        (blochiso.InversePairReport, "__bool__"),
    ],
)
def test_retired_members_are_gone(owner, name):
    # Only tests called them; README's table names the path each test took instead.
    assert not hasattr(owner, name)
