"""The package exports exactly the names README's public API table keeps.

Every name in the table's "kept" rows must be a public attribute of
``blochiso`` and every public attribute must be in those rows, so an export
added without a caller or a reason changes this test and the table together.
README's reach paragraph likewise counts and names the statements
``tests/reach.py`` allows to go unreached.
"""

import inspect
import re
from pathlib import Path

import pytest

import blochiso
import reach

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
        (blochiso, "conjugate"),
        (blochiso.su2, "conjugate"),
        (blochiso.su2, "compose"),
        (blochiso.so3, "compose"),
        (blochiso.so3, "apply"),
    ],
)
def test_retired_members_are_gone(owner, name):
    # Only tests, or the diagram checks' old chains, called them; README's
    # table names the path each caller took instead.
    assert not hasattr(owner, name)


NUMBERS = {"one": 1, "two": 2, "three": 3, "four": 4}


def test_reach_paragraph_names_the_allowlist():
    text = README.read_text("utf-8")
    lead = "Every statement in `src/blochiso` runs under the suite, except "
    paragraph = text.split(lead, 1)[1].split("\n\n", 1)[0]
    assert NUMBERS[paragraph.split()[0]] == len(reach.ALLOWED)
    named = re.findall(r"`([^`]+)` in `(\w+\.py)`", paragraph)
    assert sorted((name, needle) for needle, name in named) == sorted(reach.ALLOWED)
