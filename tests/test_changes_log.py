"""Every ``PR N:`` entry line of CHANGES.md stays readable in one pass.

An entry opens with a ``PR N:`` summary line; its detail -- the tests,
checks, bounds, lint rules and CI steps it changed, each on record --
goes on ``  - `` sub-bullets below it, and long measurement narratives
go to the evidence sections of docs/PERFORMANCE.md.  A summary line
longer than :data:`MAX_ENTRY_CHARS` is split that way.
"""

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parents[1] / "CHANGES.md"

#: Bound on one ``PR N:`` line, in characters.
MAX_ENTRY_CHARS = 1600

_ENTRY = re.compile(r"PR \d+:")


def long_entries(text, bound=MAX_ENTRY_CHARS):
    """``(line number, length)`` of every ``PR N:`` line over ``bound``."""
    return [(n, len(line)) for n, line in enumerate(text.splitlines(), 1)
            if _ENTRY.match(line) and len(line) > bound]


def test_only_entry_lines_are_bounded():
    text = "\n".join(["PR 1: " + "x" * 20, "  - " + "y" * 40,
                      "FOUND: " + "z" * 40, "PR 2: short"])
    assert long_entries(text, bound=25) == [(1, 26)]


def test_every_entry_line_is_bounded():
    assert long_entries(CHANGES.read_text(encoding="utf-8")) == []
