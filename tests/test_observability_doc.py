"""The instrument catalog and docs/OBSERVABILITY.md name the same
instruments.

Every metric family and span of :mod:`repro.obs.catalog` must appear
in the first column of a table in docs/OBSERVABILITY.md, and every
backticked dotted name in such a cell must be in the catalog.  A label
set written after a family (``ingest.bundles{status}``) is not part of
its name.
"""

import re
from pathlib import Path

from repro.obs.catalog import METRICS, SPANS

DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"

#: A backticked dotted name, optionally followed by its label set.
_NAME = re.compile(r"`([a-z_][a-z0-9_]*(?:\.[a-z0-9_]+)+)(?:\{[^}`]*\})?`")


def first_column_names(text):
    """Every backticked dotted name in a table row's first cell."""
    names = set()
    for line in text.splitlines():
        if line.startswith("|"):
            names.update(_NAME.findall(line.split("|")[1]))
    return names


def test_the_parser_reads_first_cells_only():
    table = ("| family | type | from |\n|---|---|---|\n"
             "| `a.b{x}`, `c.d` | counter | `e.f` |\n")
    assert first_column_names(table) == {"a.b", "c.d"}


def test_every_catalog_instrument_has_a_table_row():
    documented = first_column_names(DOC.read_text(encoding="utf-8"))
    assert sorted(set(METRICS) - documented) == []
    assert sorted(set(SPANS) - documented) == []


def test_every_tabled_name_is_in_the_catalog():
    documented = first_column_names(DOC.read_text(encoding="utf-8"))
    assert sorted(documented - set(METRICS) - set(SPANS)) == []
