"""The verdicts of `verify --level all` over orders 1-6 equal the checked-in table.

``tests/verdicts.json`` is written by ``python tests/verdicts.py``.  A change
that moves a verdict on purpose rewrites it, and the diff of its counts per
check name is the record of what moved; any other change must leave it as it
is.
"""

from __future__ import annotations

import json

from verdicts import DATA, ORDERS, render, table


def test_verdict_table_matches_the_checked_in_one():
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    got = table()
    assert json.loads(render(got)) == got
    for n in ORDERS:
        assert got["orders"][str(n)] == expected["orders"][str(n)], n
    assert got == expected
