"""Validation and exhaustive enumeration of finite group tables.

Elements are the integers 0..n-1 and the neutral element is always 0, so a
group here is nothing but an n x n Cayley table passing the Latin,
associativity, neutral and inverse axioms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LimitExceeded, ValidationFailure

Row = tuple[int, ...]
Table = tuple[Row, ...]

#: Largest order enumerate_group_tables accepts by default.  Backtracking is
#: comfortable up to 6; the downstream brace pair scan is quadratic in the
#: number of tables, which explodes past that.
DEFAULT_CEILING = 6


def as_table(rows) -> Table:
    """Normalize a list or tuple of integer rows into a square tuple-of-tuples.

    Anything else (a string or number for the table or a row, a cell that is
    not an int, booleans included) is a ``parse`` failure; entries are then
    range-checked.
    """
    if not isinstance(rows, (list, tuple)):
        raise ValidationFailure("parse", None, "table must be a list of rows")
    for a, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ValidationFailure("parse", a, f"row {a} must be a list of integers")
    table = tuple(tuple(row) for row in rows)
    n = len(table)
    if n == 0:
        raise ValidationFailure("bad_order", 0, "table must have at least one row")
    for a, row in enumerate(table):
        if len(row) != n:
            raise ValidationFailure("bad_shape", a, f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if type(v) is not int:
                raise ValidationFailure("parse", (a, b), f"entry {v!r} at {(a, b)} is not an integer")
            if not 0 <= v < n:
                raise ValidationFailure("bad_entry", (a, b), f"entry {v} at {(a, b)} out of range 0..{n - 1}")
    return table


@dataclass(frozen=True)
class GroupTable:
    """A validated Cayley table with neutral element 0."""

    n: int
    table: Table
    inverses: Row

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inverses[a]

    @property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.n) for b in range(a))

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.table for v in row)


def _is_associative(table: Table) -> tuple[int, int, int] | None:
    """Return the lexicographically first non-associative triple, or None."""
    n = len(table)
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            ab = row_a[b]
            row_ab = table[ab]
            row_b = table[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    return (a, b, c)
    return None


def validate_group(rows) -> GroupTable:
    """Check the group axioms, raising ValidationFailure at the first violation.

    Axioms are checked in a fixed order (Latin rows, Latin columns,
    associativity, neutral element 0, inverses) so the reported failure is
    deterministic.
    """
    table = as_table(rows)
    n = len(table)
    for a in range(n):
        if len(set(table[a])) != n:
            raise ValidationFailure("not_latin", ("row", a))
    for b in range(n):
        if len({table[a][b] for a in range(n)}) != n:
            raise ValidationFailure("not_latin", ("col", b))
    bad = _is_associative(table)
    if bad is not None:
        raise ValidationFailure("not_associative", bad)
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise ValidationFailure("no_neutral", a)
    inverses = []
    for a in range(n):
        inv = next((b for b in range(n) if table[a][b] == 0 and table[b][a] == 0), None)
        if inv is None:
            raise ValidationFailure("no_inverse", a)
        inverses.append(inv)
    return GroupTable(n, table, tuple(inverses))


def enumerate_group_tables(n: int, ceiling: int = DEFAULT_CEILING) -> list[GroupTable]:
    """Every group table on 0..n-1 with neutral 0, each exactly once.

    Output is sorted by the flattened table, lexicographically; this is a
    consequence of filling cells row-major with ascending candidates, so runs
    are reproducible byte for byte.
    """
    if n < 1:
        raise ValidationFailure("bad_order", n)
    if n > ceiling:
        raise LimitExceeded(f"order {n} exceeds the enumeration ceiling {ceiling}")
    if n == 1:
        return [validate_group([[0]])]

    grid = [[-1] * n for _ in range(n)]
    for a in range(n):
        grid[0][a] = a
        grid[a][0] = a
    row_free = [set() if a == 0 else set(range(n)) - {a} for a in range(n)]
    col_free = [set() if b == 0 else set(range(n)) - {b} for b in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    out: list[GroupTable] = []

    def partial_ok(a: int, b: int, v: int) -> bool:
        # Associativity instances that placing v = a*b makes fully determined.
        for c in range(n):
            bc = grid[b][c]
            if bc >= 0:
                left, right = grid[v][c], grid[a][bc]
                if left >= 0 and right >= 0 and left != right:
                    return False
            ca = grid[c][a]
            if ca >= 0:
                left, right = grid[ca][b], grid[c][v]
                if left >= 0 and right >= 0 and left != right:
                    return False
        return True

    def fill(k: int) -> None:
        if k == len(cells):
            rows = tuple(tuple(r) for r in grid)
            if _is_associative(rows) is None:
                out.append(validate_group(rows))
            return
        a, b = cells[k]
        for v in sorted(row_free[a] & col_free[b]):
            grid[a][b] = v
            if partial_ok(a, b, v):
                row_free[a].discard(v)
                col_free[b].discard(v)
                fill(k + 1)
                row_free[a].add(v)
                col_free[b].add(v)
            grid[a][b] = -1

    fill(0)
    return out
