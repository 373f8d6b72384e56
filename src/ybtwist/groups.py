"""Validation and exhaustive enumeration of finite group tables, and their
automorphism groups.

Elements are the integers 0..n-1 and the neutral element is always 0, so a
group here is nothing but an n x n Cayley table passing the Latin,
associativity, neutral and inverse axioms.  Enumeration searches the
left-regular representations of the groups rather than the table cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .errors import LimitExceeded, ValidationFailure

Row = tuple[int, ...]
Table = tuple[Row, ...]

#: Largest order enumerate_group_tables accepts by default.  Tables and skew
#: braces both come within seconds through order 8 (2760 tables, 50 640 braces
#: in ~4 s), but the labelled order-8 catalog is too large to verify at every
#: level (~0.2 s a brace), so the default stays at the largest order whose
#: catalog is verified whole.
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
    associativity, neutral element 0) so the reported failure is
    deterministic.  No inverse can be missing: a Latin row holds 0 once, and
    a right inverse in an associative table with a neutral element is
    two-sided.
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
    return GroupTable(n, table, tuple(row.index(0) for row in table))


def _semiregular(n: int) -> dict[int, list[Row]]:
    """The fixed-point-free permutations of 0..n-1 whose cycles share one length,
    keyed by the image of 0.  Every non-identity element of a regular group of
    degree n has this shape."""
    out: dict[int, list[Row]] = {c: [] for c in range(1, n)}
    perm = [0] * n

    def cycles(d: int, free: tuple[int, ...]) -> None:
        # A d-cycle through the least free point, then cycles covering the rest.
        if not free:
            out[perm[0]].append(tuple(perm))
            return
        for tail in permutations(free[1:], d - 1):
            cycle = (free[0], *tail)
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                perm[x] = y
            cycles(d, tuple(x for x in free[1:] if x not in tail))

    for d in range(2, n + 1):
        if n % d == 0:
            cycles(d, tuple(range(n)))
    return out


def enumerate_group_tables(n: int, ceiling: int = DEFAULT_CEILING) -> list[GroupTable]:
    """Every group table on 0..n-1 with neutral 0, each exactly once.

    A table is its left-regular representation: row a is the permutation
    L_a = (b -> a b), with L_a(0) = a and L_a L_b = L_{L_a(b)} (Cayley).  The
    search fixes the least undetermined row c to each semiregular permutation
    sending 0 to c, closes the rows under composition, and abandons the branch
    as soon as two different permutations send 0 to the same point.  The
    finished group determines every choice made on the way, so each table is
    found once.  Output is sorted by the flattened table, lexicographically,
    so runs are reproducible byte for byte.
    """
    if n < 1:
        raise ValidationFailure("bad_order", n)
    if n > ceiling:
        raise LimitExceeded(f"order {n} exceeds the enumeration ceiling {ceiling}")
    candidates = _semiregular(n)
    found: list[Table] = []

    def close(rows: list, gens: tuple[Row, ...], p: Row) -> list | None:
        # The determined rows are the group <gens>.  Right-multiply them by p,
        # then every new row by every generator, until nothing is new.
        rows = list(rows)
        gens = (p, *gens)
        work = [(x, (p,)) for x in rows if x is not None]
        for x, by in work:
            for g in by:
                q = tuple(map(x.__getitem__, g))
                known = rows[q[0]]
                if known is None:
                    rows[q[0]] = q
                    work.append((q, gens))
                elif known != q:
                    return None
        return rows

    def search(rows: list, gens: tuple[Row, ...]) -> None:
        c = next((a for a, r in enumerate(rows) if r is None), None)
        if c is None:
            found.append(tuple(rows))
            return
        # L_c L_a = L_{c a} lies in the coset cH, off the determined group H.
        determined = [a for a, r in enumerate(rows) if r is not None]
        for p in candidates[c]:
            if any(rows[p[a]] is not None for a in determined):
                continue
            closed = close(rows, gens, p)
            if closed is not None:
                search(closed, (p, *gens))

    search([tuple(range(n))] + [None] * (n - 1), ())
    return [validate_group(t) for t in sorted(found)]


def automorphisms(g: GroupTable) -> list[Row]:
    """Aut(g) as the sorted permutations phi of 0..n-1 with phi(0) = 0.

    Generators are picked greedily: the least element outside the subgroup
    generated so far.  An automorphism is fixed by its generator images, and
    each image has the order of its generator, so every tuple of such images
    is extended along the Cayley-graph edges x -> x g (phi(x g) = phi(x)
    phi(g)) from phi(0) = 0.  An extension that gives some element two images
    is no homomorphism; one that hits every element is kept.
    """
    t, n = g.table, g.n
    order = [1] * n
    for x in range(1, n):
        y = x
        while y:
            y = t[y][x]
            order[x] += 1
    gens: list[int] = []
    span = [0]
    for x in range(1, n):
        if x not in span:
            gens.append(x)
            span = [0]
            for y in span:
                span += [z for z in (t[y][s] for s in gens) if z not in span]
    images = [[y for y in range(1, n) if order[y] == order[x]] for x in gens]

    def extend(chosen: tuple[int, ...]) -> list | None:
        phi = [0] + [None] * (n - 1)
        for x in span:
            px = t[phi[x]]
            for s, image in zip(gens, chosen):
                y, py = t[x][s], px[image]
                if phi[y] is None:
                    phi[y] = py
                elif phi[y] != py:
                    return None
        return phi

    out: list[Row] = []
    for chosen in product(*images):
        phi = extend(chosen)
        if phi is not None and len(set(phi)) == n:
            out.append(tuple(phi))
    return sorted(out)
