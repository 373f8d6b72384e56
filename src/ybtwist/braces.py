"""Skew braces and the set-theoretic Yang-Baxter maps they induce.

A skew brace is a pair of group tables (+, o) on the same set with neutral 0
linked by a o (b + c) = a o b - a + a o c.  It induces the maps

    sigma_a(b) = -a + a o b,      tau_b(a) = sigma^{-1}_{sigma_a(b)}(a),

whose pair map r(a, b) = (sigma_a(b), tau_b(a)) is the candidate solution
checked by check_braid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationFailure
from .groups import DEFAULT_CEILING, GroupTable, Row, Table, automorphisms, enumerate_group_tables
from .reports import PropertyReport


@dataclass(frozen=True)
class SkewBrace:
    """Two group tables on the same set, sharing neutral 0, with left distributivity."""

    n: int
    add: GroupTable
    mul: GroupTable

    @property
    def is_brace(self) -> bool:
        """True when addition is abelian (a brace, as opposed to a skew brace)."""
        return self.add.is_abelian

    def plus(self, a: int, b: int) -> int:
        return self.add.table[a][b]

    def circle(self, a: int, b: int) -> int:
        return self.mul.table[a][b]

    def neg(self, a: int) -> int:
        return self.add.inverses[a]


@dataclass(frozen=True)
class YBMap:
    """Lookup tables sigma[a][b] and tau[b][a] defining r(a, b) = (sigma_a(b), tau_b(a))."""

    n: int
    sigma: Table
    tau: Table

    def r(self, a: int, b: int) -> tuple[int, int]:
        return self.sigma[a][b], self.tau[b][a]


def validate_brace(add: GroupTable, mul: GroupTable) -> SkewBrace:
    """Check a o (b + c) = a o b - a + a o c over all triples.

    The witness is the lexicographically first failing (a, b, c).
    """
    if add.n != mul.n:
        raise ValidationFailure("size_mismatch", (add.n, mul.n))
    n = add.n
    at, mt, neg = add.table, mul.table, add.inverses
    for a in range(n):
        na = neg[a]
        row_a = mt[a]
        for b in range(n):
            prefix = at[row_a[b]][na]  # a o b - a
            row_bc = at[b]
            prefix_row = at[prefix]
            for c in range(n):
                if mt[a][row_bc[c]] != prefix_row[row_a[c]]:
                    raise ValidationFailure("distributivity", (a, b, c))
    return SkewBrace(n, add, mul)


def _perm_inverse(row) -> tuple[int, ...]:
    inv = [0] * len(row)
    for i, v in enumerate(row):
        inv[v] = i
    return tuple(inv)


def ybmap_from_sigma(sigma_rows) -> YBMap:
    """Build a YBMap from sigma alone; tau is derived, never trusted from input.

    Raises ValidationFailure when a sigma row fails to be a permutation or a
    derived tau row is not a permutation.  The left-inverse law
    sigma_{sigma_a(b)}(tau_b(a)) = a needs no check: tau_b(a) is defined as
    sigma^{-1}_{sigma_a(b)}(a), so it holds once the sigma rows are permutations.
    """
    sigma: Table = tuple(tuple(int(v) for v in row) for row in sigma_rows)
    n = len(sigma)
    full = set(range(n))
    for a, row in enumerate(sigma):
        if set(row) != full or len(row) != n:
            raise ValidationFailure("sigma_not_bijective", a)
    sigma_inv = tuple(_perm_inverse(row) for row in sigma)
    tau = tuple(
        tuple(sigma_inv[sigma[a][b]][a] for a in range(n))
        for b in range(n)
    )
    for b, row in enumerate(tau):
        if set(row) != full:
            raise ValidationFailure("tau_not_bijective", b)
    return YBMap(n, sigma, tau)


def derive_sigma_tau(brace: SkewBrace) -> YBMap:
    """The maps sigma_a(b) = -a + a o b and tau_b(a) = sigma^{-1}_{sigma_a(b)}(a)."""
    n = brace.n
    sigma = [
        [brace.plus(brace.neg(a), brace.circle(a, b)) for b in range(n)]
        for a in range(n)
    ]
    return ybmap_from_sigma(sigma)


def check_braid(m: YBMap) -> PropertyReport:
    """Verify (r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on all triples."""
    n, s, t = m.n, m.sigma, m.tau

    def r12(x, y, z):
        return s[x][y], t[y][x], z

    def r23(x, y, z):
        return x, s[y][z], t[z][y]

    report = PropertyReport("braid")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = r12(*r23(*r12(x, y, z)))
                rhs = r23(*r12(*r23(x, y, z)))
                if lhs != rhs:
                    report.add(
                        "braid", False,
                        witness={"triple": (x, y, z), "lhs": lhs, "rhs": rhs},
                    )
                    return report
    report.add("braid", True)
    return report


def check_brace_identities(brace: SkewBrace) -> PropertyReport:
    """Exhaustively check the identities a skew brace's sigma/tau must satisfy.

    Checks, over all index tuples:
      (i)   sigma_a(b) o tau_b(a) = -a + a o b + a
      (ii)  sigma_a(sigma_b(c)) = sigma_{a o b}(c)
      (iii) a o (b + c) = a o b - a + a o c
      (iv)  sigma_a(0) = 0, tau_0(a) = a, sigma_0(a) = a, tau_a(0) = 0
      (v)   a o b = sigma_a(b) o tau_b(a) exactly where a + a o b = a o b + a,
            decided on every skew brace (so (v) itself holds iff + is abelian)
    """
    m = derive_sigma_tau(brace)
    n, s, t = brace.n, m.sigma, m.tau
    plus, circle, neg = brace.plus, brace.circle, brace.neg
    report = PropertyReport("brace_identities")

    w = next(
        ((a, b) for a in range(n) for b in range(n)
         if circle(s[a][b], t[b][a]) != plus(plus(neg(a), circle(a, b)), a)),
        None,
    )
    report.add("circle_of_pair", w is None, witness=w)

    w = next(
        ((a, b, c) for a in range(n) for b in range(n) for c in range(n)
         if s[a][s[b][c]] != s[circle(a, b)][c]),
        None,
    )
    report.add("sigma_composition", w is None, witness=w)

    w = next(
        ((a, b, c) for a in range(n) for b in range(n) for c in range(n)
         if circle(a, plus(b, c)) != plus(plus(circle(a, b), neg(a)), circle(a, c))),
        None,
    )
    report.add("distributivity", w is None, witness=w)

    w = next(
        (a for a in range(n)
         if s[a][0] != 0 or t[0][a] != a or s[0][a] != a or t[a][0] != 0),
        None,
    )
    report.add("neutral_values", w is None, witness=w)

    # By (i), (v) holds at (a, b) exactly when a and a o b commute under +.
    w = next(
        ((a, b) for a in range(n) for b in range(n)
         if (circle(a, b) == circle(s[a][b], t[b][a]))
         != (plus(a, circle(a, b)) == plus(circle(a, b), a))),
        None,
    )
    report.add("circle_factorization", w is None, witness=w)
    return report


def enumerate_braces(n: int, skew: bool = True, ceiling: int = DEFAULT_CEILING) -> list[SkewBrace]:
    """All ordered pairs (add, mul) of group tables forming a skew brace.

    With skew=False the additive table is restricted to abelian groups.
    Pairs appear sorted by (add, mul) flattened tables, matching the
    enumeration order of the underlying group tables.  A pair is a skew brace
    exactly when every lambda_a(b) = -a + a o b is an automorphism of (A, +)
    (Guarnieri-Vendramin).  So the o-tables are indexed once by their row 1,
    and for each additive table and each alpha in Aut(A, +) only the tables
    with 1 o b = 1 + alpha(b) are candidates; a candidate whose rows
    lambda_2..lambda_{n-1} all lie in Aut(A, +) reaches validate_brace, which
    still decides each one.  Order 1 has no row 1: its one table pairs with
    itself.
    """
    groups = enumerate_group_tables(n, ceiling)
    adds = groups if skew else [g for g in groups if g.is_abelian]
    if n == 1:
        return [validate_brace(add, mul) for add in adds for mul in groups]
    by_row1 = _row1_index(groups)
    return [b for add in adds for b in _braces_with_addition(add, by_row1)]


_Row1Index = dict[Row, list[tuple[int, GroupTable]]]


def _row1_index(groups: list[GroupTable]) -> _Row1Index:
    """The tables keyed by their row 1, each with its position in ``groups``."""
    by_row1: _Row1Index = {}
    for i, mul in enumerate(groups):
        by_row1.setdefault(mul.table[1], []).append((i, mul))
    return by_row1


def _braces_with_addition(add: GroupTable, by_row1: _Row1Index) -> list[SkewBrace]:
    """The skew braces (add, mul) over the tables of ``_row1_index``, in table order."""
    n, at, neg = add.n, add.table, add.inverses
    auts = automorphisms(add)
    is_aut = set(auts)
    minus = [at[neg[a]].__getitem__ for a in range(n)]  # b -> -a + b
    found = [
        (i, mul)
        for alpha in auts
        for i, mul in by_row1.get(tuple(at[1][v] for v in alpha), ())
        if all(tuple(map(minus[a], mul.table[a])) in is_aut for a in range(2, n))
    ]
    return [validate_brace(add, mul) for _i, mul in sorted(found, key=lambda f: f[0])]


def is_involutive(m: YBMap) -> bool:
    """True iff r(r(a, b)) = (a, b) for all a, b."""
    return all(
        m.r(*m.r(a, b)) == (a, b)
        for a in range(m.n)
        for b in range(m.n)
    )


def _relabeled(table: Table, perm) -> Table:
    inv = _perm_inverse(perm)
    n = len(perm)
    return tuple(
        tuple(perm[table[inv[a]][inv[b]]] for b in range(n)) for a in range(n)
    )


def dedupe_braces(found: list[SkewBrace]) -> list[SkewBrace]:
    """Optional post-pass: one representative per isomorphism class.

    Two braces are isomorphic when one relabeling of 0..n-1 fixing 0 carries
    both tables onto the other's; the search is over all (n-1)! such
    relabelings, which is fine through order 6.
    """
    from itertools import permutations

    reps: list[SkewBrace] = []
    seen: set = set()
    for b in found:
        key = (b.add.table, b.mul.table)
        if key in seen:
            continue
        reps.append(b)
        for tail in permutations(range(1, b.n)):
            perm = (0, *tail)
            seen.add((_relabeled(b.add.table, perm), _relabeled(b.mul.table, perm)))
    return reps


def trivial_brace(n: int, table_rows=None) -> SkewBrace:
    """The brace with mul = add; defaults to the cyclic table of order n."""
    from .groups import validate_group

    if table_rows is None:
        table_rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    g = validate_group(table_rows)
    return validate_brace(g, g)
