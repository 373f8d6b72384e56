"""Shared fixtures and independent brute-force oracles.

The oracles here re-derive enumeration counts and validity with none of the
library's search code: group tables come from filtering raw row-permutation
products, braces from a naive pair scan over those tables.  They are the
reference the fast implementations are checked against.
"""

from __future__ import annotations

from itertools import permutations, product

import pytest

import ybtwist as yb


# ----------------------------------------------------------------- oracles


def oracle_group_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All group tables with neutral 0, by brute force over row permutations."""
    if n == 1:
        return [((0,),)]
    tables = []
    candidate_rows = [
        [p for p in permutations(range(n)) if p[0] == a] for a in range(n)
    ]
    for rows in product(*candidate_rows[1:]):
        table = (tuple(range(n)),) + rows
        cols_ok = all(
            {table[a][b] for a in range(n)} == set(range(n)) for b in range(n)
        )
        if not cols_ok:
            continue
        assoc = all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in range(n) for b in range(n) for c in range(n)
        )
        if not assoc:
            continue
        has_inverses = all(
            any(table[a][b] == 0 and table[b][a] == 0 for b in range(n))
            for a in range(n)
        )
        if has_inverses:
            tables.append(table)
    return sorted(tables)


def oracle_brace_pairs(n: int, skew: bool = True) -> list[tuple]:
    """All (add, mul) table pairs satisfying left distributivity, naively."""
    tables = oracle_group_tables(n)
    found = []
    for add in tables:
        abelian = all(add[a][b] == add[b][a] for a in range(n) for b in range(n))
        if not skew and not abelian:
            continue
        neg = [next(b for b in range(n) if add[a][b] == 0) for a in range(n)]
        for mul in tables:
            ok = True
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        lhs = mul[a][add[b][c]]
                        rhs = add[add[mul[a][b]][neg[a]]][mul[a][c]]
                        if lhs != rhs:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                found.append((add, mul))
    return found


# ---------------------------------------------------------------- fixtures


def cyclic_rows(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


KLEIN_ROWS = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
Z4_RADICAL_MUL_ROWS = [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)]

#: yangian checks whose verdict depends on the order n alone
N_ONLY = ("yangian.defining_relations", "yangian.displayed_relations", "yangian.unitarity",
          "yangian.rtt", "yangian.coassociativity", "yangian.antipode_series")

#: the entries that build a brace's AlgebraContext, in report order; run_suites
#: builds it in the first one present and reuses it in the others
CONTEXT_ENTRIES = ("matrix.rep_consistency", "universal.construction", "yangian.context")


@pytest.fixture(scope="session")
def z2():
    return yb.validate_group(cyclic_rows(2))


@pytest.fixture(scope="session")
def z4():
    return yb.validate_group(cyclic_rows(4))


@pytest.fixture(scope="session")
def klein():
    return yb.validate_group(KLEIN_ROWS)


@pytest.fixture(scope="session")
def trivial2():
    return yb.trivial_brace(2)


@pytest.fixture(scope="session")
def z4_radical(z4):
    """The order-4 brace with a o b = a + b + 2ab; sigma_a(b) = (1 + 2a) b mod 4."""
    return yb.validate_brace(z4, yb.validate_group(Z4_RADICAL_MUL_ROWS))


@pytest.fixture(scope="session")
def z6_brace():
    """Order-6 brace with abelian addition and nonabelian multiplication:
    a o b = a + (-1)^a b mod 6, so (X, o) has two generators of orders 2 and 3."""
    add = yb.validate_group(cyclic_rows(6))
    mul = yb.validate_group(
        [[(a + (b if a % 2 == 0 else -b)) % 6 for b in range(6)] for a in range(6)]
    )
    return yb.validate_brace(add, mul)


@pytest.fixture(scope="session")
def s3_table():
    nonabelian = [g for g in yb.enumerate_group_tables(6) if not g.is_abelian]
    return nonabelian[0]


@pytest.fixture(scope="session")
def s3_trivial_skew(s3_table):
    """mul = add on a nonabelian group: a genuine skew brace, flip solution."""
    return yb.validate_brace(s3_table, s3_table)


@pytest.fixture(scope="session")
def order6_nonabelian():
    """The first labelled order-6 skew brace with nonabelian addition whose
    sigma/tau maps derive and whose sigma is nontrivial."""
    for b in yb.enumerate_braces(6):
        if b.is_brace:
            continue
        try:
            m = yb.derive_sigma_tau(b)
        except yb.ValidationFailure:
            continue
        if any(list(row) != list(range(6)) for row in m.sigma):
            return b
    raise AssertionError("no order-6 skew brace with nonabelian addition and nontrivial sigma")


@pytest.fixture(scope="session")
def braces_up_to_4():
    return {n: yb.enumerate_braces(n, skew=True) for n in range(1, 5)}


@pytest.fixture(scope="session")
def z4_radical_ctx(z4_radical):
    return yb.algebra_from_brace(z4_radical)


@pytest.fixture(scope="session")
def trivial2_ctx(trivial2):
    return yb.algebra_from_brace(trivial2)
