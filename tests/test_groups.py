"""Group-table validation and enumeration against the brute-force oracle."""

from __future__ import annotations

import pytest

import ybtwist as yb
from conftest import (
    backtrack_group_tables, cyclic_rows, oracle_automorphisms, oracle_group_tables, order8_type,
)
from ybtwist.groups import automorphisms

# A reduced Latin square of order 5 that is not associative (loops of order
# up to 4 are groups, so 5 is the smallest order where this is possible).
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_z2_is_valid_and_abelian(z2):
    assert z2.n == 2
    assert z2.is_abelian


def test_not_latin_row_witness():
    with pytest.raises(yb.ValidationFailure) as exc:
        yb.validate_group([[0, 1], [1, 1]])
    assert exc.value.kind == "not_latin"
    assert exc.value.witness == ("row", 1)


def test_not_latin_column_witness():
    with pytest.raises(yb.ValidationFailure) as exc:
        yb.validate_group([[0, 1], [0, 1]])
    assert exc.value.kind == "not_latin"
    assert exc.value.witness == ("col", 0)


def test_z4_is_valid(z4):
    assert z4.mul(3, 2) == 1
    assert z4.is_abelian


def test_entry_out_of_range():
    with pytest.raises(yb.ValidationFailure) as exc:
        yb.validate_group([[0, 1], [1, 2]])
    assert exc.value.kind == "bad_entry"


def test_neutral_must_be_zero():
    # The group {0,1} with identity 1: Latin and associative, wrong neutral.
    with pytest.raises(yb.ValidationFailure) as exc:
        yb.validate_group([[1, 0], [0, 1]])
    assert exc.value.kind == "no_neutral"
    assert exc.value.witness == 0


def test_non_associative_loop_witness():
    with pytest.raises(yb.ValidationFailure) as exc:
        yb.validate_group(LOOP5)
    assert exc.value.kind == "not_associative"
    assert exc.value.witness == (1, 1, 2)
    a, b, c = exc.value.witness
    t = LOOP5
    assert t[t[a][b]][c] != t[a][t[b][c]]


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 4)])
def test_enumeration_matches_oracle(n, count):
    tables = yb.enumerate_group_tables(n)
    oracle = oracle_group_tables(n)
    assert len(tables) == len(oracle) == count
    assert [g.table for g in tables] == oracle


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_backtracking_oracle(n):
    # table for table and in order, through the first order past the ceiling
    assert [g.table for g in yb.enumerate_group_tables(n, ceiling=7)] == backtrack_group_tables(n)


def test_order8_group_tables(order8_tables):
    # 5 isomorphism types: 3 abelian (Z8, Z4 x Z2, Z2^3) and 2 not (D4, Q8)
    tables = order8_tables
    assert len(tables) == 2760
    assert sum(g.is_abelian for g in tables) == 1920
    assert len({g.table for g in tables}) == 2760


def test_enumeration_counts_regression():
    # 5!/2 + 5!/6 labeled copies at order 6 (cyclic and symmetric-group types).
    assert len(yb.enumerate_group_tables(5)) == 6
    assert len(yb.enumerate_group_tables(6)) == 80


def test_enumeration_is_lexicographic_and_validated():
    for n in range(1, 5):
        tables = yb.enumerate_group_tables(n)
        flats = [g.flat() for g in tables]
        assert flats == sorted(flats)
        for g in tables:
            assert yb.validate_group(g.table).table == g.table


def test_enumeration_ceiling():
    with pytest.raises(yb.LimitExceeded):
        yb.enumerate_group_tables(7)
    with pytest.raises(yb.LimitExceeded):
        yb.enumerate_group_tables(5, ceiling=4)


def test_group_inverse_examples(z2, z4, klein):
    assert z4.inverses[1] == 3
    assert z2.inverses[1] == 1
    assert all(klein.inverses[a] == a for a in range(4))


def test_double_inverse():
    for n in range(1, 5):
        for g in yb.enumerate_group_tables(n):
            for a in range(n):
                assert g.inverses[g.inverses[a]] == a


def test_orders_up_to_five_are_abelian():
    # The smallest nonabelian group has order 6.
    for n in range(1, 6):
        assert all(g.is_abelian for g in yb.enumerate_group_tables(n))
    assert any(not g.is_abelian for g in yb.enumerate_group_tables(6))


def test_cyclic_rows_helper():
    assert yb.validate_group(cyclic_rows(3)).n == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_automorphisms_match_brute_force(n):
    for g in yb.enumerate_group_tables(n):
        assert automorphisms(g) == oracle_automorphisms(g.table)


def test_automorphisms_one_table_per_type_at_orders_7_and_8(order8_tables):
    z7 = yb.enumerate_group_tables(7, ceiling=7)[0]
    assert automorphisms(z7) == oracle_automorphisms(z7.table)
    assert len(automorphisms(z7)) == 6
    sizes = {}
    for g in order8_tables:
        kind = order8_type(g.table)
        if kind not in sizes:
            auts = automorphisms(g)
            assert auts == oracle_automorphisms(g.table)
            sizes[kind] = len(auts)
    assert sizes == {"Z8": 4, "Z4xZ2": 8, "Z2^3": 168, "D4": 8, "Q8": 24}
