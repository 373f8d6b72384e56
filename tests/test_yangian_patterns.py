"""The n-only yangian checks decided on S_n orbit representatives.

Their reports must equal the tuple-by-tuple oracles in ``conftest.py``.  The
reduction rests on S_n equivariance of the evaluation images, the coproduct
and the antipode, which is checked here directly.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import permutations, product

import pytest
from conftest import (
    oracle_antipode_series,
    oracle_coassociativity,
    oracle_defining_relations,
    oracle_displayed_relations,
    oracle_matmul,
)

from ybtwist import yangian
from ybtwist.matrices import ExactMatrix
from ybtwist.ncpoly import NCTensor, antipode_table, coproduct_gen
from ybtwist.yangian import (
    _patterns,
    antipode_series,
    check_defining_relations,
    check_displayed_exchange_relations,
    coassociativity_report,
)

NS = (1, 2, 3, 4, 5)


# ------------------------------------------------------------------ _patterns


def test_pattern_counts():
    assert [len(_patterns(n, 4)) for n in NS] == [1, 8, 14, 15, 15]


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("n", NS)
def test_patterns_are_least_tuples_of_the_orbits(n, k):
    orbits = {frozenset(tuple(pi[x] for x in t) for pi in permutations(range(n)))
              for t in product(range(n), repeat=k)}
    pats = _patterns(n, k)
    assert pats == sorted((min(orbit), len(orbit)) for orbit in orbits)
    assert sum(size for _, size in pats) == n ** k


# ------------------------------------------------------------- oracle reports


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("pmax, mmax", [(4, 4), (2, 2), (3, 1)])
@pytest.mark.parametrize("n", NS)
def test_defining_relations_match_oracle(n, pmax, mmax, transpose):
    assert check_defining_relations(n, pmax, mmax, transpose) \
        == oracle_defining_relations(n, pmax, mmax, transpose)


def test_transposed_control_keeps_its_witness():
    check = check_defining_relations(3, 2, 2, transpose=True).check("relations")
    assert check.witness == (0, 1, 0, 0, 0, 1)
    assert check.detail["violations"] == 168


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("n", NS)
def test_displayed_relations_match_oracle(n, transposed, monkeypatch):
    if transposed:
        monkeypatch.setattr(yangian, "_eval_image",
                            partial(yangian._eval_image, transpose=True))
    report = check_displayed_exchange_relations(n)
    assert report == oracle_displayed_relations(n)
    if transposed and n > 1:
        assert not report.ok


@pytest.mark.parametrize("n", NS)
def test_displayed_relations_match_oracle_with_level3_transposed(n, monkeypatch):
    # the level-3 case is the cell (2, 1); with only the level-3 images
    # transposed it first fails at (0, 1, 0, 0), where the cell (1, 2) would
    # first fail at (0, 0, 0, 1)
    clean = yangian._eval_image
    monkeypatch.setattr(yangian, "_eval_image",
                        lambda n, m, i, j, transpose=False: clean(n, m, i, j, m == 3))
    report = check_displayed_exchange_relations(n)
    assert report == oracle_displayed_relations(n)
    assert report.check("level3_minus_level22").witness == (None if n == 1 else (0, 1, 0, 0))


@pytest.mark.parametrize("n", NS)
def test_displayed_relations_read_the_level0_image(n, monkeypatch):
    # each displayed relation is a cell (q, 0) or (2, 1) of the defining
    # relation, so the check reads A^{(0)} from the images, where the oracle
    # writes delta explicitly: a zero level-0 image breaks the three exchange
    # cells (q, 0) for n >= 2 and the oracle cannot see it
    clean = yangian._eval_image
    monkeypatch.setattr(yangian, "_eval_image", lambda n, m, i, j, transpose=False: (
        clean(n, m, i, j, transpose) if m else ExactMatrix.zero(n)))
    assert oracle_displayed_relations(n).ok
    report = check_displayed_exchange_relations(n)
    assert [c.name for c in report.failures()] == (
        [] if n == 1 else ["level1_level1", "level2_level1", "level3_level1"])


@pytest.mark.parametrize("failing", [False, True])
@pytest.mark.parametrize("n", NS)
def test_coassociativity_matches_oracle(n, failing, monkeypatch):
    if failing:
        monkeypatch.setattr(yangian, "tensor_coproduct", lambda d, slot, table: slot)
    report = coassociativity_report(n)
    assert report == oracle_coassociativity(n, 3)
    assert report.ok is not failing


@pytest.mark.parametrize("n", NS)
def test_antipode_series_matches_oracle(n):
    assert antipode_series(n) == oracle_antipode_series(n, 4)


# ------------------------------------------------- S_n equivariance (the premise)


def _relabelled(t: NCTensor, pi) -> NCTensor:
    """L^{(m)}_{ab} -> L^{(m)}_{pi a, pi b} in every letter of every slot."""
    return NCTensor(t.k, {tuple(tuple((m, pi[a], pi[b]) for m, a, b in word) for word in key): c
                          for key, c in t.coeffs.items()})


def _perms(n):
    """Every permutation of range(n) for n <= 4, a seeded sample of 12 at n = 5."""
    perms = list(permutations(range(n)))
    return perms if n <= 4 else random.Random(n).sample(perms, 12)


@pytest.mark.parametrize("n", NS)
def test_eval_images_are_equivariant(n):
    for pi in _perms(n):
        p = ExactMatrix(n, {(pi[x], x): 1 for x in range(n)})
        p_inv = ExactMatrix(n, {(x, pi[x]): 1 for x in range(n)})
        for m, i, j, transpose in product(range(6), range(n), range(n), (False, True)):
            assert oracle_matmul(p, yangian._eval_image(n, m, i, j, transpose), p_inv) \
                == yangian._eval_image(n, m, pi[i], pi[j], transpose), (pi, m, i, j, transpose)


@pytest.mark.parametrize("n", NS)
def test_coproduct_and_antipode_are_equivariant(n):
    table = antipode_table(n)
    for pi in _perms(n):
        for m, a, b in product(range(1, 5), range(n), range(n)):
            assert _relabelled(coproduct_gen(m, a, b, n), pi) == coproduct_gen(m, pi[a], pi[b], n)
            assert _relabelled(table[(m, a, b)], pi) == table[(m, pi[a], pi[b])]
