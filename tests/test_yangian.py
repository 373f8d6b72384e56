"""RTT identities as pole-cleared polynomial matrices, and the symbolic
coproduct/antipode layer."""

from __future__ import annotations

import pytest

import ybtwist as yb
from conftest import oracle_antipode_table, oracle_coproduct_gen, tensor2
from ybtwist import yangian
from ybtwist.matrices import ExactMatrix, flip_matrix
from ybtwist.ncpoly import NCTensor, antipode_table, coproduct_gen, gen, tensor_coproduct
from ybtwist.rational import BivarPoly
from ybtwist.yangian import (
    adjudicate_twisted_coproduct,
    antipode_series,
    check_augmented_relations,
    check_defining_relations,
    check_displayed_exchange_relations,
    check_rtt,
    check_twisted_rtt,
    coassociativity_report,
    coproduct_table,
    twisted_l,
    twisted_r_lambda,
    unitarity_report,
    yangian_r,
)


U = BivarPoly.var(0) - BivarPoly.var(1)


def test_yang_r_at_unit_spacing():
    # with lambda1 - lambda2 = 1 the cleared 4x4 matrix (l1 - l2) R is 1 + P
    r = yangian_r(2)
    at = ExactMatrix(4, {k: v.evaluate(2, 1) for k, v in r.coeffs.items()})
    expected = ExactMatrix(4, {(0, 0): 2, (1, 1): 1, (1, 2): 1,
                               (2, 1): 1, (2, 2): 1, (3, 3): 2})
    assert at == expected


def test_yang_r_constant_term_is_identity():
    # (l1 - l2) R = (l1 - l2) 1 + P: the (l1 - l2) coefficient is the identity
    # and the constant term is the flip
    n = 3
    p = ExactMatrix(9, {(a * n + b, b * n + a): 1 for a in range(n) for b in range(n)})
    r = yangian_r(n)
    assert r == U * ExactMatrix.identity(9) + p
    assert ExactMatrix(9, {k: v.coeffs.get((1, 0), 0) for k, v in r.coeffs.items()}) \
        == ExactMatrix.identity(9)
    assert ExactMatrix(9, {k: v.coeffs.get((0, 0), 0) for k, v in r.coeffs.items()}) == p


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unitarity(n):
    assert unitarity_report(n).ok


@pytest.mark.parametrize("fn", [yangian_r, unitarity_report, check_rtt])
@pytest.mark.parametrize("n", [0, -1])
def test_n_below_one_is_refused(fn, n):
    with pytest.raises(yb.LimitExceeded):
        fn(n)


@pytest.mark.parametrize("n", [2, 3])
def test_defining_relations_zero_violations(n):
    report = check_defining_relations(n, 3, 3)
    assert report.ok
    assert report.checks[0].detail["violations"] == 0


@pytest.mark.parametrize("pmax, mmax", [(-1, 2), (2, -1), (yangian.MAX_LEVEL + 1, 0),
                                        (0, yangian.MAX_LEVEL + 1)])
def test_defining_relations_refuse_levels_outside_range(pmax, mmax):
    # pmax = -1 used to report ok with 0 violations, having checked nothing
    with pytest.raises(yb.LimitExceeded):
        check_defining_relations(2, pmax, mmax)


def test_defining_relations_accept_the_range_ends():
    assert check_defining_relations(2, 0, 0).ok
    assert check_defining_relations(2, yangian.MAX_LEVEL, 0).ok


@pytest.mark.parametrize("check", [check_defining_relations, check_displayed_exchange_relations,
                                   coassociativity_report, lambda n: antipode_series(n)[1]],
                         ids=["defining", "displayed", "coassociativity", "antipode"])
def test_n_only_checks_refuse_n_below_one_and_accept_one(check):
    # n = 0 and n = -1 used to pass vacuously, with no index tuple to check
    for n in (0, -1):
        with pytest.raises(yb.LimitExceeded):
            check(n)
    assert check(1).ok


def test_defining_relations_corrupted_rep():
    report = check_defining_relations(2, 2, 2, transpose=True)
    assert not report.ok
    assert report.checks[0].detail["violations"] > 0
    assert report.checks[0].witness is not None


def test_displayed_exchange_relations():
    assert check_displayed_exchange_relations(2).ok
    assert check_displayed_exchange_relations(3).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rtt_exact(n):
    assert check_rtt(n).ok


def test_rtt_negative_control():
    for n in (2, 3, 4):
        report = check_rtt(n, corrupt_shift=2)
        assert not report.ok
        witness = report.checks[0].witness
        assert witness is not None and witness["lhs"] != witness["rhs"]


def test_augmented_relations(trivial2_ctx, z4_radical_ctx):
    assert check_augmented_relations(trivial2_ctx).ok
    assert check_augmented_relations(z4_radical_ctx).ok


def test_augmented_relations_corrupted_sigma(z4_radical):
    # For bijective sigma the w-L exchange is representation-theoretic
    # bookkeeping, so the corruption has to break bijectivity to be visible.
    ctx = yb.algebra_from_brace(z4_radical)
    bad = [list(row) for row in ctx.sigma]
    bad[1] = [0, 1, 2, 1]
    ctx.sigma = tuple(tuple(r) for r in bad)
    report = check_augmented_relations(ctx)
    assert not report.check("w_exchange").passed
    assert report.check("w_exchange").witness is not None


def test_twisted_r_is_conjugated_r(trivial2_ctx, z4_radical_ctx):
    for ctx in (trivial2_ctx, z4_radical_ctx):
        report = check_twisted_rtt(ctx)
        assert report.check("conjugation_form").passed
        assert report.check("twisted_rtt").passed


def test_twisted_r_trivial_reduces_to_untwisted(trivial2_ctx):
    assert twisted_r_lambda(trivial2_ctx) == yangian_r(2)
    # L^F = L when the twist is the identity: (l1 - 1) L = (l1 - 1) 1 + P
    n = trivial2_ctx.n
    pole = BivarPoly.var(0) - 1
    l_plain = pole * ExactMatrix.identity(n * n) + flip_matrix(n)
    assert twisted_l(trivial2_ctx) == l_plain


def test_twisted_rtt_all_braces_up_to_3(braces_up_to_4):
    for n in (1, 2, 3):
        for b in braces_up_to_4[n]:
            assert check_twisted_rtt(yb.algebra_from_brace(b)).ok


# ------------------------------------------------------------ symbolic layer


def test_coproduct_displays():
    n = 2
    table = coproduct_table(n)
    one = NCTensor.one(1)
    for a in range(n):
        for b in range(n):
            l1 = gen(1, a, b)
            expected1 = tensor2(l1, one) + tensor2(one, l1)
            assert table[(1, a, b)] == expected1
            l2 = gen(2, a, b)
            expected2 = tensor2(l2, one) + tensor2(one, l2)
            for c in range(n):
                expected2 = expected2 + tensor2(gen(1, c, b), gen(1, a, c))
            assert table[(2, a, b)] == expected2
            l3 = gen(3, a, b)
            expected3 = tensor2(l3, one) + tensor2(one, l3)
            for c in range(n):
                expected3 = expected3 + tensor2(gen(1, c, b), gen(2, a, c))
                expected3 = expected3 + tensor2(gen(2, c, b), gen(1, a, c))
            assert table[(3, a, b)] == expected3


@pytest.mark.parametrize("n", range(1, 6))
def test_symbolic_tables_match_term_by_term_sums(n):
    for m in range(0, 5):
        for a in range(n):
            for b in range(n):
                assert coproduct_gen(m, a, b, n) == oracle_coproduct_gen(m, a, b, n)
    assert antipode_table(n) == oracle_antipode_table(n, 4)


def test_coassociativity_symbolic():
    assert coassociativity_report(2).ok
    assert coassociativity_report(3).ok


def _displayed_coproduct(m, a, b, n):
    """Delta(L^{(m)}_{a,b}) for m = 1, 2, as displayed."""
    one = NCTensor.one(1)
    out = tensor2(gen(m, a, b), one) + tensor2(one, gen(m, a, b))
    if m == 2:
        for c in range(n):
            out = out + tensor2(gen(1, c, b), gen(1, a, c))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_coproduct_multiplies_letter_images(n):
    # Delta is an algebra homomorphism: a word of two or three letters maps to
    # the product of its letters' coproducts, alone and beside another slot
    table = coproduct_table(n)
    top = n - 1
    words = [((1, 0, top), (2, top, 0)), ((2, 0, 0), (1, top, 0), (1, 0, top))]
    other = gen(1, top, 0) + 3 * NCTensor.one(1)
    images = []
    for word in words:
        poly = NCTensor(1, {(word,): 1})
        expected = NCTensor.one(2)
        for letter in word:
            expected = expected * _displayed_coproduct(*letter, n)
        images.append(expected)
        assert tensor_coproduct(poly, 0, table) == expected
        assert tensor_coproduct(tensor2(poly, other), 0, table) == tensor2(expected, other)
        assert tensor_coproduct(tensor2(other, poly), 1, table) == tensor2(other, expected)
    combo = NCTensor(1, {(words[0],): 2, (words[1],): -1})
    assert tensor_coproduct(combo, 0, table) == 2 * images[0] - images[1]


def test_coassociativity_witness_is_first(monkeypatch):
    # a coproduct that fails on every generator must report the first one
    monkeypatch.setattr(yangian, "tensor_coproduct", lambda d, slot, table: slot)
    report = coassociativity_report(2)
    assert not report.ok
    assert report.checks[0].witness == (1, 0, 0)


def test_antipode_displays():
    n = 2
    table, report = antipode_series(n)
    assert report.ok
    for a in range(n):
        for b in range(n):
            assert table[(1, a, b)] == -gen(1, a, b)
            expected2 = -gen(2, a, b)
            for c in range(n):
                expected2 = expected2 + gen(1, c, b) * gen(1, a, c)
            assert table[(2, a, b)] == expected2
            expected3 = -gen(3, a, b)
            for c in range(n):
                expected3 = expected3 + gen(1, c, b) * gen(2, a, c)
                expected3 = expected3 + gen(2, c, b) * gen(1, a, c)
                for d in range(n):
                    expected3 = expected3 - gen(1, d, b) * gen(1, c, d) * gen(1, a, c)
            assert table[(3, a, b)] == expected3


def test_antipode_identities_vanish_at_level_4():
    _, report = antipode_series(2)
    assert report.ok
    assert report.check("left_identity_level4").passed
    assert report.check("right_identity_level4").passed


@pytest.mark.parametrize("n", [2, 3])
def test_antipode_series_witnesses_a_corrupted_entry(n, monkeypatch):
    # s(L^{(2)}_{0,1}) plus L^{(2)}_{0,1}: the left identity carries the extra
    # term times L^{(m-2)}_{a,0}, so it fails at b = 1 from level 2 on; the
    # right one carries L^{(m-2)}_{1,b} times it, so it fails at a = 0, and from
    # level 3 first at b = 0
    clean = yangian.antipode_table

    def corrupted(n):
        table = clean(n)
        table[(2, 0, 1)] = table[(2, 0, 1)] + gen(2, 0, 1)
        return table

    monkeypatch.setattr(yangian, "antipode_table", corrupted)
    _, report = antipode_series(n)
    assert [(c.name, c.witness) for c in report.checks] == [
        ("left_identity_level1", None), ("right_identity_level1", None),
        ("left_identity_level2", (2, 0, 1)), ("right_identity_level2", (2, 0, 1)),
        ("left_identity_level3", (3, 0, 1)), ("right_identity_level3", (3, 0, 0)),
        ("left_identity_level4", (4, 0, 1)), ("right_identity_level4", (4, 0, 0)),
    ]


def test_counit_of_generators():
    # eps kills every positive-level generator: only the empty word survives
    assert gen(1, 0, 1).coeffs.get(((),), 0) == 0
    assert NCTensor.one(1).coeffs.get(((),), 0) == 1
    # (eps x id) Delta(L) = L, symbolically
    n = 2
    for a in range(n):
        for b in range(n):
            d = coproduct_table(n)[(2, a, b)]
            picked = NCTensor(1)
            for (w1, w2), c in d.coeffs.items():
                if w1 == ():
                    picked = picked + NCTensor(1, {(w2,): c})
            assert picked == gen(2, a, b)


# ------------------------------------------------- adjudication (open range)


def test_adjudication_is_definitive_on_z4_radical(z4_radical_ctx):
    report = adjudicate_twisted_coproduct(z4_radical_ctx)
    assert report.ok
    detail = report.check("adjudication").detail
    assert detail["display_1m_vs_conjugated_truncated"] is True
    assert detail["display_1m_vs_conjugated_standard"] is False
    assert detail["display_0m_vs_conjugated_standard"] is False
    assert detail["display_0m_vs_conjugated_truncated"] is False
    assert "k=1..m" in detail["conclusion"]


def test_adjudication_trivial_brace(trivial2_ctx):
    report = adjudicate_twisted_coproduct(trivial2_ctx)
    assert report.ok
    detail = report.check("adjudication").detail
    # even with the identity twist the two display ranges differ, and only the
    # truncated-range pairing matches
    assert detail["display_1m_vs_conjugated_truncated"] is True
    assert detail["display_0m_vs_conjugated_standard"] is False


def test_adjudication_degenerate_order_one():
    # at order 1 the single idempotent is the identity, so the k=0 display term
    # coincides with the conjugated k=0 coproduct term and both pairings match
    b1 = yb.trivial_brace(1)
    report = adjudicate_twisted_coproduct(yb.algebra_from_brace(b1))
    detail = report.check("adjudication").detail
    assert detail["display_0m_vs_conjugated_standard"] is True
    assert detail["display_1m_vs_conjugated_truncated"] is True
