"""Skew-brace validation, map derivation, braid and identity checks."""

from __future__ import annotations

import pytest

import ybtwist as yb
from conftest import oracle_brace_pairs, oracle_gv_tau, order8_type, validated_pairs
from ybtwist import braces


def test_trivial_brace_valid(trivial2):
    assert trivial2.is_brace
    assert trivial2.add.table == trivial2.mul.table


def test_z4_radical_valid(z4_radical):
    assert z4_radical.is_brace
    assert z4_radical.circle(1, 3) == 2  # 1 + 3 + 6 mod 4


def test_size_mismatch(z2, z4):
    with pytest.raises(yb.ValidationFailure) as exc:
        yb.validate_brace(z2, z4)
    assert exc.value.kind == "size_mismatch"


def test_distributivity_failure_pinned_pair():
    # Lexicographically first failing order-4 pair from the exhaustive oracle:
    # add is the second order-4 table, mul the cyclic one.
    tables = yb.enumerate_group_tables(4)
    add, mul = tables[1], tables[2]
    with pytest.raises(yb.ValidationFailure) as exc:
        yb.validate_brace(add, mul)
    assert exc.value.kind == "distributivity"
    assert exc.value.witness == (1, 1, 1)
    a, b, c = exc.value.witness
    lhs = mul.mul(a, add.mul(b, c))
    rhs = add.mul(add.mul(mul.mul(a, b), add.inverse(a)), mul.mul(a, c))
    assert lhs != rhs


def test_derive_trivial_is_identity(trivial2):
    m = yb.derive_sigma_tau(trivial2)
    assert m.sigma == ((0, 1), (0, 1))
    assert m.tau == ((0, 1), (0, 1))


def test_derive_z4_radical_examples(z4_radical):
    m = yb.derive_sigma_tau(z4_radical)
    assert m.sigma[1] == (0, 3, 2, 1)
    assert m.tau[1][1] == 3


def test_sigma_neutral_rows(braces_up_to_4):
    for n, bs in braces_up_to_4.items():
        for b in bs:
            m = yb.derive_sigma_tau(b)
            assert all(m.sigma[a][0] == 0 for a in range(n))
            assert m.sigma[0] == tuple(range(n))


def test_ybmap_invariants(braces_up_to_4):
    full = {n: set(range(n)) for n in braces_up_to_4}
    for n, bs in braces_up_to_4.items():
        for b in bs:
            m = yb.derive_sigma_tau(b)
            for a in range(n):
                assert set(m.sigma[a]) == full[n]
                assert set(m.tau[a]) == full[n]
            for a in range(n):
                for bb in range(n):
                    assert m.sigma[m.sigma[a][bb]][m.tau[bb][a]] == a


def test_braid_trivial_is_flip(trivial2):
    m = yb.derive_sigma_tau(trivial2)
    assert m.r(0, 1) == (1, 0)
    assert yb.check_braid(m).ok


def test_braid_z4_radical(z4_radical):
    assert yb.check_braid(yb.derive_sigma_tau(z4_radical)).ok


def test_braid_corrupted_map_reports_counterexample():
    # sigma_a(b) = b + a mod 3 with tau = id: rows are permutations but the
    # left-inverse law fails, and so does the braid relation.
    sigma = tuple(tuple((b + a) % 3 for b in range(3)) for a in range(3))
    tau = tuple(tuple(range(3)) for _ in range(3))
    m = yb.YBMap(3, sigma, tau)
    report = yb.check_braid(m)
    assert not report.ok
    witness = report.checks[0].witness
    assert witness["lhs"] != witness["rhs"]


def test_corrupted_sigma_rejected_by_builder():
    with pytest.raises(yb.ValidationFailure) as exc:
        yb.ybmap_from_sigma([[0, 0], [1, 1]])
    assert exc.value.kind == "sigma_not_bijective"


def test_brace_theorem_properties(trivial2, z4_radical, skew_braces_up_to_6):
    # Every identity holds wherever tau derives.  Identity (v) is decided from the
    # raw tables on all 299: with tau_b(a) = sigma^{-1}_{sigma_a(b)}(a), formed here
    # with no bijectivity check, a o b = sigma_a(b) o tau_b(a) exactly where
    # a + a o b = a o b + a, so (v) holds everywhere iff addition is abelian.
    for b in (trivial2, z4_radical):
        assert yb.check_brace_identities(b).ok
    derived = 0
    for bs in skew_braces_up_to_6.values():
        for b in bs:
            n, add, mul = b.n, b.add.table, b.mul.table
            neg = [add[a].index(0) for a in range(n)]
            sigma = [[add[neg[a]][mul[a][c]] for c in range(n)] for a in range(n)]
            pairs = [(a, c) for a in range(n) for c in range(n)]
            factors = [mul[a][c] == mul[sigma[a][c]][sigma[sigma[a][c]].index(a)] for a, c in pairs]
            commutes = [add[a][mul[a][c]] == add[mul[a][c]][a] for a, c in pairs]
            assert factors == commutes, (add, mul)
            assert all(factors) == all(add[a][c] == add[c][a] for a, c in pairs)
            try:
                report = yb.check_brace_identities(b)
            except yb.ValidationFailure as exc:
                assert exc.kind == "tau_not_bijective"
                continue
            derived += 1
            assert report.ok, (add, mul, report.failures())
            assert report.check("circle_factorization").passed
    assert derived == 219


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 10)])
def test_enumerate_braces_matches_oracle(n, count, braces_up_to_4):
    found = braces_up_to_4[n]
    oracle = oracle_brace_pairs(n, skew=True)
    assert len(found) == len(oracle) == count
    assert [(b.add.table, b.mul.table) for b in found] == oracle


def test_enumerate_braces_skew_flag_matches_oracle():
    # At orders <= 4 every group is abelian so the flag changes nothing;
    # the oracle confirms rather than assumes that.
    for n in range(1, 5):
        assert [
            (b.add.table, b.mul.table) for b in yb.enumerate_braces(n, skew=False)
        ] == oracle_brace_pairs(n, skew=False)


@pytest.mark.parametrize(
    "n,skew", [(n, skew) for n in range(1, 7) for skew in (True, False)] + [(7, True)]
)
def test_enumerate_braces_matches_validated_pair_scan(n, skew):
    found = yb.enumerate_braces(n, skew=skew, ceiling=7)
    assert [(b.add.table, b.mul.table) for b in found] == validated_pairs(n, skew)


def test_order8_braces_per_additive_type(order8_tables):
    # One additive table per isomorphism type against the validated scan over
    # all 2760 o-tables; the labelled copies of each type give the full count.
    index = braces._row1_index(order8_tables)
    counts, copies, nonabelian = {}, {}, set()
    for add in order8_tables:
        kind = order8_type(add.table)
        copies[kind] = copies.get(kind, 0) + 1
        if not add.is_abelian:
            nonabelian.add(kind)
        if kind in counts:
            continue
        found = [b.mul.table for b in braces._braces_with_addition(add, index)]
        assert found == [mul.table for mul in order8_tables if _is_brace(add, mul)]
        counts[kind] = len(found)
    assert counts == {"D4": 20, "Q8": 28, "Z2^3": 232, "Z4xZ2": 28, "Z8": 6}
    assert copies == {"D4": 630, "Q8": 210, "Z2^3": 30, "Z4xZ2": 630, "Z8": 1260}
    assert sum(counts[k] * copies[k] for k in counts) == 50640
    assert sum(counts[k] * copies[k] for k in nonabelian) == 18480


def _is_brace(add, mul) -> bool:
    try:
        yb.validate_brace(add, mul)
    except yb.ValidationFailure:
        return False
    return True


def test_order7_braces_are_trivial():
    # every group of order 7 is cyclic, and Z7 carries only the trivial brace
    assert len(yb.enumerate_group_tables(7, ceiling=7)) == 120
    found = yb.enumerate_braces(7, skew=True, ceiling=7)
    assert len(found) == 120
    assert all(b.mul.table == b.add.table for b in found)


def test_involutive(trivial2, z4_radical, braces_up_to_4):
    assert yb.is_involutive(yb.derive_sigma_tau(trivial2))
    m = yb.derive_sigma_tau(z4_radical)
    assert yb.is_involutive(m)
    # here tau_b(a) = sigma_b(a): both equal (1 + 2b) a mod 4
    assert all(m.tau[b][a] == m.sigma[b][a] for a in range(4) for b in range(4))
    # empirical regression over the enumerated braces, not asserted as a theorem
    for bs in braces_up_to_4.values():
        for b in bs:
            assert yb.is_involutive(yb.derive_sigma_tau(b))


def test_braid_agrees_with_sigma_composition():
    # if the composition law sigma_a sigma_b = sigma_{sigma_a(b)} sigma_{tau_b(a)}
    # fails on an injected corruption, the braid check must fail too
    sigma = tuple(tuple((b + a) % 3 for b in range(3)) for a in range(3))
    tau = tuple(tuple(range(3)) for _ in range(3))
    corrupted = yb.YBMap(3, sigma, tau)
    comp_fails = any(
        sigma[a][sigma[b][c]] != sigma[sigma[a][b]][sigma[tau[b][a]][c]]
        for a in range(3) for b in range(3) for c in range(3)
    )
    assert comp_fails and not yb.check_braid(corrupted).ok


def test_dedupe_braces_isomorphism_classes(braces_up_to_4):
    # raw table pairs collapse to the known classification counts
    assert len(yb.dedupe_braces(braces_up_to_4[4])) == 4
    assert len(yb.dedupe_braces(yb.enumerate_braces(6, skew=False))) == 2
    assert len(yb.dedupe_braces(yb.enumerate_braces(6, skew=True))) == 6


# ------------------------------------------------------- order-6 fixtures


def test_order6_brace_with_nonabelian_multiplication(z6_brace):
    assert z6_brace.is_brace
    assert not z6_brace.mul.is_abelian
    m = yb.derive_sigma_tau(z6_brace)
    assert yb.check_braid(m).ok
    assert yb.is_involutive(m)


def test_s3_trivial_skew_brace(s3_trivial_skew, monkeypatch):
    brace = s3_trivial_skew
    assert not brace.is_brace
    m = yb.derive_sigma_tau(brace)
    assert yb.check_braid(m).ok  # the flip
    report = yb.check_brace_identities(brace)
    for name in ("circle_of_pair", "sigma_composition", "distributivity", "neutral_values"):
        assert report.check(name).passed
    # sigma = tau = id here, so (v) compares a o b with b o a: it fails, and
    # exactly where a and a o b do not commute, which circle_factorization decides
    assert report.check("circle_factorization").passed
    circle, plus = brace.circle, brace.plus
    failing = [(a, b) for a in range(6) for b in range(6)
               if circle(a, b) != circle(m.sigma[a][b], m.tau[b][a])]
    assert failing
    for a, b in failing:
        assert plus(a, circle(a, b)) != plus(circle(a, b), a), (a, b)
    # the GV tau_b(a) = b^{-1} o a o b satisfies (v) at every pair, so there the
    # equivalence fails first at the least pair where a and a o b do not commute
    monkeypatch.setattr(braces, "derive_sigma_tau", lambda b: yb.YBMap(b.n, *oracle_gv_tau(b)))
    witness = yb.check_brace_identities(brace).check("circle_factorization").witness
    assert witness == min((a, b) for a in range(6) for b in range(6)
                          if plus(a, circle(a, b)) != plus(circle(a, b), a))


def test_s3_opposite_skew_brace_degenerate_tau(s3_table):
    # Valid skew brace (mul = opposite group), but the derived tau fails to be
    # a permutation: non-degeneracy is not automatic for nonabelian addition.
    n = 6
    opp = yb.validate_group(
        [[s3_table.table[b][a] for b in range(n)] for a in range(n)]
    )
    skew = yb.validate_brace(s3_table, opp)
    assert not skew.is_brace
    with pytest.raises(yb.ValidationFailure) as exc:
        yb.derive_sigma_tau(skew)
    assert exc.value.kind == "tau_not_bijective"


def test_gv_solution_satisfies_braid_relation(skew_braces_up_to_6):
    # the Guarnieri-Vendramin solution is a solution for every skew brace,
    # including those with non-abelian addition
    braces = [b for bs in skew_braces_up_to_6.values() for b in bs]
    assert len(braces) == 299
    for b in braces:
        sigma, tau = oracle_gv_tau(b)
        report = yb.check_braid(yb.YBMap(b.n, sigma, tau))
        assert report.ok, (b.add.table, b.mul.table, report.failures())


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_derive_sigma_tau_is_the_gv_solution(skew_braces_up_to_6):
    # today tau_b(a) = sigma^{-1}_{sigma_a(b)}(a) derives on 219 of the 299 and
    # equals the GV map on the 139 with abelian addition
    derived = equal = 0
    for b in (b for bs in skew_braces_up_to_6.values() for b in bs):
        sigma, tau = oracle_gv_tau(b)
        try:
            m = yb.derive_sigma_tau(b)
        except yb.ValidationFailure:
            continue
        derived += 1
        equal += [list(r) for r in m.sigma] == sigma and [list(r) for r in m.tau] == tau
    assert (derived, equal) == (299, 299)
