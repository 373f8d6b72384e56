"""The fundamental representation and matrix-level solution checks."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct

import pytest

import ybtwist as yb
from conftest import oracle_embed_legs, oracle_matmul, oracle_matrix_ybe
from ybtwist import jsonio, matrices
from ybtwist.algebra import AlgebraContext, slot_coproduct
from ybtwist.matrices import (
    ExactMatrix,
    _on_legs,
    _product,
    flip_matrix,
    nfold_twist_matrix,
    rho_basis_entry,
)
from ybtwist.rational import BivarPoly
from ybtwist.suites import matrix_suite


def test_rho_generators(trivial2_ctx, z4_radical_ctx):
    ctx = trivial2_ctx
    assert yb.rho(ctx, ctx.h(1)).coeffs == {(1, 1): 1}
    assert yb.rho(ctx, ctx.one()) == ExactMatrix.identity(2)
    ctx = z4_radical_ctx
    # sigma_1 = (1 3): the permutation matrix swapping rows 1 and 3
    assert yb.rho(ctx, ctx.w(1)).coeffs == {(0, 0): 1, (3, 1): 1, (2, 2): 1, (1, 3): 1}


def test_rho_homomorphism(trivial2_ctx, z4_radical_ctx):
    assert yb.rho_is_homomorphism(trivial2_ctx).ok
    assert yb.rho_is_homomorphism(z4_radical_ctx).ok


def test_rho_homomorphism_negative_control(z4_radical_ctx):
    ctx = z4_radical_ctx

    def transposed(i: int) -> ExactMatrix:
        r, c = rho_basis_entry(ctx, i)
        return ExactMatrix(ctx.n, {(c, r): 1})

    report = yb.rho_is_homomorphism(ctx, images=transposed)
    assert not report.ok
    assert report.checks[0].witness is not None


def test_twist_matrix_trivial_is_identity(trivial2_ctx):
    assert yb.twist_matrix(trivial2_ctx) == ExactMatrix.identity(4)
    assert yb.solution_matrix(trivial2_ctx) == ExactMatrix.identity(4)


def test_solution_matrix_z4_pinned_entry(z4_radical_ctx):
    # term a = b = 1 contributes e_{1,3} (x) e_{1,3}: row (1,1), column (3,3)
    sm = yb.solution_matrix(z4_radical_ctx)
    assert (1 * 4 + 1, 3 * 4 + 3) in sm.coeffs


def test_solution_matrix_equals_represented_universal(braces_up_to_4):
    for bs in braces_up_to_4.values():
        for b in bs:
            ctx = yb.algebra_from_brace(b)
            assert yb.solution_matrix(ctx) == yb.rho(ctx, ctx.twisted_r_matrix)
            assert yb.twist_matrix(ctx) == yb.rho(ctx, ctx.twist)


def test_matrix_ybe_identity_and_flip():
    assert yb.check_matrix_ybe(ExactMatrix.identity(9)).ok
    assert yb.check_matrix_ybe(flip_matrix(3)).ok


def test_matrix_ybe_negative_control():
    # the permutation swapping e_0 (x) e_0 and e_0 (x) e_1 alone breaks the YBE
    bad = ExactMatrix(4, {(1, 0): 1, (0, 1): 1, (2, 2): 1, (3, 3): 1})
    report = yb.check_matrix_ybe(bad)
    assert not report.ok
    assert report == oracle_matrix_ybe(bad)
    assert report.checks[0].witness == {"entry": (0, 2), "lhs": "0", "rhs": "1"}
    assert not yb.check_reversibility(bad)


def test_solution_matrix_cross_check_raises(z4_radical):
    # R^F with its first term doubled no longer represents as the solution
    ctx = AlgebraContext(z4_radical)
    rf = dict(ctx._twisted_r)
    first = min(rf)
    rf[first] *= 2
    ctx._twisted_r = rf
    with pytest.raises(yb.CheckFailed) as exc:
        yb.solution_matrix(ctx)
    assert (exc.value.kind, exc.value.witness) == ("representation_mismatch", "twisted_r")


@pytest.mark.parametrize("entries, column", [
    ({(0, 0): 2, (1, 1): 1, (2, 2): 1, (3, 3): 1}, 0),
    ({(0, 0): 1, (1, 0): 1, (2, 2): 1, (3, 3): 1}, 0),
    ({(0, 0): 1, (1, 1): 1, (2, 2): 1}, 3),
], ids=["entry_2", "two_in_a_column", "empty_column"])
def test_non_combinatorial_matrix_is_rejected(entries, column):
    # the matrix checks take a combinatorial solution: one 1 in every column
    m = ExactMatrix(4, entries)
    for check in (yb.check_matrix_ybe, yb.check_reversibility):
        with pytest.raises(yb.CheckFailed) as exc:
            check(m)
        assert (exc.value.kind, exc.value.witness) == ("not_column_functional", column)


def test_combinatorial_and_reversible(z4_radical_ctx):
    sm = yb.solution_matrix(z4_radical_ctx)
    assert yb.check_combinatorial(sm)
    assert yb.check_reversibility(sm)
    one_plus_p = ExactMatrix.identity(4) + flip_matrix(2)
    assert not yb.check_combinatorial(one_plus_p)
    assert yb.check_combinatorial(ExactMatrix.identity(4))
    assert yb.check_reversibility(ExactMatrix.identity(4))


def test_two_leg_checks_reject_non_square_dimension():
    # a two-leg matrix lives on an n^2 space: dimension 3 is invalid input, not a ceiling
    for check in (yb.check_matrix_ybe, yb.check_reversibility):
        with pytest.raises(yb.ValidationFailure) as exc:
            check(ExactMatrix.identity(3))
        assert (exc.value.kind, exc.value.witness) == ("dim_mismatch", 3)


def test_braid_bridge(trivial2_ctx, z4_radical_ctx):
    m = trivial2_ctx.ybmap
    assert yb.braid_matrix(m) == flip_matrix(2)
    m4 = z4_radical_ctx.ybmap
    braid = yb.braid_matrix(m4)
    assert braid == oracle_matmul(flip_matrix(4), yb.solution_matrix(z4_radical_ctx))


def test_braid_square_iff_involutive(braces_up_to_4, z6_brace):
    for bs in braces_up_to_4.values():
        for b in bs:
            m = yb.derive_sigma_tau(b)
            braid = yb.braid_matrix(m)
            squared = oracle_matmul(braid, braid)
            assert (squared == ExactMatrix.identity(b.n * b.n)) == yb.is_involutive(m)
    m = yb.derive_sigma_tau(z6_brace)
    braid = yb.braid_matrix(m)
    assert oracle_matmul(braid, braid) == ExactMatrix.identity(36)


def test_order6_matrix_layer(z6_brace):
    ctx = yb.algebra_from_brace(z6_brace)
    sm = yb.solution_matrix(ctx)
    assert sm.dim == 36
    assert yb.check_combinatorial(sm)
    assert yb.check_reversibility(sm)
    assert yb.check_matrix_ybe(sm).ok


def test_order6_skew_matrix_layer(s3_trivial_skew):
    # flip solution: everything degenerates to permutation bookkeeping
    ctx = yb.algebra_from_brace(s3_trivial_skew)
    sm = yb.solution_matrix(ctx)
    assert yb.check_matrix_ybe(sm).ok
    assert yb.check_combinatorial(sm)
    assert yb.check_reversibility(sm)


def test_matrix_layer_all_braces_orders_5_and_6():
    # the matrix layer scales past the universal one: sweep every brace
    # (abelian addition) at orders 5 and 6
    for n in (5, 6):
        found = yb.enumerate_braces(n, skew=False)
        assert found, f"no braces at order {n}?"
        for b in found:
            ctx = yb.algebra_from_brace(b)
            r = yb.solution_matrix(ctx)
            assert yb.check_matrix_ybe(r).ok
            assert yb.check_combinatorial(r)
            assert yb.check_reversibility(r)


def test_order6_skew_braces_reported_not_asserted():
    # nonabelian addition: tau may degenerate, so the pipeline is exercised
    # per-brace and the outcome recorded, never assumed
    found = yb.enumerate_braces(6, skew=True)
    assert len(found) == 280
    nonabelian = [b for b in found if not b.is_brace]
    assert len(nonabelian) == 160
    derivable = 0
    for b in nonabelian:
        try:
            m = yb.derive_sigma_tau(b)
        except yb.ValidationFailure as exc:
            assert exc.kind == "tau_not_bijective"
            continue
        derivable += 1
        ctx = yb.algebra_from_brace(b)
        r = yb.solution_matrix(ctx)
        assert yb.check_combinatorial(r)
    assert 0 < derivable < len(nonabelian)


def test_augmented_w_exchange_matrix_form(z4_radical_ctx):
    # rho(w_a) e_{c,b} = e_{sigma_a(c), sigma_a(b)} rho(w_a) for all a, b, c
    ctx = z4_radical_ctx
    n = ctx.n
    for a in range(n):
        w = yb.rho(ctx, ctx.w(a))
        for b in range(n):
            for c in range(n):
                lhs = oracle_matmul(w, ExactMatrix(n, {(c, b): 1}))
                rhs = oracle_matmul(ExactMatrix(n, {(ctx.sigma[a][c], ctx.sigma[a][b]): 1}), w)
                assert lhs == rhs


def _perm_matrix(perm: list[int]) -> ExactMatrix:
    """The permutation matrix of a column -> row list."""
    return ExactMatrix(len(perm), {(t, s): 1 for s, t in enumerate(perm)})


def test_nfold_twist_matrix(trivial2_ctx, z4_radical_ctx, z6_brace):
    # the trivial brace has sigma = id, so every k-fold twist is the identity
    perm, report = nfold_twist_matrix(trivial2_ctx, 3)
    assert report.ok
    assert perm == list(range(2 ** 3))
    perm, report = nfold_twist_matrix(trivial2_ctx, 4)
    assert report.ok and perm == list(range(2 ** 4))
    _, report = nfold_twist_matrix(z4_radical_ctx, 3)
    assert report.ok
    _, report = nfold_twist_matrix(z4_radical_ctx, 4)
    assert report.ok
    ctx6 = yb.algebra_from_brace(z6_brace)
    _, report = nfold_twist_matrix(ctx6, 4)
    assert report.ok


def test_nfold_matrix_agrees_with_universal(z4_radical_ctx):
    from ybtwist.algebra import nfold_twist

    for k in (3, 4):
        universal, _ = nfold_twist(z4_radical_ctx, k)
        perm, _ = nfold_twist_matrix(z4_radical_ctx, k)
        assert _perm_matrix(perm) == yb.rho(z4_radical_ctx, universal)


def test_nfold_twist_matrix_leg_count_guard(trivial2_ctx, z4_radical_ctx):
    # the recursion multiplies against F_{1..k-1}, which needs k - 1 >= 2 legs
    for ctx in (trivial2_ctx, z4_radical_ctx):
        for k in (2, 5):
            with pytest.raises(yb.LimitExceeded):
                nfold_twist_matrix(ctx, k)


def _oracle_twist(ctx, k: int) -> ExactMatrix:
    # F_{1..j} = (F_{1..j-1} (x) 1) . rho((Delta^{(j-2)} (x) id) F), with dict-join
    # matrix products and oracle leg placements, not mapping compositions
    f = yb.rho(ctx, ctx.twist)
    tail = ctx.twist
    for j in range(3, k + 1):
        tail = slot_coproduct(tail, 0)
        f = oracle_matmul(oracle_embed_legs(f, ctx.n, j, tuple(range(j - 1))), yb.rho(ctx, tail))
    return f


def test_nfold_twist_matrix_exchange_law_oracle(braces_up_to_4, z6_brace):
    subjects = [b for bs in braces_up_to_4.values() for b in bs] + [z6_brace]
    for b in subjects:
        ctx = yb.algebra_from_brace(b)
        n = ctx.n
        p = flip_matrix(n)
        r = yb.solution_matrix(ctx)
        for k in (3, 4):
            perm, report = nfold_twist_matrix(ctx, k)
            f = _oracle_twist(ctx, k)
            assert _perm_matrix(perm) == f
            exchange = [f"exchange_law_legs_{j + 1}_{j + 2}" for j in range(k - 1)]
            assert [c.name for c in report.checks] == ["recursion", "closed_form", *exchange]
            assert report.check("recursion").passed and report.check("closed_form").passed
            for j in range(k - 1):
                pj = oracle_embed_legs(p, n, k, (j, j + 1))
                rj = oracle_embed_legs(r, n, k, (j, j + 1))
                assert report.check(exchange[j]).passed == (oracle_matmul(pj, f, pj) == oracle_matmul(rj, f))


def test_nfold_twist_matrix_exchange_law_negative_control(z4_radical_ctx, monkeypatch):
    # with R replaced by the flip, P F P = P F would need F to commute with P
    monkeypatch.setattr(matrices, "solution_matrix", lambda ctx: flip_matrix(ctx.n))
    for k in (3, 4):
        _, report = nfold_twist_matrix(z4_radical_ctx, k)
        assert report.check("recursion").passed and report.check("closed_form").passed
        exchange = [c for c in report.checks if c.name.startswith("exchange_law_legs_")]
        assert len(exchange) == k - 1
        assert not any(c.passed for c in exchange)


@pytest.mark.parametrize("k", [3, 4])
def test_nfold_twist_matrix_witness_is_first_column(z4_radical_ctx, k):
    # a context whose additive table is corrupted after construction (row 0
    # rotated by one place): only F_{1..k-1,k} reads it, to sum its head digits
    clean = z4_radical_ctx
    ctx = AlgebraContext(clean.brace)
    ctx.add = (clean.add[0][1:] + clean.add[0][:1],) + tuple(clean.add[1:])
    _, report = nfold_twist_matrix(ctx, k)

    n = clean.n
    piece = {}
    for heads in iproduct(range(n), repeat=k - 1):
        total = 0
        for b in heads:
            total = ctx.add[total][b]
        for a in range(n):
            piece[tuple(b * n for b in heads) + (a * n + clean.circle_inv[total],)] = 1
    bad = oracle_matmul(oracle_embed_legs(_oracle_twist(clean, k - 1), n, k, tuple(range(k - 1))),
                        yb.rho(clean, clean.tensor(k, piece)))

    def columns(m):
        return {c: r for r, c in m.coeffs}

    def witness(lhs, rhs):
        lhs, rhs = columns(lhs), columns(rhs)
        diff = [c for c in range(n ** k) if lhs[c] != rhs[c]]
        return {"column": diff[0], "lhs": lhs[diff[0]], "rhs": rhs[diff[0]]} if diff else None

    expected = witness(bad, _oracle_twist(clean, k))
    assert expected is not None
    for name in ("recursion", "closed_form"):
        assert not report.check(name).passed and report.check(name).witness == expected
    p, r = flip_matrix(n), yb.solution_matrix(clean)
    for j in range(k - 1):
        pj, rj = oracle_embed_legs(p, n, k, (j, j + 1)), oracle_embed_legs(r, n, k, (j, j + 1))
        check = report.check(f"exchange_law_legs_{j + 1}_{j + 2}")
        assert check.witness == witness(oracle_matmul(pj, bad, pj), oracle_matmul(rj, bad))
        assert check.passed == (check.witness is None)


def test_matrix_suite_order6_braces_all_pass():
    found = yb.enumerate_braces(6, skew=False)
    assert len(found) == 120
    for b in found:
        failed = [c["name"] for c in matrix_suite(b) if c["status"] != "pass"]
        assert not failed, (jsonio.brace_digest(b), failed)


def test_swap_legs_is_flip_conjugation():
    # a column -> row list placed on legs (1, 0) is P m P
    perm = [2, 0, 3, 1]
    p = flip_matrix(2)
    swapped = _on_legs(perm, 2, 2, (1, 0))
    assert _perm_matrix(swapped) == oracle_matmul(p, _perm_matrix(perm), p)


def _random_weight(rng, ring: str):
    v = rng.choice([-3, -2, -1, 1, 2, 5])
    if ring == "fraction":
        return Fraction(v, rng.randint(2, 7))
    if ring == "poly":
        return BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)): v, (0, 0): 1})
    return v


@pytest.mark.parametrize("k", [1, 2, 3])
def test_product_matches_embedded_matrix_products(k):
    # three factors, each a sum of one to three weighted permutations on random
    # distinct legs; the oracle places each sum as a matrix digit by digit and
    # multiplies the matrices
    rng = random.Random(10 + k)
    for n in (1, 2, 3):
        for ring in ("int", "fraction", "poly"):
            factors = []
            for _ in range(3):
                legs = tuple(rng.sample(range(k), rng.randint(1, k)))
                dim = n ** len(legs)
                terms = [(_random_weight(rng, ring), rng.sample(range(dim), dim))
                         for _ in range(rng.randint(1, 3))]
                factors.append((terms, legs))
            expected = ExactMatrix.identity(n ** k)
            for terms, legs in factors:
                dim = n ** len(legs)
                m = ExactMatrix.zero(dim)
                for w, perm in terms:
                    m = m + w * _perm_matrix(perm)
                expected = oracle_matmul(expected, oracle_embed_legs(m, n, k, legs))
            assert _product(n, k, *factors) == expected


def _per_path_sum(n: int, terms) -> dict:
    """The entries of sum_w w . P_p over the (w, p) of one factor on one leg, path by path."""
    acc: dict = {}
    for w, perm in terms:
        for c, r in enumerate(perm):
            acc[(r, c)] = acc.get((r, c), 0) + w
    return {key: v for key, v in acc.items() if v != 0}


def test_product_drops_an_entry_where_paths_cancel():
    # u and -u meet only at column 0, so entry (0, 0) sums to zero and is pruned
    u = BivarPoly.var(0)
    terms = [(u, [0, 1, 2]), (-u, [0, 2, 1])]
    got = _product(3, 1, (terms, (0,)))
    assert (0, 0) not in got.coeffs
    assert got.coeffs == {(1, 1): u, (2, 2): u, (2, 1): -u, (1, 2): -u}
    assert got.coeffs == _per_path_sum(3, terms)


def test_product_sums_each_set_of_meeting_paths():
    # all three paths meet at column 0, where u + v + (3 - u - v) leaves 3; two meet
    # at columns 1 and 3 (different pairs); none meet at column 2
    u, v = BivarPoly.var(0), BivarPoly.var(1)
    terms = [(u, [0, 1, 2, 3]), (v, [0, 1, 3, 2]), (-u - v + 3, [0, 2, 1, 3])]
    got = _product(4, 1, (terms, (0,)))
    expected = _per_path_sum(4, terms)
    assert got.coeffs == expected
    assert expected[(0, 0)] == 3 and expected[(1, 1)] == u + v and expected[(3, 3)] == 3 - v
    assert len(expected) == 8


def test_product_prunes_sets_of_paths_across_factors():
    # (u 1 - u S)(1 + c S) with S the swap: the four paths reach each entry in pairs,
    # (u, 1)(1, 1) with (-u, S)(c, S) on the diagonal, (u, 1)(c, S) with (-u, S)(1, 1)
    # off it, so c = 1 cancels everything and c = 2 leaves -u 1 + u S
    u, swap = BivarPoly.var(0), [1, 0]
    for c, expected in ((1, {}), (2, {(0, 0): -u, (1, 1): -u, (1, 0): u, (0, 1): u})):
        got = _product(2, 1, ([(u, [0, 1]), (-u, swap)], (0,)), ([(1, [0, 1]), (c, swap)], (0,)))
        assert got.coeffs == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_leg_placements_match_digit_oracle(k):
    # every ordered tuple of distinct legs, e.g. (0, 2), (1, 0) and (2, 0, 1)
    rng = random.Random(k)
    for n in (1, 2, 3):
        for r in range(1, k + 1):
            dim = n ** r
            for legs in permutations(range(k), r):
                perm = list(range(dim))
                rng.shuffle(perm)
                placed = _on_legs(perm, n, k, legs)
                expected = oracle_embed_legs(_perm_matrix(perm), n, k, legs)
                assert {(t, s): 1 for s, t in enumerate(placed)} == expected.coeffs


@pytest.mark.parametrize("legs", [(0, 0), (0, 2), (-1, 0)], ids=["repeated", "past_k", "negative"])
def test_on_legs_rejects_bad_legs(legs):
    # a repeated leg would add two digits' offsets to one index, past the list
    with pytest.raises(yb.ValidationFailure) as exc:
        _on_legs([0, 1, 2, 3], 2, 2, legs)
    assert (exc.value.kind, exc.value.witness) == ("bad_legs", legs)


@pytest.mark.parametrize("legs_map, length", [([1, 0], 2), (list(range(8)), 8)])
def test_on_legs_rejects_wrong_map_length(legs_map, length):
    # two n = 2 legs take a column -> row list of length 4, neither shorter nor longer
    with pytest.raises(yb.ValidationFailure) as exc:
        _on_legs(legs_map, 2, 2, (0, 1))
    assert (exc.value.kind, exc.value.witness) == ("dim_mismatch", (length, 4))
