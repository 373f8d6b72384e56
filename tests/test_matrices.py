"""The fundamental representation and matrix-level solution checks."""

from __future__ import annotations

from itertools import product as iproduct

import pytest

import ybtwist as yb
from ybtwist import jsonio, matrices
from ybtwist.algebra import AlgebraContext, slot_coproduct
from ybtwist.matrices import (
    ExactMatrix,
    embed_legs,
    flip_matrix,
    nfold_twist_matrix,
    rho_basis_entry,
    rho_tensor,
)
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
            assert yb.solution_matrix(ctx) == rho_tensor(ctx, ctx.twisted_r_matrix)
            assert yb.twist_matrix(ctx) == rho_tensor(ctx, ctx.twist)


def test_matrix_ybe_identity_and_flip():
    assert yb.check_matrix_ybe(ExactMatrix.identity(9)).ok
    assert yb.check_matrix_ybe(flip_matrix(3)).ok


def test_matrix_ybe_negative_control():
    bad = ExactMatrix(4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1, (0, 0): 1})
    report = yb.check_matrix_ybe(bad)
    assert not report.ok
    assert "entry" in report.checks[0].witness


def test_combinatorial_and_reversible(z4_radical_ctx):
    sm = yb.solution_matrix(z4_radical_ctx)
    assert yb.check_combinatorial(sm)
    assert yb.check_reversibility(sm)
    one_plus_p = ExactMatrix.identity(4) + flip_matrix(2)
    assert not yb.check_combinatorial(one_plus_p)
    assert yb.check_combinatorial(ExactMatrix.identity(4))
    assert yb.check_reversibility(ExactMatrix.identity(4))


def test_braid_bridge(trivial2_ctx, z4_radical_ctx):
    m = trivial2_ctx.ybmap
    assert yb.braid_matrix(m) == flip_matrix(2)
    m4 = z4_radical_ctx.ybmap
    braid = yb.braid_matrix(m4)
    assert braid == flip_matrix(4) * yb.solution_matrix(z4_radical_ctx)


def test_braid_square_iff_involutive(braces_up_to_4, z6_brace):
    for bs in braces_up_to_4.values():
        for b in bs:
            m = yb.derive_sigma_tau(b)
            braid = yb.braid_matrix(m)
            squared = braid * braid
            assert (squared == ExactMatrix.identity(b.n * b.n)) == yb.is_involutive(m)
    m = yb.derive_sigma_tau(z6_brace)
    braid = yb.braid_matrix(m)
    assert braid * braid == ExactMatrix.identity(36)


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
            assert exc.kind in ("tau_not_bijective", "left_inverse_law")
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
                lhs = w * ExactMatrix(n, {(c, b): 1})
                rhs = ExactMatrix(n, {(ctx.sigma[a][c], ctx.sigma[a][b]): 1}) * w
                assert lhs == rhs


def test_nfold_twist_matrix(trivial2_ctx, z4_radical_ctx, z6_brace):
    mat, report = nfold_twist_matrix(trivial2_ctx, 3)
    assert report.ok
    assert mat.dim == 8
    assert mat == ExactMatrix.identity(8)
    mat, report = nfold_twist_matrix(trivial2_ctx, 4)
    assert report.ok and mat.dim == 16
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
        mat, _ = nfold_twist_matrix(z4_radical_ctx, k)
        assert mat == rho_tensor(z4_radical_ctx, universal)


def test_nfold_twist_matrix_leg_count_guard(trivial2_ctx, z4_radical_ctx):
    # the recursion multiplies against F_{1..k-1}, which needs k - 1 >= 2 legs
    for ctx in (trivial2_ctx, z4_radical_ctx):
        for k in (2, 5):
            with pytest.raises(yb.LimitExceeded):
                nfold_twist_matrix(ctx, k)


def _oracle_twist(ctx, k: int) -> ExactMatrix:
    # F_{1..j} = (F_{1..j-1} (x) 1) . rho((Delta^{(j-2)} (x) id) F), with dict-backed
    # ExactMatrix products and embed_legs, not mapping compositions
    f = rho_tensor(ctx, ctx.twist)
    tail = ctx.twist
    for j in range(3, k + 1):
        tail = slot_coproduct(tail, 0)
        f = embed_legs(f, ctx.n, j, tuple(range(j - 1))) * rho_tensor(ctx, tail)
    return f


def test_nfold_twist_matrix_exchange_law_oracle(braces_up_to_4, z6_brace):
    subjects = [b for bs in braces_up_to_4.values() for b in bs] + [z6_brace]
    for b in subjects:
        ctx = yb.algebra_from_brace(b)
        n = ctx.n
        p = flip_matrix(n)
        r = yb.solution_matrix(ctx)
        for k in (3, 4):
            mat, report = nfold_twist_matrix(ctx, k)
            f = _oracle_twist(ctx, k)
            assert mat == f
            exchange = [f"exchange_law_legs_{j + 1}_{j + 2}" for j in range(k - 1)]
            assert [c.name for c in report.checks] == ["recursion", "closed_form", *exchange]
            assert report.check("recursion").passed and report.check("closed_form").passed
            for j in range(k - 1):
                pj = embed_legs(p, n, k, (j, j + 1))
                rj = embed_legs(r, n, k, (j, j + 1))
                assert report.check(exchange[j]).passed == (pj * f * pj == rj * f)


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
    bad = (embed_legs(_oracle_twist(clean, k - 1), n, k, tuple(range(k - 1)))
           * rho_tensor(clean, clean.tensor(k, piece)))

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
        pj, rj = embed_legs(p, n, k, (j, j + 1)), embed_legs(r, n, k, (j, j + 1))
        check = report.check(f"exchange_law_legs_{j + 1}_{j + 2}")
        assert check.witness == witness(pj * bad * pj, rj * bad)
        assert check.passed == (check.witness is None)


def test_matrix_suite_order6_braces_all_pass():
    found = yb.enumerate_braces(6, skew=False)
    assert len(found) == 120
    for b in found:
        failed = [c["name"] for c in matrix_suite(b) if c["status"] != "pass"]
        assert not failed, (jsonio.brace_digest(b), failed)


def test_swap_legs_is_flip_conjugation():
    m = ExactMatrix(4, {(0, 1): 2, (3, 2): 5})
    p = flip_matrix(2)
    assert embed_legs(m, 2, 2, (1, 0)) == p * m * p
