"""The twist algebra: products, coproducts, antipodes, twists and their laws."""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest

import ybtwist as yb
from conftest import mul_slots, oracle_associativity_witness, oracle_hopf_axioms, oracle_product_rule
from ybtwist import algebra, jsonio
from ybtwist.algebra import (
    AlgebraContext,
    _groupoid_product,
    counit_slot,
    map_slot,
    nfold_twist,
    slot_coproduct,
    verify_hopf_axioms,
)
from ybtwist.matrices import rho_basis_entry
from ybtwist.suites import run_suites


def idx(ctx, a, g):
    return a * ctx.n + g


def basis(ctx, a, g):
    return ctx.basis_element(idx(ctx, a, g))


def test_product_rule_trivial(trivial2_ctx):
    ctx = trivial2_ctx
    # sigma_1 = id here, so (h_0 w_1)(h_1 w_1) = h_0 h_1 w_{1 o 1} has clashing
    # idempotents and vanishes; the matching pair collapses to h_1 w_0.
    assert (basis(ctx, 0, 1) * basis(ctx, 1, 1)).is_zero
    assert basis(ctx, 1, 1) * basis(ctx, 1, 1) == basis(ctx, 1, 0)


def test_product_rule_z4(z4_radical_ctx):
    ctx = z4_radical_ctx
    # sigma_1(3) = 1 and 1 o 1 = 0: (h_1 w_1)(h_3 w_1) = h_1 w_0
    assert basis(ctx, 1, 1) * basis(ctx, 3, 1) == basis(ctx, 1, 0)


def test_idempotents(braces_up_to_4):
    for n, bs in braces_up_to_4.items():
        if n > 3:
            continue
        for b in bs:
            ctx = yb.algebra_from_brace(b)
            for a in range(n):
                for c in range(n):
                    expected = ctx.h(a) if a == c else ctx.element({})
                    assert ctx.h(a) * ctx.h(c) == expected


def test_unit_and_w_inverses(z4_radical_ctx):
    ctx = z4_radical_ctx
    one = ctx.one()
    x = ctx.element({idx(ctx, 1, 2): Fraction(3, 7), idx(ctx, 0, 3): -2})
    assert one * x == x and x * one == x
    for a in range(4):
        assert ctx.w(a) * ctx.w_inv(a) == one
    # 1 o 3 = 10 mod 4 = 2
    assert ctx.w(1) * ctx.w(3) == ctx.w(2)


def test_multiply_errors(trivial2_ctx, z4_radical_ctx):
    with pytest.raises(yb.ValidationFailure) as exc:
        trivial2_ctx.one() * z4_radical_ctx.one()
    assert exc.value.kind == "context_mismatch"
    with pytest.raises(yb.ValidationFailure) as exc:
        trivial2_ctx.unit_tensor(2) * trivial2_ctx.unit_tensor(3)
    assert exc.value.kind == "order_mismatch"


def test_coproduct_h0_trivial(trivial2_ctx):
    ctx = trivial2_ctx
    d = yb.coproduct(ctx.h(0))
    assert d.coeffs == {(idx(ctx, 0, 0), idx(ctx, 0, 0)): 1,
                        (idx(ctx, 1, 0), idx(ctx, 1, 0)): 1}


def test_coproduct_group_like(z4_radical_ctx):
    ctx = z4_radical_ctx
    for a in range(4):
        d = yb.coproduct(ctx.w(a))
        d_inv = yb.coproduct(ctx.w_inv(a))
        assert d * d_inv == ctx.unit_tensor(2)


def test_coproduct_homomorphism_spot(z4_radical_ctx):
    ctx = z4_radical_ctx
    for a in range(4):
        for b in range(4):
            lhs = yb.coproduct(ctx.h(a)) * yb.coproduct(ctx.h(b))
            rhs = yb.coproduct(ctx.h(a)) if a == b else ctx.tensor(2, {})
            assert lhs == rhs


def test_counit(z4_radical_ctx):
    ctx = z4_radical_ctx
    assert yb.counit(ctx.one()) == 1
    for a in range(4):
        assert yb.counit(ctx.w(a)) == 1
        assert yb.counit(ctx.h(a)) == (1 if a == 0 else 0)


def test_antipode_law_on_idempotents(z4_radical_ctx):
    ctx = z4_radical_ctx
    for a in range(4):
        d = yb.coproduct(ctx.h(a))
        result = mul_slots(map_slot(d, 0, ctx.s))
        assert result == yb.counit(ctx.h(a)) * ctx.one()


def test_antipode_involutive_for_abelian(braces_up_to_4):
    for bs in braces_up_to_4.values():
        for b in bs[:2]:
            ctx = yb.algebra_from_brace(b)
            for i in range(ctx.dim):
                x = ctx.basis_element(i)
                assert yb.antipode(yb.antipode(x)) == x


def test_twist_inverse_and_counit_slots(z4_radical_ctx):
    ctx = z4_radical_ctx
    f, finv = ctx.twist, ctx.twist_inv
    assert f * finv == ctx.unit_tensor(2)
    assert finv * f == ctx.unit_tensor(2)
    assert counit_slot(f, 0) == ctx.one()
    assert counit_slot(f, 1) == ctx.one()


def test_twisted_r_closed_form_trivial(trivial2_ctx):
    ctx = trivial2_ctx
    rf = ctx.twisted_r_matrix
    # sum_{a,b} h_b w_a (x) h_a w_b (inverses are trivial in the order-2 group)
    expected = {(idx(ctx, b, a), idx(ctx, a, b)): 1 for a in range(2) for b in range(2)}
    assert rf.coeffs == expected


def test_twisted_r_reversible(z4_radical_ctx):
    ctx = z4_radical_ctx
    rf = ctx.twisted_r_matrix
    assert rf * rf.slot_swap(0, 1) == ctx.unit_tensor(2)


def test_twisted_coproduct_closed_forms(trivial2_ctx, z4_radical_ctx):
    ctx = trivial2_ctx
    for i in range(ctx.dim):
        x = ctx.basis_element(i)
        assert yb.twisted_coproduct(x) == yb.coproduct(x)
    ctx = z4_radical_ctx
    d = yb.twisted_coproduct(ctx.h(0))
    expected = {}
    for b in range(4):
        c = ctx.circle[ctx.circle_inv[b]][0]
        expected[(idx(ctx, b, 0), idx(ctx, c, 0))] = 1
    assert d.coeffs == expected


def test_twisted_r_cross_checks_raise(z4_radical):
    # F^{-1} doubled is no inverse of F; with the twist formed, sigma replaced
    # by the identity rows changes only the closed form of R^F
    ctx = AlgebraContext(z4_radical)
    ctx._twist_inv = {k: 2 * v for k, v in ctx._twist_inv.items()}
    with pytest.raises(yb.CheckFailed) as exc:
        ctx.twisted_r_matrix
    assert (exc.value.kind, exc.value.witness) == ("twist_not_inverse", None)
    ctx = AlgebraContext(z4_radical)
    ctx.twist
    ctx.sigma = tuple(tuple(range(4)) for _ in range(4))
    with pytest.raises(yb.CheckFailed) as exc:
        ctx.twisted_r_matrix
    assert (exc.value.kind, exc.value.witness) == (
        "rf_closed_form", {"key": (5, 5), "lhs": "0", "rhs": "1"})


@pytest.mark.parametrize("form, a", [("h", 2), ("w", 1)])
def test_twisted_coproduct_cross_check_raises(z4_radical, s3_trivial_skew, monkeypatch, form, a):
    # one closed generator form emptied at a: building Delta_F names the
    # generator, on abelian and non-abelian addition alike
    name = f"_twisted_{form}_closed"
    clean = getattr(algebra, name)
    monkeypatch.setattr(algebra, name, lambda ctx, x: {} if x == a else clean(ctx, x))
    for brace in (z4_radical, s3_trivial_skew):
        with pytest.raises(yb.CheckFailed) as exc:
            AlgebraContext(brace).twisted_cop
        assert (exc.value.kind, exc.value.witness) == ("twisted_coproduct_closed_form", (form, a))


def test_twisted_coproduct_coassociative(z4_radical_ctx):
    ctx = z4_radical_ctx
    for i in range(ctx.dim):
        d = yb.twisted_coproduct(ctx.basis_element(i))
        assert slot_coproduct(d, 0, twisted=True) == slot_coproduct(d, 1, twisted=True)


def test_twisted_antipode(trivial2_ctx, z4_radical_ctx):
    ctx = trivial2_ctx
    for i in range(ctx.dim):
        x = ctx.basis_element(i)
        assert yb.twisted_antipode(x) == yb.antipode(x)
    ctx = z4_radical_ctx
    assert yb.twisted_antipode(ctx.one()) == ctx.one()
    for a in range(4):
        d = yb.twisted_coproduct(ctx.h(a))
        assert mul_slots(map_slot(d, 0, ctx.s_twisted)) == yb.counit(ctx.h(a)) * ctx.one()


@pytest.mark.parametrize("name", ["coproduct", "twisted_coproduct", "counit", "antipode",
                                  "twisted_antipode"])
def test_element_maps_reject_other_orders(z4_radical_ctx, name):
    # the element-level maps take one-leg tensors only; the twist has two legs
    with pytest.raises(yb.ValidationFailure) as exc:
        getattr(yb, name)(z4_radical_ctx.twist)
    assert (exc.value.kind, exc.value.witness) == ("order_mismatch", (2, 1))


def test_twisted_antipode_holds_on_nonabelian_addition(s3_trivial_skew, order6_nonabelian):
    # m(s~ (x) id) Delta_F(x) = m(id (x) s~) Delta_F(x) = eps(x) 1 on every basis
    # element, term by term through the public element maps
    for brace in (s3_trivial_skew, order6_nonabelian):
        ctx = yb.algebra_from_brace(brace)
        assert not ctx.is_brace
        zero = ctx.element({})
        for i in range(ctx.dim):
            x = ctx.basis_element(i)
            terms = [(ctx.basis_element(p), ctx.basis_element(q), c)
                     for (p, q), c in yb.twisted_coproduct(x).coeffs.items()]
            left = sum((c * (yb.twisted_antipode(p) * q) for p, q, c in terms), zero)
            right = sum((c * (p * yb.twisted_antipode(q)) for p, q, c in terms), zero)
            unit = yb.counit(x) * ctx.one()
            assert (left, right) == (unit, unit), (brace.n, i)


def test_twist_conditions(trivial2_ctx, z4_radical_ctx):
    for ctx in (trivial2_ctx, z4_radical_ctx):
        report = yb.verify_twist_conditions(ctx)
        assert report.ok, report.failures()


def test_twist_conditions_corrupted_twist(z4_radical_ctx):
    ctx = z4_radical_ctx
    corrupted = dict(ctx.twist.coeffs)
    key = next(iter(corrupted))
    corrupted[key] = -corrupted[key]
    report = yb.verify_twist_conditions(ctx, twist=ctx.tensor(2, corrupted))
    cocycle = report.check("cocycle")
    assert not cocycle.passed
    assert cocycle.witness is not None and "key" in cocycle.witness


def first_diff(t1, t2):
    # the smallest key on which two coefficient dicts disagree, as _first_diff reports it
    for key in sorted(set(t1.coeffs) | set(t2.coeffs)):
        a, b = t1.coeffs.get(key, 0), t2.coeffs.get(key, 0)
        if a != b:
            return {"key": key, "lhs": str(a), "rhs": str(b)}
    return None


def test_twist_conditions_coproduct_images_witness(z4_radical_ctx):
    ctx = z4_radical_ctx
    corrupted = dict(ctx.twist.coeffs)
    key = sorted(corrupted)[5]  # h_1 (x) h_1 w_1: the two sides fail at different keys
    corrupted[key] = -corrupted[key]
    bad = ctx.tensor(2, corrupted)
    images = yb.verify_twist_conditions(ctx, twist=bad).check("coproduct_images")
    assert not images.passed
    # F_{12,3} and F_{1,23} from the true tables are Delta(F) in the first and second leg
    first = first_diff(slot_coproduct(ctx.twist, 0), slot_coproduct(bad, 0))
    second = first_diff(slot_coproduct(ctx.twist, 1), slot_coproduct(bad, 1))
    assert first and second and first != second
    assert images.witness == first


def test_universal_ybe(trivial2_ctx, z4_radical_ctx):
    assert yb.verify_universal_ybe(trivial2_ctx).ok
    assert yb.verify_universal_ybe(z4_radical_ctx).ok


def test_universal_ybe_corrupted(z4_radical_ctx):
    ctx = z4_radical_ctx
    coeffs = dict(ctx.twisted_r_matrix.coeffs)
    keys = sorted(coeffs)[:2]
    coeffs[keys[0]], coeffs[keys[1]] = coeffs[keys[1]] + 1, coeffs[keys[0]] - 1
    report = yb.verify_universal_ybe(ctx, rf=ctx.tensor(2, coeffs))
    assert not report.ok
    assert report.checks[0].witness is not None


def test_quasitriangularity(trivial2_ctx, z4_radical_ctx):
    for ctx in (trivial2_ctx, z4_radical_ctx):
        report = yb.verify_quasitriangularity(ctx)
        assert report.ok, report.failures()
        assert yb.is_cocommutative(ctx)


def test_hopf_axiom_suites(trivial2_ctx, z4_radical_ctx):
    for ctx in (trivial2_ctx, z4_radical_ctx):
        assert verify_hopf_axioms(ctx).ok
        assert verify_hopf_axioms(ctx, twisted=True).ok


def test_cocommutative_iff_abelian_addition(z4_radical_ctx, all_contexts):
    # Delta^op = Delta exactly when addition is abelian, on every context of orders 1-6;
    # abelian addition is read off the raw table
    assert (len(all_contexts), sum(not ctx.is_brace for ctx in all_contexts)) == (219, 80)
    for ctx in all_contexts:
        add = ctx.brace.add.table
        abelian = all(add[a][b] == add[b][a] for a in range(ctx.n) for b in range(ctx.n))
        assert yb.is_cocommutative(ctx) == abelian, (add, ctx.brace.mul.table)
    # one swapped pair of coefficients in a row of Delta breaks it
    ctx = AlgebraContext(z4_radical_ctx.brace)
    bad = [dict(image) for image in ctx.cop]
    (p, q), c = next((key, c) for key, c in bad[5].items() if key[0] != key[1])
    bad[5][(p, q)] = c + 1
    ctx.cop = bad
    assert not yb.is_cocommutative(ctx)


def test_order9_pins_the_antipode_formula(z3_squared_brace, monkeypatch):
    ctx = AlgebraContext(z3_squared_brace)
    n, inv = ctx.n, ctx.circle_inv
    assert any(ctx.sigma[g] != ctx.sigma[inv[g]] for g in range(n))
    assert verify_hopf_axioms(ctx).ok
    assert verify_hopf_axioms(ctx, twisted=True).ok

    # every check runs: the 3-fold twist has 9^3 terms, under the cap
    checks = run_suites(z3_squared_brace, "universal", {"universal": 9})
    assert [c["name"] for c in checks if c["status"] != "pass"] == []
    assert checks[-1]["name"] == "universal.nfold_twist"

    wrong = [{(ctx.sigma[g][ctx.neg[a]] * n + inv[g],): 1} for a in range(n) for g in range(n)]
    monkeypatch.setattr(ctx, "s", wrong)
    report = verify_hopf_axioms(ctx)
    assert [c.name for c in report.checks if not c.passed] == ["antipode"]
    assert report.check("antipode").witness == 1


@pytest.mark.parametrize("k", [3, 4])
def test_nfold_twist_cap_bounds_the_terms_it_forms(z4_radical_ctx, monkeypatch, k):
    # each tensor of the k-fold recursion has n^k terms, so a cap of exactly
    # n^k runs and one term less refuses, however large (n^2)^k is
    ctx = z4_radical_ctx
    monkeypatch.setattr(algebra, "MAX_TENSOR_COEFFS", ctx.n ** k)
    twist, report = nfold_twist(ctx, k)
    assert report.ok and len(twist.coeffs) == ctx.n ** k
    monkeypatch.setattr(algebra, "MAX_TENSOR_COEFFS", ctx.n ** k - 1)
    with pytest.raises(yb.LimitExceeded, match=f"n\\^{k} = {ctx.n ** k} terms"):
        nfold_twist(ctx, k)


def test_quasitriangularity_counit_laws_witness(z4_radical_ctx, monkeypatch):
    ctx = AlgebraContext(z4_radical_ctx.brace)
    coeffs = dict(ctx.twisted_r_matrix.coeffs)
    # one term that survives the counit on the first leg, one on the second only
    n = ctx.n
    coeffs[max(k for k in coeffs if k[0] // n == 0)] = 2
    coeffs[min(k for k in coeffs if k[1] // n == 0 and k[0] // n != 0)] = 3
    bad = ctx.tensor(2, coeffs)
    monkeypatch.setattr(ctx, "_twisted_r", coeffs)  # the cached terms behind twisted_r_matrix
    laws = yb.verify_quasitriangularity(ctx).check("counit_laws")
    assert not laws.passed
    first = first_diff(counit_slot(bad, 0), ctx.one())
    second = first_diff(counit_slot(bad, 1), ctx.one())
    assert first and second and first != second
    assert laws.witness == first


@pytest.mark.parametrize("twisted", [False, True])
def test_hopf_axioms_corrupted_coproduct(z4_radical_ctx, monkeypatch, twisted):
    # a fresh context: the twisted table is built from the untwisted one
    ctx = AlgebraContext(z4_radical_ctx.brace)
    name = "twisted_cop" if twisted else "cop"
    corrupted = [dict(image) for image in getattr(ctx, name)]
    bad = 1 * ctx.n + 1  # h_1 w_1
    first = min(corrupted[bad])
    corrupted[bad][first] += 1
    monkeypatch.setattr(ctx, name, corrupted)
    report = verify_hopf_axioms(ctx, twisted=twisted)
    hom = report.check("coproduct_homomorphism")
    assert not hom.passed
    cop = yb.twisted_coproduct if twisted else yb.coproduct
    expected = next(
        (i, j) for i in range(ctx.dim) for j in range(ctx.dim)
        if cop(ctx.basis_element(i) * ctx.basis_element(j))
        != cop(ctx.basis_element(i)) * cop(ctx.basis_element(j))
    )
    assert hom.witness == expected
    assert report == oracle_hopf_axioms(ctx, twisted)


def test_construction_check_rejects_corrupted_tables(z4_radical_ctx):
    # flipping one product-table entry must trip the associativity check
    ctx = AlgebraContext(z4_radical_ctx.brace)
    ctx.prod[5 * ctx.dim + 5] = 0
    with pytest.raises(yb.CheckFailed) as exc:
        ctx._construction_checks()
    assert exc.value.kind in ("associativity", "unit")
    # an all-vanishing table is associative, so only the unit check can reject it
    ctx.prod[:] = [-1] * (ctx.dim * ctx.dim)
    with pytest.raises(yb.CheckFailed) as exc:
        ctx._construction_checks()
    assert (exc.value.kind, exc.value.witness) == ("unit", 0)


def test_product_table_and_rho_follow_the_brace_rule():
    # every context of orders 1-6 (the 219 of 299 labelled skew braces whose
    # sigma/tau derive); the full associativity scan on orders <= 5
    built = 0
    for n in range(1, 7):
        for b in yb.enumerate_braces(n):
            try:
                ctx = AlgebraContext(b)
            except yb.ValidationFailure:
                continue
            prod, rho = oracle_product_rule(b)
            assert ctx.prod == prod, jsonio.brace_digest(b)
            assert [rho_basis_entry(ctx, i) for i in range(ctx.dim)] == rho
            if n <= 5:
                assert oracle_associativity_witness(ctx.prod, ctx.dim) is None
            built += 1
    assert built == 219


def test_construction_check_scans_when_sigma_is_not_an_action(z4_radical_ctx):
    # sigma_1^{-1} = (0 3 2 1) becomes (0 2 3 1), which is not an involution
    # although 1 o 1 = 0; prod then follows the groupoid rule of a non-action,
    # so only the action part of the premise fails and the full scan must name
    # the oracle's first non-associative triple
    ctx = AlgebraContext(z4_radical_ctx.brace)
    n = ctx.n
    sigma_inv = [list(row) for row in ctx.sigma_inv]
    sigma_inv[1][1], sigma_inv[1][2] = sigma_inv[1][2], sigma_inv[1][1]
    ctx.sigma_inv = tuple(map(tuple, sigma_inv))
    ctx.source = [sigma_inv[g][a] for a in range(n) for g in range(n)]
    ctx.prod = _groupoid_product(ctx)
    expected = oracle_associativity_witness(ctx.prod, ctx.dim)
    assert expected is not None
    with pytest.raises(yb.CheckFailed) as exc:
        ctx._construction_checks()
    assert (exc.value.kind, exc.value.witness) == ("associativity", expected)


def test_construction_check_witness_on_corrupted_product(z4_radical_ctx):
    # a corrupted prod fails the premise, and the scan names the oracle's triple
    ctx = AlgebraContext(z4_radical_ctx.brace)
    ctx.prod[5 * ctx.dim + 5] = 0
    expected = oracle_associativity_witness(ctx.prod, ctx.dim)
    assert expected is not None
    with pytest.raises(yb.CheckFailed) as exc:
        ctx._construction_checks()
    assert (exc.value.kind, exc.value.witness) == ("associativity", expected)


def test_nfold_twist_small(trivial2_ctx, z4_radical_ctx):
    for ctx, k in ((trivial2_ctx, 3), (trivial2_ctx, 4), (z4_radical_ctx, 3), (z4_radical_ctx, 4)):
        _, report = nfold_twist(ctx, k)
        assert report.ok, (ctx.n, k, report.failures())


@pytest.mark.parametrize("k", [3, 4])
def test_nfold_twist_corrupted_twist(z4_radical_ctx, monkeypatch, k):
    ctx = AlgebraContext(z4_radical_ctx.brace)
    ctx.twisted_r_matrix  # built from the true twist before it is corrupted
    coeffs = dict(ctx.twist.coeffs)
    key = sorted(coeffs)[2]
    coeffs[key] = -coeffs[key]
    monkeypatch.setattr(ctx, "_twist", coeffs)  # the cached terms behind ctx.twist
    built, report = nfold_twist(ctx, k)
    # the true twist passes, so its k-fold twist is the closed form
    closed, _ = nfold_twist(z4_radical_ctx, k)
    closed_form = report.check("closed_form")
    assert not closed_form.passed
    assert closed_form.witness == first_diff(built, closed)
    recursion = report.check(f"recursion_{k}_fold")
    assert recursion.passed or set(recursion.witness) == {"key", "lhs", "rhs"}


def test_nfold_twist_guards(z4_radical_ctx):
    with pytest.raises(yb.LimitExceeded):
        nfold_twist(z4_radical_ctx, 5)


@pytest.mark.parametrize("which", ["z4_radical", "z6_brace"])
def test_finished_context_is_freed_without_cyclic_gc(request, monkeypatch, which):
    # no cached object of a context points back at it, so reference counting
    # frees it as soon as run_suites returns
    brace = request.getfixturevalue(which)
    built = []

    class Recorded(AlgebraContext):
        def __init__(self, b):
            super().__init__(b)
            built.append(weakref.ref(self))

    monkeypatch.setattr(algebra, "AlgebraContext", Recorded)
    enabled = gc.isenabled()
    gc.disable()
    try:
        checks = run_suites(brace, "all", {"universal": 6})
        alive = [ref() is not None for ref in built]
    finally:
        if enabled:
            gc.enable()
    assert all(c["status"] == "pass" for c in checks if c["name"].startswith("universal."))
    assert alive == [False]
