"""All-pairs oracles for the tensor product and slot-map kernels of the twist algebra.

Every product in the algebra is one batched join, ``_leg_products``: each term
of every x looks up, by its groupoid ends on the multiplied legs, only the
terms of the ts whose slot products survive, and an m-tensor is multiplied
into chosen legs of a k-tensor without padding it with units.
``TensorElement.__mul__``, ``apply_left`` and ``apply_right`` are its one-pair
case; the Delta_F and s~ tables (two batches each), the bialgebra check and
the intertwining law are whole tables of products.  The oracle here multiplies every
pair of terms slot by slot straight from ``ctx.prod``, and pads the embedded
tensor with the unit sum_a h_a on every other leg, so it shares no code with
the kernel; ``ctx.prod`` itself is checked against the brace tables by
``conftest.oracle_product_rule`` (``test_algebra.py``).  Operands are seeded
random int and ``Fraction`` tensors whose slots are drawn partly from the
partners each slot has in the product table, so that products are rarely empty.

The slot maps (Delta, eps and s applied at one slot) are checked term by term
against images written from the brace's own tables: the pairs b + c = a of
its addition, the test a = 0, and sigma, the inverse of o and negation, each
found by scanning the group tables.  The Delta_F and s~ tables are checked
row by row against products of those images and of F and F^{-1}, each
written from the brace tables: Delta_F(w_a) also against its closed form
through the Guarnieri-Vendramin tau on every context, and s~ = U s U^{-1} on
every context, and against the closed form through that tau where addition
is abelian.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

import ybtwist as yb
from conftest import oracle_gv_tau
from ybtwist.algebra import (AlgebraContext, _leg_products, apply_left, apply_right,
                             counit_slot, map_slot, slot_coproduct, verify_quasitriangularity)


def naive_mul(ctx, x: dict, y: dict) -> dict:
    dim, prod = ctx.dim, ctx.prod
    acc: dict = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            slots = [prod[a * dim + b] for a, b in zip(k1, k2)]
            if min(slots) >= 0:
                acc[tuple(slots)] = acc.get(tuple(slots), 0) + c1 * c2
    return {k: v for k, v in acc.items() if v != 0}


def padded(ctx, t: dict, legs: tuple, k: int) -> dict:
    """t placed at ``legs`` of a k-tensor, the unit sum_a h_a on the other legs."""
    n = ctx.n
    others = [s for s in range(k) if s not in legs]
    acc: dict = {}
    for tkey, c in t.items():
        for fill in product(range(n), repeat=len(others)):
            key = [0] * k
            for leg, s in zip(legs, tkey):
                key[leg] = s
            for leg, a in zip(others, fill):
                key[leg] = a * n
            acc[tuple(key)] = acc.get(tuple(key), 0) + c
    return acc


def random_coeff(rng):
    return rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)])


def random_tensor(ctx, rng, k: int, terms: int, partner_of=None, near: dict | None = None) -> dict:
    """Random k-tensor; with ``near``, each slot is a product partner of a slot of
    one of its keys three times in four."""
    out: dict = {}
    near_keys = list(near) if near else []
    for _ in range(terms):
        if near_keys:
            base = rng.choice(near_keys)
            key = tuple(
                rng.choice(partner_of[s]) if partner_of[s] and rng.random() < 0.75
                else rng.randrange(ctx.dim)
                for s in base
            )
        else:
            key = tuple(rng.randrange(ctx.dim) for _ in range(k))
        out[key] = out.get(key, 0) + random_coeff(rng)
    return {key: c for key, c in out.items() if c != 0}


def partners(ctx):
    """right[s]: the q with e_s e_q != 0; left[s]: the p with e_p e_s != 0."""
    dim, prod = ctx.dim, ctx.prod
    right = [[q for q in range(dim) if prod[s * dim + q] >= 0] for s in range(dim)]
    left = [[p for p in range(dim) if prod[p * dim + s] >= 0] for s in range(dim)]
    return left, right


@pytest.fixture(scope="module")
def small_contexts(braces_up_to_4, order6_nonabelian):
    braces = [b for n in sorted(braces_up_to_4) for b in braces_up_to_4[n]]
    assert len(braces) == 13
    braces.append(order6_nonabelian)
    return [AlgebraContext(b) for b in braces]


def test_tensor_mul_matches_all_pairs(small_contexts):
    rng = random.Random(2024)
    nonempty = 0
    for ctx in small_contexts:
        left, right = partners(ctx)
        for k in (2, 3, 4):
            for _ in range(3):
                x = random_tensor(ctx, rng, k, 12)
                y = random_tensor(ctx, rng, k, 12, right, x)
                got = ctx.tensor(k, x) * ctx.tensor(k, y)
                assert got.coeffs == naive_mul(ctx, x, y), (ctx.n, k)
                nonempty += bool(got.coeffs)
    assert nonempty >= 80


def test_leg_products_match_all_pairs(small_contexts):
    # every x against every t (one of them empty), t at the legs of x, on either
    # side; the two-leg join has its own branch, so every two-leg layout of a
    # 3-leg x is here, and one of a 4-leg x
    rng = random.Random(7)
    nonempty = 0
    for ctx in small_contexts:
        left, right = partners(ctx)
        for k, legs in ((1, (0,)), (2, (0, 1)), (2, (1, 0)), (3, (0, 2)), (3, (1, 0)), (3, (0, 1)),
                        (3, (1, 2)), (3, (2, 1)), (3, (2, 0)), (4, (3, 1))):
            for t_right in (True, False):
                xs = [random_tensor(ctx, rng, k, 8) for _ in range(3)]
                near = [{tuple(key[leg] for leg in legs): 1 for key in x} for x in xs]
                ts = [random_tensor(ctx, rng, len(legs), 6, right if t_right else left, near[j % 3])
                      for j in range(4)] + [{}]
                pads = [padded(ctx, t, legs, k) for t in ts]
                expected = [{j: p for j, pad in enumerate(pads)
                             if (p := naive_mul(ctx, *((x, pad) if t_right else (pad, x))))}
                            for x in xs]
                got = list(_leg_products(ctx, xs, ts, legs, t_right))
                assert got == expected, (ctx.n, k, legs, t_right)
                nonempty += sum(map(len, expected))
    assert nonempty >= 3000


def test_apply_left_right_match_unit_padded_product(small_contexts):
    rng = random.Random(7)
    nonempty = 0
    for ctx in small_contexts:
        left, right = partners(ctx)
        for k in (2, 3, 4):
            for m in range(1, k + 1):
                legs = tuple(rng.sample(range(k), m))
                x = random_tensor(ctx, rng, k, 10)
                x_t = ctx.tensor(k, x)
                # t on the right of x: its slots are right partners of x's slots at legs
                near = {tuple(key[leg] for leg in legs): 1 for key in x}
                t = random_tensor(ctx, rng, m, 8, right, near)
                got = apply_right(x_t, ctx.tensor(m, t), legs)
                assert got.coeffs == naive_mul(ctx, x, padded(ctx, t, legs, k)), (ctx.n, k, legs)
                nonempty += bool(got.coeffs)
                # t on the left of x
                t = random_tensor(ctx, rng, m, 8, left, near)
                got = apply_left(ctx.tensor(m, t), legs, x_t)
                assert got.coeffs == naive_mul(ctx, padded(ctx, t, legs, k), x), (ctx.n, k, legs)
                nonempty += bool(got.coeffs)
                if m == 2:
                    pad = apply_right(ctx.unit_tensor(k), ctx.tensor(2, t), legs)
                    assert pad.coeffs == padded(ctx, t, legs, k)
                    assert got == pad * x_t
    assert nonempty >= 150


def test_t_tensor_one_and_one_tensor_t(small_contexts):
    # (t (x) 1) . x and (1 (x) t) . x, with the unit leg spelled out as sum_a h_a
    rng = random.Random(11)
    for ctx in small_contexts:
        n = ctx.n
        left, _ = partners(ctx)
        for k in (3, 4):
            x = random_tensor(ctx, rng, k, 10)
            t = random_tensor(ctx, rng, k - 1, 8, left, {key[:-1]: 1 for key in x})
            t_one = {key + (a * n,): c for key, c in t.items() for a in range(n)}
            got = apply_left(ctx.tensor(k - 1, t), tuple(range(k - 1)), ctx.tensor(k, x))
            assert got.coeffs == naive_mul(ctx, t_one, x)
            t = random_tensor(ctx, rng, k - 1, 8, left, {key[1:]: 1 for key in x})
            one_t = {(a * n,) + key: c for key, c in t.items() for a in range(n)}
            got = apply_left(ctx.tensor(k - 1, t), tuple(range(1, k)), ctx.tensor(k, x))
            assert got.coeffs == naive_mul(ctx, one_t, x)


def test_leg_count_must_match_tensor_order(z4_radical_ctx):
    ctx = z4_radical_ctx
    with pytest.raises(yb.ValidationFailure) as exc:
        apply_left(ctx.twist, (0, 1, 2), ctx.unit_tensor(3))
    assert exc.value.kind == "order_mismatch"


@pytest.mark.parametrize("legs", [(0, 0), (0, 5), (-1, 1)], ids=["repeated", "past_k", "negative"])
def test_leg_products_reject_bad_legs(z4_radical_ctx, legs):
    # a repeated leg would multiply one slot twice, and a leg past k has no slot
    ctx = z4_radical_ctx
    x = ctx.unit_tensor(3)
    for call in (lambda: apply_right(x, ctx.twist, legs), lambda: apply_left(ctx.twist, legs, x)):
        with pytest.raises(yb.ValidationFailure) as exc:
            call()
        assert (exc.value.kind, exc.value.witness) == ("bad_legs", legs)


@pytest.mark.parametrize("call, slot", [
    (lambda ctx: slot_coproduct(ctx.twist, -1), -1),
    (lambda ctx: slot_coproduct(ctx.twist, 2, twisted=True), 2),
    (lambda ctx: counit_slot(ctx.twist, 5), 5),
    (lambda ctx: map_slot(ctx.twist, 2, ctx.s), 2),
    (lambda ctx: ctx.twist.slot_swap(0, 3), 3),
    (lambda ctx: ctx.twist.slot_swap(-1, 1), -1),
], ids=["coproduct_negative", "twisted_coproduct_past_k", "counit_past_k", "map_past_k",
        "swap_past_k", "swap_negative"])
def test_slot_maps_reject_bad_slots(z4_radical_ctx, call, slot):
    # a negative slot would index from the end of the key, and a slot past k has no slot
    with pytest.raises(yb.ValidationFailure) as exc:
        call(z4_radical_ctx)
    assert (exc.value.kind, exc.value.witness) == ("bad_legs", (slot,))


def basis_images(brace):
    """Delta, eps and s of each basis index a*n + g, from the brace tables alone."""
    n, add, circle = brace.n, brace.add.table, brace.mul.table
    neg = [next(x for x in range(n) if add[a][x] == 0) for a in range(n)]
    circle_inv = [next(x for x in range(n) if circle[g][x] == 0) for g in range(n)]

    def sigma(x, y):  # -x + x o y
        return add[neg[x]][circle[x][y]]

    cop, eps, s = [], [], []
    for a, g in product(range(n), repeat=2):
        cop.append([(b * n + g, c * n + g) for b in range(n) for c in range(n) if add[b][c] == a])
        eps.append([()] if a == 0 else [])
        ginv = circle_inv[g]
        s.append([(sigma(ginv, neg[a]) * n + ginv,)])
    return cop, eps, s


def naive_on_slot(t: dict, slot: int, images) -> dict:
    acc: dict = {}
    for key, c in t.items():
        for image in images[key[slot]]:
            nk = key[:slot] + image + key[slot + 1:]
            acc[nk] = acc.get(nk, 0) + c
    return {k: v for k, v in acc.items() if v != 0}


def test_slot_maps_match_brace_tables(small_contexts):
    rng = random.Random(31)
    survivors = 0
    for ctx in small_contexts:
        cop, eps, s = basis_images(ctx.brace)
        for k in (1, 2, 3):
            t = random_tensor(ctx, rng, k, 10)
            t_el = ctx.tensor(k, t)
            for slot in range(k):
                got = slot_coproduct(t_el, slot)
                assert (got.k, got.coeffs) == (k + 1, naive_on_slot(t, slot, cop)), (ctx.n, k, slot)
                got = counit_slot(t_el, slot)
                assert (got.k, got.coeffs) == (k - 1, naive_on_slot(t, slot, eps)), (ctx.n, k, slot)
                survivors += bool(got.coeffs)
                got = map_slot(t_el, slot, ctx.s)
                assert (got.k, got.coeffs) == (k, naive_on_slot(t, slot, s)), (ctx.n, k, slot)
    assert survivors >= 40


def test_slot_maps_prune_cancelled_terms(z4_radical_ctx):
    # h_0 w_0 and h_0 w_1 both have counit 1, so e_0 (x) e_5 - e_1 (x) e_5
    # cancels under eps on slot 0; the zero must not stay as a key
    t = z4_radical_ctx.tensor(2, {(0, 5): 1, (1, 5): -1})
    assert counit_slot(t, 0).coeffs == {}
    assert yb.counit(z4_radical_ctx.basis_element(0) - z4_radical_ctx.basis_element(1)) == 0


def twist_terms(brace) -> tuple[dict, dict]:
    """F = sum_b h_b (x) w_{b^{-1}} and F^{-1} = sum_b h_b (x) w_b, from the brace tables."""
    n, circle = brace.n, brace.mul.table
    circle_inv = [circle[g].index(0) for g in range(n)]
    f = {(b * n, a * n + circle_inv[b]): 1 for b in range(n) for a in range(n)}
    return f, {(b * n, a * n + b): 1 for b in range(n) for a in range(n)}


def test_twisted_cop_rows_are_conjugated_coproducts(contexts):
    # Delta_F(e_i) = F Delta(e_i) F^{-1}, one basis element at a time; and on every
    # generator w_a = sum_c h_c w_a, F (w_a (x) w_a) F^{-1} is the closed form
    # sum_b h_x w_a (x) w_{tau_b(a)}, x = sigma_a(b), with the GV tau
    assert sum(not ctx.is_brace for ctx in contexts) == 12
    for ctx in contexts:
        n = ctx.n
        cop, _, _ = basis_images(ctx.brace)
        f, f_inv = twist_terms(ctx.brace)
        for i, row in enumerate(ctx.twisted_cop):
            expected = naive_mul(ctx, naive_mul(ctx, f, dict.fromkeys(cop[i], 1)), f_inv)
            assert row == expected, (ctx.n, i)
        sigma, tau = oracle_gv_tau(ctx.brace)
        for a in range(n):
            w_cop = {key: 1 for c in range(n) for key in cop[c * n + a]}
            assert w_cop == {(b * n + a, c * n + a): 1 for b in range(n) for c in range(n)}
            conjugated = naive_mul(ctx, naive_mul(ctx, f, w_cop), f_inv)
            gv_form = {(sigma[a][b] * n + a, c * n + tau[b][a]): 1 for b in range(n) for c in range(n)}
            assert conjugated == gv_form, (ctx.n, a)
            library: dict = {}
            for c in range(n):
                for key, v in ctx.twisted_cop[c * n + a].items():
                    library[key] = library.get(key, 0) + v
            assert library == gv_form, (ctx.n, a)


def test_s_twisted_rows_are_antipode_products(contexts):
    # s~(x) = U s(x) U^{-1} with U = m(id (x) s)(F) and U^{-1} = m(s (x) id)(F^{-1}),
    # on every context; where addition is abelian also the closed form
    # s~(h_a w_g) = s~(w_g) s~(h_a), with s~(w_g) = sum_b h_b w^{-1}_{tau_{b^{-1}}(g)}
    # and s~(h_a) = h_{a^{-1}}
    assert sum(not ctx.is_brace for ctx in contexts) == 12
    for ctx in contexts:
        n, circle = ctx.n, ctx.brace.mul.table
        _, _, s = basis_images(ctx.brace)
        f, f_inv = twist_terms(ctx.brace)
        u, u_inv = {}, {}
        for (p, q), c in f.items():  # e_p s(e_q)
            for k, v in naive_mul(ctx, {(p,): c}, dict.fromkeys(s[q], 1)).items():
                u[k] = u.get(k, 0) + v
        for (p, q), c in f_inv.items():  # s(e_p) e_q
            for k, v in naive_mul(ctx, dict.fromkeys(s[p], 1), {(q,): c}).items():
                u_inv[k] = u_inv.get(k, 0) + v
        assert naive_mul(ctx, u, u_inv) == {(a * n,): 1 for a in range(n)}, ctx.n  # U U^{-1} = 1
        for i in range(ctx.dim):
            expected = naive_mul(ctx, naive_mul(ctx, u, dict.fromkeys(s[i], 1)), u_inv)
            assert ctx.s_twisted[i] == expected, (ctx.n, i)
        if not ctx.is_brace:
            continue
        inv = [circle[g].index(0) for g in range(n)]
        _, tau = oracle_gv_tau(ctx.brace)
        for a, g in product(range(n), repeat=2):
            s_w = {(b * n + inv[tau[inv[b]][g]],): 1 for b in range(n)}
            assert ctx.s_twisted[a * n + g] == naive_mul(ctx, s_w, {(inv[a] * n,): 1}), (ctx.n, a, g)


def naive_intertwining_witness(ctx):
    """The first i with R Delta_F(e_i) != Delta_F^op(e_i) R, one basis element at a time."""
    r = ctx.twisted_r_matrix.coeffs
    for i, row in enumerate(ctx.twisted_cop):
        op = {(q, p): c for (p, q), c in row.items()}
        if naive_mul(ctx, r, row) != naive_mul(ctx, op, r):
            return i
    return None


def test_intertwining_witness_matches_naive_loop(small_contexts, monkeypatch):
    # R corrupted on a fresh context: its first two terms swapped and shifted, as in
    # the benchmark's negative controls (perfbench/run.py), or one seeded extra term
    rng = random.Random(5)
    witnesses = []
    for clean in small_contexts:
        check = verify_quasitriangularity(clean).check("intertwines_coproduct")
        assert check.witness == naive_intertwining_witness(clean), clean.n
        if clean.n == 1:
            continue  # R has one term
        swapped, extra = dict(clean.twisted_r_matrix.coeffs), dict(clean.twisted_r_matrix.coeffs)
        k1, k2 = sorted(swapped)[:2]
        swapped[k1], swapped[k2] = swapped[k2] + 1, swapped[k1] - 1
        key = (rng.randrange(clean.dim), rng.randrange(clean.dim))
        extra[key] = extra.get(key, 0) + 1
        for coeffs in (swapped, extra):
            ctx = AlgebraContext(clean.brace)
            monkeypatch.setattr(ctx, "_twisted_r", coeffs)
            check = verify_quasitriangularity(ctx).check("intertwines_coproduct")
            expected = naive_intertwining_witness(ctx)
            assert (check.passed, check.witness) == (expected is None, expected), (clean.n, coeffs)
            witnesses.append(expected)
    found = [w for w in witnesses if w is not None]
    assert len(found) >= 10 and max(found) > 0
