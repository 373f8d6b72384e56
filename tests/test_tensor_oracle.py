"""All-pairs oracles for the tensor product and slot-map kernels of the twist algebra.

``TensorElement.__mul__``, ``apply_left`` and ``apply_right`` are one join:
each term of one factor looks up, by its groupoid ends on the multiplied legs,
only the terms of the other whose slot products survive, and an m-tensor is
multiplied into chosen legs of a k-tensor without padding it with units.  The
oracle here multiplies every pair of terms slot by slot straight from
``ctx.prod``, and pads the embedded tensor with the unit sum_a h_a on every
other leg, so it shares no code with the kernels; ``ctx.prod`` itself is
checked against the brace tables by ``conftest.oracle_product_rule``
(``test_algebra.py``).  Operands are seeded random int and ``Fraction``
tensors whose slots are drawn partly from the partners each slot has in the
product table, so that products are rarely empty.

The slot maps (Delta, eps and s applied at one slot) are checked term by term
against images written from the brace's own tables: the pairs b + c = a of
its addition, the test a = 0, and sigma, the inverse of o and negation, each
found by scanning the group tables.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

import ybtwist as yb
from ybtwist.algebra import (AlgebraContext, _pair_products, apply_left, apply_right,
                             counit_slot, map_slot, slot_coproduct)


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
def contexts(braces_up_to_4, order6_nonabelian):
    braces = [b for n in sorted(braces_up_to_4) for b in braces_up_to_4[n]]
    assert len(braces) == 13
    braces.append(order6_nonabelian)
    return [AlgebraContext(b) for b in braces]


def test_tensor_mul_matches_all_pairs(contexts):
    rng = random.Random(2024)
    nonempty = 0
    for ctx in contexts:
        left, right = partners(ctx)
        for k in (2, 3, 4):
            for _ in range(3):
                x = random_tensor(ctx, rng, k, 12)
                y = random_tensor(ctx, rng, k, 12, right, x)
                got = ctx.tensor(k, x) * ctx.tensor(k, y)
                assert got.coeffs == naive_mul(ctx, x, y), (ctx.n, k)
                nonempty += bool(got.coeffs)
    assert nonempty >= 80


def test_pair_products_match_all_pairs(contexts):
    # every left 2-tensor against every right one, as the Hopf check uses it
    rng = random.Random(7)
    nonempty = 0
    for ctx in contexts:
        _, right = partners(ctx)
        lefts = [random_tensor(ctx, rng, 2, 8) for _ in range(3)]
        rights = [random_tensor(ctx, rng, 2, 8, right, lefts[m % 3]) for m in range(4)]
        rights.append({})
        expected = [{j: p for j, y in enumerate(rights) if (p := naive_mul(ctx, x, y))}
                    for x in lefts]
        assert list(_pair_products(lefts, rights, ctx)) == expected, ctx.n
        nonempty += sum(map(len, expected))
    assert nonempty >= 80


def test_apply_left_right_match_unit_padded_product(contexts):
    rng = random.Random(7)
    nonempty = 0
    for ctx in contexts:
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


def test_t_tensor_one_and_one_tensor_t(contexts):
    # (t (x) 1) . x and (1 (x) t) . x, with the unit leg spelled out as sum_a h_a
    rng = random.Random(11)
    for ctx in contexts:
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


def test_slot_maps_match_brace_tables(contexts):
    rng = random.Random(31)
    survivors = 0
    for ctx in contexts:
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
