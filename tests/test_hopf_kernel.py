"""The coproduct-homomorphism check against the all-pairs tensor-product scan.

``verify_hopf_axioms`` decides Delta(e_i) Delta(e_j) = Delta(e_i e_j) on all
dim^2 basis pairs as one batch of the algebra's product kernel,
``_leg_products``, which visits only the term pairs whose slot products
survive.  The oracle here is the scan it replaced: it multiplies the two
coproducts as 2-tensors for every pair, including the n^4 - n^3 pairs whose
product e_i e_j vanishes, and reports the first failing (i, j) in row-major
order.  Both tables are checked, Delta (``cop``) and
Delta_F (``twisted_cop``), on clean and on corrupted copies.
"""

from __future__ import annotations

import random

import pytest

import ybtwist as yb
from ybtwist.algebra import AlgebraContext, _homomorphism_witness, _leg_products, verify_hopf_axioms

TABLES = ("cop", "twisted_cop")


def failing_pairs(ctx, table):
    """Every (i, j), in row-major order, where the table is not multiplicative."""
    dim, prod = ctx.dim, ctx.prod
    cops = [ctx.tensor(2, image) for image in table]
    zero = ctx.tensor(2, {})
    for i in range(dim):
        for j in range(dim):
            k = prod[i * dim + j]
            if (cops[k] if k >= 0 else zero) != cops[i] * cops[j]:
                yield i, j


def oracle_witness(ctx, table):
    return next(failing_pairs(ctx, table), None)


@pytest.fixture(scope="module")
def subjects(braces_up_to_4, z6_brace, order6_nonabelian):
    braces = [b for n in sorted(braces_up_to_4) for b in braces_up_to_4[n]]
    assert len(braces) == 13
    braces += [yb.enumerate_braces(5, skew=True)[0], z6_brace, order6_nonabelian]
    return [AlgebraContext(b) for b in braces]


def corrupted_context(brace, name):
    """A fresh context and a mutable copy of its table ``name``."""
    ctx = AlgebraContext(brace)
    return ctx, [dict(image) for image in getattr(ctx, name)]


def homomorphism_check(ctx, name, table, monkeypatch):
    monkeypatch.setattr(ctx, name, table)
    return verify_hopf_axioms(ctx, twisted=name == "twisted_cop").check("coproduct_homomorphism")


def test_kernel_matches_oracle_on_every_subject(subjects):
    rng = random.Random(11)
    for ctx in subjects:
        assert verify_hopf_axioms(ctx).check("coproduct_homomorphism").passed, ctx.n
        for name in TABLES:
            table = getattr(ctx, name)
            assert _homomorphism_witness(ctx, table) is None, (ctx.n, name)
            assert oracle_witness(ctx, table) is None, (ctx.n, name)
            # one seeded corruption per table: the same first failing pair
            bad = [dict(image) for image in table]
            row = rng.randrange(ctx.dim)
            key = (rng.randrange(ctx.dim), rng.randrange(ctx.dim))
            bad[row][key] = bad[row].get(key, 0) + 1
            expected = oracle_witness(ctx, bad)
            assert expected is not None
            assert _homomorphism_witness(ctx, bad) == expected, (ctx.n, name, row, key)


@pytest.mark.parametrize("name", TABLES)
def test_corruption_first_seen_on_a_vanishing_product(z4_radical, monkeypatch, name):
    # a term added to one row, chosen so the first failing pair has e_i e_j = 0:
    # a scan over surviving products only would name a later pair
    ctx, clean = corrupted_context(z4_radical, name)
    dim, prod = ctx.dim, ctx.prod
    found = None
    for row in range(dim):
        for key in ((p, q) for p in range(dim) for q in range(dim)):
            bad = [dict(image) for image in clean]
            bad[row][key] = bad[row].get(key, 0) + 1
            pairs = list(failing_pairs(ctx, bad))
            if pairs and prod[pairs[0][0] * dim + pairs[0][1]] < 0:
                found = bad, pairs
                break
        if found:
            break
    assert found, "no corruption shows first on a vanishing product"
    bad, pairs = found
    surviving = [(i, j) for i, j in pairs if prod[i * dim + j] >= 0]
    assert surviving and surviving[0] > pairs[0]
    check = homomorphism_check(ctx, name, bad, monkeypatch)
    assert not check.passed
    assert check.witness == pairs[0]


@pytest.mark.parametrize("name", TABLES)
def test_corruption_that_cancels_to_zero(z4_radical, monkeypatch, name):
    ctx, bad = corrupted_context(z4_radical, name)
    # +1 then -1 on a new term leaves a stored zero: still multiplicative
    new = next((p, q) for p in range(ctx.dim) for q in range(ctx.dim) if (p, q) not in bad[0])
    bad[0][new] = 1
    bad[0][new] -= 1
    assert oracle_witness(ctx, bad) is None
    assert homomorphism_check(ctx, name, bad, monkeypatch).passed
    # an existing coefficient cancelled to zero drops the term: both fail alike
    row = ctx.n + 1
    first = min(bad[row])
    bad[row][first] -= bad[row][first]
    expected = oracle_witness(ctx, bad)
    assert expected is not None
    check = homomorphism_check(ctx, name, bad, monkeypatch)
    assert (check.passed, check.witness) == (False, expected)


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("row", [0, 5, 15], ids=["h0w0", "h1w1", "h3w3"])
def test_plus_one_corruption(z4_radical, monkeypatch, name, row):
    ctx, bad = corrupted_context(z4_radical, name)
    first = min(bad[row])
    bad[row][first] += 1
    expected = oracle_witness(ctx, bad)
    assert expected is not None
    check = homomorphism_check(ctx, name, bad, monkeypatch)
    assert (check.passed, check.witness) == (False, expected)


def test_leg_products_drop_cancelled_products(z4_radical_ctx):
    # two term pairs with the same slot products and opposite signs: the
    # product is zero, so its index is absent
    ctx = z4_radical_ctx
    dim, prod = ctx.dim, ctx.prod
    p, s = next((p, s) for p in range(dim) for s in range(dim) if prod[p * dim + s] >= 0)
    q1, s1, q2, s2 = next(
        (q1, s1, q2, s2)
        for q1 in range(dim) for s1 in range(dim) for q2 in range(dim) for s2 in range(dim)
        if q1 != q2 and prod[q1 * dim + s1] >= 0 and prod[q1 * dim + s1] == prod[q2 * dim + s2]
        and prod[q1 * dim + s2] < 0 and prod[q2 * dim + s1] < 0
    )
    lefts = [{(p, q1): 1, (p, q2): -1}]
    rights = [{(s, s1): 1, (s, s2): 1}, {(s, s1): 1}]
    products = list(_leg_products(ctx, lefts, rights, (0, 1), True))
    assert products == [{1: {(prod[p * dim + s], prod[q1 * dim + s1]): 1}}]
