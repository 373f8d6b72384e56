"""Independent evaluation oracle for the pole-cleared RTT layer.

The library decides R, L, R^F and L^F identities as polynomial matrices, each
operator multiplied by its own scalar pole.  The oracle here builds the
uncleared operators at exact points (x, y) off the poles -- dense lists of
``Fraction``s assembled from the brace tables, with no ``BivarPoly`` and no
``ExactMatrix`` arithmetic -- and checks that every cleared operator, and both
sides of RTT and twisted RTT, evaluate to the oracle value times the scalar.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

import ybtwist as yb
from conftest import oracle_gv_tau, oracle_three_leg_sides
from ybtwist.matrices import _as_mapping, _product
from ybtwist.rational import BivarPoly
from ybtwist.yangian import _cleared, _rtt_sides, twisted_l, twisted_r_lambda, yangian_r

POINTS = [(3, 5), (Fraction(1, 2), -2), (Fraction(7, 3), Fraction(4, 5)), (-1, Fraction(2, 7))]


# ------------------------------------------------------------ dense oracle


def zeros(d):
    return [[Fraction(0)] * d for _ in range(d)]


def identity(d):
    m = zeros(d)
    for i in range(d):
        m[i][i] = Fraction(1)
    return m


def from_positions(d, positions):
    m = zeros(d)
    for r, c in positions:
        m[r][c] += 1
    return m


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c, a):
    return [[c * x for x in row] for row in a]


def mul(a, b):
    d = len(a)
    out = zeros(d)
    for i in range(d):
        for k in range(d):
            if a[i][k]:
                aik, bk, oi = a[i][k], b[k], out[i]
                for j in range(d):
                    if bk[j]:
                        oi[j] += aik * bk[j]
    return out


def flip(n):
    return from_positions(n * n, [(i * n + j, j * n + i) for i in range(n) for j in range(n)])


def on_legs(m, n, legs):
    """A two-leg matrix on the given legs of the three-leg space, identity on the third."""
    free = ({0, 1, 2} - set(legs)).pop()
    out = zeros(n ** 3)
    for rd in product(range(n), repeat=3):
        for cd in product(range(n), repeat=3):
            if rd[free] == cd[free]:
                v = m[rd[legs[0]] * n + rd[legs[1]]][cd[legs[0]] * n + cd[legs[1]]]
                if v:
                    out[(rd[0] * n + rd[1]) * n + rd[2]][(cd[0] * n + cd[1]) * n + cd[2]] = v
    return out


def evaluated(m, x, y):
    """A polynomial matrix at (x, y), as dense Fractions."""
    out = zeros(m.dim)
    for (r, c), v in m.coeffs.items():
        out[r][c] = v.evaluate(x, y)
    return out


def oracle_r(n, x, y):
    return add(identity(n * n), scale(1 / Fraction(x - y), flip(n)))


def oracle_l(n, z):
    return add(identity(n * n), scale(1 / Fraction(z - 1), flip(n)))


def oracle_twisted(brace, x, y):
    """R^F(x, y) = r + P/(x - y), and L^F(z) = F^op L(z) F^{-1} at z = x and z = y."""
    n = brace.n
    sigma, tau = oracle_gv_tau(brace)
    pairs = list(product(range(n), repeat=2))
    r = from_positions(n * n, [(b * n + a, sigma[a][b] * n + tau[b][a]) for a, b in pairs])
    f_op = from_positions(n * n, [(b * n + a, sigma[a][b] * n + a) for a, b in pairs])
    f_inv = from_positions(n * n, [(a * n + sigma[a][b], a * n + b) for a, b in pairs])
    rf = add(r, scale(1 / Fraction(x - y), flip(n)))
    lf_x, lf_y = (mul(mul(f_op, oracle_l(n, z)), f_inv) for z in (x, y))
    return rf, lf_x, lf_y


def three_leg_sides(r, l1, l2, n):
    """Both sides of R12 L1 L2 = L2 L1 R12, L_i on legs (i, quantum)."""
    r12, l1, l2 = on_legs(r, n, (0, 1)), on_legs(l1, n, (0, 2)), on_legs(l2, n, (1, 2))
    return mul(mul(r12, l1), l2), mul(mul(l2, l1), r12)


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cleared_r_l_and_rtt_match_oracle(n):
    # L is the one-factor product of its cleared terms, as yangian_r is of R's
    l1, l2 = (_product(n, 2, (_cleared(BivarPoly.var(v) - 1, range(n * n), n), (0, 1)))
              for v in (0, 1))
    r = yangian_r(n)
    lhs, rhs = oracle_three_leg_sides(r, l1, l2, n)
    assert _rtt_sides(n, range(n * n)) == (lhs, rhs)
    for x, y in POINTS:
        assert scale(1 / Fraction(x - y), evaluated(r, x, y)) == oracle_r(n, x, y)
        assert scale(1 / Fraction(x - 1), evaluated(l1, x, y)) == oracle_l(n, x)
        assert scale(1 / Fraction(y - 1), evaluated(l2, x, y)) == oracle_l(n, y)
        o_lhs, o_rhs = three_leg_sides(oracle_r(n, x, y), oracle_l(n, x), oracle_l(n, y), n)
        assert o_lhs == o_rhs
        pole = 1 / Fraction((x - y) * (x - 1) * (y - 1))
        assert scale(pole, evaluated(lhs, x, y)) == o_lhs
        assert scale(pole, evaluated(rhs, x, y)) == o_rhs


def _twisted_subjects():
    subjects = [(f"order{n}-{i}", b) for n in (1, 2, 3)
                for i, b in enumerate(yb.enumerate_braces(n, skew=True))]
    z4 = yb.validate_group([[(a + b) % 4 for b in range(4)] for a in range(4)])
    radical = yb.validate_group([[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)])
    subjects.append(("z4_radical", yb.validate_brace(z4, radical)))
    return subjects


TWISTED_SUBJECTS = _twisted_subjects()


@pytest.mark.parametrize("brace", [b for _, b in TWISTED_SUBJECTS],
                         ids=[name for name, _ in TWISTED_SUBJECTS])
def test_cleared_twisted_r_l_and_rtt_match_oracle(brace):
    n = brace.n
    ctx = yb.algebra_from_brace(brace)
    rf, lf1, lf2 = twisted_r_lambda(ctx), twisted_l(ctx, 0), twisted_l(ctx, 1)
    lhs, rhs = oracle_three_leg_sides(rf, lf1, lf2, n)
    assert _rtt_sides(n, _as_mapping(yb.solution_matrix(ctx))) == (lhs, rhs)
    for x, y in POINTS:
        o_rf, o_lf_x, o_lf_y = oracle_twisted(brace, x, y)
        assert scale(1 / Fraction(x - y), evaluated(rf, x, y)) == o_rf
        assert scale(1 / Fraction(x - 1), evaluated(lf1, x, y)) == o_lf_x
        assert scale(1 / Fraction(y - 1), evaluated(lf2, x, y)) == o_lf_y
        o_lhs, o_rhs = three_leg_sides(o_rf, o_lf_x, o_lf_y, n)
        assert o_lhs == o_rhs
        pole = 1 / Fraction((x - y) * (x - 1) * (y - 1))
        assert scale(pole, evaluated(lhs, x, y)) == o_lhs
        assert scale(pole, evaluated(rhs, x, y)) == o_rhs
