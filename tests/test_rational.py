"""Exact bivariate polynomials: arithmetic, canonical equality, and their use
as entries of the one sparse ``ExactMatrix`` kernel."""

from __future__ import annotations

from fractions import Fraction

from ybtwist.matrices import ExactMatrix
from ybtwist.rational import BivarPoly

U = BivarPoly.var(0)
V = BivarPoly.var(1)
ONE = BivarPoly.const(1)


def test_poly_arithmetic():
    p = (U + V) * (U - V)
    assert p == U * U - V * V
    assert (p - p).is_zero
    assert p.evaluate(3, 2) == 5


def test_poly_scalar_interop():
    p = U - V
    # the ExactMatrix kernel starts every accumulation from the integer 0
    assert 0 + p == p and p + 0 == p
    assert 0 - p == -p and p - 0 == p
    assert 1 - p * p == ONE - (U * U - (U * V).scale(2) + V * V)
    assert 2 * p == p * 2 == p + p
    # a zero polynomial equals 0, so `v != 0` prunes it; constants equal their number
    assert p - p == 0 and not (p - p != 0)
    assert p != 0 and ONE == 1 and ONE != 2
    assert BivarPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(BivarPoly()) == hash(0) and hash(ONE.scale(3)) == hash(3)


def test_poly_equality_is_syntactic():
    # equal polynomials have equal term dictionaries, whatever their history
    a = (U + ONE) * (U - ONE) + V - V
    b = U * U - ONE
    assert a == b and a.terms == b.terms
    assert (a - b).terms == {}
    assert repr(b) == "1*u^2 + -1"


def test_poly_integer_coefficients_stay_integers():
    p = (U - V) * (U + BivarPoly.const(2)) - ONE
    assert all(type(c) is int for c in p.terms.values())
    assert p.evaluate(Fraction(1, 2), 3) == Fraction(-29, 4)
    half = p.scale(Fraction(1, 2))
    assert half.scale(2) == p


def test_exact_matrix_product_prunes_cancelled_polys():
    # (u 1 + P)(u 1 - P) = (u^2 - 1) 1 on the 2x2 flip: off-diagonal terms cancel
    flip = ExactMatrix(2, {(0, 1): 1, (1, 0): 1})
    plus = U * ExactMatrix.identity(2) + flip
    minus = U * ExactMatrix.identity(2) - flip
    prod = plus * minus
    assert set(prod.entries) == {(0, 0), (1, 1)}
    assert prod == (U * U - 1) * ExactMatrix.identity(2)
    # a polynomial matrix minus itself is the empty integer zero matrix
    assert (plus - plus).entries == {}
    assert plus - plus == ExactMatrix.zero(2)
    # integer and polynomial matrices compare entry by entry
    assert ONE * ExactMatrix.identity(2) == ExactMatrix.identity(2)
