"""The ``Sparse`` core shared by the six exact containers, and exact bivariate
polynomials: arithmetic, canonical equality, and their use as entries of
``ExactMatrix`` and as weights of the one matrix product, ``matrices._product``."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ybtwist.errors import ValidationFailure
from ybtwist.matrices import ExactMatrix, _product
from ybtwist.ncpoly import NCTensor, gen
from ybtwist.rational import BivarPoly, Sparse
from ybtwist.reports import PropertyReport

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
    assert a == b and a.coeffs == b.coeffs
    assert (a - b).coeffs == {}
    assert repr(b) == "1*u^2 + -1"


def test_poly_integer_coefficients_stay_integers():
    p = (U - V) * (U + BivarPoly.const(2)) - ONE
    assert all(type(c) is int for c in p.coeffs.values())
    assert p.evaluate(Fraction(1, 2), 3) == Fraction(-29, 4)
    half = p.scale(Fraction(1, 2))
    assert half.scale(2) == p


def test_slot_product_adds_exponents_and_concatenates_words():
    # one kernel behind both products: keys combine slot by slot, left then right
    assert (U * U * V) * (U + V) == BivarPoly({(3, 1): 1, (2, 2): 1})
    assert (U + V) * (U - V) + V * V == U * U
    x, y = gen(1, 0, 1), gen(2, 1, 0)
    assert x * y == NCTensor(1, {(((1, 0, 1), (2, 1, 0)),): 1})
    assert x * y != y * x
    s, t = NCTensor(2, {(((1, 0, 1),), ()): 2}), NCTensor(2, {(((2, 1, 0),), ((1, 1, 1),)): 3})
    assert s * t == NCTensor(2, {(((1, 0, 1), (2, 1, 0)), ((1, 1, 1),)): 6})
    # equal products of different terms add up, and cancelled ones are pruned
    assert (x + y) * (x + y) - x * x - y * y == x * y + y * x
    assert ((x + y) * (x - y)).coeffs.keys() == {(w,) for w in [
        ((1, 0, 1), (1, 0, 1)), ((2, 1, 0), (1, 0, 1)), ((1, 0, 1), (2, 1, 0)),
        ((2, 1, 0), (2, 1, 0))]}
    assert ((U + V) * (U - V)).coeffs == {(2, 0): 1, (0, 2): -1}


def test_exact_matrix_product_prunes_cancelled_polys():
    # (u 1 + P)(u 1 - P) = (u^2 - 1) 1 on the 2x2 flip: off-diagonal terms cancel
    ident, swap = [0, 1], [1, 0]
    prod = _product(2, 1, ([(U, ident), (1, swap)], (0,)), ([(U, ident), (-1, swap)], (0,)))
    assert set(prod.coeffs) == {(0, 0), (1, 1)}
    assert prod == (U * U - 1) * ExactMatrix.identity(2)
    flip = ExactMatrix(2, {(0, 1): 1, (1, 0): 1})
    plus = U * ExactMatrix.identity(2) + flip
    # a polynomial matrix minus itself is the empty integer zero matrix
    assert (plus - plus).coeffs == {}
    assert plus - plus == ExactMatrix.zero(2)
    # integer and polynomial matrices compare entry by entry
    assert ONE * ExactMatrix.identity(2) == ExactMatrix.identity(2)


def _sparse_samples(kind, ctx2, ctx4):
    """Two objects x, y of one container, and (foreign, error kind of x + foreign)
    pairs whose shape differs from x; the error kind is None where the foreign
    object is another container, which ``+`` declines."""
    half = Fraction(1, 2)
    if kind == "element":
        coeffs = {1: half, 3: -3}
        return (ctx4.element(coeffs), ctx4.element({1: 2, 2: 1}),
                [(ctx2.element(coeffs), "context_mismatch"),
                 (ctx4.tensor(2, {(1, 3): half}), "order_mismatch")])
    if kind == "TensorElement":
        coeffs = {(1, 3): half, (0, 0): -3}
        return (ctx4.tensor(2, coeffs), ctx4.tensor(2, {(1, 3): 2, (2, 1): 1}),
                [(ctx2.tensor(2, coeffs), "context_mismatch"),
                 (ctx4.tensor(3, {(1, 3, 0): 1}), "order_mismatch")])
    if kind == "ExactMatrix":
        coeffs = {(0, 1): half, (1, 1): U - V}
        return (ExactMatrix(2, coeffs), ExactMatrix(2, {(0, 1): 2, (1, 0): 1}),
                [(ExactMatrix(3, coeffs), "dim_mismatch")])
    if kind == "BivarPoly":
        return U * V - half * V, U - 3, [(ExactMatrix(1, {(0, 0): 1}), None)]
    if kind == "NCPoly":
        # a polynomial is the one-leg NCTensor
        return (gen(1, 0, 1) + half * gen(2, 1, 0), gen(1, 0, 1) - NCTensor.one(1),
                [(NCTensor(2, {((), ()): 1}), "order_mismatch")])
    if kind == "NCTensor":
        coeffs = {((), ((1, 0, 1),)): half, (((2, 1, 0),), ()): -3}
        return (NCTensor(2, coeffs), NCTensor(2, {((), ()): 1, ((), ((1, 0, 1),)): 2}),
                [(NCTensor(3, coeffs), "order_mismatch")])
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["element", "TensorElement", "ExactMatrix",
                                  "BivarPoly", "NCPoly", "NCTensor"])
def test_sparse_core_laws(kind, trivial2_ctx, z4_radical_ctx):
    x, y, foreign = _sparse_samples(kind, trivial2_ctx, z4_radical_ctx)
    assert type(x) is type(y) and isinstance(x, Sparse)
    again = x + y - y
    assert again == x and again is not x and hash(again) == hash(x)
    assert (x - x).coeffs == {} and (x - x).is_zero and not x.is_zero
    assert (-x).coeffs == {k: -v for k, v in x.coeffs.items()} and -x + x == x - x
    assert (0 * x).coeffs == {} and (0 * x) == x - x
    assert (2 * x).coeffs == {k: 2 * v for k, v in x.coeffs.items()} and 2 * x == x + x
    for other, error in foreign:
        # a different context, tensor order or dimension is unequal, never an error
        assert (x == other) is False and (other == x) is False and x != other
        if error is not None:
            for op in (x.__add__, x.__sub__):
                with pytest.raises(ValidationFailure) as exc:
                    op(other)
                assert exc.value.kind == error
    # the witness of a failed identity: the smallest differing key, with both coefficients
    assert x.first_diff(x) is None and x.first_diff(x + y - y) is None
    differing = [k for k in x.coeffs.keys() | y.coeffs.keys()
                 if x.coeffs.get(k, 0) != y.coeffs.get(k, 0)]
    first = min(differing)
    expected = {"entry" if kind == "ExactMatrix" else "key": first,
                "lhs": str(x.coeffs.get(first, 0)), "rhs": str(y.coeffs.get(first, 0))}
    assert x.first_diff(y) == expected
    report = PropertyReport(kind)
    report.compare("same", x, x + y - y)
    report.compare("different", x, y)
    assert report.check("same").passed and report.check("same").witness is None
    assert not report.check("different").passed
    assert report.check("different").witness == expected
    if kind == "ExactMatrix":
        # a container: numbers and polynomials scale it, and there is no matrix product
        with pytest.raises(TypeError):
            _ = x * x
        assert 2 * x == ExactMatrix(2, {k: 2 * v for k, v in x.coeffs.items()})
        assert U * x == ExactMatrix(2, {k: U * v for k, v in x.coeffs.items()})
    if kind == "BivarPoly":
        for c in (3, Fraction(-2, 3)):
            const = BivarPoly.const(c)
            assert x + c == c + x == x + const
            assert x - c == x - const and c - x == const - x
            assert c * x == x * c == const * x
