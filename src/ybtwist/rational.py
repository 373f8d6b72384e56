"""Exact bivariate polynomials in the two spectral parameters.

Polynomials map (i, j) exponent pairs of the variables (written u and v in
reprs) to exact coefficients: integers stay integers, and ``Fraction``s
appear only where a caller supplies them.  Zero terms are never stored, so
two equal polynomials always have equal dictionaries and equality is
syntactic.  A polynomial combines with plain numbers, and compares equal
to a number exactly when it is that constant (to ``0`` when it is zero), so
the sparse ``ExactMatrix`` kernel carries polynomial entries unchanged.  The
R, L, R^F and L^F operators of the RTT layer have known scalar poles;
multiplied by them they become polynomial matrices, and no rational-function
field is needed.
"""

from __future__ import annotations

from fractions import Fraction

#: scalars a polynomial combines with, as constant polynomials
_SCALARS = (int, Fraction)


def _prune(terms: dict) -> dict:
    """Drop zero coefficients; every sparse exact container in the package uses it."""
    return {k: v for k, v in terms.items() if v != 0}


class BivarPoly:
    """Polynomial in two variables with exact (int or Fraction) coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = _prune(terms or {})

    @classmethod
    def const(cls, v) -> BivarPoly:
        return cls({(0, 0): v})

    @classmethod
    def var(cls, index: int) -> BivarPoly:
        if index == 0:
            return cls({(1, 0): 1})
        if index == 1:
            return cls({(0, 1): 1})
        raise ValueError("variable index must be 0 or 1")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def __add__(self, other) -> BivarPoly:
        if isinstance(other, _SCALARS):
            other = BivarPoly.const(other)
        elif not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BivarPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> BivarPoly:
        if isinstance(other, _SCALARS):
            other = BivarPoly.const(other)
        elif not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return BivarPoly(out)

    def __rsub__(self, other) -> BivarPoly:
        return -self + other

    def __neg__(self) -> BivarPoly:
        return BivarPoly({k: -v for k, v in self.terms.items()})

    def __mul__(self, other) -> BivarPoly:
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out: dict = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
        return BivarPoly(out)

    __rmul__ = __mul__

    def scale(self, c) -> BivarPoly:
        return BivarPoly({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, BivarPoly):
            return self.terms == other.terms
        if isinstance(other, _SCALARS):
            return self.terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self.is_constant:
            return hash(self.terms.get((0, 0), 0))
        return hash(tuple(sorted(self.terms.items())))

    def evaluate(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return sum((v * x**i * y**j for (i, j), v in self.terms.items()), Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), v in sorted(self.terms.items(), reverse=True):
            mono = "".join(s for s, e in (("u", i), ("v", j)) for s in [f"{s}^{e}" if e > 1 else s] if e)
            bits.append(f"{v}{'*' + mono if mono else ''}")
        return " + ".join(bits)
