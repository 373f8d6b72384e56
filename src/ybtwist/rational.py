"""The sparse linear-combination core, and exact bivariate polynomials.

Every exact container in the package (algebra tensors, whose one-leg case is
an element, matrices, polynomials in the spectral parameters, and free
noncommutative tensors, whose one-leg case is a polynomial) is a ``Sparse``: a dictionary ``coeffs`` from keys to non-zero
exact coefficients.  Zero coefficients are never stored, so two equal
combinations always have equal dictionaries and equality is syntactic.
``Sparse`` owns the vector-space arithmetic and the one first-difference
scan that witnesses a failed identity.  Two kernels on coefficient dicts
serve every ring: ``_slot_product`` multiplies two combinations whose keys
multiply slot by slot (polynomial exponents add, free-algebra words
concatenate), behind ``BivarPoly`` and ``NCTensor`` products, and
``_on_slot`` applies a per-basis table of structure-map images at one slot
(the algebra's coproduct, counit and antipode, the free coproduct of a
word).  Algebra tensors multiply through their own groupoid join, and
``ExactMatrix`` has no product, as every matrix identity is decided by the
permutation-sum kernel ``matrices._product``.

Polynomials map (i, j) exponent pairs of the variables (written u and v in
reprs) to exact coefficients: integers stay integers, and ``Fraction``s
appear only where a caller supplies them.  A polynomial combines with plain
numbers, and compares equal to a number exactly when it is that constant (to
``0`` when it is zero), so ``ExactMatrix`` entries and the weights of the
``matrices._product`` kernel may be polynomials unchanged.  The R, L, R^F
and L^F operators of the RTT layer have known scalar poles; multiplied by
them they become polynomial matrices, and no rational-function field is
needed.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

#: scalars a polynomial combines with, as constant polynomials
_SCALARS = (int, Fraction)


def _prune(coeffs: dict) -> dict:
    """Drop zero coefficients; every sparse exact container in the package uses it."""
    return {k: v for k, v in coeffs.items() if v != 0}


def _slot_product(a: dict, b: dict) -> dict:
    """The product of two combinations whose keys are tuples multiplied slot by
    slot, pruned: an exponent pair adds, a tuple of words concatenates."""
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(map(add, k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    return _prune(out)


def _on_slot(coeffs: dict, slot: int, images) -> dict:
    """The structure-map kernel: slot ``slot`` of each key of ``coeffs`` replaced
    by every image tuple of its basis index (``images[key[slot]]``, a list or a
    dict), pruned.  An image tuple of width w changes the tensor order by w - 1."""
    acc: dict = {}
    for key, c in coeffs.items():
        head, tail = key[:slot], key[slot + 1:]
        for image, mult in images[key[slot]].items():
            nk = head + image + tail
            acc[nk] = acc.get(nk, 0) + c * mult
    return _prune(acc) if 0 in acc.values() else acc


class Sparse:
    """A linear combination ``coeffs`` (key -> non-zero coefficient) of some shape.

    Subclasses supply the hooks: ``_like`` wraps an already pruned dictionary
    in an object of the same shape, ``_shape`` is what two equal objects must
    share, and ``_operand`` admits the right-hand side of ``+`` and ``-``
    (returning None to decline it, or raising on a mismatched operand).
    ``_diff_label`` names the key in a ``first_diff`` witness.
    """

    __slots__ = ("coeffs",)
    _diff_label = "key"

    def _like(self, coeffs: dict):
        out = object.__new__(type(self))
        out.coeffs = coeffs
        return out

    def _shape(self):
        return None

    def _operand(self, other):
        return other if type(other) is type(self) else None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return self._like(_prune(out))

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return self._like(_prune(out))

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def __rmul__(self, scalar):
        return self._like(_prune({k: scalar * v for k, v in self.coeffs.items()}))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._shape() == other._shape() and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self._shape(), frozenset(self.coeffs.items())))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def first_diff(self, other) -> dict | None:
        """The smallest key where the coefficients differ, with both sides, or None."""
        if self == other:
            return None
        a, b = self.coeffs, other.coeffs
        for key in sorted(a.keys() | b.keys()):
            va, vb = a.get(key, 0), b.get(key, 0)
            if va != vb:
                return {self._diff_label: key, "lhs": str(va), "rhs": str(vb)}
        return None


class BivarPoly(Sparse):
    """Polynomial in two variables with exact (int or Fraction) coefficients."""

    __slots__ = ()

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = _prune(coeffs or {})

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
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.coeffs)

    def _operand(self, other):
        if isinstance(other, _SCALARS):
            return self._like({(0, 0): other} if other else {})
        return other if isinstance(other, BivarPoly) else None

    __radd__ = Sparse.__add__
    scale = Sparse.__rmul__

    def __rsub__(self, other) -> BivarPoly:
        return -self + other

    def __mul__(self, other) -> BivarPoly:
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._like(_slot_product(self.coeffs, other.coeffs))

    def __eq__(self, other) -> bool:
        if isinstance(other, BivarPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, _SCALARS):
            return self.coeffs == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self.is_constant:
            return hash(self.coeffs.get((0, 0), 0))
        return hash(frozenset(self.coeffs.items()))

    def evaluate(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return sum((v * x**i * y**j for (i, j), v in self.coeffs.items()), Fraction(0))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for (i, j), v in sorted(self.coeffs.items(), reverse=True):
            mono = "".join(s for s, e in (("u", i), ("v", j)) for s in [f"{s}^{e}" if e > 1 else s] if e)
            bits.append(f"{v}{'*' + mono if mono else ''}")
        return " + ".join(bits)
