"""Free noncommutative polynomials in the level generators of the RTT algebra.

A generator is a triple (m, a, b) with level m >= 1; the level-0 symbol is
delta_{a,b} times the unit and never appears inside words.  A k-fold tensor
``NCTensor`` is a ``Sparse`` combination whose keys are k-tuples of words
(tuples of generators), in expanded normal form, and a polynomial is the
one-leg tensor.  No rewriting is performed; identities asserted here hold in
the free algebra itself.
"""

from __future__ import annotations

from .errors import ValidationFailure
from .rational import Sparse, _on_slot, _prune, _slot_product

Gen = tuple[int, int, int]

#: the top generator level of the antipode series, and of the RTT layer's
#: evaluation-image checks (``yangian.MAX_LEVEL``)
MAX_LEVEL = 4


class NCTensor(Sparse):
    """k-fold tensor of free polynomials; keys are k-tuples of words."""

    __slots__ = ("k",)

    def __init__(self, k: int, coeffs: dict | None = None):
        self.k = k
        self.coeffs = _prune(dict(coeffs or {}))

    def _like(self, coeffs: dict) -> NCTensor:
        out = object.__new__(NCTensor)
        out.k, out.coeffs = self.k, coeffs
        return out

    def _shape(self):
        return self.k

    def _operand(self, other):
        if not isinstance(other, NCTensor):
            return None
        if other.k != self.k:
            raise ValidationFailure("order_mismatch", (self.k, other.k))
        return other

    @classmethod
    def one(cls, k: int) -> NCTensor:
        return cls(k, {((),) * k: 1})

    def __mul__(self, other) -> NCTensor:
        if not isinstance(other, NCTensor) or self.k != other.k:
            return NotImplemented
        return self._like(_slot_product(self.coeffs, other.coeffs))

    def __repr__(self):
        """A polynomial prints as its sum of words; a tensor by its order and size."""
        if self.k != 1:
            return f"NCTensor(k={self.k}, terms={len(self.coeffs)})"
        if not self.coeffs:
            return "0"
        bits = []
        for (w,), c in sorted(self.coeffs.items()):
            word = "".join(f"L{m}[{a},{b}]" for m, a, b in w) or "1"
            bits.append(f"{c}*{word}" if c != 1 or not w else word)
        return " + ".join(bits)


def _word(m: int, a: int, b: int) -> tuple | None:
    """The word of the generator at level m, or None where it is zero."""
    if m:
        return ((m, a, b),)
    return () if a == b else None


def gen(m: int, a: int, b: int) -> NCTensor:
    """The generator at level m; level 0 collapses to delta_{a,b} . 1."""
    if m < 0:
        raise ValueError("level must be nonnegative")
    w = _word(m, a, b)
    return NCTensor(1, {} if w is None else {(w,): 1})


def coproduct_gen(m: int, a: int, b: int, n: int) -> NCTensor:
    """Delta(L^{(m)}_{a,b}) = sum_c sum_{k=0..m} L^{(k)}_{c,b} (x) L^{(m-k)}_{a,c}."""
    out: dict = {}
    for c in range(n):
        for k in range(m + 1):
            left, right = _word(k, c, b), _word(m - k, a, c)
            if left is not None and right is not None:
                out[(left, right)] = out.get((left, right), 0) + 1
    return NCTensor(2, out)


def tensor_coproduct(t: NCTensor, slot: int, table: dict) -> NCTensor:
    """Apply the coproduct inside one slot, raising the tensor order by one.

    ``table`` maps each generator to its coproduct (``coproduct_gen``).  The
    coproduct is an algebra homomorphism, so the image of a word is the
    product of its letters' images; each word of the slot gets one image, and
    the slot kernel ``_on_slot`` places them.
    """
    images: dict = {}
    for key in t.coeffs:
        if (word := key[slot]) not in images:
            image = {((), ()): 1}
            for g in word:
                image = _slot_product(image, table[g].coeffs)
            images[word] = image
    return NCTensor(t.k + 1, _on_slot(t.coeffs, slot, images))


def antipode_table(n: int) -> dict[Gen, NCTensor]:
    """Solve s(L^{(m)}_{a,b}) = -sum_{k<m} sum_c s(L^{(k)}_{c,b}) L^{(m-k)}_{a,c}
    recursively, for m <= MAX_LEVEL."""
    table: dict[Gen, NCTensor] = {}
    for m in range(1, MAX_LEVEL + 1):
        for a in range(n):
            for b in range(n):
                acc: dict = {}
                for k in range(m):
                    for c in range(n):
                        s_prev = gen(0, c, b) if k == 0 else table[(k, c, b)]
                        last = (m - k, a, c)
                        for (w,), v in s_prev.coeffs.items():
                            key = (w + (last,),)
                            acc[key] = acc.get(key, 0) - v
                table[(m, a, b)] = NCTensor(1, acc)
    return table
