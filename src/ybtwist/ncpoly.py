"""Free noncommutative polynomials in the level generators of the RTT algebra.

A generator is a triple (m, a, b) with level m >= 1; the level-0 symbol is
delta_{a,b} times the unit and never appears inside words.  Polynomials are
kept in expanded normal form: a ``Sparse`` combination whose ``coeffs`` map
words (tuples of generators) to exact coefficients.  No rewriting is
performed; identities asserted here hold in the free algebra itself.
"""

from __future__ import annotations

from .rational import Sparse, _prune

Gen = tuple[int, int, int]
Word = tuple[Gen, ...]


class NCPoly(Sparse):
    """Formal sum of words with exact coefficients."""

    __slots__ = ()

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = _prune(dict(coeffs or {}))

    @classmethod
    def one(cls) -> NCPoly:
        return cls({(): 1})

    @classmethod
    def zero(cls) -> NCPoly:
        return cls({})

    def __mul__(self, other) -> NCPoly:
        if not isinstance(other, NCPoly):
            return NotImplemented
        out: dict = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return self._like(_prune(out))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for w, c in sorted(self.coeffs.items()):
            word = "".join(f"L{m}[{a},{b}]" for m, a, b in w) or "1"
            bits.append(f"{c}*{word}" if c != 1 or not w else word)
        return " + ".join(bits)


def gen(m: int, a: int, b: int) -> NCPoly:
    """The generator at level m; level 0 collapses to delta_{a,b} . 1."""
    if m < 0:
        raise ValueError("level must be nonnegative")
    if m == 0:
        return NCPoly.one() if a == b else NCPoly.zero()
    return NCPoly({((m, a, b),): 1})


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

    @classmethod
    def one(cls, k: int) -> NCTensor:
        return cls(k, {((),) * k: 1})

    def __mul__(self, other) -> NCTensor:
        if not isinstance(other, NCTensor) or self.k != other.k:
            return NotImplemented
        out: dict = {}
        for key1, c1 in self.coeffs.items():
            for key2, c2 in other.coeffs.items():
                key = tuple(w1 + w2 for w1, w2 in zip(key1, key2))
                out[key] = out.get(key, 0) + c1 * c2
        return self._like(_prune(out))

    def __repr__(self):
        return f"NCTensor(k={self.k}, terms={len(self.coeffs)})"


def tensor2(p: NCPoly, q: NCPoly) -> NCTensor:
    out = {}
    for w1, c1 in p.coeffs.items():
        for w2, c2 in q.coeffs.items():
            out[(w1, w2)] = out.get((w1, w2), 0) + c1 * c2
    return NCTensor(2, out)


def coproduct_gen(m: int, a: int, b: int, n: int) -> NCTensor:
    """Delta(L^{(m)}_{a,b}) = sum_c sum_{k=0..m} L^{(k)}_{c,b} (x) L^{(m-k)}_{a,c}."""
    out = NCTensor(2)
    for c in range(n):
        for k in range(m + 1):
            out = out + tensor2(gen(k, c, b), gen(m - k, a, c))
    return out


def coproduct(p: NCPoly, n: int) -> NCTensor:
    """Algebra-homomorphism extension of the generator coproduct."""
    out = NCTensor(2)
    for word, c in p.coeffs.items():
        factor = NCTensor.one(2)
        for (m, a, b) in word:
            factor = factor * coproduct_gen(m, a, b, n)
        out = out + c * factor
    return out


def tensor_coproduct(t: NCTensor, slot: int, n: int) -> NCTensor:
    """Apply the coproduct inside one slot, raising the tensor order by one."""
    out: dict = {}
    for key, c in t.coeffs.items():
        inner = coproduct(NCPoly({key[slot]: 1}), n)
        for (w1, w2), c2 in inner.coeffs.items():
            nk = key[:slot] + (w1, w2) + key[slot + 1:]
            out[nk] = out.get(nk, 0) + c * c2
    return NCTensor(t.k + 1, out)


def antipode_table(n: int, max_level: int) -> dict[Gen, NCPoly]:
    """Solve s(L^{(m)}_{a,b}) = -sum_{k<m} sum_c s(L^{(k)}_{c,b}) L^{(m-k)}_{a,c} recursively."""
    table: dict[Gen, NCPoly] = {}
    for m in range(1, max_level + 1):
        for a in range(n):
            for b in range(n):
                acc = NCPoly.zero()
                for k in range(m):
                    for c in range(n):
                        s_prev = gen(0, c, b) if k == 0 else table[(k, c, b)]
                        acc = acc + s_prev * gen(m - k, a, c)
                table[(m, a, b)] = -acc
    return table
