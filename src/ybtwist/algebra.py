"""The n^2-dimensional twist algebra of a skew brace, with exact coefficients.

Basis monomials are pairs (a, g) standing for the idempotent h_a followed by
the invertible w_g.  The product rule

    (h_a w_g)(h_b w_h) = [a = sigma_g(b)] . h_a w_{g o h}

closes the span of those n^2 monomials, so twists, R-matrices, coproducts and
antipodes all live in finite coefficient tables and every identity is decided
by exact coefficient comparison.  Coefficients are ints or Fractions; nothing
in this module touches floating point.
"""

from __future__ import annotations

from itertools import product as iproduct

from .braces import SkewBrace, _perm_inverse, derive_sigma_tau
from .errors import CheckFailed, LimitExceeded, ValidationFailure
from .rational import Sparse, _prune
from .reports import PropertyReport

#: (n^2)^k coefficients is the hard cap for tensor constructions.
MAX_TENSOR_COEFFS = 65536


class AlgebraContext:
    """Immutable tables driving all products in the twist algebra of one skew brace.

    The basis index of the monomial h_a w_g is a*n + g.  ``prod`` is the flat
    multiplication table over basis indices, with -1 marking products that
    vanish.  Expensive derived objects (the twist, its inverse, the twisted
    R-matrix, per-basis coproducts) are built lazily and cached.
    """

    def __init__(self, brace: SkewBrace):
        n = brace.n
        self.brace = brace
        self.n = n
        self.dim = n * n
        ybmap = derive_sigma_tau(brace)
        self.ybmap = ybmap
        self.sigma = ybmap.sigma
        self.tau = ybmap.tau
        self.sigma_inv = tuple(_perm_inverse(row) for row in self.sigma)
        self.circle = brace.mul.table
        self.circle_inv = brace.mul.inverses
        self.add = brace.add.table
        self.neg = brace.add.inverses
        self.is_brace = brace.is_brace

        dim = self.dim
        prod = [-1] * (dim * dim)
        for a in range(n):
            for g in range(n):
                i = a * n + g
                b_req = self.sigma_inv[g][a]
                circ_g = self.circle[g]
                base = i * dim
                for h in range(n):
                    prod[base + b_req * n + h] = a * n + circ_g[h]
        self.prod = prod
        # The opposite algebra's table: prod_op[j*dim + i] is the product e_i e_j,
        # so multiplying on the left is multiplying on the right in A^op.
        self.prod_op = [prod[i * dim + j] for j in range(dim) for i in range(dim)]

        # In this quotient w_a w_b = w_{a o b}; whether the generic relation
        # w_a w_b = w_{sigma_a(b)} w_{tau_b(a)} survives is a fact about the
        # brace (it does iff the subscripts agree), recorded, not enforced.
        self.generic_w_relation_holds = all(
            self.circle[a][b] == self.circle[self.sigma[a][b]][self.tau[b][a]]
            for a in range(n)
            for b in range(n)
        )

        self._cache: dict = {}
        self._construction_checks()

    # ------------------------------------------------------------------ basics

    def element(self, coeffs: dict) -> AlgebraElement:
        return AlgebraElement(self, _prune(dict(coeffs)))

    def tensor(self, k: int, coeffs: dict) -> TensorElement:
        return TensorElement(self, k, _prune(dict(coeffs)))

    def basis_element(self, i: int) -> AlgebraElement:
        return AlgebraElement(self, {i: 1})

    def h(self, a: int) -> AlgebraElement:
        return AlgebraElement(self, {a * self.n: 1})

    def w(self, g: int) -> AlgebraElement:
        n = self.n
        return AlgebraElement(self, {a * n + g: 1 for a in range(n)})

    def w_inv(self, g: int) -> AlgebraElement:
        return self.w(self.circle_inv[g])

    def one(self) -> AlgebraElement:
        return self.w(0)

    def unit_tensor(self, k: int) -> TensorElement:
        n = self.n
        coeffs = {tuple(a * n for a in key): 1 for key in iproduct(range(n), repeat=k)}
        return TensorElement(self, k, coeffs)

    # ------------------------------------------------------------- lazy pieces

    @property
    def twist(self) -> TensorElement:
        if "twist" not in self._cache:
            self._cache["twist"] = build_twist(self)
        return self._cache["twist"]

    @property
    def twist_inv(self) -> TensorElement:
        if "twist_inv" not in self._cache:
            self._cache["twist_inv"] = build_twist_inv(self)
        return self._cache["twist_inv"]

    @property
    def twisted_r_matrix(self) -> TensorElement:
        if "rf" not in self._cache:
            self._cache["rf"] = build_twisted_r(self)
        return self._cache["rf"]

    def _coproduct_of_basis(self, i: int) -> dict:
        cache = self._cache.setdefault("cop_basis", {})
        if i not in cache:
            n = self.n
            a, g = divmod(i, n)
            out: dict = {}
            for b in range(n):
                c = self.add[self.neg[b]][a]  # solves b + c = a
                key = (b * n + g, c * n + g)
                out[key] = out.get(key, 0) + 1
            cache[i] = out
        return cache[i]

    def _twisted_coproduct_of_basis(self, i: int) -> dict:
        cache = self._cache.setdefault("twcop_basis", {})
        if i not in cache:
            x = self.basis_element(i)
            cache[i] = (self.twist * coproduct(x) * self.twist_inv).coeffs
        return cache[i]

    # --------------------------------------------------------------- sanity

    def _construction_checks(self) -> None:
        dim, prod = self.dim, self.prod
        for i in range(dim):
            base_i = i * dim
            for j in range(dim):
                ij = prod[base_i + j]
                base_ij = ij * dim
                base_j = j * dim
                for k in range(dim):
                    left = prod[base_ij + k] if ij >= 0 else -1
                    jk = prod[base_j + k]
                    right = prod[base_i + jk] if jk >= 0 else -1
                    if left != right:
                        raise CheckFailed("associativity", (i, j, k))
        one = self.one()
        for i in range(dim):
            x = self.basis_element(i)
            if one * x != x or x * one != x:
                raise CheckFailed("unit", i)


class AlgebraElement(Sparse):
    """Exact-coefficient linear combination of the basis monomials h_a w_g."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: AlgebraContext, coeffs: dict):
        self.ctx = ctx
        self.coeffs = coeffs

    def _like(self, coeffs: dict) -> AlgebraElement:
        return AlgebraElement(self.ctx, coeffs)

    def _shape(self):
        return self.ctx

    def _operand(self, other):
        if not isinstance(other, AlgebraElement):
            return None
        _same_ctx(self, other)
        return other

    def __mul__(self, other) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _same_ctx(self, other)
        dim, prod = self.ctx.dim, self.ctx.prod
        acc: dict = {}
        for i, ci in self.coeffs.items():
            base = i * dim
            for j, cj in other.coeffs.items():
                k = prod[base + j]
                if k >= 0:
                    acc[k] = acc.get(k, 0) + ci * cj
        return AlgebraElement(self.ctx, _prune(acc))

    def __repr__(self):
        n = self.ctx.n
        terms = [
            f"{'' if c == 1 else str(c) + '*'}h{i // n}w{i % n}"
            for i, c in sorted(self.coeffs.items())
        ]
        return " + ".join(terms) if terms else "0"


class TensorElement(Sparse):
    """Exact k-fold tensor over the algebra basis; keys are k-tuples of basis indices."""

    __slots__ = ("ctx", "k")

    def __init__(self, ctx: AlgebraContext, k: int, coeffs: dict):
        self.ctx = ctx
        self.k = k
        self.coeffs = coeffs

    def _like(self, coeffs: dict) -> TensorElement:
        return TensorElement(self.ctx, self.k, coeffs)

    def _shape(self):
        return self.ctx, self.k

    def _operand(self, other):
        if not isinstance(other, TensorElement):
            return None
        _same_ctx(self, other)
        _same_order(self, other)
        return other

    def __mul__(self, other) -> TensorElement:
        if not isinstance(other, TensorElement):
            return NotImplemented
        _same_order(self, other)
        return _leg_product(self, other, tuple(range(self.k)), self.ctx.prod)

    def slot_swap(self, i: int, j: int) -> TensorElement:
        out: dict = {}
        for key, c in self.coeffs.items():
            lk = list(key)
            lk[i], lk[j] = lk[j], lk[i]
            out[tuple(lk)] = c
        return TensorElement(self.ctx, self.k, out)

    def __repr__(self):
        return f"TensorElement(k={self.k}, terms={len(self.coeffs)})"


def _same_ctx(x, y) -> None:
    if x.ctx is not y.ctx:
        raise ValidationFailure("context_mismatch", None, "operands built from different contexts")


def _same_order(x, y) -> None:
    if x.k != y.k:
        raise ValidationFailure("order_mismatch", (x.k, y.k))


# --------------------------------------------------------------------- ops


def algebra_from_brace(brace: SkewBrace) -> AlgebraContext:
    """Build the context, running the construction-time associativity and
    unit checks (CheckFailed signals a corrupted brace)."""
    return AlgebraContext(brace)


def coproduct(x: AlgebraElement) -> TensorElement:
    """Delta(h_a w_g) = sum_{b+c=a} h_b w_g (x) h_c w_g, extended linearly."""
    ctx = x.ctx
    acc: dict = {}
    for i, c in x.coeffs.items():
        for key, mult in ctx._coproduct_of_basis(i).items():
            acc[key] = acc.get(key, 0) + c * mult
    return TensorElement(ctx, 2, _prune(acc))


def counit(x: AlgebraElement):
    """eps(h_a w_g) = [a = 0]."""
    n = x.ctx.n
    return sum((c for i, c in x.coeffs.items() if i // n == 0), 0)


def antipode(x: AlgebraElement) -> AlgebraElement:
    """s(h_a w_g) = h_{sigma_{g^{-1}}(-a)} w_{g^{-1}}, the anti-homomorphic
    composition of s(w_g) = w_{g^{-1}} and s(h_a) = h_{-a}."""
    ctx = x.ctx
    n = ctx.n
    acc: dict = {}
    for i, c in x.coeffs.items():
        a, g = divmod(i, n)
        ginv = ctx.circle_inv[g]
        a2 = ctx.sigma[ginv][ctx.neg[a]]
        j = a2 * n + ginv
        acc[j] = acc.get(j, 0) + c
    return AlgebraElement(ctx, _prune(acc))


def build_twist(ctx: AlgebraContext) -> TensorElement:
    """The combinatorial twist sum_b h_b (x) w_{b^{-1}}."""
    n = ctx.n
    coeffs = {}
    for b in range(n):
        binv = ctx.circle_inv[b]
        for a in range(n):
            coeffs[(b * n, a * n + binv)] = 1
    return TensorElement(ctx, 2, coeffs)


def build_twist_inv(ctx: AlgebraContext) -> TensorElement:
    """sum_b h_b (x) w_b, the two-sided inverse of the twist."""
    n = ctx.n
    coeffs = {}
    for b in range(n):
        for a in range(n):
            coeffs[(b * n, a * n + b)] = 1
    return TensorElement(ctx, 2, coeffs)


def build_twisted_r(ctx: AlgebraContext) -> TensorElement:
    """F^op F^{-1}, cross-checked against sum_{a,b} h_b w_{a^{-1}} (x) h_a w_{sigma_a(b)}.

    Raises CheckFailed("twist_not_inverse") or CheckFailed("rf_closed_form")
    when the two independent routes disagree; impossible for a valid brace.
    """
    f, finv = ctx.twist, ctx.twist_inv
    unit2 = ctx.unit_tensor(2)
    if f * finv != unit2 or finv * f != unit2:
        raise CheckFailed("twist_not_inverse")
    conj = f.slot_swap(0, 1) * finv
    n = ctx.n
    closed = {}
    for a in range(n):
        ainv = ctx.circle_inv[a]
        srow = ctx.sigma[a]
        for b in range(n):
            closed[(b * n + ainv, a * n + srow[b])] = 1
    closed_t = TensorElement(ctx, 2, closed)
    if conj != closed_t:
        raise CheckFailed("rf_closed_form", conj.first_diff(closed_t))
    return conj


def _twisted_h_closed(ctx: AlgebraContext, a: int) -> TensorElement:
    # Delta_F(h_a) = sum over b o c = a of h_b (x) h_c
    n = ctx.n
    coeffs = {}
    for b in range(n):
        c = ctx.circle[ctx.circle_inv[b]][a]  # solves b o c = a
        coeffs[(b * n, c * n)] = 1
    return TensorElement(ctx, 2, coeffs)


def _twisted_w_closed(ctx: AlgebraContext, a: int) -> TensorElement:
    # Delta_F(w_a) = sum_b w_a h_b (x) w_{tau_b(a)}; w_a h_b = h_{sigma_a(b)} w_a
    n = ctx.n
    coeffs = {}
    for b in range(n):
        first = ctx.sigma[a][b] * n + a
        tau_ba = ctx.tau[b][a]
        for c in range(n):
            coeffs[(first, c * n + tau_ba)] = 1
    return TensorElement(ctx, 2, coeffs)


def _check_twisted_closed_forms(ctx: AlgebraContext) -> None:
    # The h-generator form holds for every skew brace; the w-generator form
    # relies on sigma_a(b) o tau_b(a) = a o b, hence on abelian addition.
    for a in range(ctx.n):
        conj = ctx.tensor(2, ctx._twisted_coproduct_of_basis(a * ctx.n))
        if conj != _twisted_h_closed(ctx, a):
            raise CheckFailed("twisted_coproduct_closed_form", ("h", a))
    if ctx.is_brace:
        for a in range(ctx.n):
            conj = ctx.twist * coproduct(ctx.w(a)) * ctx.twist_inv
            if conj != _twisted_w_closed(ctx, a):
                raise CheckFailed("twisted_coproduct_closed_form", ("w", a))


def twisted_coproduct(x: AlgebraElement) -> TensorElement:
    """Delta_F(x) = F Delta(x) F^{-1}.

    On first use per context the conjugation is cross-checked against the
    closed generator forms (for every skew brace on h_a; additionally on w_a
    when addition is abelian); a mismatch raises CheckFailed.
    """
    ctx = x.ctx
    if not ctx._cache.get("twisted_closed_checked"):
        _check_twisted_closed_forms(ctx)
        ctx._cache["twisted_closed_checked"] = True
    acc: dict = {}
    for i, c in x.coeffs.items():
        for key, mult in ctx._twisted_coproduct_of_basis(i).items():
            acc[key] = acc.get(key, 0) + c * mult
    return TensorElement(ctx, 2, _prune(acc))


def twisted_antipode(x: AlgebraElement) -> AlgebraElement:
    """The antipode of the twisted structure, defined for braces only.

    On generators: s~(h_a) = h_{a^{-1}} (inverse in (X, o)) and
    s~(w_a) = sum_b h_b w^{-1}_{tau_{b^{-1}}(a)}, extended anti-homomorphically.
    """
    ctx = x.ctx
    if not ctx.is_brace:
        raise ValidationFailure("not_a_brace", None, "twisted antipode requires abelian addition")
    table = ctx._cache.get("stilde_basis")
    if table is None:
        n = ctx.n
        table = []
        for i in range(ctx.dim):
            a, g = divmod(i, n)
            # s~(h_a w_g) = s~(w_g) s~(h_a)
            sw = {}
            for b in range(n):
                sub = ctx.circle_inv[ctx.tau[ctx.circle_inv[b]][g]]
                sw[b * n + sub] = 1
            image = AlgebraElement(ctx, sw) * ctx.h(ctx.circle_inv[a])
            table.append(image.coeffs)
        ctx._cache["stilde_basis"] = table
    acc: dict = {}
    for i, c in x.coeffs.items():
        for j, mult in table[i].items():
            acc[j] = acc.get(j, 0) + c * mult
    return AlgebraElement(ctx, _prune(acc))


# ----------------------------------------------------------- tensor utilities


def embed_two(ctx: AlgebraContext, t2: TensorElement, k: int, i: int, j: int) -> TensorElement:
    """Place a 2-tensor at legs (i, j) of a k-tensor, units elsewhere."""
    n = ctx.n
    others = [s for s in range(k) if s not in (i, j)]
    acc: dict = {}
    for (p, q), c in t2.coeffs.items():
        for fill in iproduct(range(n), repeat=len(others)):
            key = [0] * k
            key[i], key[j] = p, q
            for s, a in zip(others, fill):
                key[s] = a * n
            acc[tuple(key)] = acc.get(tuple(key), 0) + c
    return TensorElement(ctx, k, _prune(acc))


def apply_right(x: TensorElement, t: TensorElement, legs: tuple[int, ...]) -> TensorElement:
    """x multiplied on the right by the m-tensor t embedded at ``legs``, units elsewhere.

    Equals x * (t placed at ``legs`` of a unit-padded x.k-tensor) but touches only
    the legs in ``legs``: multiplying a slot by the unit leaves it unchanged.
    ``x * y`` is the case where ``legs`` is every leg.
    """
    return _leg_product(x, t, legs, x.ctx.prod)


def apply_left(t: TensorElement, legs: tuple[int, ...], x: TensorElement) -> TensorElement:
    """The m-tensor t embedded at ``legs`` (units elsewhere), multiplied on the left of x.

    Equals (t placed at ``legs`` of a unit-padded x.k-tensor) * x; the legs
    outside ``legs`` keep x's slots unchanged.
    """
    return _leg_product(x, t, legs, x.ctx.prod_op)


def _leg_product(x: TensorElement, t: TensorElement, legs: tuple[int, ...], table) -> TensorElement:
    # Slot legs[m] of each key of x becomes table[slot * dim + t_key[m]].  The
    # terms of t are grouped by their first slot, so one lookup discards a whole
    # group whose first-leg product vanishes.
    _same_ctx(x, t)
    if t.k != len(legs):
        raise ValidationFailure("order_mismatch", (t.k, len(legs)))
    ctx = x.ctx
    dim = ctx.dim
    first, rest = legs[0], legs[1:]
    grouped: dict = {}
    for tkey, c in t.coeffs.items():
        grouped.setdefault(tkey[0], []).append((tkey[1:], c))
    groups = list(grouped.items())
    acc: dict = {}
    for key, c1 in x.coeffs.items():
        base = key[first] * dim
        for s, members in groups:
            p = table[base + s]
            if p < 0:
                continue
            for tail, c2 in members:
                nk = list(key)
                nk[first] = p
                for leg, s2 in zip(rest, tail):
                    q = table[key[leg] * dim + s2]
                    if q < 0:
                        break
                    nk[leg] = q
                else:
                    out = tuple(nk)
                    acc[out] = acc.get(out, 0) + c1 * c2
    return TensorElement(ctx, x.k, _prune(acc))


def slot_coproduct(t: TensorElement, slot: int, twisted: bool = False) -> TensorElement:
    """Apply the (twisted) coproduct to one tensor slot, raising the order by one."""
    ctx = t.ctx
    table = ctx._twisted_coproduct_of_basis if twisted else ctx._coproduct_of_basis
    acc: dict = {}
    for key, c in t.coeffs.items():
        head, tail = key[:slot], key[slot + 1:]
        for (u, v), mult in table(key[slot]).items():
            nk = head + (u, v) + tail
            acc[nk] = acc.get(nk, 0) + c * mult
    return TensorElement(ctx, t.k + 1, _prune(acc))


def counit_slot(t: TensorElement, slot: int):
    """Apply the counit to one slot; returns an AlgebraElement when one slot remains."""
    ctx = t.ctx
    n = ctx.n
    acc: dict = {}
    for key, c in t.coeffs.items():
        if key[slot] // n != 0:
            continue
        nk = key[:slot] + key[slot + 1:]
        acc[nk] = acc.get(nk, 0) + c
    if t.k - 1 == 1:
        return AlgebraElement(ctx, _prune({k[0]: v for k, v in acc.items()}))
    return TensorElement(ctx, t.k - 1, _prune(acc))


def mul_slots(t: TensorElement) -> AlgebraElement:
    """Multiply all slots together (the k-fold multiplication map)."""
    ctx = t.ctx
    dim, prod = ctx.dim, ctx.prod
    acc: dict = {}
    for key, c in t.coeffs.items():
        cur = key[0]
        for s in key[1:]:
            cur = prod[cur * dim + s]
            if cur < 0:
                break
        else:
            acc[cur] = acc.get(cur, 0) + c
    return AlgebraElement(ctx, _prune(acc))


def map_slot(t: TensorElement, slot: int, basis_map) -> TensorElement:
    """Apply a linear map (basis index -> coefficient dict) to one slot."""
    ctx = t.ctx
    acc: dict = {}
    for key, c in t.coeffs.items():
        for j, mult in basis_map(key[slot]).items():
            nk = key[:slot] + (j,) + key[slot + 1:]
            acc[nk] = acc.get(nk, 0) + c * mult
    return TensorElement(ctx, t.k, _prune(acc))


def _antipode_map(ctx: AlgebraContext, twisted: bool):
    if not twisted:
        def m(i: int) -> dict:
            return antipode(ctx.basis_element(i)).coeffs
    else:
        def m(i: int) -> dict:
            return twisted_antipode(ctx.basis_element(i)).coeffs
    return m


# ------------------------------------------------------------- verifications


def verify_hopf_axioms(ctx: AlgebraContext, twisted: bool = False) -> PropertyReport:
    """Check the bialgebra and antipode axioms on the whole basis.

    With twisted=True the checks run for (Delta_F, eps, s~), which requires a
    brace (abelian addition); otherwise for (Delta, eps, s).  Each basis
    coproduct is built once and serves every check: e_i e_j is a basis element
    or zero, so Delta(e_i e_j) is read from the same list.  The witness of
    ``coproduct_homomorphism`` is the first failing (i, j) in row-major order.
    """
    cop = twisted_coproduct if twisted else coproduct
    s_map = _antipode_map(ctx, twisted)
    label = "twisted" if twisted else "untwisted"
    report = PropertyReport(f"hopf_axioms_{label}")
    dim, prod = ctx.dim, ctx.prod
    one = ctx.one()
    cops = [cop(ctx.basis_element(i)) for i in range(dim)]
    zero = TensorElement(ctx, 2, {})

    w = next(((i, j) for i in range(dim) for j in range(dim)
              if (cops[prod[i * dim + j]] if prod[i * dim + j] >= 0 else zero)
              != cops[i] * cops[j]), None)
    report.add("coproduct_homomorphism", w is None, witness=w)

    w = next(
        (i for i, d in enumerate(cops)
         if slot_coproduct(d, 0, twisted) != slot_coproduct(d, 1, twisted)),
        None,
    )
    report.add("coassociativity", w is None, witness=w)

    w = next((i for i, d in enumerate(cops)
              if counit_slot(d, 0) != ctx.basis_element(i)
              or counit_slot(d, 1) != ctx.basis_element(i)), None)
    report.add("counit", w is None, witness=w)

    w = None
    for i, d in enumerate(cops):
        target = counit(ctx.basis_element(i)) * one
        left = mul_slots(map_slot(d, 0, s_map))
        right = mul_slots(map_slot(d, 1, s_map))
        if left != target or right != target:
            w = i
            break
    report.add("antipode", w is None, witness=w)
    return report


def is_cocommutative(ctx: AlgebraContext) -> bool:
    """True iff Delta = Delta^op on every basis element (holds for abelian addition)."""
    for i in range(ctx.dim):
        d = coproduct(ctx.basis_element(i))
        if d != d.slot_swap(0, 1):
            return False
    return True


def verify_twist_conditions(ctx: AlgebraContext, twist: TensorElement | None = None) -> PropertyReport:
    """Check the cocycle identity and the leg symmetries of the three-slot twists.

    ``twist`` overrides the context twist so corrupted inputs can be exercised
    as negative controls; the derived three-slot pieces always come from the
    true tables.
    """
    f = ctx.twist if twist is None else twist
    rf = ctx.twisted_r_matrix
    report = PropertyReport("twist_conditions")

    f_1_23 = _twist_1_tail(ctx, 3)
    f_12_3 = _twist_12_3(ctx)
    lhs = apply_left(f, (0, 1), f_12_3)
    rhs = apply_left(f, (1, 2), f_1_23)
    report.compare("cocycle", lhs, rhs)
    f123 = rhs

    report.compare("one_two_three_symmetry", f_1_23, f_1_23.slot_swap(1, 2))
    report.compare("two_one_three_symmetry", f_12_3, f_12_3.slot_swap(0, 1))
    report.compare("exchange_r23", f123.slot_swap(1, 2), apply_left(rf, (1, 2), f123))
    report.compare("exchange_r12", f123.slot_swap(0, 1), apply_left(rf, (0, 1), f123))

    w = f_12_3.first_diff(slot_coproduct(f, 0)) or f_1_23.first_diff(slot_coproduct(f, 1))
    report.add("coproduct_images", w is None, witness=w)
    return report


def _twist_12_3(ctx: AlgebraContext) -> TensorElement:
    # sum_{a,b} h_a (x) h_{sigma_a(b)} (x) w_{b^{-1}} w_{a^{-1}}
    n = ctx.n
    coeffs = {}
    for a in range(n):
        for b in range(n):
            sub = ctx.circle_inv[ctx.circle[a][b]]
            for c in range(n):
                coeffs[(a * n, ctx.sigma[a][b] * n, c * n + sub)] = 1
    return TensorElement(ctx, 3, coeffs)


def verify_universal_ybe(ctx: AlgebraContext, rf: TensorElement | None = None) -> PropertyReport:
    """Check R12 R13 R23 = R23 R13 R12 in the three-fold tensor algebra."""
    r = ctx.twisted_r_matrix if rf is None else rf
    lhs = apply_right(apply_right(embed_two(ctx, r, 3, 0, 1), r, (0, 2)), r, (1, 2))
    rhs = apply_right(apply_right(embed_two(ctx, r, 3, 1, 2), r, (0, 2)), r, (0, 1))
    report = PropertyReport("universal_ybe")
    report.compare("ybe", lhs, rhs)
    return report


def verify_quasitriangularity(ctx: AlgebraContext) -> PropertyReport:
    """The four quasi-triangularity identities of the twisted structure.

    For a brace all four must hold; for a skew brace the report is
    exploratory and simply records which identities survive.
    """
    rf = ctx.twisted_r_matrix
    report = PropertyReport("quasitriangularity")

    w = None
    for i in range(ctx.dim):
        x = ctx.basis_element(i)
        d = twisted_coproduct(x)
        if rf * d != d.slot_swap(0, 1) * rf:
            w = i
            break
    report.add("intertwines_coproduct", w is None, witness=w)

    report.compare("fusion_first_leg", slot_coproduct(rf, 0, twisted=True),
                   apply_right(embed_two(ctx, rf, 3, 0, 2), rf, (1, 2)))
    report.compare("fusion_second_leg", slot_coproduct(rf, 1, twisted=True),
                   apply_right(embed_two(ctx, rf, 3, 0, 2), rf, (0, 1)))

    one = ctx.one()
    w = counit_slot(rf, 0).first_diff(one) or counit_slot(rf, 1).first_diff(one)
    report.add("counit_laws", w is None, witness=w)
    if not ctx.is_brace:
        report.add("exploratory", True, detail="addition is nonabelian; results reported, not asserted")
    return report


def nfold_twist(ctx: AlgebraContext, k: int) -> tuple[TensorElement, PropertyReport]:
    """Build the k-fold twist two ways and check the closed form and exchange laws.

    The recursion multiplies the (k-1)-fold twist against the one-slot and
    coproduct-image pieces in both bracketings, which must agree; the closed
    form writes every w-subscript as a running circle product.
    """
    if k not in (3, 4):
        raise LimitExceeded(f"tensor order {k} unsupported (k must be 3 or 4)")
    if ctx.dim ** k > MAX_TENSOR_COEFFS:
        raise LimitExceeded(f"(n^2)^{k} = {ctx.dim ** k} exceeds cap {MAX_TENSOR_COEFFS}")
    n = ctx.n
    report = PropertyReport(f"nfold_twist_k{k}")
    twists: dict[int, TensorElement] = {2: ctx.twist}

    for j in range(3, k + 1):
        prev = twists[j - 1]
        tail_piece = ctx.twist
        for _ in range(j - 2):
            tail_piece = slot_coproduct(tail_piece, 0)
        # (F_{1..j-1} (x) 1) . piece and (1 (x) F_{1..j-1}) . one_slot
        lhs = apply_left(prev, tuple(range(j - 1)), tail_piece)
        rhs = apply_left(prev, tuple(range(1, j)), _twist_1_tail(ctx, j))
        report.compare(f"recursion_{j}_fold", lhs, rhs)
        twists[j] = lhs

    closed: dict = {}
    for heads in iproduct(range(n), repeat=k - 1):
        key = [heads[0] * n]
        prefix = heads[0]
        for a in heads[1:]:
            key.append(a * n + ctx.circle_inv[prefix])
            prefix = ctx.circle[prefix][a]
        last_sub = ctx.circle_inv[prefix]
        for c in range(n):
            closed[tuple(key + [c * n + last_sub])] = 1
    closed_t = TensorElement(ctx, k, closed)
    report.compare("closed_form", twists[k], closed_t)

    rf = ctx.twisted_r_matrix
    for j in range(k - 1):
        report.compare(f"exchange_law_legs_{j + 1}_{j + 2}", twists[k].slot_swap(j, j + 1),
                       apply_left(rf, (j, j + 1), twists[k]))
    return twists[k], report


def _twist_1_tail(ctx: AlgebraContext, k: int) -> TensorElement:
    # sum_a h_a (x) w_{a^{-1}} (x) ... (x) w_{a^{-1}}   (k - 1 tail slots)
    n = ctx.n
    acc = {}
    for a in range(n):
        ainv = ctx.circle_inv[a]
        for tail in iproduct(range(n), repeat=k - 1):
            acc[(a * n,) + tuple(b * n + ainv for b in tail)] = 1
    return TensorElement(ctx, k, acc)
