"""The n^2-dimensional twist algebra of a skew brace, with exact coefficients.

Basis monomials are pairs (a, g) standing for the idempotent h_a followed by
the invertible w_g.  The product rule

    (h_a w_g)(h_b w_h) = [a = sigma_g(b)] . h_a w_{g o h}

closes the span of those n^2 monomials, so twists, R-matrices, coproducts and
antipodes all live in finite coefficient tables and every identity is decided
by exact coefficient comparison.  Coefficients are ints or Fractions; nothing
in this module touches floating point.

This is the algebra of the action groupoid of (B, o) on B through sigma:
h_a w_g is the arrow from source sigma_g^{-1}(a) to target a, and a product
survives iff the left source is the right target.  The context's per-basis
``target`` and ``source`` lists are the only code that knows this rule, and
one batched join, ``_leg_products``, multiplies every pair of tensors, one
pair or a whole table of products at a time.  Nearly every product places a
two-leg tensor (F, F^{-1}, R or a coproduct row), so the join has one branch
for two legs that reads both ends and both slot products without a loop over
the legs.

There is one container, ``TensorElement``: an algebra element is the one-leg
tensor.  Each structure map (Delta, Delta_F, eps, s, s~) is one per-basis
table on the context, and one slot kernel, ``rational._on_slot`` (shared with
the free coproduct of ``ncpoly``), applies any of them to any slot of a
coefficient dict: the element maps are its one-slot case, the
slot maps wrap it, and the Hopf axioms apply the tables through it to each row
of the coproduct table, with no tensor built.

The 3-leg products that several identities share come in two families, each
formed by one builder as a tuple of coefficient dicts: ``_fusion_sides(ctx, r)``
gives R13 R23 and R13 R12 (the fusion sides, and the YBE sides without their
outer factor), and ``_cocycle_sides(ctx, f)`` gives F12 F_{12,3}, F123 =
F23 F_{1,23} (the cocycle's sides and the 3-fold twist's two bracketings),
R12 F123 and R23 F123 (the exchange laws' moved sides).  The context builds
each family once from its own R and F, with F_{12,3} = (Delta (x) id)(F)
formed in place, and an identity given another R or F (the ``rf`` and
``twist`` overrides) calls the builder on it.  The cocycle family's operands
are those that the k-fold recursion multiplies, so ``nfold_twist`` takes its
3-fold step from it as is: every shared product is shared because the same
builder runs on the same operands, and no value is compared to allow it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct

from .braces import SkewBrace, _perm_inverse, derive_sigma_tau
from .errors import CheckFailed, LimitExceeded, ValidationFailure
from .rational import Sparse, _on_slot, _prune
from .reports import PropertyReport

#: The cap on the n^k terms of a k-fold twist.
MAX_TENSOR_COEFFS = 65536


class AlgebraContext:
    """Immutable tables driving all products in the twist algebra of one skew brace.

    The basis index of the monomial h_a w_g is a*n + g.  ``prod`` is the flat
    multiplication table over basis indices, built from the ends ``target`` and
    ``source``, with -1 marking products that vanish.  An algebra element is a
    one-leg tensor, keyed by ``(i,)``.

    Built lazily, once per context: the twist, its inverse and the twisted
    R-matrix as dicts wrapped anew on each access (so no cached object points
    back at the context), and one per-basis table for each structure map -- ``cop``
    (Delta), ``twisted_cop`` (Delta_F), ``eps`` (the counit), ``s`` (the
    antipode) and ``s_twisted`` (the twisted antipode).  Entry i of a table is
    the image of e_i as {tuple of basis indices: multiplicity}; ``s_twisted``
    is U s U^{-1} (Drinfeld's formula, which holds because F is a 2-cocycle),
    so every table is defined on every skew brace.  Also lazy,
    F_{12,3} = (Delta (x) id)(F) formed in place and the closed-form F_{1,23}
    (``_f_12_3``, ``_f_1_23``), and the two families of shared 3-leg products
    of the module docstring, as tuples of dicts: ``_fusion`` (of R) and
    ``_cocycle`` (of F).
    """

    def __init__(self, brace: SkewBrace):
        n = brace.n
        self.brace = brace
        self.n = n
        self.dim = n * n
        ybmap = derive_sigma_tau(brace)
        self.ybmap = ybmap
        self.sigma = ybmap.sigma
        self.sigma_inv = tuple(_perm_inverse(row) for row in self.sigma)
        self.circle = brace.mul.table
        self.circle_inv = brace.mul.inverses
        self.add = brace.add.table
        self.neg = brace.add.inverses
        self.is_brace = brace.is_brace

        # the ends of the arrow h_a w_g: target a, source sigma_g^{-1}(a)
        self.target = [i // n for i in range(self.dim)]
        self.source = [self.sigma_inv[g][a] for a in range(n) for g in range(n)]
        self.prod = _groupoid_product(self)
        self._construction_checks()

    # ------------------------------------------------------------------ basics

    def element(self, coeffs: dict) -> TensorElement:
        """The one-leg tensor of {basis index: coefficient}."""
        return TensorElement(self, 1, _prune({(i,): c for i, c in coeffs.items()}))

    def tensor(self, k: int, coeffs: dict) -> TensorElement:
        return TensorElement(self, k, _prune(dict(coeffs)))

    def basis_element(self, i: int) -> TensorElement:
        return TensorElement(self, 1, {(i,): 1})

    def h(self, a: int) -> TensorElement:
        return self.basis_element(a * self.n)

    def w(self, g: int) -> TensorElement:
        n = self.n
        return TensorElement(self, 1, {(a * n + g,): 1 for a in range(n)})

    def w_inv(self, g: int) -> TensorElement:
        return self.w(self.circle_inv[g])

    def one(self) -> TensorElement:
        return self.w(0)

    def unit_tensor(self, k: int) -> TensorElement:
        return TensorElement(self, k, dict.fromkeys(iproduct(range(0, self.dim, self.n), repeat=k), 1))

    # ------------------------------------------------------------- lazy pieces

    @property
    def twist(self) -> TensorElement:
        """The combinatorial twist sum_b h_b (x) w_{b^{-1}}."""
        return TensorElement(self, 2, self._twist)

    @property
    def twist_inv(self) -> TensorElement:
        """sum_b h_b (x) w_b, the two-sided inverse of the twist."""
        return TensorElement(self, 2, self._twist_inv)

    @property
    def twisted_r_matrix(self) -> TensorElement:
        """F^op F^{-1}, cross-checked against sum_{a,b} h_b w_{a^{-1}} (x) h_a w_{sigma_a(b)}.

        Raises CheckFailed("twist_not_inverse") or CheckFailed("rf_closed_form")
        when the two independent routes disagree; impossible for a valid brace.
        """
        return TensorElement(self, 2, self._twisted_r)

    @cached_property
    def _twist(self) -> dict:
        return _twist_1_tail(self, 2).coeffs  # F = F_{1,2..k} at k = 2

    @cached_property
    def _twist_inv(self) -> dict:
        n = self.n
        return {(b * n, a * n + b): 1 for b in range(n) for a in range(n)}

    @cached_property
    def _twisted_r(self) -> dict:
        f, finv = self.twist, self.twist_inv
        unit2 = self.unit_tensor(2)
        if f * finv != unit2 or finv * f != unit2:
            raise CheckFailed("twist_not_inverse")
        conj = f.slot_swap(0, 1) * finv
        n = self.n
        closed = {}
        for a in range(n):
            ainv = self.circle_inv[a]
            srow = self.sigma[a]
            for b in range(n):
                closed[(b * n + ainv, a * n + srow[b])] = 1
        closed_t = TensorElement(self, 2, closed)
        if conj != closed_t:
            raise CheckFailed("rf_closed_form", conj.first_diff(closed_t))
        return conj.coeffs

    @cached_property
    def _f_12_3(self) -> dict:
        """F_{12,3} = (Delta (x) id)(F), formed in place: the operand that the
        k-fold recursion multiplies (the closed form only cross-checks it)."""
        return slot_coproduct(self.twist, 0).coeffs

    @cached_property
    def _f_1_23(self) -> dict:
        """F_{1,23} = (id (x) Delta)(F), in closed form."""
        return _twist_1_tail(self, 3).coeffs

    @cached_property
    def _fusion(self) -> tuple[dict, dict]:
        """The fusion family of the context's R (``_fusion_sides``)."""
        return _fusion_sides(self, self.twisted_r_matrix)

    @cached_property
    def _cocycle(self) -> tuple[dict, dict, dict, dict]:
        """The cocycle family of the context's F (``_cocycle_sides``)."""
        return _cocycle_sides(self, self.twist)

    @cached_property
    def cop(self) -> list[dict]:
        """Delta(h_a w_g) = sum_{b+c=a} h_b w_g (x) h_c w_g."""
        n = self.n
        table = []
        for i in range(self.dim):
            a, g = divmod(i, n)
            image: dict = {}
            for b in range(n):
                key = (b * n + g, self.add[self.neg[b]][a] * n + g)  # b + c = a
                image[key] = image.get(key, 0) + 1
            table.append(image)
        return table

    @cached_property
    def twisted_cop(self) -> list[dict]:
        """Delta_F(e_i) = F Delta(e_i) F^{-1}, cross-checked against the closed
        generator forms (see ``_check_twisted_closed_forms``)."""
        f_cop = next(_leg_products(self, [self._twist], self.cop, (0, 1), True))
        rows = [f_cop.get(i, {}) for i in range(self.dim)]
        table = [p.get(0, {}) for p in _leg_products(self, rows, [self._twist_inv], (0, 1), True)]
        _check_twisted_closed_forms(self, table)
        return table

    @cached_property
    def eps(self) -> list[dict]:
        """eps(h_a w_g) = [a = 0]."""
        return [{(): 1} if i < self.n else {} for i in range(self.dim)]

    @cached_property
    def s(self) -> list[dict]:
        """s(h_a w_g) = h_{sigma_{g^{-1}}(-a)} w_{g^{-1}}, the anti-homomorphic
        composition of s(w_g) = w_{g^{-1}} and s(h_a) = h_{-a}."""
        n, inv = self.n, self.circle_inv
        return [{(self.sigma[inv[g]][self.neg[a]] * n + inv[g],): 1}
                for a in range(n) for g in range(n)]

    @cached_property
    def s_twisted(self) -> list[dict]:
        """The antipode of the twisted structure, s~(x) = U s(x) U^{-1}.

        F is a 2-cocycle, so Drinfeld's formula holds on every skew brace:
        U = m(id (x) s)(F) and U^{-1} = m(s (x) id)(F^{-1}).  The table is two
        batches, U on the left of the whole table ``s``, then U^{-1} on the
        right of every row.
        """
        u = _multiplied(self, _on_slot(self._twist, 1, self.s))
        u_inv = _multiplied(self, _on_slot(self._twist_inv, 0, self.s))
        u_s = next(_leg_products(self, [u], self.s, (0,), True))
        rows = [u_s.get(i, {}) for i in range(self.dim)]
        return [p.get(0, {}) for p in _leg_products(self, rows, [u_inv], (0,), True)]

    # --------------------------------------------------------------- sanity

    def _construction_checks(self) -> None:
        # Premise: o is associative, sigma an action (source(h_a w_{g o h}) =
        # source(h_{source(h_a w_g)} w_h)) and prod the groupoid rule.  Then for
        # e_i = h_a w_g, e_j = h_b w_h, e_k = h_c w_l both bracketings survive iff
        # b = source_i and c = source(h_a w_{g o h}) = source(h_b w_h), and are then
        # h_a w_{g o h o l}: the product is associative, so the dim^3 scan, run only
        # when the premise fails, keeps its verdict and first witness on any table.
        n, dim, prod, circle, source = self.n, self.dim, self.prod, self.circle, self.source
        premise = prod == _groupoid_product(self) and all(
            circle[circle[g][h]][x] == circle[g][circle[h][x]]
            and source[x * n + circle[g][h]] == source[source[x * n + g] * n + h]
            for g in range(n) for h in range(n) for x in range(n))
        if not premise:
            for i, j, k in iproduct(range(dim), repeat=3):
                ij, jk = prod[i * dim + j], prod[j * dim + k]
                if (prod[ij * dim + k] if ij >= 0 else -1) != (prod[i * dim + jk] if jk >= 0 else -1):
                    raise CheckFailed("associativity", (i, j, k))
        # one = sum_a h_a w_0, so one e_i = e_i = e_i one iff exactly one product
        # survives on each side, and it is e_i
        units = range(0, dim, n)
        for i in range(dim):
            if ([p for u in units if (p := prod[u * dim + i]) >= 0] != [i]
                    or [p for u in units if (p := prod[i * dim + u]) >= 0] != [i]):
                raise CheckFailed("unit", i)


def _groupoid_product(ctx: AlgebraContext) -> list[int]:
    """The product table from the ends: e_i e_j = e_{target_i n + g_i o g_j} for the
    j = source_i n + g_j with target_j = source_i, and -1 (zero) otherwise."""
    n, dim, target, source, circle = ctx.n, ctx.dim, ctx.target, ctx.source, ctx.circle
    prod = [-1] * (dim * dim)
    for i in range(dim):
        base, head, circ = i * dim + source[i] * n, target[i] * n, circle[i % n]
        for h in range(n):
            prod[base + h] = head + circ[h]
    return prod


class TensorElement(Sparse):
    """Exact k-fold tensor over the algebra basis; keys are k-tuples of basis indices.

    An algebra element is the one-leg tensor (k = 1, keys ``(i,)``).
    """

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
        return _leg_product(self, other, tuple(range(self.k)), True)

    def slot_swap(self, i: int, j: int) -> TensorElement:
        for slot in (i, j):
            _check_legs((slot,), self.k)
        out: dict = {}
        for key, c in self.coeffs.items():
            lk = list(key)
            lk[i], lk[j] = lk[j], lk[i]
            out[tuple(lk)] = c
        return TensorElement(self.ctx, self.k, out)

    def __repr__(self):
        if self.k != 1:
            return f"TensorElement(k={self.k}, terms={len(self.coeffs)})"
        n = self.ctx.n
        terms = [
            f"{'' if c == 1 else str(c) + '*'}h{i // n}w{i % n}"
            for (i,), c in sorted(self.coeffs.items())
        ]
        return " + ".join(terms) if terms else "0"


def _same_ctx(x, y) -> None:
    if x.ctx is not y.ctx:
        raise ValidationFailure("context_mismatch", None, "operands built from different contexts")


def _same_order(x, y) -> None:
    if x.k != y.k:
        raise ValidationFailure("order_mismatch", (x.k, y.k))


def _check_legs(legs, k: int) -> None:
    """Reject a leg tuple with a repeated leg or a leg outside range(k)."""
    if len(set(legs)) != len(legs) or not all(0 <= leg < k for leg in legs):
        raise ValidationFailure("bad_legs", tuple(legs), f"legs {tuple(legs)} must be distinct and in 0..{k - 1}")


def _one_leg(x: TensorElement) -> TensorElement:
    if x.k != 1:
        raise ValidationFailure("order_mismatch", (x.k, 1))
    return x


# --------------------------------------------------------------------- ops


def algebra_from_brace(brace: SkewBrace) -> AlgebraContext:
    """Build the context, running the construction-time associativity and
    unit checks (CheckFailed signals a corrupted brace)."""
    return AlgebraContext(brace)


def coproduct(x: TensorElement) -> TensorElement:
    """Delta(h_a w_g) = sum_{b+c=a} h_b w_g (x) h_c w_g, extended linearly."""
    return TensorElement(x.ctx, 2, _on_slot(_one_leg(x).coeffs, 0, x.ctx.cop))


def counit(x: TensorElement):
    """eps(h_a w_g) = [a = 0], extended linearly; a scalar."""
    return _on_slot(_one_leg(x).coeffs, 0, x.ctx.eps).get((), 0)


def antipode(x: TensorElement) -> TensorElement:
    """The antipode s, from the table ``ctx.s``."""
    return TensorElement(x.ctx, 1, _on_slot(_one_leg(x).coeffs, 0, x.ctx.s))


def _twisted_h_closed(ctx: AlgebraContext, a: int) -> dict:
    # Delta_F(h_a) = sum over b o c = a of h_b (x) h_c
    n = ctx.n
    coeffs = {}
    for b in range(n):
        c = ctx.circle[ctx.circle_inv[b]][a]  # solves b o c = a
        coeffs[(b * n, c * n)] = 1
    return coeffs


def _twisted_w_closed(ctx: AlgebraContext, a: int) -> dict:
    # Delta_F(w_a) = sum_b h_x w_a (x) w_{x^{-1} o a o b} with x = sigma_a(b): the
    # second subscript is the Guarnieri-Vendramin tau_b(a), so no addition is read
    n, circle = ctx.n, ctx.circle
    coeffs = {}
    for b in range(n):
        x = ctx.sigma[a][b]
        tau_ba = circle[ctx.circle_inv[x]][circle[a][b]]
        for c in range(n):
            coeffs[(x * n + a, c * n + tau_ba)] = 1
    return coeffs


def _check_twisted_closed_forms(ctx: AlgebraContext, table: list[dict]) -> None:
    """Raise CheckFailed at the first generator (h_a, then w_a, for each a) where
    the Delta_F table leaves its closed form; both forms hold on every skew brace."""
    for a in range(ctx.n):
        if table[a * ctx.n] != _twisted_h_closed(ctx, a):
            raise CheckFailed("twisted_coproduct_closed_form", ("h", a))
        if _on_slot(ctx.w(a).coeffs, 0, table) != _twisted_w_closed(ctx, a):
            raise CheckFailed("twisted_coproduct_closed_form", ("w", a))


def twisted_coproduct(x: TensorElement) -> TensorElement:
    """Delta_F(x) = F Delta(x) F^{-1}, from the table ``ctx.twisted_cop``.

    Building that table cross-checks the conjugation against the closed
    generator forms on h_a and on w_a, both decided on every skew brace; a
    mismatch raises CheckFailed.
    """
    return TensorElement(x.ctx, 2, _on_slot(_one_leg(x).coeffs, 0, x.ctx.twisted_cop))


def twisted_antipode(x: TensorElement) -> TensorElement:
    """The twisted antipode s~ = U s U^{-1}, from the table ``ctx.s_twisted``."""
    return TensorElement(x.ctx, 1, _on_slot(_one_leg(x).coeffs, 0, x.ctx.s_twisted))


# ----------------------------------------------------------- tensor utilities


def apply_right(x: TensorElement, t: TensorElement, legs: tuple[int, ...]) -> TensorElement:
    """x multiplied on the right by the m-tensor t embedded at ``legs``, units elsewhere.

    Equals x * (t placed at ``legs`` of a unit-padded x.k-tensor) but touches only
    the legs in ``legs``: multiplying a slot by the unit leaves it unchanged.
    ``x * y`` is the case where ``legs`` is every leg, and t placed at ``legs``
    of a k-tensor is ``apply_right(ctx.unit_tensor(k), t, legs)``.
    """
    return _leg_product(x, t, legs, True)


def apply_left(t: TensorElement, legs: tuple[int, ...], x: TensorElement) -> TensorElement:
    """The m-tensor t embedded at ``legs`` (units elsewhere), multiplied on the left of x.

    Equals (t placed at ``legs`` of a unit-padded x.k-tensor) * x; the legs
    outside ``legs`` keep x's slots unchanged.
    """
    return _leg_product(x, t, legs, False)


def _leg_product(x: TensorElement, t: TensorElement, legs: tuple[int, ...], t_right: bool) -> TensorElement:
    # the one-pair case of ``_leg_products``, behind ``*``, apply_left and apply_right
    _same_ctx(x, t)
    if t.k != len(legs):
        raise ValidationFailure("order_mismatch", (t.k, len(legs)))
    _check_legs(legs, x.k)
    products = next(_leg_products(x.ctx, [x.coeffs], [t.coeffs], legs, t_right))
    return TensorElement(x.ctx, x.k, products.get(0, {}))


def _leg_products(ctx: AlgebraContext, xs: list[dict], ts: list[dict], legs: tuple[int, ...], t_right: bool):
    """Yield, for each k-tensor x of ``xs`` in order, {j: x times ts[j] at ``legs``},
    pruned, with t on the right of x or on its left; an absent j is a zero product.

    The algebra's one join: a slot product survives iff the left slot's source is
    the right slot's target.  The terms of every t, with t's position j, are indexed
    by their ends on ``legs`` that meet x (targets when t is on the right, sources on
    the left), so each term of x looks up, by its opposite ends, only its partners.
    Each partner carries one product line per leg, the products of its slot u with
    every slot s of x: column u of ``prod`` when t is on the right, row u on the
    left.  A slot product is then ``line[s]``.

    Two legs (l0, l1), the case of nearly every call, have their own branch: a
    term (u, v) of t is indexed under the pair of its ends as (j, line_u,
    line_v, c), a term of x looks its partners up by the pair of its own ends at
    l0 and l1, and the two slot products are written into x's key at l0 and l1
    without a loop over the legs.  Any other number of legs takes the loop.
    """
    dim, prod = ctx.dim, ctx.prod
    if t_right:
        t_ends, x_ends, lines = ctx.target, ctx.source, [prod[u::dim] for u in range(dim)]
    else:
        t_ends, x_ends, lines = ctx.source, ctx.target, [prod[u * dim:(u + 1) * dim] for u in range(dim)]
    by_ends: dict = {}
    two = len(legs) == 2  # the two-leg branch, chosen once per call
    if two:
        l0, l1 = legs
        for j, t in enumerate(ts):  # (end_u, end_v) -> [(j, line_u, line_v, c)]
            for (u, v), c in t.items():
                by_ends.setdefault((t_ends[u], t_ends[v]), []).append((j, lines[u], lines[v], c))
    else:
        for j, t in enumerate(ts):  # ends -> [(j, lines, c)]
            for tkey, c in t.items():
                by_ends.setdefault(tuple([t_ends[u] for u in tkey]), []).append((j, [lines[u] for u in tkey], c))
    for x in xs:
        acc: dict = {}
        for key, c1 in x.items():
            if two:
                s0, s1 = key[l0], key[l1]
                partners = by_ends.get((x_ends[s0], x_ends[s1]))
            else:
                partners = by_ends.get(tuple([x_ends[key[leg]] for leg in legs]))
            if partners is None:
                continue
            nk = list(key)  # the slots off ``legs`` stay x's
            if two:
                for j, line_u, line_v, c2 in partners:
                    nk[l0] = line_u[s0]
                    nk[l1] = line_v[s1]
                    pk = tuple(nk)
                    out = acc.get(j)
                    if out is None:
                        acc[j] = {pk: c1 * c2}
                    else:
                        out[pk] = out.get(pk, 0) + c1 * c2
            else:
                for j, tlines, c2 in partners:
                    for leg, line in zip(legs, tlines):
                        nk[leg] = line[key[leg]]
                    pk = tuple(nk)
                    out = acc.get(j)
                    if out is None:
                        acc[j] = {pk: c1 * c2}
                    else:
                        out[pk] = out.get(pk, 0) + c1 * c2
        yield {j: terms for j, out in acc.items() if (terms := _prune(out) if 0 in out.values() else out)}


def slot_coproduct(t: TensorElement, slot: int, twisted: bool = False) -> TensorElement:
    """Apply the (twisted) coproduct to one tensor slot, raising the order by one."""
    _check_legs((slot,), t.k)
    table = t.ctx.twisted_cop if twisted else t.ctx.cop
    return TensorElement(t.ctx, t.k + 1, _on_slot(t.coeffs, slot, table))


def counit_slot(t: TensorElement, slot: int) -> TensorElement:
    """Apply the counit to one slot, lowering the order by one."""
    _check_legs((slot,), t.k)
    return TensorElement(t.ctx, t.k - 1, _on_slot(t.coeffs, slot, t.ctx.eps))


def map_slot(t: TensorElement, slot: int, table: list[dict]) -> TensorElement:
    """Apply a linear map, given as a per-basis table such as ``ctx.s``, to one slot."""
    _check_legs((slot,), t.k)
    return TensorElement(t.ctx, t.k, _on_slot(t.coeffs, slot, table))


# ------------------------------------------------------------- verifications


def _multiplied(ctx: AlgebraContext, t: dict) -> dict:
    """m: the two slots of each key of the two-leg t multiplied through ``prod``,
    as a pruned one-leg dict."""
    dim, prod = ctx.dim, ctx.prod
    out: dict = {}
    for (p, q), c in t.items():
        if (k := prod[p * dim + q]) >= 0:
            out[(k,)] = out.get((k,), 0) + c
    return _prune(out)


def _homomorphism_witness(ctx: AlgebraContext, table: list[dict]) -> tuple[int, int] | None:
    # The first (i, j) in row-major order, over all dim^2 pairs, with
    # table(e_i) table(e_j) != table(e_i e_j); e_i e_j is a basis element or
    # zero, so its image is a table row or empty.
    dim, prod = ctx.dim, ctx.prod
    images = [_prune(image) for image in table]
    empty: dict = {}
    for i, products in enumerate(_leg_products(ctx, images, images, (0, 1), True)):
        base = i * dim
        for j in range(dim):
            k = prod[base + j]
            if products.get(j, empty) != (images[k] if k >= 0 else empty):
                return i, j
    return None


def verify_hopf_axioms(ctx: AlgebraContext, twisted: bool = False) -> PropertyReport:
    """Check the bialgebra and antipode axioms on the whole basis.

    With twisted=True the checks run for (Delta_F, eps, s~), on every skew
    brace; otherwise for (Delta, eps, s).

    ``coproduct_homomorphism`` compares Delta(e_i) Delta(e_j) with
    Delta(e_i e_j) on all dim^2 pairs, as one batch of ``_leg_products``: every
    row of the coproduct table times every row.  e_i e_j is a basis element or
    zero, so Delta(e_i e_j) is a row of the same table or zero.  The other
    checks apply the tables to each row Delta(e_i) through the slot kernel
    ``_on_slot``: coassociativity compares the row's images under the coproduct
    table at slots 0 and 1, the counit law each slot's image under ``eps`` with
    e_i, and the antipode law multiplies the two slots of each slot's image
    under the antipode table (``_multiplied``, the slot product m that also
    forms U and U^{-1} of s~) and compares the result with eps(e_i) 1.
    Coefficients are pruned before comparison, and each witness is the first
    failing i (the first failing (i, j) in row-major order for the bialgebra
    axiom).
    """
    label = "twisted" if twisted else "untwisted"
    report = PropertyReport(f"hopf_axioms_{label}")
    table = ctx.twisted_cop if twisted else ctx.cop

    w = _homomorphism_witness(ctx, table)
    report.add("coproduct_homomorphism", w is None, witness=w)

    w = next((i for i, row in enumerate(table) if _on_slot(row, 0, table) != _on_slot(row, 1, table)), None)
    report.add("coassociativity", w is None, witness=w)

    # eps on either slot of Delta(e_i) gives back e_i
    eps = ctx.eps
    w = next((i for i, row in enumerate(table)
              if any(_on_slot(row, slot, eps) != {(i,): 1} for slot in (0, 1))), None)
    report.add("counit", w is None, witness=w)

    # m (s (x) id) Delta(e_i) = m (id (x) s) Delta(e_i) = eps(e_i) 1, with 1 = sum_a h_a
    s_table = ctx.s_twisted if twisted else ctx.s
    n = ctx.n
    targets = [{(a * n,): e for a in range(n)} if (e := image.get((), 0)) != 0 else {} for image in eps]
    w = next((i for i, row in enumerate(table)
              if any(_multiplied(ctx, _on_slot(row, slot, s_table)) != targets[i] for slot in (0, 1))), None)
    report.add("antipode", w is None, witness=w)
    return report


def is_cocommutative(ctx: AlgebraContext) -> bool:
    """True iff Delta = Delta^op on every basis element, which holds exactly
    when addition is abelian."""
    return all(image == {(q, p): c for (p, q), c in image.items()} for image in ctx.cop)


def _fusion_sides(ctx: AlgebraContext, r: TensorElement) -> tuple[dict, dict]:
    """The fusion family of the two-leg r: R13 R23 and R13 R12, as coefficient
    dicts, with R13 formed once for both.  They are the right sides of the two
    fusion identities, and each side of the universal YBE is one of them times
    R12 or R23 on the left."""
    r13 = apply_right(ctx.unit_tensor(3), r, (0, 2))
    return apply_right(r13, r, (1, 2)).coeffs, apply_right(r13, r, (0, 1)).coeffs


def _cocycle_sides(ctx: AlgebraContext, f: TensorElement) -> tuple[dict, dict, dict, dict]:
    """The cocycle family of the two-leg f: F12 F_{12,3}, F123 = F23 F_{1,23},
    R12 F123 and R23 F123, as coefficient dicts.  They are the cocycle's two
    sides (and the 3-fold twist's two bracketings) and the exchange laws' moved
    sides.  F_{12,3} (the context's (Delta (x) id)(F)), F_{1,23} and R are
    always the context's own."""
    r = ctx.twisted_r_matrix
    f123 = apply_left(f, (1, 2), TensorElement(ctx, 3, ctx._f_1_23))
    return (apply_left(f, (0, 1), TensorElement(ctx, 3, ctx._f_12_3)).coeffs, f123.coeffs,
            apply_left(r, (0, 1), f123).coeffs, apply_left(r, (1, 2), f123).coeffs)


def verify_twist_conditions(ctx: AlgebraContext, twist: TensorElement | None = None) -> PropertyReport:
    """Check the cocycle identity and the leg symmetries of the three-slot twists.

    ``twist`` overrides the context twist so corrupted inputs can be exercised
    as negative controls; the derived three-slot pieces always come from the
    true tables.  The cocycle's sides and the exchange laws' moved sides are
    the cocycle family (``_cocycle_sides``): the context's, built once, or
    that of ``twist``.  The closed form of F_{12,3} (``_twist_12_3``) is built
    here only, for its leg symmetry and to cross-check (Delta (x) id)(F).
    """
    f = ctx.twist if twist is None else twist
    sides = ctx._cocycle if twist is None else _cocycle_sides(ctx, f)
    lhs, f123, r12_f123, r23_f123 = (TensorElement(ctx, 3, c) for c in sides)
    report = PropertyReport("twist_conditions")

    f_1_23 = TensorElement(ctx, 3, ctx._f_1_23)
    f_12_3 = _twist_12_3(ctx)
    report.compare("cocycle", lhs, f123)

    report.compare("one_two_three_symmetry", f_1_23, f_1_23.slot_swap(1, 2))
    report.compare("two_one_three_symmetry", f_12_3, f_12_3.slot_swap(0, 1))
    report.compare("exchange_r23", f123.slot_swap(1, 2), r23_f123)
    report.compare("exchange_r12", f123.slot_swap(0, 1), r12_f123)

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
    """Check R12 R13 R23 = R23 R13 R12 in the three-fold tensor algebra.

    Each side is one product, R12 (R13 R23) and R23 (R13 R12): the product is
    associative (the construction check), so the tensors are those of any
    bracketing.  The bracketed pairs are the fusion family (``_fusion_sides``):
    the context's, built once, or that of ``rf``, which overrides R.

    The YBE alone does not pin R: with its h_0 (x) h_0 term dropped, negated
    or doubled, R still satisfies it (and the intertwining law) on every brace
    of orders 2-6; the fusion identities and the counit laws of
    ``verify_quasitriangularity`` fail on each.
    """
    r = ctx.twisted_r_matrix if rf is None else rf
    sides = ctx._fusion if rf is None else _fusion_sides(ctx, rf)
    r13_r23, r13_r12 = (TensorElement(ctx, 3, c) for c in sides)
    lhs = apply_left(r, (0, 1), r13_r23)
    rhs = apply_left(r, (1, 2), r13_r12)
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

    # R Delta_F(e_i) = Delta_F^op(e_i) R on every basis element, each side one batch
    rows = ctx.twisted_cop
    lhs = next(_leg_products(ctx, [rf.coeffs], rows, (0, 1), True))
    swapped = [{(q, p): c for (p, q), c in row.items()} for row in rows]
    rhs = _leg_products(ctx, swapped, [rf.coeffs], (0, 1), True)
    w = next((i for i, r in enumerate(rhs) if lhs.get(i, {}) != r.get(0, {})), None)
    report.add("intertwines_coproduct", w is None, witness=w)

    r13_r23, r13_r12 = (TensorElement(ctx, 3, c) for c in ctx._fusion)
    report.compare("fusion_first_leg", slot_coproduct(rf, 0, twisted=True), r13_r23)
    report.compare("fusion_second_leg", slot_coproduct(rf, 1, twisted=True), r13_r12)

    one = ctx.one()
    w = counit_slot(rf, 0).first_diff(one) or counit_slot(rf, 1).first_diff(one)
    report.add("counit_laws", w is None, witness=w)
    if not ctx.is_brace:
        report.add("exploratory", True, detail="addition is nonabelian; results reported, not asserted")
    return report


def nfold_twist(ctx: AlgebraContext, k: int) -> tuple[TensorElement, PropertyReport]:
    """Build the k-fold twist two ways and check the closed form and exchange laws.

    The j-fold twist is formed from the (j-1)-fold one in both bracketings,
    (F_{1..j-1} (x) 1) (Delta^{j-2} (x) id)(F) and (1 (x) F_{1..j-1}) F_{1,2..j},
    which must agree; the second is the j-fold twist.  At j = 3 the two are the
    context's cocycle family's F12 F_{12,3} and F123 = F23 F_{1,23}
    (``_cocycle_sides``), whose F_{12,3} is (Delta (x) id)(F) formed in place,
    and at k = 3 the exchange laws' moved sides are its R12 F123 and R23 F123.
    The closed form writes every w-subscript as a running circle product.
    """
    if k not in (3, 4):
        raise LimitExceeded(f"tensor order {k} unsupported (k must be 3 or 4)")
    if ctx.n ** k > MAX_TENSOR_COEFFS:
        raise LimitExceeded(f"n^{k} = {ctx.n ** k} terms exceed cap {MAX_TENSOR_COEFFS}")
    n = ctx.n
    report = PropertyReport(f"nfold_twist_k{k}")
    lhs, twist, *moved = (TensorElement(ctx, 3, c) for c in ctx._cocycle)
    report.compare("recursion_3_fold", lhs, twist)
    if k == 4:
        piece = slot_coproduct(TensorElement(ctx, 3, ctx._f_12_3), 0)
        lhs = apply_left(twist, (0, 1, 2), piece)
        twist = apply_left(twist, (1, 2, 3), _twist_1_tail(ctx, 4))
        report.compare("recursion_4_fold", lhs, twist)
        rf = ctx.twisted_r_matrix
        moved = [apply_left(rf, (j, j + 1), twist) for j in range(3)]

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
    report.compare("closed_form", twist, closed_t)

    for j, side in enumerate(moved):
        report.compare(f"exchange_law_legs_{j + 1}_{j + 2}", twist.slot_swap(j, j + 1), side)
    return twist, report


def _twist_1_tail(ctx: AlgebraContext, k: int) -> TensorElement:
    # sum_a h_a (x) w_{a^{-1}} (x) ... (x) w_{a^{-1}}   (k - 1 tail slots)
    n = ctx.n
    acc = {}
    for a in range(n):
        ainv = ctx.circle_inv[a]
        for tail in iproduct(range(n), repeat=k - 1):
            acc[(a * n,) + tuple(b * n + ainv for b in tail)] = 1
    return TensorElement(ctx, k, acc)
