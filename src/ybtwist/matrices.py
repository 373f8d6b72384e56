"""Sparse exact matrices, the fundamental representation, and matrix-level checks.

Every matrix is one ``ExactMatrix``, a container: a ``Sparse`` combination
whose ``coeffs`` map (row, col) to exact entries, integers, ``Fraction``s or
``BivarPoly`` polynomials in the spectral parameters, with the vector-space
operations and no matrix product.  A permutation matrix is an
``ExactMatrix`` whose entries are 1; every check composes permutations as
column -> row lists, and ``_on_legs`` is the only code that places a list on
tensor legs: any tuple of distinct legs, leg 0 the most significant digit, by
one additive index map.  Every matrix identity of a combinatorial solution
and every pole-cleared RTT identity is a product of weighted permutation
sums, ``_product``, the one matrix product in the package: it expands one
term per factor, multiplies only the weights, and writes each entry once, as
the weight sum of the set of paths that reach it (one sum per set, keyed by a
bitmask).  The k-fold twist ``nfold_twist_matrix`` is composed and returned
as a column -> row list alone.
``rho`` represents an algebra tensor of any order, one n-dimensional leg per
tensor leg, and is the only route from the algebra into matrices; a basis
element goes to the matrix unit e_{target, source}, so ``rho_is_homomorphism``
decides its law on index pairs, with no matrix product.  A failed matrix
identity is witnessed by its first differing entry (``Sparse.first_diff``), a
failed mapping identity by its first differing column.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import isqrt

from .algebra import AlgebraContext, TensorElement, _check_legs
from .braces import YBMap
from .errors import CheckFailed, LimitExceeded, ValidationFailure
from .rational import Sparse, _prune
from .reports import PropertyReport


class ExactMatrix(Sparse):
    """Sparse square matrix with exact entries: int, Fraction or BivarPoly.

    ``coeffs`` maps (row, col) to the non-zero entries.  Entries only need
    ring arithmetic with each other and with ``0``, and ``v != 0`` for
    exactly the zero entries, so one kernel, ``_product``, serves every
    coefficient ring and mixes integer and polynomial weights freely.  The
    class is a container: sums, differences, scalar multiples, equality and
    ``first_diff``, but no matrix product.
    """

    __slots__ = ("dim",)
    _diff_label = "entry"

    def __init__(self, dim: int, entries: dict):
        self.dim = dim
        self.coeffs = _prune(entries)

    def _like(self, coeffs: dict) -> ExactMatrix:
        out = object.__new__(ExactMatrix)
        out.dim, out.coeffs = self.dim, coeffs
        return out

    def _shape(self):
        return self.dim

    def _operand(self, other):
        if not isinstance(other, ExactMatrix):
            return None
        if other.dim != self.dim:
            raise ValidationFailure("dim_mismatch", (self.dim, other.dim))
        return other

    @classmethod
    def identity(cls, dim: int) -> ExactMatrix:
        return cls(dim, {(i, i): 1 for i in range(dim)})

    @classmethod
    def zero(cls, dim: int) -> ExactMatrix:
        return cls(dim, {})

    def __repr__(self):
        return f"ExactMatrix(dim={self.dim}, nnz={len(self.coeffs)})"


def _as_mapping(m: ExactMatrix) -> list[int]:
    """Column -> row list of a 0/1 matrix: exactly one entry per column, equal to 1,
    else CheckFailed("not_column_functional", column)."""
    col_to_row = [-1] * m.dim
    for (r, c), v in m.coeffs.items():
        if v != 1 or col_to_row[c] != -1:
            raise CheckFailed("not_column_functional", c)
        col_to_row[c] = r
    if -1 in col_to_row:
        raise CheckFailed("not_column_functional", col_to_row.index(-1))
    return col_to_row


def flip_matrix(n: int) -> ExactMatrix:
    """The permutation P with P(x (x) y) = y (x) x on the n^2-dimensional space."""
    return ExactMatrix(n * n, {(i * n + j, j * n + i): 1 for i in range(n) for j in range(n)})


def _product(n: int, k: int, *factors) -> ExactMatrix:
    """The product, left to right, of weighted permutation sums on the n^k space.

    Each factor is (terms, legs): a list of (weight, column -> row list) pairs
    acting on the distinct ``legs``, placed by ``_on_legs``.  The product is
    expanded over one term per factor: each path's weight product is formed
    once, and each entry records the bitmask of the paths whose composed
    permutation reaches it.  Entries with the same mask share one weight sum,
    added in path order and formed once per mask; zero sums are pruned.
    """
    paths = [(1, range(n ** k))]
    for terms, legs in factors:
        placed = [(w, _on_legs(p, n, k, legs)) for w, p in terms]
        paths = [(v * w, [comp[x] for x in p]) for v, comp in paths for w, p in placed]
    masks = {(r, c): 1 for c, r in enumerate(paths[0][1])}
    for bit, (_, comp) in enumerate(paths[1:], 1):
        b = 1 << bit
        for c, r in enumerate(comp):
            masks[(r, c)] = masks.get((r, c), 0) | b
    sums = {}
    for mask in set(masks.values()):
        total = sum((v for bit, (v, _) in enumerate(paths) if mask >> bit & 1), 0)
        if total != 0:
            sums[mask] = total
    # pruned per mask, so the entries need no second pass
    return ExactMatrix.zero(n ** k)._like(
        {key: sums[mask] for key, mask in masks.items() if mask in sums})


def _two_leg_map(m: ExactMatrix) -> tuple[int, list[int]]:
    """(n, column -> row list) of a combinatorial matrix on the n^2 space; a
    dimension that is not a perfect square raises ValidationFailure("dim_mismatch")."""
    n = isqrt(m.dim)
    if n * n != m.dim:
        raise ValidationFailure("dim_mismatch", m.dim)
    return n, _as_mapping(m)


# --------------------------------------------------- fundamental representation


def rho_basis_entry(ctx: AlgebraContext, i: int) -> tuple[int, int]:
    """Image of h_a w_g: the matrix unit e_{target, source} = e_{a, sigma_g^{-1}(a)}."""
    return ctx.target[i], ctx.source[i]


def rho(ctx: AlgebraContext, t: TensorElement) -> ExactMatrix:
    """(rho (x) ... (x) rho) of a tensor of any order k, as a matrix on n^k.

    On one leg, rho is the linear extension of h_a -> e_{a,a} and
    w_g -> sum_b e_{sigma_g(b), b}.
    """
    n = ctx.n
    acc: dict = {}
    for key, c in t.coeffs.items():
        row = col = 0
        for i in key:
            r, cc = rho_basis_entry(ctx, i)
            row = row * n + r
            col = col * n + cc
        acc[(row, col)] = acc.get((row, col), 0) + c
    return ExactMatrix(n ** t.k, acc)


def rho_is_homomorphism(ctx: AlgebraContext, images=None) -> PropertyReport:
    """Check rho(e_i) rho(e_j) = rho(e_i e_j) over all basis pairs, on indices.

    Each image is a matrix unit v e_{r,c}, read as (r, c, v): by default
    (target_i, source_i, 1).  As e_{r,c} e_{r',c'} = [c = r'] e_{r,c'}, the pair
    (i, j) holds iff prod[i dim + j] is -1 exactly when c_i != r_j, and otherwise
    its image is (r_i, c_j, v_i v_j).  The witness is the first failing (i, j).

    ``images`` may supply an alternative basis-index -> ExactMatrix map, which
    lets tests exercise corrupted representations; an image that is not one
    non-zero entry raises ValidationFailure("not_a_matrix_unit", i).
    """
    dim, prod = ctx.dim, ctx.prod
    units = []
    for i in range(dim):
        entries = {rho_basis_entry(ctx, i): 1} if images is None else images(i).coeffs
        if len(entries) != 1:
            raise ValidationFailure("not_a_matrix_unit", i)
        ((r, c), v), = entries.items()
        units.append((r, c, v))
    report = PropertyReport("rho_homomorphism")
    for i, (r, c, v) in enumerate(units):
        for j, (r2, c2, v2) in enumerate(units):
            k = prod[i * dim + j]
            if (k < 0) != (c != r2) or (k >= 0 and units[k] != (r, c2, v * v2)):
                report.add("homomorphism", False, witness=(i, j))
                return report
    report.add("homomorphism", True)
    return report


# ------------------------------------------------------- combinatorial matrices


def _solution_entries(m: YBMap) -> dict:
    n = m.n
    return {(b * n + a, m.sigma[a][b] * n + m.tau[b][a]): 1 for a in range(n) for b in range(n)}


def twist_matrix(ctx: AlgebraContext) -> ExactMatrix:
    """sum_{a,b} e_{a,a} (x) e_{b, sigma_a(b)}, checked against the represented twist."""
    n = ctx.n
    mat = ExactMatrix(n * n, {(a * n + b, a * n + ctx.sigma[a][b]): 1
                              for a in range(n) for b in range(n)})
    if mat != rho(ctx, ctx.twist):
        raise CheckFailed("representation_mismatch", "twist")
    return mat


def solution_matrix(ctx: AlgebraContext) -> ExactMatrix:
    """sum_{a,b} e_{b, sigma_a(b)} (x) e_{a, tau_b(a)}, checked against the represented R-matrix."""
    mat = ExactMatrix(ctx.n * ctx.n, _solution_entries(ctx.ybmap))
    if mat != rho(ctx, ctx.twisted_r_matrix):
        raise CheckFailed("representation_mismatch", "twisted_r")
    return mat


def braid_matrix(m: YBMap) -> ExactMatrix:
    """Matrix of e_a (x) e_b -> e_{sigma_a(b)} (x) e_{tau_b(a)}; must equal P . R."""
    n = m.n
    braid = ExactMatrix(n * n, {(m.sigma[a][b] * n + m.tau[b][a], a * n + b): 1
                                for a in range(n) for b in range(n)})
    flip, r = (_as_mapping(x) for x in (flip_matrix(n), ExactMatrix(n * n, _solution_entries(m))))
    if braid != _product(n, 2, ([(1, flip)], (0, 1)), ([(1, r)], (0, 1))):
        raise CheckFailed("bridge_mismatch")
    return braid


def check_combinatorial(mat: ExactMatrix) -> bool:
    """Exactly one entry per row and per column, every entry equal to 1."""
    try:
        return len(set(_as_mapping(mat))) == mat.dim
    except CheckFailed:
        return False


def check_reversibility(m: ExactMatrix) -> bool:
    """R . (P R P) = identity on the two-leg space, for a combinatorial R."""
    n, r = _two_leg_map(m)
    return _product(n, 2, ([(1, r)], (0, 1)), ([(1, r)], (1, 0))) == ExactMatrix.identity(m.dim)


def check_matrix_ybe(m: ExactMatrix) -> PropertyReport:
    """R12 R13 R23 = R23 R13 R12 on the three-leg space, entry-exactly, for a combinatorial R."""
    n, r = _two_leg_map(m)
    r12, r13, r23 = (([(1, r)], legs) for legs in ((0, 1), (0, 2), (1, 2)))
    report = PropertyReport("matrix_ybe")
    report.compare("ybe", _product(n, 3, r12, r13, r23), _product(n, 3, r23, r13, r12))
    return report


# ------------------------------------------------------------ n-fold twist


def nfold_twist_matrix(ctx: AlgebraContext, k: int) -> tuple[list[int], PropertyReport]:
    """Representation-level k-fold twist, k = 3 or 4, with recursion/closed-form/exchange checks.

    Returns the column -> row list of F_{1..k} on the n^k basis, and the report.
    Every factor, including the leg swaps and the embedded R-matrix, is a
    permutation kept as a column -> row list on the n^k basis, so products are
    mapping compositions and the check scales to order 6 at k = 4.  A failed
    check's witness is the first column where its two sides differ, with both
    rows: ``{"column": c, "lhs": row, "rhs": row}``.
    """
    if k not in (3, 4):
        raise LimitExceeded(f"leg count {k} unsupported (k must be 3 or 4)")
    n = ctx.n
    size = n ** k
    if size > 4096:
        raise LimitExceeded(f"n^{k} = {size} exceeds the matrix-level guard")
    sigma_inv, circle, add = ctx.sigma_inv, ctx.circle, ctx.add
    report = PropertyReport(f"matrix_nfold_twist_k{k}")

    def twist_map(j: int) -> list[int]:
        # F_{1..j} from its closed form: column digits (c_1, .., c_j) map to row
        # digits (c_1, sigma_{p_1}^{-1}(c_2), .., sigma_{p_{j-1}}^{-1}(c_j)) with
        # p_i = r_1 o .. o r_i the running circle product of the row digits
        out = []
        for cols in iproduct(range(n), repeat=j):
            row = prefix = cols[0]
            for c in cols[1:-1]:
                r = sigma_inv[prefix][c]
                row = row * n + r
                prefix = circle[prefix][r]
            out.append(row * n + sigma_inv[prefix][cols[-1]])
        return out

    def tail_piece() -> list[int]:
        # F_{1..k-1,k}: idempotents on the first k-1 legs,
        # rho(w_{(b_1 + .. + b_{k-1})^{-1}}) on the last
        out = []
        for h, heads in enumerate(iproduct(range(n), repeat=k - 1)):
            total = 0
            for b in heads:
                total = add[total][b]
            out.extend(h * n + d for d in sigma_inv[total])
        return out

    def one_slot() -> list[int]:
        # F_{1,2..k}: e_{a,a} (x) rho(w_{a^{-1}})^{(x)(k-1)}
        out = []
        for a in range(n):
            rest = [0]
            for _ in range(k - 1):
                rest = [r * n + d for r in rest for d in sigma_inv[a]]
            out.extend(a * head + r for r in rest)
        return out

    def compose_maps(a: list[int], b: list[int]) -> list[int]:
        return [a[b[c]] for c in range(size)]

    # Recursion check: F_{2..k} F_{1,2..k} = F_{1..k-1} F_{1..k-1,k}.  Factors
    # are built as call arguments, so each is freed once its product exists.
    prev = twist_map(k - 1)
    head = n ** (k - 1)
    lhs = compose_maps(_on_legs(prev, n, k, range(k - 1)), tail_piece())  # F_{1..k-1} (x) 1
    rhs = compose_maps(_on_legs(prev, n, k, range(1, k)), one_slot())     # 1 (x) F_{2..k}
    sides = [("recursion", lhs, rhs), ("closed_form", lhs, twist_map(k))]

    # P_{j,j+1} F P_{j,j+1} = R_{j,j+1} F.  R is a permutation once
    # derive_sigma_tau has succeeded (x = sigma_a(b) and sigma_x(y) = a recover
    # (a, b)), so _as_mapping cannot raise here.
    flip = _as_mapping(flip_matrix(n))
    r = _as_mapping(solution_matrix(ctx))
    for j in range(k - 1):
        swap, emb = _on_legs(flip, n, k, (j, j + 1)), _on_legs(r, n, k, (j, j + 1))
        sides.append((f"exchange_law_legs_{j + 1}_{j + 2}",
                      [swap[lhs[swap[c]]] for c in range(size)],
                      [emb[lhs[c]] for c in range(size)]))
    for name, a, b in sides:
        c = next((c for c in range(size) if a[c] != b[c]), None)
        report.add(name, c is None, None if c is None else {"column": c, "lhs": a[c], "rhs": b[c]})
    return lhs, report


def _on_legs(legs_map: list[int], n: int, k: int, legs) -> list[int]:
    """``legs_map``, a column -> row list on the distinct ``legs``, as one on all k
    legs that is the identity on the others.  The k-leg index whose digits on
    ``legs`` spell s, and whose other digits spell o, is on[s] + off[o], leg 0 the
    most significant base-n digit.  A repeated or out-of-range leg raises
    ValidationFailure("bad_legs"), a map whose length is not n^len(legs) "dim_mismatch"."""
    _check_legs(legs, k)
    maps = []
    for part in (legs, [leg for leg in range(k) if leg not in legs]):
        index = [0]
        for leg in part:
            index = [i + d * n ** (k - 1 - leg) for i in index for d in range(n)]
        maps.append(index)
    on, off = maps
    if len(legs_map) != len(on):
        raise ValidationFailure("dim_mismatch", (len(legs_map), len(on)))
    out = [0] * n ** k
    for s, t in enumerate(legs_map):
        for o in off:
            out[on[s] + o] = on[t] + o
    return out
