"""Sparse exact matrices, the fundamental representation, and matrix-level checks.

Every matrix is one ``ExactMatrix``: a ``Sparse`` combination whose
``coeffs`` map (row, col) to exact entries, integers, ``Fraction``s or
``BivarPoly`` polynomials in the spectral parameters.  A permutation
matrix is an ``ExactMatrix`` whose entries are 1; where a check composes
many of them it works on their column -> row lists.  Tensor-leg embeddings
are done by index arithmetic, never by materializing Kronecker factors:
``embed_legs`` places a matrix and ``_on_legs`` a column -> row list.  A
failed matrix identity is witnessed by its first differing entry
(``Sparse.first_diff``), a failed mapping identity by its first differing
column.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import isqrt

from .algebra import AlgebraContext, TensorElement
from .braces import YBMap
from .errors import CheckFailed, LimitExceeded, ValidationFailure
from .rational import Sparse, _prune
from .reports import PropertyReport


class ExactMatrix(Sparse):
    """Sparse square matrix with exact entries: int, Fraction or BivarPoly.

    ``coeffs`` maps (row, col) to the non-zero entries.  Entries only need
    ring arithmetic with each other and with ``0``, and ``v != 0`` for
    exactly the zero entries, so one kernel serves every coefficient ring and
    mixes integer and polynomial matrices freely.
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

    def __mul__(self, other) -> ExactMatrix:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        by_row: dict = {}
        for (r, c), v in other.coeffs.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict = {}
        for (r, k), va in self.coeffs.items():
            for c, vb in by_row.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + va * vb
        return self._like(_prune(acc))

    def __repr__(self):
        return f"ExactMatrix(dim={self.dim}, nnz={len(self.coeffs)})"


def _as_mapping(m: ExactMatrix) -> list[int]:
    """Column -> row list of a 0/1 matrix; requires exactly one entry per column."""
    col_to_row = [-1] * m.dim
    for r, c in m.coeffs:
        if col_to_row[c] != -1:
            raise CheckFailed("not_column_functional", c)
        col_to_row[c] = r
    if -1 in col_to_row:
        raise CheckFailed("not_column_functional", col_to_row.index(-1))
    return col_to_row


def _from_mapping(col_to_row) -> ExactMatrix:
    return ExactMatrix(len(col_to_row), {(r, c): 1 for c, r in enumerate(col_to_row)})


def flip_matrix(n: int) -> ExactMatrix:
    """The permutation P with P(x (x) y) = y (x) x on the n^2-dimensional space."""
    return ExactMatrix(n * n, {(i * n + j, j * n + i): 1 for i in range(n) for j in range(n)})


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    out = {}
    db = b.dim
    for (r1, c1), v1 in a.coeffs.items():
        for (r2, c2), v2 in b.coeffs.items():
            out[(r1 * db + r2, c1 * db + c2)] = v1 * v2
    return ExactMatrix(a.dim * db, out)


def embed_legs(m: ExactMatrix, n: int, k: int, legs: tuple[int, ...]) -> ExactMatrix:
    """Place a matrix acting on len(legs) n-dimensional legs into a k-leg space.

    The matrix dimension must be n^len(legs); rows and columns are identified
    with base-n digit strings and the free legs carry the identity.
    """
    r = len(legs)
    others = [s for s in range(k) if s not in legs]
    out: dict = {}
    for (row, col), v in m.coeffs.items():
        rd = _digits(row, n, r)
        cd = _digits(col, n, r)
        for fill in iproduct(range(n), repeat=len(others)):
            full_r = [0] * k
            full_c = [0] * k
            for leg, d1, d2 in zip(legs, rd, cd):
                full_r[leg] = d1
                full_c[leg] = d2
            for s, d in zip(others, fill):
                full_r[s] = d
                full_c[s] = d
            out[(_undigits(full_r, n), _undigits(full_c, n))] = v
    return ExactMatrix(n ** k, out)


def _ybe_sides(x: ExactMatrix, y: ExactMatrix, z: ExactMatrix, n: int) -> tuple:
    """X12 Y13 Z23 and Z23 Y13 X12 on the three-leg n^3 space, for two-leg x, y, z."""
    x12 = embed_legs(x, n, 3, (0, 1))
    y13 = embed_legs(y, n, 3, (0, 2))
    z23 = embed_legs(z, n, 3, (1, 2))
    return x12 * y13 * z23, z23 * y13 * x12


def _digits(x: int, n: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        x, d = divmod(x, n)
        out.append(d)
    return tuple(reversed(out))


def _undigits(ds, n: int) -> int:
    x = 0
    for d in ds:
        x = x * n + d
    return x


# --------------------------------------------------- fundamental representation


def rho_basis_entry(ctx: AlgebraContext, i: int) -> tuple[int, int]:
    """Image of the basis monomial h_a w_g: the single entry e_{a, sigma_g^{-1}(a)}."""
    a, g = divmod(i, ctx.n)
    return a, ctx.sigma_inv[g][a]


def rho(ctx: AlgebraContext, x) -> ExactMatrix:
    """Linear extension of h_a -> e_{a,a}, w_g -> sum_b e_{sigma_g(b), b}."""
    acc: dict = {}
    for i, c in x.coeffs.items():
        pos = rho_basis_entry(ctx, i)
        acc[pos] = acc.get(pos, 0) + c
    return ExactMatrix(ctx.n, acc)


def rho_tensor(ctx: AlgebraContext, t: TensorElement) -> ExactMatrix:
    """(rho (x) ... (x) rho) of a tensor element, as a matrix on n^k."""
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
    """Check rho(x y) = rho(x) rho(y) over all basis pairs.

    ``images`` may supply an alternative basis-index -> ExactMatrix map, which
    lets tests exercise corrupted representations.
    """
    n, dim, prod = ctx.n, ctx.dim, ctx.prod
    if images is None:
        def images(i: int) -> ExactMatrix:
            return ExactMatrix(n, {rho_basis_entry(ctx, i): 1})
    mats = [images(i) for i in range(dim)]
    zero = ExactMatrix.zero(n)
    report = PropertyReport("rho_homomorphism")
    for i in range(dim):
        for j in range(dim):
            k = prod[i * dim + j]
            expected = mats[k] if k >= 0 else zero
            if mats[i] * mats[j] != expected:
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
    if mat != rho_tensor(ctx, ctx.twist):
        raise CheckFailed("representation_mismatch", "twist")
    return mat


def solution_matrix(ctx: AlgebraContext) -> ExactMatrix:
    """sum_{a,b} e_{b, sigma_a(b)} (x) e_{a, tau_b(a)}, checked against the represented R-matrix."""
    mat = ExactMatrix(ctx.n * ctx.n, _solution_entries(ctx.ybmap))
    if mat != rho_tensor(ctx, ctx.twisted_r_matrix):
        raise CheckFailed("representation_mismatch", "twisted_r")
    return mat


def braid_matrix(m: YBMap) -> ExactMatrix:
    """Matrix of e_a (x) e_b -> e_{sigma_a(b)} (x) e_{tau_b(a)}; must equal P . R."""
    n = m.n
    braid = ExactMatrix(n * n, {(m.sigma[a][b] * n + m.tau[b][a], a * n + b): 1
                                for a in range(n) for b in range(n)})
    if braid != flip_matrix(n) * ExactMatrix(n * n, _solution_entries(m)):
        raise CheckFailed("bridge_mismatch")
    return braid


def check_combinatorial(mat: ExactMatrix) -> bool:
    """Exactly one entry per row and per column, every entry equal to 1."""
    dim = mat.dim
    if len(mat.coeffs) != dim:
        return False
    rows, cols = set(), set()
    for (r, c), v in mat.coeffs.items():
        if v != 1:
            return False
        rows.add(r)
        cols.add(c)
    return len(rows) == dim and len(cols) == dim


def check_reversibility(m: ExactMatrix) -> bool:
    """R . (P R P) = identity on the two-leg space."""
    n = isqrt(m.dim)
    if n * n != m.dim:
        raise LimitExceeded(f"dimension {m.dim} is not a perfect square")
    return m * embed_legs(m, n, 2, (1, 0)) == ExactMatrix.identity(m.dim)


def check_matrix_ybe(m: ExactMatrix) -> PropertyReport:
    """R12 R13 R23 = R23 R13 R12 on the three-leg space, entry-exactly."""
    n = isqrt(m.dim)
    if n * n != m.dim:
        raise LimitExceeded(f"dimension {m.dim} is not a perfect square")
    report = PropertyReport("matrix_ybe")
    report.compare("ybe", *_ybe_sides(m, m, m, n))
    return report


# ------------------------------------------------------------ n-fold twist


def nfold_twist_matrix(ctx: AlgebraContext, k: int) -> tuple[ExactMatrix, PropertyReport]:
    """Representation-level k-fold twist, k = 3 or 4, with recursion/closed-form/exchange checks.

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
    sigma_inv = ctx.sigma_inv
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
                prefix = ctx.circle[prefix][r]
            out.append(row * n + sigma_inv[prefix][cols[-1]])
        return out

    def tail_piece() -> list[int]:
        # F_{1..k-1,k}: idempotents on the first k-1 legs,
        # rho(w_{(b_1 + .. + b_{k-1})^{-1}}) on the last
        out = []
        for h, heads in enumerate(iproduct(range(n), repeat=k - 1)):
            total = 0
            for b in heads:
                total = ctx.add[total][b]
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
    lhs = compose_maps(_on_legs(prev, size, n), tail_piece())  # F_{1..k-1} (x) 1
    rhs = compose_maps(_on_legs(prev, size, 1), one_slot())    # 1 (x) F_{2..k}
    sides = [("recursion", lhs, rhs), ("closed_form", lhs, twist_map(k))]

    # P_{j,j+1} F P_{j,j+1} = R_{j,j+1} F.  R is a permutation once
    # derive_sigma_tau has succeeded (x = sigma_a(b) and sigma_x(y) = a recover
    # (a, b)), so _as_mapping cannot raise here.
    flip = _as_mapping(flip_matrix(n))
    r = _as_mapping(solution_matrix(ctx))
    for j in range(k - 1):
        low = n ** (k - 2 - j)  # weight of the digit of leg j + 2
        swap, emb = _on_legs(flip, size, low), _on_legs(r, size, low)
        sides.append((f"exchange_law_legs_{j + 1}_{j + 2}",
                      [swap[lhs[swap[c]]] for c in range(size)],
                      [emb[lhs[c]] for c in range(size)]))
    for name, a, b in sides:
        c = next((c for c in range(size) if a[c] != b[c]), None)
        report.add(name, c is None, None if c is None else {"column": c, "lhs": a[c], "rhs": b[c]})
    return _from_mapping(lhs), report


def _on_legs(legs_map: list[int], size: int, low: int) -> list[int]:
    """A mapping on adjacent legs whose lowest digit has weight ``low``, on all of ``size``.

    ``legs_map`` permutes the len(legs_map) basis states of those legs; the
    other legs carry the identity.
    """
    block = len(legs_map) * low
    return [c - c % block + legs_map[c % block // low] * low + c % low for c in range(size)]
