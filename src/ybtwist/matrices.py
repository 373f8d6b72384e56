"""Sparse exact matrices, the fundamental representation, and matrix-level checks.

Combinatorial (0/1, one entry per row and column) matrices are kept as
position sets; anything that may leave that class falls back to a sparse
dictionary of exact entries: integers, ``Fraction``s, or ``BivarPoly``
polynomials in the spectral parameters.  Tensor-leg embeddings are done by
index arithmetic, never by materializing Kronecker factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import isqrt

from .algebra import AlgebraContext, TensorElement
from .braces import YBMap
from .errors import CheckFailed, LimitExceeded
from .reports import PropertyReport


def _prune(entries: dict) -> dict:
    return {k: v for k, v in entries.items() if v != 0}


class ExactMatrix:
    """Sparse square matrix with exact entries: int, Fraction or BivarPoly.

    Entries only need ring arithmetic with each other and with ``0``, and
    ``v != 0`` for exactly the zero entries, so one kernel serves every
    coefficient ring and mixes integer and polynomial matrices freely.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict):
        self.dim = dim
        self.entries = _prune(entries)

    @classmethod
    def identity(cls, dim: int) -> ExactMatrix:
        return cls(dim, {(i, i): 1 for i in range(dim)})

    @classmethod
    def zero(cls, dim: int) -> ExactMatrix:
        return cls(dim, {})

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return ExactMatrix(self.dim, out)

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) - v
        return ExactMatrix(self.dim, out)

    def __rmul__(self, scalar) -> ExactMatrix:
        return ExactMatrix(self.dim, {k: scalar * v for k, v in self.entries.items()})

    def __mul__(self, other) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        by_row: dict = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict = {}
        for (r, k), va in self.entries.items():
            for c, vb in by_row.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + va * vb
        return ExactMatrix(self.dim, acc)

    def __eq__(self, other) -> bool:
        if isinstance(other, ZOMatrix):
            other = other.to_exact()
        return isinstance(other, ExactMatrix) and self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.entries.items()))))

    def transpose(self) -> ExactMatrix:
        return ExactMatrix(self.dim, {(c, r): v for (r, c), v in self.entries.items()})

    def __repr__(self):
        return f"ExactMatrix(dim={self.dim}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class ZOMatrix:
    """0/1 matrix stored as the set of positions holding 1."""

    dim: int
    entries: frozenset

    def to_exact(self) -> ExactMatrix:
        return ExactMatrix(self.dim, {pos: 1 for pos in self.entries})

    def __mul__(self, other):
        if isinstance(other, ZOMatrix):
            return self.to_exact() * other.to_exact()
        if isinstance(other, ExactMatrix):
            return self.to_exact() * other
        return NotImplemented

    def as_mapping(self) -> list[int]:
        """Column -> row mapping; requires exactly one entry per column."""
        col_to_row = [-1] * self.dim
        for r, c in self.entries:
            if col_to_row[c] != -1:
                raise CheckFailed("not_column_functional", c)
            col_to_row[c] = r
        if -1 in col_to_row:
            raise CheckFailed("not_column_functional", col_to_row.index(-1))
        return col_to_row

    @classmethod
    def from_mapping(cls, col_to_row) -> ZOMatrix:
        return cls(len(col_to_row), frozenset((r, c) for c, r in enumerate(col_to_row)))


def compose(a: ZOMatrix, b: ZOMatrix) -> ZOMatrix:
    """Product of two permutation-like 0/1 matrices via mapping composition."""
    ma, mb = a.as_mapping(), b.as_mapping()
    return ZOMatrix.from_mapping([ma[mb[c]] for c in range(b.dim)])


def zo_inverse(a: ZOMatrix) -> ZOMatrix:
    m = a.as_mapping()
    inv = [0] * len(m)
    for c, r in enumerate(m):
        inv[r] = c
    return ZOMatrix.from_mapping(inv)


def flip_matrix(n: int) -> ZOMatrix:
    """The permutation P with P(x (x) y) = y (x) x on the n^2-dimensional space."""
    return ZOMatrix(n * n, frozenset((i * n + j, j * n + i) for i in range(n) for j in range(n)))


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    out = {}
    db = b.dim
    for (r1, c1), v1 in a.entries.items():
        for (r2, c2), v2 in b.entries.items():
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
    for (row, col), v in m.entries.items():
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


def swap_legs(m: ExactMatrix, n: int) -> ExactMatrix:
    """Conjugate a two-leg matrix by the flip: entries ((r1, r2), (c1, c2)) -> ((r2, r1), (c2, c1))."""
    out = {}
    for (row, col), v in m.entries.items():
        r1, r2 = divmod(row, n)
        c1, c2 = divmod(col, n)
        out[(r2 * n + r1, c2 * n + c1)] = v
    return ExactMatrix(m.dim, out)


def _first_entry_diff(a: ExactMatrix, b: ExactMatrix) -> dict | None:
    """The first (row, col) where two matrices differ, with both entries, or None."""
    if a == b:
        return None
    for key in sorted(set(a.entries) | set(b.entries)):
        va, vb = a.entries.get(key, 0), b.entries.get(key, 0)
        if va != vb:
            return {"entry": key, "lhs": str(va), "rhs": str(vb)}
    return None


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


def _solution_entries(m: YBMap) -> frozenset:
    n = m.n
    return frozenset(
        (b * n + a, m.sigma[a][b] * n + m.tau[b][a])
        for a in range(n)
        for b in range(n)
    )


def twist_matrix(ctx: AlgebraContext) -> ZOMatrix:
    """sum_{a,b} e_{a,a} (x) e_{b, sigma_a(b)}, checked against the represented twist."""
    n = ctx.n
    entries = frozenset(
        (a * n + b, a * n + ctx.sigma[a][b]) for a in range(n) for b in range(n)
    )
    mat = ZOMatrix(n * n, entries)
    if mat.to_exact() != rho_tensor(ctx, ctx.twist):
        raise CheckFailed("representation_mismatch", "twist")
    return mat


def solution_matrix(ctx: AlgebraContext) -> ZOMatrix:
    """sum_{a,b} e_{b, sigma_a(b)} (x) e_{a, tau_b(a)}, checked against the represented R-matrix."""
    mat = ZOMatrix(ctx.n * ctx.n, _solution_entries(ctx.ybmap))
    if mat.to_exact() != rho_tensor(ctx, ctx.twisted_r_matrix):
        raise CheckFailed("representation_mismatch", "twisted_r")
    return mat


def braid_matrix(m: YBMap) -> ZOMatrix:
    """Matrix of e_a (x) e_b -> e_{sigma_a(b)} (x) e_{tau_b(a)}; must equal P . R."""
    n = m.n
    entries = frozenset(
        (m.sigma[a][b] * n + m.tau[b][a], a * n + b)
        for a in range(n)
        for b in range(n)
    )
    braid = ZOMatrix(n * n, entries)
    bridge = compose(flip_matrix(n), ZOMatrix(n * n, _solution_entries(m)))
    if braid != bridge:
        raise CheckFailed("bridge_mismatch")
    return braid


def check_combinatorial(mat) -> bool:
    """Exactly one entry per row and per column, every entry equal to 1."""
    if isinstance(mat, ZOMatrix):
        entries = {pos: 1 for pos in mat.entries}
        dim = mat.dim
    else:
        entries = mat.entries
        dim = mat.dim
    if len(entries) != dim:
        return False
    rows, cols = set(), set()
    for (r, c), v in entries.items():
        if v != 1:
            return False
        rows.add(r)
        cols.add(c)
    return len(rows) == dim and len(cols) == dim


def check_reversibility(mat) -> bool:
    """R . (P R P) = identity on the two-leg space."""
    m = mat.to_exact() if isinstance(mat, ZOMatrix) else mat
    n = isqrt(m.dim)
    if n * n != m.dim:
        raise LimitExceeded(f"dimension {m.dim} is not a perfect square")
    return m * swap_legs(m, n) == ExactMatrix.identity(m.dim)


def check_matrix_ybe(mat) -> PropertyReport:
    """R12 R13 R23 = R23 R13 R12 on the three-leg space, entry-exactly."""
    m = mat.to_exact() if isinstance(mat, ZOMatrix) else mat
    n = isqrt(m.dim)
    if n * n != m.dim:
        raise LimitExceeded(f"dimension {m.dim} is not a perfect square")
    r12 = embed_legs(m, n, 3, (0, 1))
    r13 = embed_legs(m, n, 3, (0, 2))
    r23 = embed_legs(m, n, 3, (1, 2))
    lhs = r12 * r13 * r23
    rhs = r23 * r13 * r12
    report = PropertyReport("matrix_ybe")
    w = _first_entry_diff(lhs, rhs)
    report.add("ybe", w is None, witness=w)
    return report


# ------------------------------------------------------------ n-fold twist


def nfold_twist_matrix(ctx: AlgebraContext, k: int) -> tuple[ZOMatrix, PropertyReport]:
    """Representation-level k-fold twist with the same recursion/closed-form/exchange checks.

    All factors are permutation matrices, so products are mapping compositions
    and the check scales to order 6 at k = 4.
    """
    if not 2 <= k <= 4:
        raise LimitExceeded(f"leg count {k} unsupported (k must be 3 or 4)")
    n = ctx.n
    if n ** k > 4096:
        raise LimitExceeded(f"n^{k} = {n ** k} exceeds the matrix-level guard")
    report = PropertyReport(f"matrix_nfold_twist_k{k}")

    def w_inv_mapping(g: int) -> list[int]:
        # rho(w_g^{-1}) maps e_c -> e_{sigma_g^{-1}(c)}
        return list(ctx.sigma_inv[g])

    def twist_mat(j: int) -> ZOMatrix:
        # the j-fold twist F_{1..j} from its closed form, as a permutation
        col_to_row = [0] * (n ** j)
        for cols in iproduct(range(n), repeat=j):
            rows = [cols[0]]
            prefix = cols[0]
            for c in cols[1:-1]:
                rows.append(ctx.sigma_inv[prefix][c])
                prefix = ctx.circle[prefix][rows[-1]]
            rows.append(ctx.sigma_inv[prefix][cols[-1]])
            col_to_row[_undigits(cols, n)] = _undigits(rows, n)
        return ZOMatrix.from_mapping(col_to_row)

    # Closed form: row digits (a_1, .., a_{k-1}, b), column digits
    # (a_1, sigma_{p_1}(a_2), .., sigma_{p_{k-2}}(a_{k-1}), sigma_{p_{k-1}}(b))
    # with p_j the running circle product a_1 o .. o a_j.  As a mapping we
    # invert: given column digits, recover rows with sigma_inv.
    closed = twist_mat(k)

    # Recursion check: F_{2..k} F_{1,2..k} = F_{1..k-1} F_{1..k-1,k}
    prev = twist_mat(k - 1)
    left_head = _perm_embed_tail(prev, n, k)      # F_{1..k-1} (x) 1
    right_head = _perm_embed_head(prev, n, k)     # 1 (x) F_{2..k}

    tail_piece = _coproduct_image_matrix(ctx, k)  # F_{1..k-1,k}
    one_slot = _one_slot_matrix(ctx, k)           # F_{1,2..k}
    lhs = compose(left_head, tail_piece)
    rhs = compose(right_head, one_slot)
    report.add("recursion", lhs == rhs)
    report.add("closed_form", lhs == closed)

    rf = solution_matrix(ctx).to_exact()
    full = lhs.to_exact()
    for j in range(k - 1):
        swapped = _swap_leg_pair(full, n, k, j)
        rhs_x = embed_legs(rf, n, k, (j, j + 1)) * full
        report.add(f"exchange_law_legs_{j + 1}_{j + 2}", swapped == rhs_x)
    return lhs, report


def _perm_embed_tail(m: ZOMatrix, n: int, k: int) -> ZOMatrix:
    # m on the first k-1 legs, identity on the last
    base = m.as_mapping()
    col_to_row = [0] * (n ** k)
    for c in range(len(base)):
        for d in range(n):
            col_to_row[c * n + d] = base[c] * n + d
    return ZOMatrix.from_mapping(col_to_row)


def _perm_embed_head(m: ZOMatrix, n: int, k: int) -> ZOMatrix:
    # identity on the first leg, m on the remaining k-1
    base = m.as_mapping()
    size = len(base)
    col_to_row = [0] * (n ** k)
    for d in range(n):
        for c in range(size):
            col_to_row[d * size + c] = d * size + base[c]
    return ZOMatrix.from_mapping(col_to_row)


def _one_slot_matrix(ctx: AlgebraContext, k: int) -> ZOMatrix:
    # sum_a e_{a,a} (x) rho(w_{a^{-1}})^{(x)(k-1)}
    n = ctx.n
    col_to_row = [0] * (n ** k)
    for cols in iproduct(range(n), repeat=k):
        a = cols[0]
        rows = [a] + [ctx.sigma_inv[a][c] for c in cols[1:]]
        col_to_row[_undigits(cols, n)] = _undigits(rows, n)
    return ZOMatrix.from_mapping(col_to_row)


def _coproduct_image_matrix(ctx: AlgebraContext, k: int) -> ZOMatrix:
    # (Delta^{(k-2)} (x) id) of the twist: diagonal idempotents on the first
    # k-1 legs, rho(w_{(b_1 + .. + b_{k-1})^{-1}}) on the last
    n = ctx.n
    col_to_row = [0] * (n ** k)
    for cols in iproduct(range(n), repeat=k):
        total = 0
        for b in cols[:-1]:
            total = ctx.add[total][b]
        rows = list(cols[:-1]) + [ctx.sigma_inv[total][cols[-1]]]
        col_to_row[_undigits(cols, n)] = _undigits(rows, n)
    return ZOMatrix.from_mapping(col_to_row)


def _swap_leg_pair(m: ExactMatrix, n: int, k: int, j: int) -> ExactMatrix:
    out = {}
    for (row, col), v in m.entries.items():
        rd = list(_digits(row, n, k))
        cd = list(_digits(col, n, k))
        rd[j], rd[j + 1] = rd[j + 1], rd[j]
        cd[j], cd[j + 1] = cd[j + 1], cd[j]
        out[(_undigits(rd, n), _undigits(cd, n))] = v
    return ExactMatrix(m.dim, out)
