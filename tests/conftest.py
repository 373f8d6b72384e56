"""Shared fixtures and independent brute-force oracles.

The oracles here re-derive enumeration counts and validity with none of the
library's search code: group tables come from filtering raw row-permutation
products or from a cell-by-cell backtracker, braces from a naive pair scan
over those tables.  The n-only yangian oracles decide every index tuple one by
one, where the library decides one tuple per S_n orbit; the displayed
relations write delta explicitly, where the library reads A^{(0)} from the
images as a cell of the defining relation, so only a corrupted level-0 image
tells the two apart.  The symbolic coproduct and antipode tables are rebuilt
as sums of tensors, term by term.
Tensor legs are placed digit by digit (``oracle_embed_legs``), where the
library adds one precomputed offset per leg group.  The twist algebra's
product table and its matrix units come straight from the paper's rule on the
raw group tables (``oracle_product_rule``), where the library reads them from
the groupoid ends, and associativity is the full triple scan
(``oracle_associativity_witness``), which the library runs only when its
premise fails.  The per-brace matrix-unit identities (rho's homomorphism law,
the augmented relations, the twisted-coproduct adjudication) are decided by
matrix products and Kronecker products, where the library relabels indices.
Every matrix product of the oracles is ``oracle_matmul``, a dict join of the
entries: ``ExactMatrix`` is a container with no product, and the library
multiplies matrices only as weighted permutation sums (``matrices._product``).
The Hopf axioms of the twist algebra are decided on tensors, a slot map and a
product of slots at a time (``oracle_hopf_axioms``), where the library reads
the structure-map tables row by row; the universal YBE, the fusion identities,
the cocycle and the 3-fold twist form every product anew in its three-factor
bracketing, where the library builds the products shared between them once per
context.  The permutation and RTT identities (matrix YBE, reversibility, the
braid bridge, unitarity, RTT and twisted RTT) are decided by ``oracle_matmul``
products of the materialised operators, where the library multiplies only the
weights of permutation paths.  The Guarnieri-Vendramin solution
(``oracle_gv_tau``) is read off the raw brace tables.  Automorphisms are every
permutation fixing 0 that passes the full homomorphism scan
(``oracle_automorphisms``), where the library extends generator images along
the Cayley graph.  They are the reference the fast implementations are
checked against.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import permutations, product
from math import isqrt
from operator import ne

import pytest

import ybtwist as yb
from ybtwist import yangian
from ybtwist.algebra import TensorElement, apply_left, apply_right, counit_slot, map_slot, slot_coproduct
from ybtwist.matrices import ExactMatrix, rho_basis_entry
from ybtwist.ncpoly import NCTensor, gen
from ybtwist.rational import BivarPoly
from ybtwist.reports import PropertyReport


# ----------------------------------------------------------------- oracles


def oracle_group_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All group tables with neutral 0, by brute force over row permutations."""
    if n == 1:
        return [((0,),)]
    tables = []
    candidate_rows = [
        [p for p in permutations(range(n)) if p[0] == a] for a in range(n)
    ]
    for rows in product(*candidate_rows[1:]):
        table = (tuple(range(n)),) + rows
        cols_ok = all(
            {table[a][b] for a in range(n)} == set(range(n)) for b in range(n)
        )
        if not cols_ok:
            continue
        assoc = all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in range(n) for b in range(n) for c in range(n)
        )
        if not assoc:
            continue
        has_inverses = all(
            any(table[a][b] == 0 and table[b][a] == 0 for b in range(n))
            for a in range(n)
        )
        if has_inverses:
            tables.append(table)
    return sorted(tables)


def backtrack_group_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All group tables with neutral 0, filling cells row-major with ascending
    candidates and pruning every associativity instance a cell completes."""
    grid = [[-1] * n for _ in range(n)]
    for a in range(n):
        grid[0][a] = a
        grid[a][0] = a
    row_free = [set() if a == 0 else set(range(n)) - {a} for a in range(n)]
    col_free = [set() if b == 0 else set(range(n)) - {b} for b in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    out = []

    def partial_ok(a: int, b: int, v: int) -> bool:
        # Associativity instances that placing v = a*b makes fully determined.
        for c in range(n):
            bc = grid[b][c]
            if bc >= 0:
                left, right = grid[v][c], grid[a][bc]
                if left >= 0 and right >= 0 and left != right:
                    return False
            ca = grid[c][a]
            if ca >= 0:
                left, right = grid[ca][b], grid[c][v]
                if left >= 0 and right >= 0 and left != right:
                    return False
        return True

    def fill(k: int) -> None:
        if k == len(cells):
            rows = tuple(tuple(r) for r in grid)
            if all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
                   for a in range(n) for b in range(n) for c in range(n)):
                out.append(rows)
            return
        a, b = cells[k]
        for v in sorted(row_free[a] & col_free[b]):
            grid[a][b] = v
            if partial_ok(a, b, v):
                row_free[a].discard(v)
                col_free[b].discard(v)
                fill(k + 1)
                row_free[a].add(v)
                col_free[b].add(v)
            grid[a][b] = -1

    fill(0)
    return out


def validated_pairs(n: int, skew: bool = True) -> list[tuple]:
    """Every (add, mul) pair of backtracked tables that validate_brace accepts."""
    groups = [yb.validate_group(t) for t in backtrack_group_tables(n)]
    found = []
    for add in groups:
        if not skew and not add.is_abelian:
            continue
        for mul in groups:
            try:
                yb.validate_brace(add, mul)
            except yb.ValidationFailure:
                continue
            found.append((add.table, mul.table))
    return found


def oracle_brace_pairs(n: int, skew: bool = True) -> list[tuple]:
    """All (add, mul) table pairs satisfying left distributivity, naively."""
    tables = oracle_group_tables(n)
    found = []
    for add in tables:
        abelian = all(add[a][b] == add[b][a] for a in range(n) for b in range(n))
        if not skew and not abelian:
            continue
        neg = [next(b for b in range(n) if add[a][b] == 0) for a in range(n)]
        for mul in tables:
            ok = True
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        lhs = mul[a][add[b][c]]
                        rhs = add[add[mul[a][b]][neg[a]]][mul[a][c]]
                        if lhs != rhs:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                found.append((add, mul))
    return found


def oracle_automorphisms(table) -> list[tuple[int, ...]]:
    """Every permutation fixing 0 that is a homomorphism of ``table``, in order."""
    n = len(table)
    return [
        p for p in ((0, *tail) for tail in permutations(range(1, n)))
        if all(p[table[x][y]] == table[p[x]][p[y]] for x in range(1, n) for y in range(1, n))
    ]


def order8_type(table) -> str:
    """The isomorphism type of an order-8 group table, read off its element
    orders and commutativity."""
    n = len(table)
    orders = []
    for x in range(n):
        k, y = 1, x
        while y:
            y, k = table[y][x], k + 1
        orders.append(k)
    if all(table[a][b] == table[b][a] for a in range(n) for b in range(n)):
        return {8: "Z8", 4: "Z4xZ2", 2: "Z2^3"}[max(orders)]
    return "D4" if orders.count(2) == 5 else "Q8"


def oracle_matmul(a: ExactMatrix, b: ExactMatrix, *more: ExactMatrix) -> ExactMatrix:
    """The product a b (then times each of ``more``, left to right), by a dict
    join of the entries: the one matrix product of the oracles, which the
    library does not have."""
    for c in (b, *more):
        assert a.dim == c.dim, (a.dim, c.dim)
        by_row: dict = {}
        for (r, k), v in c.coeffs.items():
            by_row.setdefault(r, []).append((k, v))
        acc: dict = {}
        for (r, k), va in a.coeffs.items():
            for col, vb in by_row.get(k, ()):
                acc[(r, col)] = acc.get((r, col), 0) + va * vb
        a = ExactMatrix(a.dim, acc)
    return a


def oracle_embed_legs(m: ExactMatrix, n: int, k: int, legs: tuple[int, ...]) -> ExactMatrix:
    """A matrix on len(legs) n-dimensional legs, placed into a k-leg space.

    Each row and column index is split into its base-n digits (leg 0 the most
    significant), the digits are written onto ``legs``, every filling of the
    free legs is enumerated on both sides alike, and the digits are joined.
    """
    def digits(x: int, r: int) -> list[int]:
        out = []
        for _ in range(r):
            x, d = divmod(x, n)
            out.append(d)
        return out[::-1]

    def undigits(ds) -> int:
        x = 0
        for d in ds:
            x = x * n + d
        return x

    others = [s for s in range(k) if s not in legs]
    out: dict = {}
    for (row, col), v in m.coeffs.items():
        rd, cd = digits(row, len(legs)), digits(col, len(legs))
        for fill in product(range(n), repeat=len(others)):
            full_r, full_c = [0] * k, [0] * k
            for leg, d1, d2 in zip(legs, rd, cd):
                full_r[leg], full_c[leg] = d1, d2
            for s, d in zip(others, fill):
                full_r[s] = full_c[s] = d
            out[(undigits(full_r), undigits(full_c))] = v
    return ExactMatrix(n ** k, out)


def oracle_product_rule(brace) -> tuple[list[int], list[tuple[int, int]]]:
    """(prod, rho) of the twist algebra of ``brace`` from its raw tables.

    prod is the flat table of (h_a w_g)(h_b w_h) = [a = sigma_g(b)] h_a w_{g o h}
    over basis indices a*n + g (-1 for zero), and rho[a*n + g] = (a, b) with
    sigma_g(b) = a, the matrix unit of h_a w_g.  sigma_g(b) = -g + g o b is
    computed from the addition and multiplication tables directly.
    """
    n, add, mul = brace.n, brace.add.table, brace.mul.table
    neg = [next(x for x in range(n) if add[g][x] == 0) for g in range(n)]

    def sigma(g, b):
        return add[neg[g]][mul[g][b]]

    prod = [a * n + mul[g][h] if a == sigma(g, b) else -1
            for a, g, b, h in product(range(n), repeat=4)]
    rho = [(a, next(b for b in range(n) if sigma(g, b) == a))
           for a, g in product(range(n), repeat=2)]
    return prod, rho


def oracle_associativity_witness(prod: list[int], dim: int) -> tuple[int, int, int] | None:
    """The first (i, j, k) in row-major order with (e_i e_j) e_k != e_i (e_j e_k)."""
    def mul(i, j):
        return -1 if i < 0 or j < 0 else prod[i * dim + j]

    return next(((i, j, k) for i, j, k in product(range(dim), repeat=3)
                 if mul(mul(i, j), k) != mul(i, mul(j, k))), None)


# The universal identities on tensors: every slot map and product is applied
# to a whole TensorElement, and every product of three factors is formed in
# its bracketing from the unit tensor.


def naive_mul(ctx, x: dict, y: dict) -> dict:
    """x y, every pair of terms multiplied slot by slot straight from ``ctx.prod``."""
    dim, prod = ctx.dim, ctx.prod
    acc: dict = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            slots = [prod[a * dim + b] for a, b in zip(k1, k2)]
            if min(slots) >= 0:
                acc[tuple(slots)] = acc.get(tuple(slots), 0) + c1 * c2
    return {k: v for k, v in acc.items() if v != 0}


def basis_images(brace):
    """Delta, eps and s of each basis index a*n + g, from the brace tables alone."""
    n, add, circle = brace.n, brace.add.table, brace.mul.table
    neg = [next(x for x in range(n) if add[a][x] == 0) for a in range(n)]
    circle_inv = [next(x for x in range(n) if circle[g][x] == 0) for g in range(n)]

    def sigma(x, y):  # -x + x o y
        return add[neg[x]][circle[x][y]]

    cop, eps, s = [], [], []
    for a, g in product(range(n), repeat=2):
        cop.append([(b * n + g, c * n + g) for b in range(n) for c in range(n) if add[b][c] == a])
        eps.append([()] if a == 0 else [])
        ginv = circle_inv[g]
        s.append([(sigma(ginv, neg[a]) * n + ginv,)])
    return cop, eps, s


def mul_slots(t: TensorElement) -> TensorElement:
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
            acc[(cur,)] = acc.get((cur,), 0) + c
    return ctx.tensor(1, acc)


def oracle_hopf_axioms(ctx, twisted: bool = False) -> PropertyReport:
    """The four Hopf-axiom checks, each basis element (pair) on whole tensors:
    Delta(e_i) Delta(e_j) against Delta(e_i e_j) by tensor products, then
    coassociativity, the counit and the antipode by slot maps of Delta(e_i)."""
    report = PropertyReport(f"hopf_axioms_{'twisted' if twisted else 'untwisted'}")
    table = ctx.twisted_cop if twisted else ctx.cop
    dim, prod = ctx.dim, ctx.prod
    cops = [ctx.tensor(2, image) for image in table]
    zero = ctx.tensor(2, {})
    w = next(((i, j) for i in range(dim) for j in range(dim)
              if cops[i] * cops[j] != (cops[k] if (k := prod[i * dim + j]) >= 0 else zero)), None)
    report.add("coproduct_homomorphism", w is None, witness=w)

    w = next((i for i, d in enumerate(cops)
              if slot_coproduct(d, 0, twisted) != slot_coproduct(d, 1, twisted)), None)
    report.add("coassociativity", w is None, witness=w)

    w = next((i for i, d in enumerate(cops)
              if counit_slot(d, 0) != ctx.basis_element(i)
              or counit_slot(d, 1) != ctx.basis_element(i)), None)
    report.add("counit", w is None, witness=w)

    s_table = ctx.s_twisted if twisted else ctx.s
    one = ctx.one()
    w = next((i for i, d in enumerate(cops)
              if mul_slots(map_slot(d, 0, s_table)) != yb.counit(ctx.basis_element(i)) * one
              or mul_slots(map_slot(d, 1, s_table)) != yb.counit(ctx.basis_element(i)) * one), None)
    report.add("antipode", w is None, witness=w)
    return report


def _r13_then(ctx, r, legs):
    # (1 (x) 1 (x) 1) R13 R_legs, one product at a time
    return apply_right(apply_right(ctx.unit_tensor(3), r, (0, 2)), r, legs)


def oracle_universal_ybe(ctx, rf=None) -> PropertyReport:
    """((1 R12) R13) R23 against ((1 R23) R13) R12."""
    r = ctx.twisted_r_matrix if rf is None else rf
    unit3 = ctx.unit_tensor(3)
    report = PropertyReport("universal_ybe")
    report.compare("ybe", apply_right(apply_right(apply_right(unit3, r, (0, 1)), r, (0, 2)), r, (1, 2)),
                   apply_right(apply_right(apply_right(unit3, r, (1, 2)), r, (0, 2)), r, (0, 1)))
    return report


def oracle_quasitriangularity(ctx) -> PropertyReport:
    """The intertwining law holds at e_i iff Delta(e_i) is symmetric, and each
    fusion identity iff every row of Delta is.  The intertwining products are
    ``naive_mul`` pair by pair, the fusion sides (1 R13) R23 and (1 R13) R12, and
    the symmetry of each row is read from the coproduct of ``basis_images``."""
    rf = ctx.twisted_r_matrix
    r = rf.coeffs
    symmetric = [set(row) == {(q, p) for p, q in row} for row in basis_images(ctx.brace)[0]]
    report = PropertyReport("quasitriangularity")
    w = next((i for i, d in enumerate(ctx.twisted_cop)
              if (naive_mul(ctx, r, d) == naive_mul(ctx, {(q, p): c for (p, q), c in d.items()}, r))
              != symmetric[i]), None)
    report.add("intertwines_coproduct", w is None, witness=w)
    for name, fused, side in (("fusion_first_leg", slot_coproduct(rf, 0, twisted=True), _r13_then(ctx, rf, (1, 2))),
                              ("fusion_second_leg", slot_coproduct(rf, 1, twisted=True), _r13_then(ctx, rf, (0, 1)))):
        if (fused == side) == all(symmetric):
            report.add(name, True)
        elif all(symmetric):
            report.add(name, False, fused.first_diff(side))
        else:
            report.add(name, False, symmetric.index(False))
    one = ctx.one()
    w = counit_slot(rf, 0).first_diff(one) or counit_slot(rf, 1).first_diff(one)
    report.add("counit_laws", w is None, witness=w)
    return report


def _three_slot_twists(ctx):
    """F_{1,23} = sum h_a (x) w_{a^-1} (x) w_{a^-1} and
    F_{12,3} = sum h_a (x) h_{sigma_a(b)} (x) w_{(a o b)^-1}, from the brace tables."""
    n, inv, circle, sigma = ctx.n, ctx.circle_inv, ctx.circle, ctx.sigma
    f_1_23 = {(a * n, b * n + inv[a], c * n + inv[a]): 1 for a, b, c in product(range(n), repeat=3)}
    f_12_3 = {(a * n, sigma[a][b] * n, c * n + inv[circle[a][b]]): 1
              for a, b, c in product(range(n), repeat=3)}
    return ctx.tensor(3, f_1_23), ctx.tensor(3, f_12_3)


def oracle_twist_conditions(ctx, twist=None) -> PropertyReport:
    """The cocycle F12 F_{12,3} = F23 F_{1,23}, each side formed anew, and the
    leg symmetries and exchange laws of the three-slot twists."""
    f = ctx.twist if twist is None else twist
    rf = ctx.twisted_r_matrix
    report = PropertyReport("twist_conditions")
    f_1_23, f_12_3 = _three_slot_twists(ctx)
    f123 = apply_left(f, (1, 2), f_1_23)
    report.compare("cocycle", apply_left(f, (0, 1), f_12_3), f123)
    report.compare("one_two_three_symmetry", f_1_23, f_1_23.slot_swap(1, 2))
    report.compare("two_one_three_symmetry", f_12_3, f_12_3.slot_swap(0, 1))
    report.compare("exchange_r23", f123.slot_swap(1, 2), apply_left(rf, (1, 2), f123))
    report.compare("exchange_r12", f123.slot_swap(0, 1), apply_left(rf, (0, 1), f123))
    w = f_12_3.first_diff(slot_coproduct(f, 0)) or f_1_23.first_diff(slot_coproduct(f, 1))
    report.add("coproduct_images", w is None, witness=w)
    return report


def oracle_nfold_twist3(ctx) -> PropertyReport:
    """F12 (Delta (x) id)(F) against the 3-fold twist F123 = F23 F_{1,23}, and
    F123 against its closed form sum h_a (x) h_b w_{a^-1} (x) h_c w_{(a o b)^-1}
    and its exchange laws."""
    n, inv, circle = ctx.n, ctx.circle_inv, ctx.circle
    f, rf = ctx.twist, ctx.twisted_r_matrix
    f_1_23, _ = _three_slot_twists(ctx)
    report = PropertyReport("nfold_twist_k3")
    f123 = apply_left(f, (1, 2), f_1_23)
    report.compare("recursion_3_fold", apply_left(f, (0, 1), slot_coproduct(f, 0)), f123)
    closed = {(a * n, b * n + inv[a], c * n + inv[circle[a][b]]): 1
              for a, b, c in product(range(n), repeat=3)}
    report.compare("closed_form", f123, ctx.tensor(3, closed))
    for j in range(2):
        report.compare(f"exchange_law_legs_{j + 1}_{j + 2}", f123.slot_swap(j, j + 1),
                       apply_left(rf, (j, j + 1), f123))
    return report


# The per-brace matrix-unit identities by ``oracle_matmul`` products, where the
# library decides them on indices.


def oracle_rho_homomorphism(ctx, images=None) -> PropertyReport:
    """rho(e_i) rho(e_j) = rho(e_i e_j) over all basis pairs, by matrix products."""
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
            if oracle_matmul(mats[i], mats[j]) != (mats[k] if k >= 0 else zero):
                report.add("homomorphism", False, witness=(i, j))
                return report
    report.add("homomorphism", True)
    return report


def oracle_augmented_relations(ctx, pmax: int = yangian.MAX_LEVEL) -> PropertyReport:
    n = ctx.n
    report = PropertyReport("augmented_relations")
    w_mats = [yb.rho(ctx, ctx.w(a)) for a in range(n)]
    e_mats = [yb.rho(ctx, ctx.h(c)) for c in range(n)]
    img = partial(yangian._eval_image, n)
    sigma = ctx.sigma

    w = next(((p, a, b, c) for p in range(pmax + 1) for a, b, c in product(range(n), repeat=3)
              if oracle_matmul(w_mats[a], img(p, b, c))
              != oracle_matmul(img(p, sigma[a][b], sigma[a][c]), w_mats[a])), None)
    report.add("w_exchange", w is None, witness=w)

    w = next(((p, a, b) for p in range(pmax + 1) for a, b in product(range(n), repeat=2)
              if oracle_matmul(e_mats[b], img(p, a, b)) != oracle_matmul(img(p, a, b), e_mats[a])), None)
    report.add("h_transport", w is None, witness=w)

    zero = ExactMatrix.zero(n)
    w = next(((p, a, b, c) for p in range(1, max(pmax, 1) + 1)
              for a, b, c in product(range(n), repeat=3) if c not in (a, b)
              and (oracle_matmul(e_mats[c], img(p, a, b)) != zero
                   or oracle_matmul(img(p, a, b), e_mats[c]) != zero)), None)
    report.add("h_annihilation", w is None, witness=w)
    return report


def oracle_kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    out = {}
    for (r1, c1), v1 in a.coeffs.items():
        for (r2, c2), v2 in b.coeffs.items():
            out[(r1 * b.dim + r2, c1 * b.dim + c2)] = v1 * v2
    return ExactMatrix(a.dim * b.dim, out)


def oracle_adjudication(ctx, max_level: int = 2) -> PropertyReport:
    """The four range comparisons of the twisted-coproduct adjudication, by
    ExactMatrix sums of Kronecker products conjugated by F."""
    n = ctx.n
    dim = n * n
    e_mats = [yb.rho(ctx, ctx.h(c)) for c in range(n)]
    w_mats = [yb.rho(ctx, ctx.w(g)) for g in range(n)]
    w_inv_mats = [yb.rho(ctx, ctx.w_inv(g)) for g in range(n)]
    f_mat = yb.twist_matrix(ctx)
    f_inv_mat = yb.rho(ctx, ctx.twist_inv)
    img = partial(yangian._eval_image, n)

    def delta_image(m, a, b, kmin):
        acc = ExactMatrix.zero(dim)
        for k in range(kmin, m + 1):
            for c in range(n):
                acc = acc + oracle_kron(img(k, c, b), img(m - k, a, c))
        return acc

    def display_image(m, a, b, kmin):
        acc = ExactMatrix.zero(dim)
        for k in range(kmin, m + 1):
            for c in range(n):
                left = oracle_matmul(img(k, c, b), e_mats[c])
                right = oracle_matmul(w_inv_mats[b], img(m - k, a, c), w_mats[c])
                acc = acc + oracle_kron(left, right)
        return acc

    comparisons = {
        "display_1m_vs_conjugated_standard": (1, 0),
        "display_0m_vs_conjugated_standard": (0, 0),
        "display_1m_vs_conjugated_truncated": (1, 1),
        "display_0m_vs_conjugated_truncated": (0, 1),
    }
    results: dict = {name: set() for name in comparisons}
    for m in range(1, max_level + 1):
        for a in range(n):
            for b in range(n):
                disp = {kmin: display_image(m, a, b, kmin) for kmin in (0, 1)}
                conj = {kmin: oracle_matmul(f_mat, delta_image(m, a, b, kmin), f_inv_mat)
                        for kmin in (0, 1)}
                for name, (disp_kmin, delta_kmin) in comparisons.items():
                    results[name].add(disp[disp_kmin] == conj[delta_kmin])
    outcomes = {name: seen.pop() if len(seen) == 1 else "mixed" for name, seen in results.items()}
    if outcomes["display_1m_vs_conjugated_truncated"] is True:
        conclusion = (
            "the displayed k=1..m formula equals the conjugation of the k=1..m coproduct; "
            + ("the k=0..m display also reproduces the standard-range conjugation"
               if outcomes["display_0m_vs_conjugated_standard"] is True
               else "under the standard k=0..m coproduct neither displayed range matches"))
    else:
        conclusion = "no displayed range reproduces any conjugation baseline"
    report = PropertyReport("twisted_coproduct_adjudication")
    report.add("adjudication", "mixed" not in outcomes.values(),
               detail={**outcomes, "conclusion": conclusion, "max_level": max_level})
    return report


# The permutation and RTT identities by ``oracle_matmul`` products of the
# materialised operators, each placed on its legs by ``oracle_embed_legs``.
# ``oracle_twisted_rtt`` reads ``yangian.solution_matrix`` and
# ``yangian.twist_matrix`` at call time, so a test that patches one patches the
# library check and its oracle alike.


def oracle_flip(n: int) -> ExactMatrix:
    return ExactMatrix(n * n, {(a * n + b, b * n + a): 1 for a in range(n) for b in range(n)})


def oracle_cleared(pole, a: ExactMatrix, n: int) -> ExactMatrix:
    """pole . a + P: the RTT operator a + P / pole times its pole, P with
    constant-polynomial entries."""
    return pole * a + BivarPoly.const(1) * oracle_flip(n)


def oracle_three_leg_sides(x: ExactMatrix, y: ExactMatrix, z: ExactMatrix, n: int) -> tuple:
    """X12 Y13 Z23 and Z23 Y13 X12 on the n^3 space, for two-leg x, y, z."""
    x12, y13, z23 = (oracle_embed_legs(m, n, 3, legs)
                     for m, legs in ((x, (0, 1)), (y, (0, 2)), (z, (1, 2))))
    return oracle_matmul(x12, y13, z23), oracle_matmul(z23, y13, x12)


def _spacing() -> BivarPoly:
    return BivarPoly.var(0) - BivarPoly.var(1)


def oracle_unitarity_report(n: int) -> PropertyReport:
    u, one = _spacing(), ExactMatrix.identity(n * n)
    lhs = oracle_matmul(oracle_cleared(u, one, n),
                        oracle_embed_legs(oracle_cleared(-u, one, n), n, 2, (1, 0)))
    report = PropertyReport("unitarity")
    report.compare("unitarity", lhs, (1 - u * u) * one)
    return report


def oracle_rtt(n: int, corrupt_shift: int | None = None) -> PropertyReport:
    one = ExactMatrix.identity(n * n)
    shift = 1 if corrupt_shift is None else corrupt_shift
    report = PropertyReport("rtt")
    report.compare("rtt", *oracle_three_leg_sides(
        oracle_cleared(_spacing(), one, n), oracle_cleared(BivarPoly.var(0) - shift, one, n),
        oracle_cleared(BivarPoly.var(1) - 1, one, n), n))
    return report


def oracle_twisted_rtt(ctx) -> PropertyReport:
    """R^F = F^op R F^{-1}, and R^F_12 L^F_1 L^F_2 = L^F_2 L^F_1 R^F_12, poles cleared."""
    n, u = ctx.n, _spacing()
    r = yangian.solution_matrix(ctx)
    rf = oracle_cleared(u, r, n)
    f_op = oracle_embed_legs(yangian.twist_matrix(ctx), n, 2, (1, 0))
    r_plain = oracle_cleared(u, ExactMatrix.identity(n * n), n)
    report = PropertyReport("twisted_rtt")
    report.compare("conjugation_form", rf, oracle_matmul(f_op, r_plain, yb.rho(ctx, ctx.twist_inv)))
    report.compare("twisted_rtt", *oracle_three_leg_sides(
        rf, oracle_cleared(BivarPoly.var(0) - 1, r, n),
        oracle_cleared(BivarPoly.var(1) - 1, r, n), n))
    return report


def oracle_matrix_ybe(m: ExactMatrix) -> PropertyReport:
    report = PropertyReport("matrix_ybe")
    report.compare("ybe", *oracle_three_leg_sides(m, m, m, isqrt(m.dim)))
    return report


def oracle_reversibility(m: ExactMatrix) -> bool:
    """R . (P R P) = 1, the flip conjugation placed digit by digit."""
    return oracle_matmul(m, oracle_embed_legs(m, isqrt(m.dim), 2, (1, 0))) == ExactMatrix.identity(m.dim)


def oracle_braid_matrix(m) -> ExactMatrix:
    """e_a (x) e_b -> e_{sigma_a(b)} (x) e_{tau_b(a)}, required to equal P . R."""
    n, s, t = m.n, m.sigma, m.tau
    pairs = list(product(range(n), repeat=2))
    braid = ExactMatrix(n * n, {(s[a][b] * n + t[b][a], a * n + b): 1 for a, b in pairs})
    r = ExactMatrix(n * n, {(b * n + a, s[a][b] * n + t[b][a]): 1 for a, b in pairs})
    if braid != oracle_matmul(oracle_flip(n), r):
        raise yb.CheckFailed("bridge_mismatch")
    return braid


def oracle_gv_tau(brace) -> tuple[list[list[int]], list[list[int]]]:
    """(sigma, tau) of the Guarnieri-Vendramin solution, from the raw tables:
    sigma[a][b] = -a + a o b and tau[b][a] = sigma_a(b)^{-1} o a o b."""
    n, add, mul = brace.n, brace.add.table, brace.mul.table
    neg = [add[a].index(0) for a in range(n)]
    inv = [mul[a].index(0) for a in range(n)]
    sigma = [[add[neg[a]][mul[a][b]] for b in range(n)] for a in range(n)]
    tau = [[mul[mul[inv[sigma[a][b]]][a]][b] for a in range(n)] for b in range(n)]
    return sigma, tau


# The n-only yangian checks, tuple by tuple.  Each reads the module
# attributes ``yangian._eval_image``, ``yangian.coproduct_table`` and
# ``yangian.tensor_coproduct`` at call time, so a test that patches one
# patches the library check and its oracle alike.


def _comm(a, b):
    return oracle_matmul(a, b) - oracle_matmul(b, a)


def oracle_defining_relations(n: int, pmax: int, mmax: int,
                              transpose: bool = False) -> PropertyReport:
    img = partial(yangian._eval_image, n, transpose=transpose)
    report = PropertyReport("defining_relations")
    violations = 0
    first = None
    for p in range(pmax + 1):
        for m in range(mmax + 1):
            for i, j, k, l in product(range(n), repeat=4):
                lhs = _comm(img(p + 1, i, j), img(m, k, l)) - _comm(img(p, i, j), img(m + 1, k, l))
                rhs = oracle_matmul(img(m, k, j), img(p, i, l)) - oracle_matmul(img(p, k, j), img(m, i, l))
                if lhs != rhs:
                    violations += 1
                    if first is None:
                        first = (p, m, i, j, k, l)
    report.add("relations", violations == 0, witness=first,
               detail={"violations": violations, "pmax": pmax, "mmax": mmax})
    return report


def oracle_displayed_relations(n: int) -> PropertyReport:
    img = partial(yangian._eval_image, n)

    def delta(x, y, level, i, j):
        return img(level, i, j) if x == y else ExactMatrix.zero(n)

    cases = {
        "level1_level1": lambda i, j, k, l: (
            _comm(img(1, i, j), img(1, k, l)),
            delta(i, l, 1, k, j) - delta(k, j, 1, i, l)),
        "level2_level1": lambda i, j, k, l: (
            _comm(img(2, i, j), img(1, k, l)),
            delta(i, l, 2, k, j) - delta(k, j, 2, i, l)),
        "level3_minus_level22": lambda i, j, k, l: (
            _comm(img(3, i, j), img(1, k, l)) - _comm(img(2, i, j), img(2, k, l)),
            oracle_matmul(img(1, k, j), img(2, i, l)) - oracle_matmul(img(2, k, j), img(1, i, l))),
        "level3_level1": lambda i, j, k, l: (
            _comm(img(3, i, j), img(1, k, l)),
            delta(i, l, 3, k, j) - delta(k, j, 3, i, l)),
    }
    report = PropertyReport("displayed_exchange_relations")
    for name, case in cases.items():
        w = next((t for t in product(range(n), repeat=4) if ne(*case(*t))), None)
        report.add(name, w is None, witness=w)
    return report


def oracle_coassociativity(n: int, max_level: int) -> PropertyReport:
    table = yangian.coproduct_table(n)

    def fails(m, a, b):
        d = table[(m, a, b)]
        return yangian.tensor_coproduct(d, 0, table) != yangian.tensor_coproduct(d, 1, table)

    report = PropertyReport("coassociativity")
    w = next((key for key in product(range(1, max_level + 1), range(n), range(n))
              if fails(*key)), None)
    report.add("coassociativity", w is None, witness=w, detail={"max_level": max_level})
    return report


def oracle_antipode_series(n: int, max_level: int) -> tuple[dict, PropertyReport]:
    table = yangian.antipode_table(n)
    report = PropertyReport("antipode_series")

    def s_of(k, c, b):
        return gen(0, c, b) if k == 0 else table[(k, c, b)]

    for m in range(1, max_level + 1):
        w_left = w_right = None
        for a in range(n):
            for b in range(n):
                left = NCTensor(1)
                right = NCTensor(1)
                for k in range(m + 1):
                    for c in range(n):
                        left = left + s_of(k, c, b) * gen(m - k, a, c)
                        right = right + gen(k, c, b) * s_of(m - k, a, c)
                if not left.is_zero and w_left is None:
                    w_left = (m, a, b)
                if not right.is_zero and w_right is None:
                    w_right = (m, a, b)
        report.add(f"left_identity_level{m}", w_left is None, witness=w_left)
        report.add(f"right_identity_level{m}", w_right is None, witness=w_right)
    return table, report


# The symbolic tables as sums of tensors, one pruned sum per term.


def tensor2(p: NCTensor, q: NCTensor) -> NCTensor:
    """p (x) q: the slots of p followed by the slots of q."""
    out: dict = {}
    for key1, c1 in p.coeffs.items():
        for key2, c2 in q.coeffs.items():
            out[key1 + key2] = c1 * c2
    return NCTensor(p.k + q.k, out)


def oracle_coproduct_gen(m: int, a: int, b: int, n: int) -> NCTensor:
    out = NCTensor(2)
    for c in range(n):
        for k in range(m + 1):
            out = out + tensor2(gen(k, c, b), gen(m - k, a, c))
    return out


def oracle_antipode_table(n: int, max_level: int) -> dict:
    table: dict = {}
    for m in range(1, max_level + 1):
        for a in range(n):
            for b in range(n):
                acc = NCTensor(1)
                for k in range(m):
                    for c in range(n):
                        s_prev = gen(0, c, b) if k == 0 else table[(k, c, b)]
                        acc = acc + s_prev * gen(m - k, a, c)
                table[(m, a, b)] = -acc
    return table


# ---------------------------------------------------------------- fixtures


def cyclic_rows(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


KLEIN_ROWS = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
Z4_RADICAL_MUL_ROWS = [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)]

#: yangian checks whose verdict depends on the order n alone
N_ONLY = ("yangian.defining_relations", "yangian.displayed_relations", "yangian.unitarity",
          "yangian.rtt", "yangian.coassociativity", "yangian.antipode_series")

#: the entries that build a brace's AlgebraContext, in report order; run_suites
#: builds it in the first one present and reuses it in the others
CONTEXT_ENTRIES = ("matrix.rep_consistency", "universal.construction", "yangian.context")


@pytest.fixture(scope="session")
def order8_tables():
    return yb.enumerate_group_tables(8, ceiling=8)


@pytest.fixture(scope="session")
def z2():
    return yb.validate_group(cyclic_rows(2))


@pytest.fixture(scope="session")
def z4():
    return yb.validate_group(cyclic_rows(4))


@pytest.fixture(scope="session")
def klein():
    return yb.validate_group(KLEIN_ROWS)


@pytest.fixture(scope="session")
def trivial2():
    return yb.trivial_brace(2)


@pytest.fixture(scope="session")
def z4_radical(z4):
    """The order-4 brace with a o b = a + b + 2ab; sigma_a(b) = (1 + 2a) b mod 4."""
    return yb.validate_brace(z4, yb.validate_group(Z4_RADICAL_MUL_ROWS))


@pytest.fixture(scope="session")
def z6_brace():
    """Order-6 brace with abelian addition and nonabelian multiplication:
    a o b = a + (-1)^a b mod 6, so (X, o) has two generators of orders 2 and 3."""
    add = yb.validate_group(cyclic_rows(6))
    mul = yb.validate_group(
        [[(a + (b if a % 2 == 0 else -b)) % 6 for b in range(6)] for a in range(6)]
    )
    return yb.validate_brace(add, mul)


@pytest.fixture(scope="session")
def s3_table():
    nonabelian = [g for g in yb.enumerate_group_tables(6) if not g.is_abelian]
    return nonabelian[0]


@pytest.fixture(scope="session")
def s3_trivial_skew(s3_table):
    """mul = add on a nonabelian group: a genuine skew brace, flip solution."""
    return yb.validate_brace(s3_table, s3_table)


@pytest.fixture(scope="session")
def order6_nonabelian():
    """The first labelled order-6 skew brace with nonabelian addition whose
    sigma/tau maps derive and whose sigma is nontrivial."""
    for b in yb.enumerate_braces(6):
        if b.is_brace:
            continue
        try:
            m = yb.derive_sigma_tau(b)
        except yb.ValidationFailure:
            continue
        if any(list(row) != list(range(6)) for row in m.sigma):
            return b
    raise AssertionError("no order-6 skew brace with nonabelian addition and nontrivial sigma")


@pytest.fixture(scope="session")
def z3_squared_brace():
    """(Z3^2, +) with (x, y) o (u, v) = (x, y) + (u + y v, v), (x, y) at index 3x + y.

    sigma_(x,y)(u, v) = (u + y v, v) has order 3 when y != 0, so sigma_g and
    sigma_{g^{-1}} differ: the first subject that tells the antipode formula
    s(h_a w_g) = h_{sigma_{g^{-1}}(-a)} w_{g^{-1}} from its sigma_g variant, and
    rho(w_g) from rho(w_g^{-1}).
    """
    els = [(x, y) for x in range(3) for y in range(3)]

    def at(x, y):
        return 3 * (x % 3) + y % 3

    add = [[at(x + u, y + v) for u, v in els] for x, y in els]
    mul = [[at(x + u + y * v, y + v) for u, v in els] for x, y in els]
    return yb.validate_brace(yb.validate_group(add), yb.validate_group(mul))


@pytest.fixture(scope="session")
def braces_up_to_4():
    return {n: yb.enumerate_braces(n, skew=True) for n in range(1, 5)}


@pytest.fixture(scope="session")
def skew_braces_up_to_6():
    """All 299 labelled skew braces of orders 1-6, by order."""
    return {n: yb.enumerate_braces(n, skew=True) for n in range(1, 7)}


@pytest.fixture(scope="session")
def all_contexts(skew_braces_up_to_6):
    """Every context of orders 1-6: 219, 80 of them with non-abelian addition."""
    out = []
    for b in (b for bs in skew_braces_up_to_6.values() for b in bs):
        try:
            out.append(yb.algebra_from_brace(b))
        except yb.ValidationFailure:
            pass  # tau does not derive for 80 order-6 braces with non-abelian addition
    return out


@pytest.fixture(scope="session")
def contexts(all_contexts):
    """Every context of orders 1-5 and 24 seeded order-6 ones, 12 with non-abelian addition."""
    small = [c for c in all_contexts if c.n < 6]
    six = [c for c in all_contexts if c.n == 6]
    rng = random.Random(17)
    sample = (rng.sample([c for c in six if c.brace.is_brace], 12)
              + rng.sample([c for c in six if not c.brace.is_brace], 12))
    return small + sample


@pytest.fixture(scope="session")
def z4_radical_ctx(z4_radical):
    return yb.algebra_from_brace(z4_radical)


@pytest.fixture(scope="session")
def trivial2_ctx(trivial2):
    return yb.algebra_from_brace(trivial2)
