"""Exact verification of the RTT layer: defining relations in the evaluation
representation, the rational R-matrix, twisted R and L operators, and the
symbolic coproduct/antipode series of the level generators.

R = 1 + P/(lambda1 - lambda2), L = 1 + P/(lambda - 1), R^F = r + P/(lambda1 -
lambda2) and L^F = r + P/(lambda - 1), r a permutation, each have one known
scalar pole.  Times its pole, each is two weighted permutations (``_cleared``),
so an identity between products of them is one between integer-coefficient
polynomial matrices (``ExactMatrix`` over ``BivarPoly``) with the same non-zero
scalar on both sides.  Each side is one ``matrices._product``, and the sides
are compared exactly; a failure's witness is the first differing entry
(``PropertyReport.compare``).  RTT and twisted RTT are one three-leg identity
(``_rtt_sides``, with a = 1 or a = r).  The evaluation images of the level
generators are built once per process (``_eval_image``).  Symbolic identities
live in the free noncommutative algebra.

The augmented relations and the twisted-coproduct adjudication multiply only
matrix units and permutations, so they are decided on {(row, col): coefficient}
dicts: each product relabels rows or columns (``_relabel``), and a Kronecker
product is index arithmetic.

The n-only checks (defining and displayed relations, coassociativity and the
antipode identities) are natural under relabelling the indices by a
permutation pi of range(n): pi maps E_{ji} to E_{pi j, pi i}, fixes the level-0
images delta_ij . 1, and maps L^{(m)}_{ab} to L^{(m)}_{pi a, pi b} in the free
algebra.  A verdict on an index tuple therefore depends only on its equality
pattern, and each is decided on one representative per S_n orbit
(``_patterns``): the least tuple of the orbit, so the first failing
representative is the first failing tuple, and a count of violations adds the
orbit sizes.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product as iproduct
from operator import ne

from .algebra import AlgebraContext
from .errors import LimitExceeded
from .matrices import (ExactMatrix, _as_mapping, _product, flip_matrix, rho, rho_basis_entry,
                       solution_matrix, twist_matrix)
from .ncpoly import _word, antipode_table, coproduct_gen, gen, tensor_coproduct
from .rational import BivarPoly
from .reports import PropertyReport

MAX_LEVEL = 4


def _spacing() -> BivarPoly:
    """lambda1 - lambda2, the pole of R and R^F."""
    return BivarPoly.var(0) - BivarPoly.var(1)


def _cleared(pole: BivarPoly, a, n: int) -> list:
    """The terms of pole . a + P, the RTT operator a + P / pole times its pole, for
    a column -> row list a on the n^2 space.  P weighs the constant polynomial 1,
    so every entry of a cleared operator is a ``BivarPoly`` callers can evaluate."""
    if n < 1:
        raise LimitExceeded("n must be at least 1")
    return [(pole, a), (BivarPoly.const(1), _as_mapping(flip_matrix(n)))]


def _rtt_sides(n: int, a, shift: int = 1) -> tuple[ExactMatrix, ExactMatrix]:
    """R12 L1 L2 and L2 L1 R12 on the n^3 space, leg 2 the quantum one, for R = a + P/(l1 - l2)
    and L_i = a + P/(l_i - 1), each times its pole; L1's pole is l1 - ``shift``."""
    r = (_cleared(_spacing(), a, n), (0, 1))
    l1 = (_cleared(BivarPoly.var(0) - shift, a, n), (0, 2))
    l2 = (_cleared(BivarPoly.var(1) - 1, a, n), (1, 2))
    return _product(n, 3, r, l1, l2), _product(n, 3, l2, l1, r)


def _patterns(n: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """The S_n orbits on range(n)^k, as (least tuple, orbit size) in lexicographic order.

    The least tuple of an orbit is its restricted growth string: it starts at
    0, and each entry is at most one more than the largest entry before it.
    An orbit with b distinct entries has n (n - 1) ... (n - b + 1) tuples, so
    the sizes sum to n^k.
    """
    out: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for _ in range(k):
        grown = []
        for t, size in out:
            b = max(t, default=-1) + 1
            grown.extend((t + (v,), size) for v in range(b))
            if b < n:
                grown.append((t + (b,), size * (n - b)))
        out = grown
    return out


# ------------------------------------------------------------ the R-matrix


def yangian_r(n: int) -> ExactMatrix:
    """(lambda1 - lambda2) R = (lambda1 - lambda2) 1 + P on the n^2 space.

    R(lambda1, lambda2) = 1 + P / (lambda1 - lambda2), carrying its pole as a factor.
    """
    return _product(n, 2, (_cleared(_spacing(), range(n * n), n), (0, 1)))


def unitarity_report(n: int) -> PropertyReport:
    """R(lambda) P R(-lambda) P = (1 - (lambda1 - lambda2)^{-2}) . 1, exactly.

    With the poles cleared, u = lambda1 - lambda2: (u 1 + P) P (-u 1 + P) P = (1 - u^2) . 1.
    """
    u = _spacing()
    lhs = _product(n, 2, (_cleared(u, range(n * n), n), (0, 1)),
                   (_cleared(-u, range(n * n), n), (1, 0)))
    report = PropertyReport("unitarity")
    report.compare("unitarity", lhs, (1 - u * u) * ExactMatrix.identity(n * n))
    return report


# ------------------------------------------- defining relations, evaluation rep


@lru_cache(maxsize=None)
def _eval_image(n: int, m: int, i: int, j: int, transpose: bool = False) -> ExactMatrix:
    """The level-m generator A_{ij} in the evaluation representation.

    Cached per process: no operation mutates an ``ExactMatrix`` in place.
    """
    if m == 0:
        return ExactMatrix(n, {(x, x): 1 for x in range(n)}) if i == j else ExactMatrix.zero(n)
    return ExactMatrix(n, {(i, j): 1} if transpose else {(j, i): 1})


def _comm(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a * b - b * a


def check_defining_relations(n: int, pmax: int = MAX_LEVEL, mmax: int = MAX_LEVEL,
                             transpose: bool = False) -> PropertyReport:
    """Substitute the evaluation representation into every defining relation.

    [A^{(p+1)}_{ij}, A^{(m)}_{kl}] - [A^{(p)}_{ij}, A^{(m+1)}_{kl}]
        = A^{(m)}_{kj} A^{(p)}_{il} - A^{(p)}_{kj} A^{(m)}_{il}

    with A^{(q)}_{xy} the image of the level-q generator.  ``transpose``
    substitutes the wrong (transposed) images, as a negative control.

    Decided on one (i, j, k, l) per S_n orbit: the witness is the first
    failing tuple in (p, m, i, j, k, l) order, and ``violations`` counts every
    failing tuple.
    """
    img = partial(_eval_image, n, transpose=transpose)
    report = PropertyReport("defining_relations")
    violations = 0
    first = None
    patterns = _patterns(n, 4)
    for p in range(pmax + 1):
        for m in range(mmax + 1):
            for (i, j, k, l), size in patterns:
                lhs = _comm(img(p + 1, i, j), img(m, k, l)) - _comm(img(p, i, j), img(m + 1, k, l))
                rhs = img(m, k, j) * img(p, i, l) - img(p, k, j) * img(m, i, l)
                if lhs != rhs:
                    violations += size
                    if first is None:
                        first = (p, m, i, j, k, l)
    report.add("relations", violations == 0, witness=first,
               detail={"violations": violations, "pmax": pmax, "mmax": mmax})
    return report


def check_displayed_exchange_relations(n: int) -> PropertyReport:
    """The four displayed low-order cases, evaluated in the representation.

    Each is decided on one (i, j, k, l) per S_n orbit; its witness is the
    first failing tuple.
    """
    img = partial(_eval_image, n)

    def delta(x, y, mat_level, i, j):
        return img(mat_level, i, j) if x == y else ExactMatrix.zero(n)

    report = PropertyReport("displayed_exchange_relations")
    cases = {
        "level1_level1": lambda i, j, k, l: (
            _comm(img(1, i, j), img(1, k, l)),
            delta(i, l, 1, k, j) - delta(k, j, 1, i, l),
        ),
        "level2_level1": lambda i, j, k, l: (
            _comm(img(2, i, j), img(1, k, l)),
            delta(i, l, 2, k, j) - delta(k, j, 2, i, l),
        ),
        "level3_minus_level22": lambda i, j, k, l: (
            _comm(img(3, i, j), img(1, k, l)) - _comm(img(2, i, j), img(2, k, l)),
            img(1, k, j) * img(2, i, l) - img(2, k, j) * img(1, i, l),
        ),
        "level3_level1": lambda i, j, k, l: (
            _comm(img(3, i, j), img(1, k, l)),
            delta(i, l, 3, k, j) - delta(k, j, 3, i, l),
        ),
    }
    patterns = [t for t, _ in _patterns(n, 4)]
    for name, case in cases.items():
        w = next((t for t in patterns if ne(*case(*t))), None)
        report.add(name, w is None, witness=w)
    return report


# --------------------------------------------------------------- RTT identity


def check_rtt(n: int, corrupt_shift: int | None = None) -> PropertyReport:
    """R12(l1,l2) L1(l1) L2(l2) = L2(l2) L1(l1) R12(l1,l2), poles cleared.

    The third leg is the quantum space in its evaluation image, so both
    sides are matrices on the n^3 space.  Every factor carries its pole, so
    both sides are the rational identity times (l1 - l2)(l1 - 1)(l2 - 1).
    ``corrupt_shift`` replaces the pole of the first L leg (negative control).
    """
    report = PropertyReport("rtt")
    shift = 1 if corrupt_shift is None else corrupt_shift
    report.compare("rtt", *_rtt_sides(n, range(n * n), shift))
    return report


# --------------------------------------------- matrix-unit identities on indices


def _relabel(m: dict, rows: dict, cols: dict) -> dict:
    """The entries (r, c) of m with r in ``rows`` and c in ``cols``, moved to
    (rows[r], cols[c]).  P m relabels rows by P's column -> row map, m P columns
    by its inverse; e_{r,s} m keeps row s as r, m e_{r,s} column r as s."""
    return {(rows[r], cols[c]): v for (r, c), v in m.items() if r in rows and c in cols}


def _perm(ctx: AlgebraContext, x) -> tuple[dict, dict]:
    """rho(x), a permutation: its column -> row map and the inverse map."""
    p = _as_mapping(rho(ctx, x))
    return dict(enumerate(p)), {r: c for c, r in enumerate(p)}


def check_augmented_relations(ctx: AlgebraContext, pmax: int = MAX_LEVEL) -> PropertyReport:
    """The mixed exchange relations between w_a, h_a and the level generators.

    In the representation: w_a L^{(p)}_{b,c} = L^{(p)}_{sigma_a(b), sigma_a(c)} w_a
    for p >= 0, h_b L^{(p)}_{a,b} = L^{(p)}_{a,b} h_a, and h_c annihilates
    L^{(p)}_{a,b} on both sides for c outside {a, b} (p >= 1; the level-0
    symbol is a multiple of the unit, which no idempotent annihilates).
    """
    n = ctx.n
    report = PropertyReport("augmented_relations")
    rows, cols = zip(*(_perm(ctx, ctx.w(a)) for a in range(n)))
    ident = {x: x for x in range(n)}
    units = [rho_basis_entry(ctx, c * n) for c in range(n)]
    left, right = [{s: r} for r, s in units], [{r: s} for r, s in units]  # rho(h_c) as a factor
    sigma = ctx.sigma

    def img(p, i, j):
        return _eval_image(n, p, i, j).coeffs

    w = next(((p, a, b, c) for p in range(pmax + 1) for a, b, c in iproduct(range(n), repeat=3)
              if _relabel(img(p, b, c), rows[a], ident)
              != _relabel(img(p, sigma[a][b], sigma[a][c]), ident, cols[a])), None)
    report.add("w_exchange", w is None, witness=w)

    w = next(((p, a, b) for p in range(pmax + 1) for a, b in iproduct(range(n), repeat=2)
              if _relabel(img(p, a, b), left[b], ident) != _relabel(img(p, a, b), ident, right[a])),
             None)
    report.add("h_transport", w is None, witness=w)

    w = next(((p, a, b, c) for p in range(1, max(pmax, 1) + 1)
              for a, b, c in iproduct(range(n), repeat=3) if c not in (a, b)
              and (_relabel(img(p, a, b), left[c], ident) or _relabel(img(p, a, b), ident, right[c]))),
             None)
    report.add("h_annihilation", w is None, witness=w)
    return report


# ------------------------------------------------------------ twisted objects


def twisted_r_lambda(ctx: AlgebraContext) -> ExactMatrix:
    """(lambda1 - lambda2) R^F = (lambda1 - lambda2) r + P, r the combinatorial solution.

    R^F(lambda) = r + P / (lambda1 - lambda2), carrying its pole as a factor.
    """
    r = _as_mapping(solution_matrix(ctx))
    return _product(ctx.n, 2, (_cleared(_spacing(), r, ctx.n), (0, 1)))


def twisted_l(ctx: AlgebraContext, var: int = 0) -> ExactMatrix:
    """(lambda - 1) L^F = (lambda - 1) r + P on (auxiliary, quantum), r the combinatorial solution.

    L^F(lambda) = F^op L(lambda) F^{-1} with L = 1 + P / (lambda - 1), carrying
    its pole as a factor; ``var`` names the spectral parameter lambda.  The
    closed form is exact: F^op P = P F, so F^op P F^{-1} = P, and
    rho(F^op F^{-1}) = r.  ``check_twisted_rtt`` checks the same conjugation
    for R^F.
    """
    r = _as_mapping(solution_matrix(ctx))
    return _product(ctx.n, 2, (_cleared(BivarPoly.var(var) - 1, r, ctx.n), (0, 1)))


def check_twisted_rtt(ctx: AlgebraContext) -> PropertyReport:
    """The twisted RTT identity, plus the conjugation form of R^F(lambda), poles cleared.

    Checks, on the n^3 space with the quantum leg in its evaluation image:
      (a) R^F(lambda) = F^op R(lambda) F^{-1}  (two-leg identity, times l1 - l2);
      (b) R^F_12(l1 - l2) L^F_1(l1) L^F_2(l2) = L^F_2(l2) L^F_1(l1) R^F_12(l1 - l2)
          (times (l1 - l2)(l1 - 1)(l2 - 1)).
    """
    n, u = ctx.n, _spacing()
    r = _as_mapping(solution_matrix(ctx))
    f, f_inv = _as_mapping(twist_matrix(ctx)), _as_mapping(rho(ctx, ctx.twist_inv))
    report = PropertyReport("twisted_rtt")
    report.compare("conjugation_form", _product(n, 2, (_cleared(u, r, n), (0, 1))),
                   _product(n, 2, ([(1, f)], (1, 0)), (_cleared(u, range(n * n), n), (0, 1)),
                            ([(1, f_inv)], (0, 1))))
    report.compare("twisted_rtt", *_rtt_sides(n, r))
    return report


# ------------------------------------------------------------- symbolic layer


def coproduct_table(n: int, max_level: int = 3) -> dict:
    """Delta(L^{(m)}_{a,b}) for m <= max_level, as two-slot free tensors."""
    if not 1 <= max_level <= MAX_LEVEL:
        raise LimitExceeded(f"level {max_level} outside 1..{MAX_LEVEL}")
    return {
        (m, a, b): coproduct_gen(m, a, b, n)
        for m in range(1, max_level + 1)
        for a in range(n)
        for b in range(n)
    }


def coassociativity_report(n: int, max_level: int = 3) -> PropertyReport:
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every generator, symbolically.

    Decided on one (a, b) per S_n orbit at each level; the witness is the
    first failing (m, a, b).  The table keeps every generator, because a
    word's image needs each of its letters.
    """
    table = coproduct_table(n, max_level)

    def fails(m, a, b):
        d = table[(m, a, b)]
        return tensor_coproduct(d, 0, table) != tensor_coproduct(d, 1, table)

    report = PropertyReport("coassociativity")
    pairs = [t for t, _ in _patterns(n, 2)]
    w = next(((m, a, b) for m in range(1, max_level + 1) for a, b in pairs if fails(m, a, b)),
             None)
    report.add("coassociativity", w is None, witness=w, detail={"max_level": max_level})
    return report


def antipode_series(n: int, max_level: int = MAX_LEVEL) -> tuple[dict, PropertyReport]:
    """Solve the antipode recursion and verify both one-sided identities vanish.

    Returns the table s(L^{(m)}_{a,b}) for m <= max_level together with a
    report asserting sum_c sum_k s(L^{(k)}_{c,b}) L^{(m-k)}_{a,c} = 0 and
    sum_c sum_k L^{(k)}_{c,b} s(L^{(m-k)}_{a,c}) = 0 in the free algebra.
    The table is full; the identities are decided on one (a, b) per S_n orbit
    at each level, and a witness is the first failing (m, a, b).
    """
    if not 1 <= max_level <= MAX_LEVEL:
        raise LimitExceeded(f"level {max_level} outside 1..{MAX_LEVEL}")
    table = antipode_table(n, max_level)
    report = PropertyReport("antipode_series")

    def s_of(k, c, b):
        return gen(0, c, b) if k == 0 else table[(k, c, b)]

    for m in range(1, max_level + 1):
        w_left = w_right = None
        for (a, b), _ in _patterns(n, 2):
            left, right = {}, {}  # word -> coefficient of each side, term by term
            for k in range(m + 1):
                for c in range(n):
                    if (lw := _word(m - k, a, c)) is not None:
                        for (w,), v in s_of(k, c, b).coeffs.items():
                            left[w + lw] = left.get(w + lw, 0) + v
                    if (rw := _word(k, c, b)) is not None:
                        for (w,), v in s_of(m - k, a, c).coeffs.items():
                            right[rw + w] = right.get(rw + w, 0) + v
            if any(left.values()) and w_left is None:
                w_left = (m, a, b)
            if any(right.values()) and w_right is None:
                w_right = (m, a, b)
        report.add(f"left_identity_level{m}", w_left is None, witness=w_left)
        report.add(f"right_identity_level{m}", w_right is None, witness=w_right)
    return table, report


# ------------------------------------------- twisted coproduct adjudication


def adjudicate_twisted_coproduct(ctx: AlgebraContext, max_level: int = 2) -> PropertyReport:
    """Which summation range of the displayed twisted coproduct matches conjugation.

    For each level m <= max_level the displayed formula

        Delta_F(L^{(m)}_{a,b}) = sum_{k} sum_c L^{(k)}_{c,b} h_c (x) w_b^{-1} L^{(m-k)}_{a,c} w_c

    is evaluated in the representation under both candidate ranges (k = 1..m
    and k = 0..m) and compared against F . image(Delta(L^{(m)}_{a,b})) . F^{-1},
    where Delta itself is taken both with its standard range (k = 0..m) and
    with the truncated range (k = 1..m).  Every comparison outcome is
    recorded; the check passes when the adjudication is conclusive, i.e. each
    comparison resolves identically for every (a, b).
    """
    if not 1 <= max_level <= 3:
        raise LimitExceeded(f"level {max_level} outside 1..3")
    n = ctx.n
    ident = {x: x for x in range(n)}
    h_cols = [{r: s} for r, s in (rho_basis_entry(ctx, c * n) for c in range(n))]
    w_cols = [_perm(ctx, ctx.w(g))[1] for g in range(n)]
    w_inv = [_perm(ctx, ctx.w_inv(g))[0] for g in range(n)]
    f = dict(enumerate(_as_mapping(twist_matrix(ctx))))
    f_inv_cols = _perm(ctx, ctx.twist_inv)[1]

    def images(m, a, b, display):
        # {kmin: sum over kmin <= k <= m, c} of L_{c,b} (x) L_{a,c}, or of the display's
        # L_{c,b} h_c (x) w_b^{-1} L_{a,c} w_c; every entry is a positive sum, never pruned
        acc: dict = {}
        for k in range(m, -1, -1):
            for c in range(n):
                left, right = _eval_image(n, k, c, b).coeffs, _eval_image(n, m - k, a, c).coeffs
                if display:
                    left = _relabel(left, ident, h_cols[c])
                    right = _relabel(right, w_inv[b], w_cols[c])
                for (r1, c1), v1 in left.items():
                    for (r2, c2), v2 in right.items():
                        key = (r1 * n + r2, c1 * n + c2)
                        acc[key] = acc.get(key, 0) + v1 * v2
            if k == 1:
                truncated = dict(acc)
        return {1: truncated, 0: acc}

    comparisons = {
        "display_1m_vs_conjugated_standard": (1, 0),
        "display_0m_vs_conjugated_standard": (0, 0),
        "display_1m_vs_conjugated_truncated": (1, 1),
        "display_0m_vs_conjugated_truncated": (0, 1),
    }
    report = PropertyReport("twisted_coproduct_adjudication")
    results: dict = {name: set() for name in comparisons}
    for m in range(1, max_level + 1):
        for a in range(n):
            for b in range(n):
                disp = images(m, a, b, True)
                conj = {kmin: _relabel(x, f, f_inv_cols)
                        for kmin, x in images(m, a, b, False).items()}
                for name, (disp_kmin, delta_kmin) in comparisons.items():
                    results[name].add(disp[disp_kmin] == conj[delta_kmin])
    outcomes = {name: seen.pop() if len(seen) == 1 else "mixed" for name, seen in results.items()}

    if outcomes.get("display_1m_vs_conjugated_truncated") is True:
        conclusion = (
            "the displayed k=1..m formula equals the conjugation of the k=1..m coproduct; "
            + ("the k=0..m display also reproduces the standard-range conjugation"
               if outcomes.get("display_0m_vs_conjugated_standard") is True
               else "under the standard k=0..m coproduct neither displayed range matches")
        )
    else:
        conclusion = "no displayed range reproduces any conjugation baseline"
    report.add("adjudication", "mixed" not in outcomes.values(),
               detail={**outcomes, "conclusion": conclusion, "max_level": max_level})
    return report
