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

Every evaluation image is one matrix unit (level >= 1) or delta . 1 (level
0), and rho sends w_g to a permutation and h_c to a unit, so no check here
multiplies matrices.  The defining and displayed relations multiply images as
{(row, col): v} dicts by e_{r,s} e_{t,u} = [s = t] e_{r,u} (``_vanishes``), on
the terms of one helper (``_relation_terms``): each displayed relation is one
cell (p, m) of the defining relation, since A^{(0)} = delta . 1; the
augmented relations compare index pairs read from sigma, rho's ends and the
units; the twisted-coproduct adjudication builds its four k-range sums as one
index-keyed dict per (m, a, b), placing each Kronecker term by index arithmetic.

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

from functools import lru_cache
from itertools import product as iproduct

from .algebra import AlgebraContext
from .braces import _perm_inverse
from .errors import LimitExceeded
from .matrices import (ExactMatrix, _as_mapping, _product, flip_matrix, rho, rho_basis_entry,
                       solution_matrix, twist_matrix)
from .ncpoly import MAX_LEVEL, _word, antipode_table, coproduct_gen, gen, tensor_coproduct
from .rational import BivarPoly
from .reports import PropertyReport

#: the levels each check covers: the defining relations at p, m <= MAX_LEVEL
#: by default, the augmented relations and the antipode series at levels
#: 1..MAX_LEVEL, the coproduct table and its coassociativity at
#: 1..COPRODUCT_LEVEL, and the twisted-coproduct adjudication at
#: 1..ADJUDICATION_LEVEL
COPRODUCT_LEVEL = 3
ADJUDICATION_LEVEL = 2


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
    the sizes sum to n^k.  Every n-only check goes through here, so n < 1, which
    has no index to check, raises LimitExceeded as ``_cleared`` does.
    """
    if n < 1:
        raise LimitExceeded("n must be at least 1")
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


def _vanishes(terms) -> bool:
    """Whether sum c . x y over the (c, x, y) of ``terms`` is zero, for images x and
    y as {(row, col): v} dicts multiplied by e_{r,s} e_{t,u} = [s = t] e_{r,u}.
    Every image is one matrix unit or delta . 1, so each product is a handful
    of index comparisons."""
    acc: dict = {}
    for c, x, y in terms:
        for (r, s), v in x.items():
            for (t, u), w in y.items():
                if s == t:
                    acc[(r, u)] = acc.get((r, u), 0) + c * v * w
    return not any(acc.values())


def _relation_terms(img, p: int, m: int, i: int, j: int, k: int, l: int) -> list:
    """The terms, for ``_vanishes``, of the defining relation at levels (p, m):

    [A^{(p+1)}_{ij}, A^{(m)}_{kl}] - [A^{(p)}_{ij}, A^{(m+1)}_{kl}]
        - (A^{(m)}_{kj} A^{(p)}_{il} - A^{(p)}_{kj} A^{(m)}_{il})

    with ``img(q, x, y)`` the image of A^{(q)}_{xy} as a {(row, col): v} dict.
    """
    a, b, c, d = img(p + 1, i, j), img(m, k, l), img(p, i, j), img(m + 1, k, l)
    return [(1, a, b), (-1, b, a), (-1, c, d), (1, d, c),
            (-1, img(m, k, j), img(p, i, l)), (1, img(p, k, j), img(m, i, l))]


def check_defining_relations(n: int, pmax: int = MAX_LEVEL, mmax: int = MAX_LEVEL,
                             transpose: bool = False) -> PropertyReport:
    """Substitute the evaluation representation into every defining relation.

    [A^{(p+1)}_{ij}, A^{(m)}_{kl}] - [A^{(p)}_{ij}, A^{(m+1)}_{kl}]
        = A^{(m)}_{kj} A^{(p)}_{il} - A^{(p)}_{kj} A^{(m)}_{il}

    with A^{(q)}_{xy} the image of the level-q generator, for p <= ``pmax`` and
    m <= ``mmax``, each in 0..MAX_LEVEL (else LimitExceeded).  ``transpose``
    substitutes the wrong (transposed) images, as a negative control.  The
    images are multiplied on indices (``_relation_terms``, ``_vanishes``).

    Decided on one (i, j, k, l) per S_n orbit: the witness is the first
    failing tuple in (p, m, i, j, k, l) order, and ``violations`` counts every
    failing tuple.
    """
    for name, level in (("pmax", pmax), ("mmax", mmax)):
        if not 0 <= level <= MAX_LEVEL:
            raise LimitExceeded(f"{name} {level} outside 0..{MAX_LEVEL}")

    def img(q, x, y):
        return _eval_image(n, q, x, y, transpose=transpose).coeffs

    report = PropertyReport("defining_relations")
    violations = 0
    first = None
    patterns = _patterns(n, 4)
    for p in range(pmax + 1):
        for m in range(mmax + 1):
            for t, size in patterns:
                if not _vanishes(_relation_terms(img, p, m, *t)):
                    violations += size
                    if first is None:
                        first = (p, m, *t)
    report.add("relations", violations == 0, witness=first,
               detail={"violations": violations, "pmax": pmax, "mmax": mmax})
    return report


def check_displayed_exchange_relations(n: int) -> PropertyReport:
    """The four displayed low-order cases, evaluated in the representation.

    Each is one cell (p, m) of the defining relation (``_relation_terms``).
    A^{(0)} = delta . 1 commutes with everything, so the cell (q, 0) is -1 times
    the displayed exchange relation

        [A^{(q)}_{ij}, A^{(1)}_{kl}] = delta_il A^{(q)}_{kj} - delta_kj A^{(q)}_{il}

    for q = 1, 2, 3, and the cell (2, 1) is the level-3 case term for term.
    Each is decided on one (i, j, k, l) per S_n orbit; its witness is the
    first failing tuple.
    """
    def img(q, x, y):
        return _eval_image(n, q, x, y).coeffs

    report = PropertyReport("displayed_exchange_relations")
    cells = {"level1_level1": (1, 0), "level2_level1": (2, 0),
             "level3_minus_level22": (2, 1), "level3_level1": (3, 0)}
    patterns = [t for t, _ in _patterns(n, 4)]
    for name, (p, m) in cells.items():
        w = next((t for t in patterns if not _vanishes(_relation_terms(img, p, m, *t))), None)
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


def _permutations(ctx: AlgebraContext) -> tuple[list, list]:
    """rho(w_g) for every g, read from rho's ends: column -> row lists and their inverses."""
    w = [_as_mapping(rho(ctx, ctx.w(g))) for g in range(ctx.n)]
    return w, [_perm_inverse(p) for p in w]


def check_augmented_relations(ctx: AlgebraContext) -> PropertyReport:
    """The mixed exchange relations between w_a, h_a and the level generators.

    In the representation: w_a L^{(p)}_{b,c} = L^{(p)}_{sigma_a(b), sigma_a(c)} w_a
    for p >= 0, h_b L^{(p)}_{a,b} = L^{(p)}_{a,b} h_a, and h_c annihilates
    L^{(p)}_{a,b} on both sides for c outside {a, b} (p >= 1; the level-0
    symbol is a multiple of the unit, which no idempotent annihilates), for
    p <= MAX_LEVEL.

    Decided on indices: rho(w_a) is the permutation pi_a, rho(h_c) the unit
    e_{r_c, s_c}, L^{(p)}_{b,c} the unit e_{c,b} for p >= 1 and delta_{bc} . 1
    for p = 0.  So w_a e_{c,b} = e_{pi_a c, b}, e_{x,y} w_a = e_{x, pi_a^{-1} y},
    e_{r,s} e_{t,u} = [s = t] e_{r,u}, and delta . 1 commutes with everything.
    """
    n, sigma = ctx.n, ctx.sigma
    report = PropertyReport("augmented_relations")
    pi, _ = _permutations(ctx)
    units = [rho_basis_entry(ctx, c * n) for c in range(n)]

    def w_fails(p, a, b, c):
        # at p >= 1 the sides are e_{pi_a c, b} and e_{sigma_a c, pi_a^{-1} sigma_a b};
        # the second indices differ iff pi_a b != sigma_a b, where the first
        # indices differ at (p, a, 0, b), scanned no later: the first decide
        s = sigma[a]
        if p == 0:
            return (b == c) != (s[b] == s[c])
        return pi[a][c] != s[c]

    def h_fails(a, b):
        (rb, sb), (ra, sa) = units[b], units[a]
        return ((rb, a) if sb == b else None) != ((b, sa) if ra == a else None)

    levels = range(MAX_LEVEL + 1)
    w = next(((p, a, b, c) for p in levels for a, b, c in iproduct(range(n), repeat=3)
              if w_fails(p, a, b, c)), None)
    report.add("w_exchange", w is None, witness=w)

    w = next(((p, a, b) for p in levels[1:] for a, b in iproduct(range(n), repeat=2)
              if h_fails(a, b)), None)
    report.add("h_transport", w is None, witness=w)

    w = next(((p, a, b, c) for p in levels[1:] for a, b, c in iproduct(range(n), repeat=3)
              if c not in (a, b) and (units[c][1] == b or units[c][0] == a)), None)
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


def coproduct_table(n: int) -> dict:
    """Delta(L^{(m)}_{a,b}) for m <= COPRODUCT_LEVEL, as two-slot free tensors."""
    return {
        (m, a, b): coproduct_gen(m, a, b, n)
        for m in range(1, COPRODUCT_LEVEL + 1)
        for a in range(n)
        for b in range(n)
    }


def coassociativity_report(n: int) -> PropertyReport:
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every generator of level
    m <= COPRODUCT_LEVEL, symbolically.

    Decided on one (a, b) per S_n orbit at each level; the witness is the
    first failing (m, a, b).  The table keeps every generator, because a
    word's image needs each of its letters.
    """
    table = coproduct_table(n)

    def fails(m, a, b):
        d = table[(m, a, b)]
        return tensor_coproduct(d, 0, table) != tensor_coproduct(d, 1, table)

    report = PropertyReport("coassociativity")
    pairs = [t for t, _ in _patterns(n, 2)]
    w = next(((m, a, b) for m in range(1, COPRODUCT_LEVEL + 1) for a, b in pairs
              if fails(m, a, b)), None)
    report.add("coassociativity", w is None, witness=w, detail={"max_level": COPRODUCT_LEVEL})
    return report


def antipode_series(n: int) -> tuple[dict, PropertyReport]:
    """Solve the antipode recursion and verify both one-sided identities vanish.

    Returns the table s(L^{(m)}_{a,b}) for m <= MAX_LEVEL together with a
    report asserting sum_c sum_k s(L^{(k)}_{c,b}) L^{(m-k)}_{a,c} = 0 and
    sum_c sum_k L^{(k)}_{c,b} s(L^{(m-k)}_{a,c}) = 0 in the free algebra.
    The table is full; the identities are decided on one (a, b) per S_n orbit
    at each level, and a witness is the first failing (m, a, b).
    """
    table = antipode_table(n)
    report = PropertyReport("antipode_series")

    def s_of(k, c, b):
        return gen(0, c, b) if k == 0 else table[(k, c, b)]

    for m in range(1, MAX_LEVEL + 1):
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


def adjudicate_twisted_coproduct(ctx: AlgebraContext) -> PropertyReport:
    """Which summation range of the displayed twisted coproduct matches conjugation.

    For each level m <= ADJUDICATION_LEVEL the displayed formula

        Delta_F(L^{(m)}_{a,b}) = sum_{k} sum_c L^{(k)}_{c,b} h_c (x) w_b^{-1} L^{(m-k)}_{a,c} w_c

    is evaluated in the representation under both candidate ranges (k = 1..m
    and k = 0..m) and compared against F . image(Delta(L^{(m)}_{a,b})) . F^{-1},
    where Delta itself is taken both with its standard range (k = 0..m) and
    with the truncated range (k = 1..m).  Every comparison outcome is
    recorded; the check passes when the adjudication is conclusive, i.e. each
    comparison resolves identically for every (a, b).
    """
    n = ctx.n
    units = [rho_basis_entry(ctx, c * n) for c in range(n)]
    w, w_rows = _permutations(ctx)
    w_inv = [w[g] for g in ctx.circle_inv]
    f = _as_mapping(twist_matrix(ctx))
    f_inv_rows = _perm_inverse(_as_mapping(rho(ctx, ctx.twist_inv)))

    def sums(m, a, b):
        # (row, col) -> [display k=0..m, display k=1..m, conjugated k=0..m, conjugated
        # k=1..m] for the display sum_{k,c} L_{c,b} h_c (x) w_b^{-1} L_{a,c} w_c and the
        # conjugation F (sum_{k,c} L_{c,b} (x) L_{a,c}) F^{-1}, every product on indices
        acc: dict = {}
        for k in range(m + 1):
            for c in range(n):
                rc, sc = units[c]
                left, right = _eval_image(n, k, c, b).coeffs, _eval_image(n, m - k, a, c).coeffs
                for (r1, c1), v1 in left.items():
                    for (r2, c2), v2 in right.items():
                        v = v1 * v2
                        entry = acc.setdefault((f[r1 * n + r2], f_inv_rows[c1 * n + c2]),
                                               [0, 0, 0, 0])
                        entry[2] += v
                        entry[3] += v if k else 0
                        if c1 == rc:
                            entry = acc.setdefault((r1 * n + w_inv[b][r2], sc * n + w_rows[c][c2]),
                                                   [0, 0, 0, 0])
                            entry[0] += v
                            entry[1] += v if k else 0
        return acc.values()

    comparisons = {
        "display_1m_vs_conjugated_standard": (1, 0),
        "display_0m_vs_conjugated_standard": (0, 0),
        "display_1m_vs_conjugated_truncated": (1, 1),
        "display_0m_vs_conjugated_truncated": (0, 1),
    }
    report = PropertyReport("twisted_coproduct_adjudication")
    results: dict = {name: set() for name in comparisons}
    for m in range(1, ADJUDICATION_LEVEL + 1):
        for a in range(n):
            for b in range(n):
                entries = sums(m, a, b)
                for name, (disp_kmin, delta_kmin) in comparisons.items():
                    results[name].add(all(e[disp_kmin] == e[2 + delta_kmin] for e in entries))
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
               detail={**outcomes, "conclusion": conclusion,
                       "max_level": ADJUDICATION_LEVEL})
    return report
