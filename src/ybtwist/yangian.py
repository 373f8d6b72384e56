"""Exact verification of the RTT layer: defining relations in the evaluation
representation, the rational R-matrix, twisted R and L operators, and the
symbolic coproduct/antipode series of the level generators.

R = 1 + P/(lambda1 - lambda2), L = 1 + P/(lambda - 1), R^F and L^F each have
one known scalar pole.  Every operator is multiplied by its own pole, so an
identity between products of them becomes an identity between
integer-coefficient polynomial matrices (``ExactMatrix`` over ``BivarPoly``)
with the same non-zero scalar on both sides, and is decided by exact
coefficient comparison; a failure's witness is the first differing entry
(``PropertyReport.compare``).  The three-leg identities (RTT and twisted RTT)
share one product, ``matrices._ybe_sides``, and the evaluation images of the
level generators are built once per process (``_eval_image``).  Symbolic
identities live in the free noncommutative algebra.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product as iproduct
from operator import ne

from .algebra import AlgebraContext
from .errors import LimitExceeded
from .matrices import (ExactMatrix, _ybe_sides, embed_legs, flip_matrix, kron, rho, rho_tensor,
                       solution_matrix, twist_matrix)
from .ncpoly import NCPoly, antipode_table, coproduct_gen, gen, tensor_coproduct
from .rational import BivarPoly
from .reports import PropertyReport

MAX_LEVEL = 4


def _spacing() -> BivarPoly:
    """lambda1 - lambda2, the pole of R and R^F."""
    return BivarPoly.var(0) - BivarPoly.var(1)


def _flip(n: int) -> ExactMatrix:
    """The flip P on the n^2 space, with constant-polynomial entries.

    Every entry of a cleared operator is then a ``BivarPoly`` callers can evaluate.
    """
    return BivarPoly.const(1) * flip_matrix(n)


def _l_cleared(n: int, var: int, shift: int = 1) -> ExactMatrix:
    """(lambda_var - shift) L = (lambda_var - shift) 1 + P on the (auxiliary, quantum) legs."""
    return (BivarPoly.var(var) - shift) * ExactMatrix.identity(n * n) + _flip(n)


# ------------------------------------------------------------ the R-matrix


def yangian_r(n: int) -> ExactMatrix:
    """(lambda1 - lambda2) R = (lambda1 - lambda2) 1 + P on the n^2 space.

    R(lambda1, lambda2) = 1 + P / (lambda1 - lambda2), carrying its pole as a factor.
    """
    if n < 1:
        raise LimitExceeded("n must be at least 1")
    return _spacing() * ExactMatrix.identity(n * n) + _flip(n)


def unitarity_report(n: int) -> PropertyReport:
    """R(lambda) P R(-lambda) P = (1 - (lambda1 - lambda2)^{-2}) . 1, exactly.

    With the poles cleared, u = lambda1 - lambda2: (u 1 + P) P (-u 1 + P) P = (1 - u^2) . 1.
    """
    u = _spacing()
    lhs = yangian_r(n) * embed_legs(-u * ExactMatrix.identity(n * n) + _flip(n), n, 2, (1, 0))
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
    """
    img = partial(_eval_image, n, transpose=transpose)
    report = PropertyReport("defining_relations")
    violations = 0
    first = None
    for p in range(pmax + 1):
        for m in range(mmax + 1):
            for i, j, k, l in iproduct(range(n), repeat=4):
                lhs = _comm(img(p + 1, i, j), img(m, k, l)) - _comm(img(p, i, j), img(m + 1, k, l))
                rhs = img(m, k, j) * img(p, i, l) - img(p, k, j) * img(m, i, l)
                if lhs != rhs:
                    violations += 1
                    if first is None:
                        first = (p, m, i, j, k, l)
    report.add("relations", violations == 0, witness=first,
               detail={"violations": violations, "pmax": pmax, "mmax": mmax})
    return report


def check_displayed_exchange_relations(n: int) -> PropertyReport:
    """The four displayed low-order cases, evaluated in the representation."""
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
    for name, case in cases.items():
        w = next((t for t in iproduct(range(n), repeat=4) if ne(*case(*t))), None)
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
    l1 = _l_cleared(n, 0, corrupt_shift if corrupt_shift is not None else 1)
    report = PropertyReport("rtt")
    report.compare("rtt", *_ybe_sides(yangian_r(n), l1, _l_cleared(n, 1), n))
    return report


# --------------------------------------------------------- augmented relations


def check_augmented_relations(ctx: AlgebraContext, pmax: int = MAX_LEVEL) -> PropertyReport:
    """The mixed exchange relations between w_a, h_a and the level generators.

    In the representation: w_a L^{(p)}_{b,c} = L^{(p)}_{sigma_a(b), sigma_a(c)} w_a
    for p >= 0, h_b L^{(p)}_{a,b} = L^{(p)}_{a,b} h_a, and h_c annihilates
    L^{(p)}_{a,b} on both sides for c outside {a, b} (p >= 1; the level-0
    symbol is a multiple of the unit, which no idempotent annihilates).
    """
    n = ctx.n
    report = PropertyReport("augmented_relations")
    w_mats = [rho(ctx, ctx.w(a)) for a in range(n)]
    e_mats = [rho(ctx, ctx.h(c)) for c in range(n)]
    img = partial(_eval_image, n)
    sigma = ctx.sigma

    w = next(((p, a, b, c) for p in range(pmax + 1) for a, b, c in iproduct(range(n), repeat=3)
              if w_mats[a] * img(p, b, c) != img(p, sigma[a][b], sigma[a][c]) * w_mats[a]), None)
    report.add("w_exchange", w is None, witness=w)

    w = next(((p, a, b) for p in range(pmax + 1) for a, b in iproduct(range(n), repeat=2)
              if e_mats[b] * img(p, a, b) != img(p, a, b) * e_mats[a]), None)
    report.add("h_transport", w is None, witness=w)

    zero = ExactMatrix.zero(n)
    w = next(((p, a, b, c) for p in range(1, max(pmax, 1) + 1)
              for a, b, c in iproduct(range(n), repeat=3) if c not in (a, b)
              and (e_mats[c] * img(p, a, b) != zero or img(p, a, b) * e_mats[c] != zero)), None)
    report.add("h_annihilation", w is None, witness=w)
    return report


# ------------------------------------------------------------ twisted objects


def twisted_r_lambda(ctx: AlgebraContext) -> ExactMatrix:
    """(lambda1 - lambda2) R^F = (lambda1 - lambda2) r + P, r the combinatorial solution.

    R^F(lambda) = r + P / (lambda1 - lambda2), carrying its pole as a factor.
    """
    n = ctx.n
    return _spacing() * solution_matrix(ctx) + _flip(n)


def twisted_l(ctx: AlgebraContext, var: int = 0, shift: int = 1) -> ExactMatrix:
    """(lambda - shift) L^F = F^op ((lambda - shift) 1 + P) F^{-1} on (auxiliary, quantum).

    L^F(lambda) = F^op L(lambda) F^{-1}, carrying the pole of L as a factor;
    ``var`` names the spectral parameter lambda.
    """
    n = ctx.n
    f_op = embed_legs(twist_matrix(ctx), n, 2, (1, 0))
    return f_op * _l_cleared(n, var, shift) * rho_tensor(ctx, ctx.twist_inv)


def check_twisted_rtt(ctx: AlgebraContext) -> PropertyReport:
    """The twisted RTT identity, plus the conjugation form of R^F(lambda), poles cleared.

    Checks, on the n^3 space with the quantum leg in its evaluation image:
      (a) R^F(lambda) = F^op R(lambda) F^{-1}  (two-leg identity, times l1 - l2);
      (b) R^F_12(l1 - l2) L^F_1(l1) L^F_2(l2) = L^F_2(l2) L^F_1(l1) R^F_12(l1 - l2)
          (times (l1 - l2)(l1 - 1)(l2 - 1)).
    """
    n = ctx.n
    report = PropertyReport("twisted_rtt")

    rf = twisted_r_lambda(ctx)
    f_op = embed_legs(twist_matrix(ctx), n, 2, (1, 0))
    report.compare("conjugation_form", rf, f_op * yangian_r(n) * rho_tensor(ctx, ctx.twist_inv))
    report.compare("twisted_rtt", *_ybe_sides(rf, twisted_l(ctx, 0), twisted_l(ctx, 1), n))
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
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every generator, symbolically."""
    def fails(m, a, b):
        d = coproduct_gen(m, a, b, n)
        return tensor_coproduct(d, 0, n) != tensor_coproduct(d, 1, n)

    report = PropertyReport("coassociativity")
    w = next((key for key in iproduct(range(1, max_level + 1), range(n), range(n))
              if fails(*key)), None)
    report.add("coassociativity", w is None, witness=w, detail={"max_level": max_level})
    return report


def antipode_series(n: int, max_level: int = MAX_LEVEL) -> tuple[dict, PropertyReport]:
    """Solve the antipode recursion and verify both one-sided identities vanish.

    Returns the table s(L^{(m)}_{a,b}) for m <= max_level together with a
    report asserting sum_c sum_k s(L^{(k)}_{c,b}) L^{(m-k)}_{a,c} = 0 and
    sum_c sum_k L^{(k)}_{c,b} s(L^{(m-k)}_{a,c}) = 0 in the free algebra.
    """
    if not 1 <= max_level <= MAX_LEVEL:
        raise LimitExceeded(f"level {max_level} outside 1..{MAX_LEVEL}")
    table = antipode_table(n, max_level)
    report = PropertyReport("antipode_series")

    def s_of(k, c, b):
        return gen(0, c, b) if k == 0 else table[(k, c, b)]

    for m in range(1, max_level + 1):
        w_left = w_right = None
        for a in range(n):
            for b in range(n):
                left = NCPoly.zero()
                right = NCPoly.zero()
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
    dim = n * n

    e_mats = [rho(ctx, ctx.h(c)) for c in range(n)]
    w_mats = [rho(ctx, ctx.w(g)) for g in range(n)]
    w_inv_mats = [rho(ctx, ctx.w_inv(g)) for g in range(n)]
    f_mat = twist_matrix(ctx)
    f_inv_mat = rho_tensor(ctx, ctx.twist_inv)
    img = partial(_eval_image, n)

    def delta_image(m, a, b, kmin):
        acc = ExactMatrix.zero(dim)
        for k in range(kmin, m + 1):
            for c in range(n):
                acc = acc + kron(img(k, c, b), img(m - k, a, c))
        return acc

    def display_image(m, a, b, kmin):
        acc = ExactMatrix.zero(dim)
        for k in range(kmin, m + 1):
            for c in range(n):
                left = img(k, c, b) * e_mats[c]
                right = w_inv_mats[b] * img(m - k, a, c) * w_mats[c]
                acc = acc + kron(left, right)
        return acc

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
                disp = {1: display_image(m, a, b, 1), 0: display_image(m, a, b, 0)}
                conj = {
                    0: f_mat * delta_image(m, a, b, 0) * f_inv_mat,
                    1: f_mat * delta_image(m, a, b, 1) * f_inv_mat,
                }
                for name, (disp_kmin, delta_kmin) in comparisons.items():
                    results[name].add(disp[disp_kmin] == conj[delta_kmin])
    outcomes: dict = {}
    conclusive = True
    for name, seen in results.items():
        if len(seen) != 1:
            conclusive = False
            outcomes[name] = "mixed"
        else:
            outcomes[name] = seen.pop()

    if outcomes.get("display_1m_vs_conjugated_truncated") is True:
        conclusion = (
            "the displayed k=1..m formula equals the conjugation of the k=1..m coproduct; "
            + ("the k=0..m display also reproduces the standard-range conjugation"
               if outcomes.get("display_0m_vs_conjugated_standard") is True
               else "under the standard k=0..m coproduct neither displayed range matches")
        )
    else:
        conclusion = "no displayed range reproduces any conjugation baseline"
    report.add(
        "adjudication", conclusive, detail={**outcomes, "conclusion": conclusion,
                                            "max_level": max_level},
    )
    return report
