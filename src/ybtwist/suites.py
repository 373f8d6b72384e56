"""Named verification suites over a single brace.

Each check carries a stable name, a human-readable statement of the identity
it decides (the ``anchor``), a pass/fail/skipped status, the first witness on
failure, and its wall time in milliseconds (a float with microsecond
resolution).  Check names map one-to-one onto the public operations of the
library.
"""

from __future__ import annotations

import time

from . import algebra, braces, matrices, yangian
from .braces import SkewBrace
from .errors import CheckFailed, LimitExceeded, ValidationFailure

LEVELS = ("map", "matrix", "universal", "yangian")

#: Universal and yangian levels are capped by default: tensor cubes over the
#: n^2-dimensional algebra, and products of polynomial matrices on the n^3
#: space, grow fast past order 4.
UNIVERSAL_CEILING = 4
YANGIAN_CEILING = 4
SYMBOLIC_LEVEL = 3
ADJUDICATION_LEVEL = 2


def _run(checks: list[dict], name: str, anchor: str, fn, detail=None) -> None:
    t0 = time.perf_counter()
    status, witness = "pass", None
    try:
        result = fn()
    except (ValidationFailure, CheckFailed) as exc:
        status, witness = "fail", {"error": exc.kind, "witness": exc.witness}
    except LimitExceeded as exc:
        status, witness = "skipped", str(exc)
    else:
        if result is True or result is None:
            pass
        elif result is False:
            status = "fail"
        else:  # a PropertyReport
            if not result.ok:
                status = "fail"
                first = result.failures()[0]
                witness = {"check": first.name, "witness": first.witness}
    millis = round((time.perf_counter() - t0) * 1000, 3)
    entry = {"name": name, "anchor": anchor, "status": status, "millis": millis}
    if witness is not None:
        entry["witness"] = witness
    if detail is not None:
        entry["detail"] = detail
    checks.append(entry)


def _run_n_only(checks: list[dict], shared: dict | None, name: str, anchor: str,
                n: int, fn) -> None:
    """Run a check that depends on n alone, once per (name, n) in ``shared``.

    A later subject of the same order gets a copy of the first entry with
    ``millis`` 0 and ``"reused": True``; status, witness and detail are the
    same.  Without ``shared`` the check simply runs.
    """
    if shared is not None and (name, n) in shared:
        checks.append({**shared[(name, n)], "millis": 0, "reused": True})
        return
    _run(checks, name, anchor, fn)
    if shared is not None:
        shared[(name, n)] = checks[-1]


def _skip(checks: list[dict], name: str, anchor: str, reason: str) -> None:
    checks.append({"name": name, "anchor": anchor, "status": "skipped",
                   "millis": 0, "witness": reason})


def _info(checks: list[dict], name: str, anchor: str, detail) -> None:
    checks.append({"name": name, "anchor": anchor, "status": "pass",
                   "millis": 0, "detail": detail})


def _context(brace: SkewBrace, checks: list[dict]) -> algebra.AlgebraContext | None:
    state: dict = {}
    _run(checks, "universal.construction",
         "basis product is associative; unit is two-sided; w_0 is central",
         lambda: state.__setitem__("ctx", algebra.AlgebraContext(brace)))
    return state.get("ctx")


def map_suite(brace: SkewBrace) -> list[dict]:
    checks: list[dict] = []
    state: dict = {}
    _run(checks, "map.derive",
         "sigma_a(b) = -a + a o b ; sigma_{sigma_a(b)}(tau_b(a)) = a ; rows are permutations",
         lambda: state.__setitem__("m", braces.derive_sigma_tau(brace)))
    if "m" not in state:
        _skip(checks, "map.braid", "(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r)",
              "map derivation failed")
        return checks
    m = state["m"]
    _run(checks, "map.braid", "(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r)",
         lambda: braces.check_braid(m))
    _run(checks, "map.properties",
         "sigma_a(b) o tau_b(a) = -a + a o b + a ; sigma_a sigma_b = sigma_{a o b} ; neutral values",
         lambda: braces.check_brace_identities(brace))
    _info(checks, "map.involutive", "r(r(a, b)) = (a, b) [reported, never asserted]",
          {"holds": braces.is_involutive(m)})
    return checks


def matrix_suite(brace: SkewBrace) -> list[dict]:
    checks: list[dict] = []
    state: dict = {}

    def build():
        ctx = algebra.AlgebraContext(brace)
        state["ctx"] = ctx
        state["r"] = matrices.solution_matrix(ctx)
        matrices.twist_matrix(ctx)

    _run(checks, "matrix.rep_consistency",
         "rho x rho of the universal twist and R-matrix equal their combinatorial forms",
         build)
    if "r" not in state:
        return checks
    ctx, r = state["ctx"], state["r"]
    _run(checks, "matrix.rho_homomorphism", "rho(x y) = rho(x) rho(y)",
         lambda: matrices.rho_is_homomorphism(ctx))
    _run(checks, "matrix.ybe", "R12 R13 R23 = R23 R13 R12",
         lambda: matrices.check_matrix_ybe(r))
    _run(checks, "matrix.combinatorial", "exactly one 1 in every row and column",
         lambda: matrices.check_combinatorial(r))
    _run(checks, "matrix.reversible", "R12 R21 = 1",
         lambda: matrices.check_reversibility(r))
    _run(checks, "matrix.braid_bridge", "braid operator = P R",
         lambda: matrices.braid_matrix(ctx.ybmap) and True)
    _run(checks, "matrix.nfold_twist", "leg twists: recursion = closed form; exchange via R",
         lambda: matrices.nfold_twist_matrix(ctx, 4)[1])
    return checks


def universal_suite(brace: SkewBrace, ceiling: int = UNIVERSAL_CEILING) -> list[dict]:
    checks: list[dict] = []
    if brace.n > ceiling:
        _skip(checks, "universal.all", "tensor-cube checks over the n^2-dimensional algebra",
              f"order {brace.n} above universal ceiling {ceiling}")
        return checks
    ctx = _context(brace, checks)
    if ctx is None:
        return checks
    _run(checks, "universal.twisted_r",
         "F F^{-1} = 1 x 1 ; F^op F^{-1} = sum h_b w_{a^{-1}} x h_a w_{sigma_a(b)}",
         lambda: ctx.twisted_r_matrix and True)
    _run(checks, "universal.twist_conditions",
         "F12 F12,3 = F23 F1,23 ; leg symmetries ; exchange with R",
         lambda: algebra.verify_twist_conditions(ctx))
    _run(checks, "universal.ybe", "R12 R13 R23 = R23 R13 R12 in A x A x A",
         lambda: algebra.verify_universal_ybe(ctx))
    _run(checks, "universal.hopf", "coproduct/counit/antipode axioms, untwisted",
         lambda: algebra.verify_hopf_axioms(ctx))
    if brace.is_brace:
        _run(checks, "universal.cocommutativity", "Delta^op = Delta for abelian addition",
             lambda: algebra.is_cocommutative(ctx))
        _run(checks, "universal.hopf_twisted", "coproduct/counit/antipode axioms, twisted",
             lambda: algebra.verify_hopf_axioms(ctx, twisted=True))
        _run(checks, "universal.quasitriangularity",
             "R Delta_F = Delta_F^op R ; fusion identities ; counit laws",
             lambda: algebra.verify_quasitriangularity(ctx))
    else:
        _skip(checks, "universal.hopf_twisted", "coproduct/counit/antipode axioms, twisted",
              "twisted antipode requires abelian addition")
        _info(checks, "universal.quasitriangularity",
              "R Delta_F = Delta_F^op R ; fusion identities ; counit laws [exploratory]",
              {c.name: c.passed for c in algebra.verify_quasitriangularity(ctx).checks})
    _run(checks, "universal.nfold_twist",
         "three-fold twist: recursion = closed form; exchange via R",
         lambda: algebra.nfold_twist(ctx, 3)[1])
    return checks


def yangian_suite(brace: SkewBrace, ceiling: int = YANGIAN_CEILING,
                  shared: dict | None = None) -> list[dict]:
    """RTT-layer checks of one brace.

    Six checks are n-only: ``defining_relations``, ``displayed_relations``,
    ``unitarity``, ``rtt``, ``coassociativity`` and ``antipode_series``.  Their
    functions take only n (plus the module constants ``yangian.MAX_LEVEL`` and
    ``SYMBOLIC_LEVEL``), never the brace's sigma/tau, twist or context, so
    (check name, n) determines the verdict.  With a ``shared`` dict (one per
    verify run) each is decided once per (name, n) and reused for every later
    subject of that order; see ``_run_n_only``.
    """
    checks: list[dict] = []
    n = brace.n
    if n > ceiling:
        _skip(checks, "yangian.all", "pole-cleared RTT checks and symbolic series",
              f"order {n} above yangian ceiling {ceiling}")
        return checks
    state: dict = {}
    _run(checks, "yangian.context",
         "sigma/tau derivation and algebra tables for the twisted layer",
         lambda: state.__setitem__("ctx", algebra.AlgebraContext(brace)))
    if "ctx" not in state:
        return checks
    ctx = state["ctx"]
    _run_n_only(checks, shared, "yangian.defining_relations",
                "[A^{p+1}, A^m] - [A^p, A^{m+1}] = A^m A^p - A^p A^m in the evaluation image",
                n, lambda: yangian.check_defining_relations(n))
    _run_n_only(checks, shared, "yangian.displayed_relations",
                "the four low-order exchange relations, evaluated explicitly",
                n, lambda: yangian.check_displayed_exchange_relations(n))
    _run_n_only(checks, shared, "yangian.unitarity",
                "R(l) P R(-l) P = (1 - (l1-l2)^{-2}) 1, poles cleared: (1 - (l1-l2)^2) 1",
                n, lambda: yangian.unitarity_report(n))
    _run_n_only(checks, shared, "yangian.rtt",
                "R12 L1 L2 = L2 L1 R12 as polynomial matrices, each factor times its pole",
                n, lambda: yangian.check_rtt(n))
    _run(checks, "yangian.augmented_relations",
         "w_a L_{b,c} = L_{sigma_a(b),sigma_a(c)} w_a ; idempotent transport/annihilation",
         lambda: yangian.check_augmented_relations(ctx))
    _run(checks, "yangian.twisted_rtt",
         "R^F = r + P/lambda = F^op R F^{-1} ; twisted RTT identity, each factor times its pole",
         lambda: yangian.check_twisted_rtt(ctx))
    _run_n_only(checks, shared, "yangian.coassociativity",
                "(Delta x id) Delta = (id x Delta) Delta, symbolic",
                n, lambda: yangian.coassociativity_report(n, SYMBOLIC_LEVEL))
    _run_n_only(checks, shared, "yangian.antipode_series",
                "sum_k s(A^k) A^{m-k} = sum_k A^k s(A^{m-k}) = 0 in the free algebra",
                n, lambda: yangian.antipode_series(n, yangian.MAX_LEVEL)[1])
    _run(checks, "yangian.twisted_coproduct_adjudication",
         "which displayed summation range reproduces F Delta F^{-1}",
         lambda: yangian.adjudicate_twisted_coproduct(ctx, ADJUDICATION_LEVEL))
    return checks


def run_suites(brace: SkewBrace, level: str, ceilings: dict | None = None,
               shared: dict | None = None) -> list[dict]:
    """Run one named level, or all of them, over a single brace.

    ``shared`` is the n-only verdict store of one verify run, passed to
    ``yangian_suite``; leave it out to decide every check afresh.
    """
    ceilings = ceilings or {}
    out: list[dict] = []
    selected = LEVELS if level == "all" else (level,)
    for lv in selected:
        if lv == "map":
            out.extend(map_suite(brace))
        elif lv == "matrix":
            out.extend(matrix_suite(brace))
        elif lv == "universal":
            out.extend(universal_suite(brace, ceilings.get("universal", UNIVERSAL_CEILING)))
        elif lv == "yangian":
            out.extend(yangian_suite(brace, ceilings.get("yangian", YANGIAN_CEILING), shared))
        else:
            raise ValidationFailure("bad_level", lv, f"unknown level {lv!r}")
    return out
