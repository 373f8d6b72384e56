"""Named verification suites over a single brace.

Each check carries a stable name, a human-readable statement of the identity
it decides (the ``anchor``), a pass/fail/skipped status, the first witness on
failure, and its wall time in milliseconds (a float with microsecond
resolution).  Check names map one-to-one onto the public operations of the
library.

Work that more than one entry needs is decided once and reused: a brace's
``AlgebraContext`` once per ``run_suites`` call, by the first level that needs
it, and the n-only yangian checks once per order in a verify run.  A reused
entry keeps its own name and anchor, has the first run's status and witness,
and carries ``"millis": 0`` and ``"reused": true``.
"""

from __future__ import annotations

import time

from . import algebra, braces, matrices, yangian
from .braces import SkewBrace
from .errors import CheckFailed, LimitExceeded, ValidationFailure
from .reports import PropertyReport

LEVELS = ("map", "matrix", "universal", "yangian")

#: Universal and yangian levels are capped by default: tensor cubes over the
#: n^2-dimensional algebra, and products of polynomial matrices on the n^3
#: space, grow fast past order 4.
UNIVERSAL_CEILING = 4
YANGIAN_CEILING = 4


def _run(checks: list[dict], name: str, anchor: str, fn):
    """Append the entry of one check; return what ``fn`` returned if it passed, else None.

    ``fn`` passes unless it raises, returns False or returns a failing report.
    """
    t0 = time.perf_counter()
    status, witness, result = "pass", None, None
    try:
        result = fn()
    except (ValidationFailure, CheckFailed) as exc:
        status, witness = "fail", {"error": exc.kind, "witness": exc.witness}
    except LimitExceeded as exc:
        status, witness = "skipped", str(exc)
    else:
        if result is False:
            status = "fail"
        elif isinstance(result, PropertyReport) and not result.ok:
            status = "fail"
            first = result.failures()[0]
            witness = {"check": first.name, "witness": first.witness}
    millis = round((time.perf_counter() - t0) * 1000, 3)
    entry = {"name": name, "anchor": anchor, "status": status, "millis": millis}
    if witness is not None:
        entry["witness"] = witness
    checks.append(entry)
    return result if status == "pass" else None


def _once(store: dict | None, key, fn):
    """``fn()``, computed once per ``key`` of ``store``.

    A later call returns the same value, or raises the same exception, without
    calling ``fn``.  Without ``store`` ``fn`` simply runs.
    """
    if store is None:
        return fn()
    if key not in store:
        try:
            store[key] = (fn(), None)
        except (ValidationFailure, CheckFailed, LimitExceeded) as exc:
            store[key] = (None, exc.with_traceback(None))
    value, exc = store[key]
    if exc is not None:
        raise exc
    return value


def _run_once(checks: list[dict], store: dict | None, key, name: str, anchor: str, fn):
    """``_run`` over ``_once``: a reused entry gets ``millis`` 0 and ``"reused": True``.

    It is decided from the stored value or exception, so its status and
    witness are those of the first run.
    """
    reused = store is not None and key in store
    result = _run(checks, name, anchor, lambda: _once(store, key, fn))
    if reused:
        checks[-1].update(millis=0, reused=True)
    return result


def _skip(checks: list[dict], name: str, anchor: str, reason: str) -> None:
    checks.append({"name": name, "anchor": anchor, "status": "skipped",
                   "millis": 0, "witness": reason})


def map_suite(brace: SkewBrace) -> list[dict]:
    checks: list[dict] = []
    m = _run(checks, "map.derive",
             "sigma_a(b) = -a + a o b ; sigma_{sigma_a(b)}(tau_b(a)) = a ; rows are permutations",
             lambda: braces.derive_sigma_tau(brace))
    if m is None:
        _skip(checks, "map.braid", "(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r)",
              "map derivation failed")
        return checks
    _run(checks, "map.braid", "(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r)",
         lambda: braces.check_braid(m))
    _run(checks, "map.properties",
         "sigma_a(b) o tau_b(a) = -a + a o b + a ; sigma_a sigma_b = sigma_{a o b} ; neutral values ; "
         "a o b = sigma_a(b) o tau_b(a) iff a + a o b = a o b + a",
         lambda: braces.check_brace_identities(brace))
    _run(checks, "map.involutive", "r(r(a, b)) = (a, b)",
         lambda: braces.is_involutive(m))
    return checks


def matrix_suite(brace: SkewBrace, store: dict | None = None) -> list[dict]:
    """Matrix-level checks of one brace; ``store`` holds its context (see ``run_suites``)."""
    checks: list[dict] = []

    def build():
        ctx = _once(store, "context", lambda: algebra.AlgebraContext(brace))
        r = matrices.solution_matrix(ctx)
        matrices.twist_matrix(ctx)
        return ctx, r

    built = _run(checks, "matrix.rep_consistency",
                 "rho x rho of the universal twist and R-matrix equal their combinatorial forms",
                 build)
    if built is None:
        return checks
    ctx, r = built
    _run(checks, "matrix.rho_homomorphism", "rho(x y) = rho(x) rho(y)",
         lambda: matrices.rho_is_homomorphism(ctx))
    _run(checks, "matrix.ybe", "R12 R13 R23 = R23 R13 R12",
         lambda: matrices.check_matrix_ybe(r))
    _run(checks, "matrix.combinatorial", "exactly one 1 in every row and column",
         lambda: matrices.check_combinatorial(r))
    _run(checks, "matrix.reversible", "R12 R21 = 1",
         lambda: matrices.check_reversibility(r))
    _run(checks, "matrix.braid_bridge", "braid operator = P R",
         lambda: matrices.braid_matrix(ctx.ybmap))
    _run(checks, "matrix.nfold_twist", "leg twists: recursion = closed form; exchange via R",
         lambda: matrices.nfold_twist_matrix(ctx, 4)[1])
    return checks


def universal_suite(brace: SkewBrace, ceiling: int = UNIVERSAL_CEILING,
                    store: dict | None = None) -> list[dict]:
    """Universal-level checks of one brace; ``store`` holds its context (see ``run_suites``)."""
    checks: list[dict] = []
    if brace.n > ceiling:
        _skip(checks, "universal.all", "tensor-cube checks over the n^2-dimensional algebra",
              f"order {brace.n} above universal ceiling {ceiling}")
        return checks
    ctx = _run_once(checks, store, "context", "universal.construction",
                    "basis product is associative; unit is two-sided; w_0 is central",
                    lambda: algebra.AlgebraContext(brace))
    if ctx is None:
        return checks
    _run(checks, "universal.twisted_r",
         "F F^{-1} = 1 x 1 ; F^op F^{-1} = sum h_b w_{a^{-1}} x h_a w_{sigma_a(b)}",
         lambda: ctx.twisted_r_matrix)
    _run(checks, "universal.twist_conditions",
         "F12 F12,3 = F23 F1,23 ; leg symmetries ; exchange with R",
         lambda: algebra.verify_twist_conditions(ctx))
    _run(checks, "universal.ybe", "R12 R13 R23 = R23 R13 R12 in A x A x A",
         lambda: algebra.verify_universal_ybe(ctx))
    _run(checks, "universal.hopf", "coproduct/counit/antipode axioms, untwisted",
         lambda: algebra.verify_hopf_axioms(ctx))
    _run(checks, "universal.cocommutativity", "Delta^op = Delta iff addition is abelian",
         lambda: algebra.is_cocommutative(ctx) == brace.is_brace)
    _run(checks, "universal.hopf_twisted", "coproduct/counit/antipode axioms, twisted",
         lambda: algebra.verify_hopf_axioms(ctx, twisted=True))
    _run(checks, "universal.quasitriangularity",
         "R Delta_F(e_i) = Delta_F^op(e_i) R iff Delta(e_i) = Delta^op(e_i) ; "
         "fusion identities iff addition is abelian ; counit laws",
         lambda: algebra.verify_quasitriangularity(ctx))
    _run(checks, "universal.nfold_twist",
         "three-fold twist: recursion = closed form; exchange via R",
         lambda: algebra.nfold_twist(ctx, 3)[1])
    return checks


def yangian_suite(brace: SkewBrace, ceiling: int = YANGIAN_CEILING,
                  shared: dict | None = None, store: dict | None = None) -> list[dict]:
    """RTT-layer checks of one brace; ``store`` holds its context (see ``run_suites``).

    Six checks are n-only: ``defining_relations``, ``displayed_relations``,
    ``unitarity``, ``rtt``, ``coassociativity`` and ``antipode_series``.  Their
    functions take only n (each check's levels are constants of ``yangian``),
    never the brace's sigma/tau, twist or context, so
    (check name, n) determines the verdict.  With a ``shared`` dict (one per
    verify run) each is decided once per (name, n) and reused for every later
    subject of that order.  Their verdicts are also invariant under relabelling
    range(n), so ``yangian`` decides the index-tuple checks (defining and
    displayed relations, coassociativity, antipode series) on one tuple per
    S_n orbit.
    """
    checks: list[dict] = []
    n = brace.n
    if n > ceiling:
        _skip(checks, "yangian.all", "pole-cleared RTT checks and symbolic series",
              f"order {n} above yangian ceiling {ceiling}")
        return checks
    ctx = _run_once(checks, store, "context", "yangian.context",
                    "sigma/tau derivation and algebra tables for the twisted layer",
                    lambda: algebra.AlgebraContext(brace))
    if ctx is None:
        return checks

    def n_only(name: str, anchor: str, fn) -> None:
        _run_once(checks, shared, (name, n), name, anchor, fn)

    n_only("yangian.defining_relations",
           "[A^{p+1}, A^m] - [A^p, A^{m+1}] = A^m A^p - A^p A^m in the evaluation image",
           lambda: yangian.check_defining_relations(n))
    n_only("yangian.displayed_relations",
           "the four low-order exchange relations, evaluated explicitly",
           lambda: yangian.check_displayed_exchange_relations(n))
    n_only("yangian.unitarity",
           "R(l) P R(-l) P = (1 - (l1-l2)^{-2}) 1, poles cleared: (1 - (l1-l2)^2) 1",
           lambda: yangian.unitarity_report(n))
    n_only("yangian.rtt",
           "R12 L1 L2 = L2 L1 R12 as polynomial matrices, each factor times its pole",
           lambda: yangian.check_rtt(n))
    _run(checks, "yangian.augmented_relations",
         "w_a L_{b,c} = L_{sigma_a(b),sigma_a(c)} w_a ; idempotent transport/annihilation",
         lambda: yangian.check_augmented_relations(ctx))
    _run(checks, "yangian.twisted_rtt",
         "R^F = r + P/lambda = F^op R F^{-1} ; twisted RTT identity, each factor times its pole",
         lambda: yangian.check_twisted_rtt(ctx))
    n_only("yangian.coassociativity",
           "(Delta x id) Delta = (id x Delta) Delta, symbolic",
           lambda: yangian.coassociativity_report(n))
    n_only("yangian.antipode_series",
           "sum_k s(A^k) A^{m-k} = sum_k A^k s(A^{m-k}) = 0 in the free algebra",
           lambda: yangian.antipode_series(n)[1])
    _run(checks, "yangian.twisted_coproduct_adjudication",
         "which displayed summation range reproduces F Delta F^{-1}",
         lambda: yangian.adjudicate_twisted_coproduct(ctx))
    return checks


def run_suites(brace: SkewBrace, level: str, ceilings: dict | None = None,
               shared: dict | None = None) -> list[dict]:
    """Run one named level, or all of them, over a single brace.

    The brace's ``AlgebraContext`` is built once, by the first level that needs
    it, and later levels reuse it, or its failure, within this call only.
    ``shared`` is the n-only verdict store of one verify run, passed to
    ``yangian_suite``; leave it out to decide every check afresh.
    """
    ceilings = ceilings or {}
    store: dict = {}
    out: list[dict] = []
    selected = LEVELS if level == "all" else (level,)
    for lv in selected:
        if lv == "map":
            out.extend(map_suite(brace))
        elif lv == "matrix":
            out.extend(matrix_suite(brace, store))
        elif lv == "universal":
            out.extend(universal_suite(brace, ceilings.get("universal", UNIVERSAL_CEILING), store))
        elif lv == "yangian":
            out.extend(yangian_suite(brace, ceilings.get("yangian", YANGIAN_CEILING), shared,
                                     store))
        else:
            raise ValidationFailure("bad_level", lv, f"unknown level {lv!r}")
    return out
