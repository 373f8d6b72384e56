"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every identity is checked in exact arithmetic; the tolerance everywhere is
exact equality.  Enumeration counts are pinned against the independent
brute-force oracle in conftest, never against the library's own search.
"""

from __future__ import annotations

import json
import time

import ybtwist as yb
from ybtwist import jsonio
from ybtwist.algebra import nfold_twist, verify_hopf_axioms
from ybtwist.cli import main
from ybtwist.matrices import ExactMatrix, nfold_twist_matrix, rho_basis_entry
from ybtwist.suites import run_suites
from ybtwist.yangian import (
    adjudicate_twisted_coproduct,
    antipode_series,
    check_defining_relations,
    check_rtt,
    check_twisted_rtt,
    twisted_r_lambda,
    yangian_r,
)
from conftest import oracle_brace_pairs


def _report(number: int, label: str, passed: bool, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} ({time.perf_counter() - started:.2f}s)")
    assert passed, f"criterion {number}: {label}"


def test_criterion_1_brace_to_solution_pipeline(braces_up_to_4):
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        found = braces_up_to_4[n]
        oracle = oracle_brace_pairs(n, skew=True)
        ok &= [(b.add.table, b.mul.table) for b in found] == oracle
        full = set(range(n))
        for b in found:
            m = yb.derive_sigma_tau(b)
            ok &= all(set(row) == full for row in m.sigma)
            ok &= all(set(row) == full for row in m.tau)
            ok &= all(
                m.sigma[m.sigma[a][c]][m.tau[c][a]] == a
                for a in range(n) for c in range(n)
            )
            ok &= yb.check_braid(m).ok
    _report(1, "enumerated braces at orders 1-4 yield nondegenerate braid solutions", ok, t0)


def test_criterion_2_matrix_layer(braces_up_to_4, z6_brace):
    t0 = time.perf_counter()
    ok = True
    subjects = [b for bs in braces_up_to_4.values() for b in bs] + [z6_brace]
    for b in subjects:
        ctx = yb.algebra_from_brace(b)
        r = yb.solution_matrix(ctx)
        ok &= yb.check_matrix_ybe(r).ok
        ok &= yb.check_combinatorial(r)
        ok &= yb.check_reversibility(r)
    _report(2, "combinatorial R passes matrix YBE/reversibility up to order 4 and at order 6", ok, t0)


def test_criterion_3_universal_layer(braces_up_to_4):
    t0 = time.perf_counter()
    ok = True
    for bs in braces_up_to_4.values():
        for b in bs:
            ctx = yb.algebra_from_brace(b)  # associativity, unit, central w_0
            ok &= yb.verify_twist_conditions(ctx).ok
            ok &= yb.verify_universal_ybe(ctx).ok
            ok &= verify_hopf_axioms(ctx).ok
            ok &= verify_hopf_axioms(ctx, twisted=True).ok
            ok &= yb.verify_quasitriangularity(ctx).ok
            ok &= yb.is_cocommutative(ctx)
    _report(3, "twist cocycle, universal YBE, both Hopf suites, quasi-triangularity at orders <= 4", ok, t0)


def test_criterion_4_nfold_twist(braces_up_to_4):
    t0 = time.perf_counter()
    ok = True
    for bs in braces_up_to_4.values():
        for b in bs:
            ctx = yb.algebra_from_brace(b)
            for k in (3, 4):
                _, rep = nfold_twist(ctx, k)
                ok &= rep.ok
                _, repm = nfold_twist_matrix(ctx, k)
                ok &= repm.ok
    _report(4, "k=3,4 leg twists: recursion = closed form; exchange law, universal and matrix", ok, t0)


def test_criterion_5_yangian_layer(braces_up_to_4, z4_radical_ctx):
    t0 = time.perf_counter()
    ok = True
    # (a) defining relations, zero violations, p,m <= 4, n <= 4
    for n in (2, 3, 4):
        rep = check_defining_relations(n, 4, 4)
        ok &= rep.ok and rep.checks[0].detail["violations"] == 0
    # (b) RTT as an exact polynomial-matrix identity, every factor times its pole
    for n in (2, 3, 4):
        ok &= check_rtt(n).ok
    # (c) twisted RTT for every brace of order <= 4
    for bs in braces_up_to_4.values():
        for b in bs:
            ok &= check_twisted_rtt(yb.algebra_from_brace(b)).ok
    # (d) antipode series: displayed levels 1..3 term for term, vanishing at 4
    from ybtwist.ncpoly import gen

    table, rep = antipode_series(2)
    ok &= rep.ok
    for a in range(2):
        for b in range(2):
            ok &= table[(1, a, b)] == -gen(1, a, b)
            e2 = -gen(2, a, b)
            e3 = -gen(3, a, b)
            for c in range(2):
                e2 = e2 + gen(1, c, b) * gen(1, a, c)
                e3 = e3 + gen(1, c, b) * gen(2, a, c) + gen(2, c, b) * gen(1, a, c)
                for d in range(2):
                    e3 = e3 - gen(1, d, b) * gen(1, c, d) * gen(1, a, c)
            ok &= table[(2, a, b)] == e2
            ok &= table[(3, a, b)] == e3
    # (e) the summation-range adjudication is definitive at levels <= 2
    rep = adjudicate_twisted_coproduct(z4_radical_ctx)
    ok &= rep.ok
    detail = rep.check("adjudication").detail
    ok &= detail["display_1m_vs_conjugated_truncated"] is True
    ok &= detail["display_0m_vs_conjugated_standard"] is False
    _report(5, "defining relations, RTT, twisted RTT, antipode displays, range adjudication", ok, t0)


def test_criterion_6_negative_controls(tmp_path, capsys, z4_radical_ctx):
    t0 = time.perf_counter()
    ok = True
    # map level: sigma_a(b) = b + a with tau = id breaks the braid relation
    # (r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r): on (a, b, c) the two
    # sides' first coordinates are 2a + b + c and a + b + c
    sigma = tuple(tuple((b + a) % 3 for b in range(3)) for a in range(3))
    tau = tuple(tuple(range(3)) for _ in range(3))
    rep = yb.check_braid(yb.YBMap(3, sigma, tau))
    ok &= (not rep.ok) and rep.checks[0].witness is not None
    # matrix level: transposed images reverse every product, so rho(x y) =
    # rho(x) rho(y) fails on the first basis pair whose images do not commute
    ctx = z4_radical_ctx

    def transposed(i):
        r, c = rho_basis_entry(ctx, i)
        return ExactMatrix(ctx.n, {(c, r): 1})

    rep = yb.rho_is_homomorphism(ctx, images=transposed)
    ok &= (not rep.ok) and rep.checks[0].witness is not None
    # universal level: the flipped coefficient of h_0 (x) h_0 in the twist
    # breaks the cocycle F12 F_{12,3} = F23 F_{1,23}: it moves the left side
    # only at first leg h_0, the right side at every first leg
    corrupted = dict(ctx.twist.coeffs)
    key = next(iter(corrupted))
    corrupted[key] = -corrupted[key]
    rep = yb.verify_twist_conditions(ctx, twist=ctx.tensor(2, corrupted))
    ok &= (not rep.check("cocycle").passed) and rep.check("cocycle").witness is not None
    # universal level: two swapped R terms.  The first leg's counit image of
    # R' is 1 + h_0 - h_{1^-1}, not 1, so the counit laws fail on every
    # subject; the universal YBE sees the swap here, on the radical brace, but
    # not on every subject
    coeffs = dict(ctx.twisted_r_matrix.coeffs)
    k1, k2 = sorted(coeffs)[:2]
    coeffs[k1], coeffs[k2] = coeffs[k2] + 1, coeffs[k1] - 1
    rep = yb.verify_universal_ybe(ctx, rf=ctx.tensor(2, coeffs))
    ok &= not rep.ok
    swapped = yb.algebra_from_brace(ctx.brace)  # a fresh context with R' cached
    swapped._twisted_r = swapped.tensor(2, coeffs).coeffs
    counit = yb.verify_quasitriangularity(swapped).check("counit_laws")
    ok &= (not counit.passed) and counit.witness is not None
    # yangian level: transposed evaluation images reverse every product and
    # break the defining relation at levels (p, m); a shifted pole of the first
    # L leg breaks R12 L1 L2 = L2 L1 R12 with the poles cleared
    ok &= not check_defining_relations(2, 2, 2, transpose=True).ok
    ok &= not check_rtt(2, corrupt_shift=2).ok
    # exit codes: parse failure is 2, a failing executed check is 1 (the S_3
    # opposite skew brace's tau rows are not permutations, so map.derive fails)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 1], [1, 1]]}))
    ok &= main(["verify", str(bad)]) == 2
    s3 = [g for g in yb.enumerate_group_tables(6) if not g.is_abelian][0]
    opp = yb.validate_group([[s3.table[b][a] for b in range(6)] for a in range(6)])
    skew = yb.validate_brace(s3, opp)  # degenerate tau: map.derive fails
    skew_file = tmp_path / "skew.json"
    skew_file.write_text(json.dumps(jsonio.encode_brace(skew)))
    ok &= main(["verify", str(skew_file), "--level", "map"]) == 1
    capsys.readouterr()
    _report(6, "every suite detects its injected corruption; exit codes reflect failure", ok, t0)


def test_criterion_7_edge_cases(braces_up_to_4):
    t0 = time.perf_counter()
    ok = True
    # the order-1 brace passes every suite with nothing skipped
    b1 = braces_up_to_4[1][0]
    checks = run_suites(b1, "all")
    ok &= all(c["status"] == "pass" for c in checks)
    # trivial braces: identity solution matrix; twisted RTT collapses to RTT
    for n in range(2, 5):
        triv = yb.trivial_brace(n)
        ctx = yb.algebra_from_brace(triv)
        ok &= yb.solution_matrix(ctx) == ExactMatrix.identity(n * n)
        ok &= twisted_r_lambda(ctx) == yangian_r(n)
        ok &= check_twisted_rtt(ctx).ok
    triv6 = yb.trivial_brace(6)
    ctx6 = yb.algebra_from_brace(triv6)
    ok &= yb.solution_matrix(ctx6) == ExactMatrix.identity(36)
    _report(7, "order-1 brace passes everything; trivial braces reduce to the untwisted layer", ok, t0)
