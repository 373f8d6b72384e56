"""The universal identities against their tensor oracles.

``verify_hopf_axioms`` decides coassociativity, the counit and the antipode
on each row of the coproduct table through the slot kernel ``_on_slot`` and
``prod``; ``oracle_hopf_axioms`` applies the slot maps to whole tensors, one
basis element at a time, multiplies the slots with ``mul_slots`` and the
coproducts pair by pair.  ``verify_universal_ybe``,
``verify_quasitriangularity``, ``verify_twist_conditions`` and
``nfold_twist(ctx, 3)`` read the two families of 3-leg products that the
context builds once, the fusion family of R (R13 R23, R13 R12) and the cocycle
family of F (F12 F_{12,3}, F123 = F23 F_{1,23}, R12 F123, R23 F123), and an
override of R or F calls the same builder on it.  The cocycle family
multiplies F_{12,3} = (Delta (x) id)(F) formed in place, the operand of the
3-fold recursion, so ``nfold_twist`` takes its 3-fold step from it as is.
Their oracles form every product anew in its three-factor bracketing.  The two
routes must give equal reports (names, verdicts, witnesses, detail), on
failing subjects too: the universal YBE, the cocycle and the 3-fold exchange
laws fail on the sampled order-6 contexts with non-abelian addition, and
corrupted tables and overrides fail everywhere.
The universal YBE does not see every corruption of R: R with its h_0 (x) h_0
term dropped, negated or doubled still satisfies it on every brace, and only
the fusion identities and the counit laws fail.  The last test pins, over
every context of orders 2-6, the negative controls that must fail there and
the laws that see them.
"""

from __future__ import annotations

import pytest

import conftest
import ybtwist as yb
from conftest import (oracle_hopf_axioms, oracle_nfold_twist3, oracle_quasitriangularity,
                      oracle_twist_conditions, oracle_universal_ybe)
from ybtwist import algebra
from ybtwist.algebra import (AlgebraContext, nfold_twist, verify_hopf_axioms, verify_quasitriangularity,
                             verify_twist_conditions, verify_universal_ybe)
from ybtwist.suites import universal_suite


def outcome(fn, *args, **kwargs):
    """The report of fn, or the kind and witness of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except (yb.ValidationFailure, yb.CheckFailed) as exc:
        return type(exc).__name__, exc.kind, exc.witness


@pytest.fixture(scope="module")
def hopf_subjects(braces_up_to_4, z6_brace, order6_nonabelian, z3_squared_brace):
    """Every context of orders 1-4, two of order 6 (one with non-abelian
    addition) and the order-9 brace whose sigma_g are not involutions."""
    braces = [b for n in sorted(braces_up_to_4) for b in braces_up_to_4[n]]
    return [AlgebraContext(b) for b in braces + [z6_brace, order6_nonabelian, z3_squared_brace]]


def test_hopf_subjects(hopf_subjects):
    assert len(hopf_subjects) == 13 + 3
    assert sum(not ctx.is_brace for ctx in hopf_subjects) == 1


@pytest.mark.parametrize("twisted", [False, True])
def test_hopf_axioms_match_oracle(hopf_subjects, twisted):
    for ctx in hopf_subjects:
        report = outcome(verify_hopf_axioms, ctx, twisted)
        assert report == outcome(oracle_hopf_axioms, ctx, twisted), ctx.brace.mul.table
        assert report.ok, (ctx.brace.mul.table, report.failures())


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("row", [1, 6, 8, 13], ids=["h0w1", "h1w2", "h2w2", "h1w4"])
def test_hopf_axioms_corrupted_antipode(z3_squared_brace, monkeypatch, twisted, row):
    # one antipode image moved to the next basis element: only the antipode law
    # can see it, at the first row of Delta whose terms reach the moved image
    # (for the twisted h1w4, through m (id (x) s~) first)
    ctx = AlgebraContext(z3_squared_brace)
    name = "s_twisted" if twisted else "s"
    corrupted = [dict(image) for image in getattr(ctx, name)]
    ((i,), c), = corrupted[row].items()
    corrupted[row] = {((i + 1) % ctx.dim,): c}
    monkeypatch.setattr(ctx, name, corrupted)
    report = verify_hopf_axioms(ctx, twisted=twisted)
    assert [c.name for c in report.checks if not c.passed] == ["antipode"]
    assert report == oracle_hopf_axioms(ctx, twisted)


@pytest.mark.parametrize("name", ["cop", "twisted_cop"])
@pytest.mark.parametrize("row", [0, 4, 40])
def test_hopf_axioms_corrupted_coproduct_rows(z3_squared_brace, monkeypatch, name, row):
    # a dropped term: every law but the homomorphism may see it first at
    # another row, whose terms reach the corrupted one
    ctx = AlgebraContext(z3_squared_brace)
    corrupted = [dict(image) for image in getattr(ctx, name)]
    del corrupted[row][max(corrupted[row])]
    monkeypatch.setattr(ctx, name, corrupted)
    report = verify_hopf_axioms(ctx, twisted=name == "twisted_cop")
    assert not report.ok
    assert report == oracle_hopf_axioms(ctx, name == "twisted_cop")


@pytest.mark.parametrize("name", ["cop", "twisted_cop"])
@pytest.mark.parametrize("slot", [0, 1])
def test_hopf_axioms_counit_reads_each_slot(z3_squared_brace, monkeypatch, name, slot):
    # the dropped term of row 40 (h_4 w_4) is the one whose slot ``slot`` has
    # counit 1 and whose other slot has counit 0: only eps at ``slot`` misses it
    ctx = AlgebraContext(z3_squared_brace)
    corrupted = [dict(image) for image in getattr(ctx, name)]
    n = ctx.n
    del corrupted[40][next(k for k in sorted(corrupted[40]) if k[slot] < n <= k[1 - slot])]
    monkeypatch.setattr(ctx, name, corrupted)
    report = verify_hopf_axioms(ctx, twisted=name == "twisted_cop")
    assert report.check("counit").witness == 40
    assert report == oracle_hopf_axioms(ctx, name == "twisted_cop")


SHARED = {
    "ybe": (verify_universal_ybe, oracle_universal_ybe),
    "quasitriangularity": (verify_quasitriangularity, oracle_quasitriangularity),
    "twist_conditions": (verify_twist_conditions, oracle_twist_conditions),
    "nfold_twist": (lambda ctx: nfold_twist(ctx, 3)[1], oracle_nfold_twist3),
}


@pytest.mark.parametrize("name", sorted(SHARED))
def test_shared_products_match_bracketed_oracle(contexts, name):
    route, oracle = SHARED[name]
    failing = 0
    for ctx in contexts:
        report = route(ctx)
        assert report == oracle(ctx), (ctx.brace.add.table, ctx.brace.mul.table)
        failing += not report.ok
    # the sampled contexts with non-abelian addition, whose witnesses are compared
    # (quasitriangularity is exploratory there, but still reports its failures)
    assert failing == 12


SHARED_PRODUCTS = {"_f_12_3": 1, "_f_1_23": 1, "_fusion": 2, "_cocycle": 4}  # name: dicts it holds


def test_shared_products_are_built_once(z6_brace):
    ctx = AlgebraContext(z6_brace)
    verify_universal_ybe(ctx)
    verify_twist_conditions(ctx)
    built = {name: getattr(ctx, name) for name in SHARED_PRODUCTS}
    for name, size in SHARED_PRODUCTS.items():
        dicts = built[name] if size > 1 else (built[name],)
        assert type(dicts) is tuple and len(dicts) == size and all(type(c) is dict and c for c in dicts), name
    verify_quasitriangularity(ctx)
    verify_universal_ybe(ctx)
    verify_twist_conditions(ctx)
    nfold_twist(ctx, 3)
    assert all(getattr(ctx, name) is c for name, c in built.items())


def test_universal_suite_leg_product_calls(z6_brace, monkeypatch):
    # the two families save four joins a context: R13 once for both fusion
    # sides, and the 3-fold recursion's first bracketing and its two exchange
    # products read from the cocycle family's F12 F_{12,3}, R12 F123 and
    # R23 F123.  The twisted antipode s~ = U s U^{-1} is two joins, U on the left
    # of the table s, then U^{-1} on the right of every row
    calls = []
    kernel = algebra._leg_products

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(algebra, "_leg_products", counting)
    checks = universal_suite(z6_brace, 6)
    assert all(c["status"] == "pass" for c in checks if c["status"] != "info")
    assert len(calls) == 20


def test_exploratory_quasitriangularity_entry_is_run_and_timed(order6_nonabelian, monkeypatch):
    # on non-abelian addition the entry only reports, but it runs the whole
    # check through ``_run``: it is timed, and an error raised there is a fail
    # entry with its kind and witness, and the suite goes on
    name = "universal.quasitriangularity"
    entry = next(c for c in universal_suite(order6_nonabelian, 6) if c["name"] == name)
    report = verify_quasitriangularity(AlgebraContext(order6_nonabelian))
    assert entry["status"] == "pass" and entry["millis"] > 0
    assert entry["detail"] == {c.name: c.passed for c in report.checks}

    def raising(ctx):
        raise yb.CheckFailed("twisted_coproduct_closed_form", ("w", 1))

    monkeypatch.setattr(algebra, "verify_quasitriangularity", raising)
    checks = universal_suite(order6_nonabelian, 6)
    entry = next(c for c in checks if c["name"] == name)
    assert entry["status"] == "fail" and "detail" not in entry
    assert entry["witness"] == {"error": "twisted_coproduct_closed_form", "witness": ("w", 1)}
    assert checks[-1]["name"] == "universal.nfold_twist"


@pytest.mark.parametrize("corrupt", ["slot_coproduct", "closed_form"])
def test_nfold_twist_step_3_multiplies_the_in_place_piece(contexts, monkeypatch, corrupt):
    # one term negated in the slot coproduct, or in the closed form of F_{12,3}.
    # The cocycle family's F12 F_{12,3} multiplies (Delta (x) id)(F) formed in
    # place, as the 3-fold recursion does, so a corrupted slot coproduct breaks
    # the recursion and the cocycle with one witness on every context, and a
    # corrupted closed form leaves nfold_twist as it is and is seen only by the
    # coproduct images.  The oracle multiplies its own piece in place.
    def negated_first(t):
        coeffs = dict(t.coeffs)
        key = min(coeffs)
        coeffs[key] = -coeffs[key]
        return t._like(coeffs)

    true_piece, true_f_12_3 = algebra.slot_coproduct, algebra._twist_12_3
    if corrupt == "slot_coproduct":
        def piece(t, slot, twisted=False):
            return negated_first(true_piece(t, slot, twisted))
        for module in (algebra, conftest):
            monkeypatch.setattr(module, "slot_coproduct", piece)
    else:
        monkeypatch.setattr(algebra, "_twist_12_3", lambda ctx: negated_first(true_f_12_3(ctx)))
    failing = 0
    for ctx in contexts:
        ctx = AlgebraContext(ctx.brace)
        where = (ctx.brace.add.table, ctx.brace.mul.table)
        conditions = verify_twist_conditions(ctx)
        report = nfold_twist(ctx, 3)[1]
        assert report == oracle_nfold_twist3(ctx), where
        assert not conditions.check("coproduct_images").passed, where
        if corrupt == "slot_coproduct":
            recursion, cocycle = report.check("recursion_3_fold"), conditions.check("cocycle")
            assert not recursion.passed and recursion.witness == cocycle.witness is not None, where
        failing += not report.ok
    assert failing == (len(contexts) if corrupt == "slot_coproduct" else 12)


def test_overrides_form_their_own_products(contexts):
    # a corrupted R or F passed in must not read the context's shared products;
    # the swapped R terms of the perfbench negative control break the YBE only
    # where the first two terms of R do not commute past the others.  The
    # context's own R and F passed in give the reports without an override, so
    # both routes run the same builder.
    ybe_failures = 0
    for ctx in contexts[1:]:
        assert verify_universal_ybe(ctx, rf=ctx.twisted_r_matrix) == verify_universal_ybe(ctx)
        assert verify_twist_conditions(ctx, twist=ctx.twist) == verify_twist_conditions(ctx)
        coeffs = dict(ctx.twisted_r_matrix.coeffs)
        k1, k2 = sorted(coeffs)[:2]
        coeffs[k1], coeffs[k2] = coeffs[k2] + 1, coeffs[k1] - 1
        bad_r = ctx.tensor(2, coeffs)
        report = verify_universal_ybe(ctx, rf=bad_r)
        assert report == oracle_universal_ybe(ctx, rf=bad_r)
        ybe_failures += not report.ok
        flipped = dict(ctx.twist.coeffs)
        key = sorted(flipped)[len(flipped) // 2]
        flipped[key] = -flipped[key]
        bad_f = ctx.tensor(2, flipped)
        report = verify_twist_conditions(ctx, twist=bad_f)
        assert report == oracle_twist_conditions(ctx, twist=bad_f)
        assert not report.check("cocycle").passed
    assert ybe_failures == 23


@pytest.mark.parametrize("factor", [0, -1, 2], ids=["dropped", "negated", "doubled"])
def test_h0_h0_term_of_r_is_seen_by_fusion_and_counit_only(contexts, factor):
    # R with its h_0 (x) h_0 term dropped, negated or doubled still satisfies the
    # universal YBE and intertwines Delta_F on every brace: only the fusion
    # identities and the counit laws see it.  The corrupted R is cached on a
    # fresh context, so the shared fusion sides are formed from it.
    braces = [ctx.brace for ctx in contexts if ctx.is_brace and ctx.n >= 2]
    assert len(braces) == 30
    for brace in braces:
        ctx = AlgebraContext(brace)
        coeffs = dict(ctx.twisted_r_matrix.coeffs)
        assert coeffs[(0, 0)] == 1
        coeffs[(0, 0)] *= factor
        bad_r = ctx.tensor(2, coeffs)
        ctx._twisted_r = bad_r.coeffs
        assert verify_universal_ybe(ctx, rf=bad_r).ok, brace.mul.table
        report = verify_quasitriangularity(ctx)
        assert [c.name for c in report.failures()] == [
            "fusion_first_leg", "fusion_second_leg", "counit_laws"], brace.mul.table


def _with_r(brace, coeffs: dict) -> AlgebraContext:
    """A fresh context whose cached R is ``coeffs``, so its fusion family is
    formed from that R."""
    ctx = AlgebraContext(brace)
    ctx._twisted_r = ctx.tensor(2, coeffs).coeffs
    return ctx


def _seen(report, *names) -> bool:
    """Whether each named check of ``report`` fails with a witness."""
    return all(not (c := report.check(name)).passed and c.witness is not None for name in names)


def test_negative_controls_fail_on_every_context(all_contexts):
    contexts = [ctx for ctx in all_contexts if ctx.n > 1]
    assert len(contexts) == 218
    ybe_failures = 0
    for ctx in contexts:
        where = (ctx.brace.add.table, ctx.brace.mul.table)
        # F with its middle coefficient negated.  (eps (x) id) Delta = id, so Delta
        # is injective and (Delta (x) id)(F') != F_{12,3}.  The cocycle holds for
        # F, and F' changes F23 F_{1,23} at every first leg h_a but F12 F_{12,3}
        # only at the first leg of the negated term, so for n >= 2 it fails.
        f = dict(ctx.twist.coeffs)
        key = sorted(f)[len(f) // 2]
        f[key] = -f[key]
        assert _seen(verify_twist_conditions(ctx, twist=ctx.tensor(2, f)), "cocycle", "coproduct_images"), where
        # R with its h_0 (x) h_0 coefficient doubled.  eps(h_0) = 1, so
        # (eps (x) id)(R') = 1 + h_0 breaks the counit laws; eps on the outer leg
        # turns each fusion identity into R' = (counit image) R', which the
        # broken counit image breaks too.
        r = dict(ctx.twisted_r_matrix.coeffs)
        r[(0, 0)] *= 2
        assert _seen(verify_quasitriangularity(_with_r(ctx.brace, r)),
                     "counit_laws", "fusion_first_leg", "fusion_second_leg"), where
        # perfbench's "swapped R terms": the two least keys of R, h_0 (x) h_0 and
        # h_0 w_1 (x) h_{1^-1}, get 2 and 0, so (eps (x) id)(R') = 1 + h_0 -
        # h_{1^-1} and the counit and fusion laws fail as above.  The universal
        # YBE sees it on only 132 of the 218 contexts: a documented blind spot,
        # and the perfbench gate, which reads the YBE, catches it only because
        # it runs on the order-4 radical brace.
        r = dict(ctx.twisted_r_matrix.coeffs)
        k1, k2 = sorted(r)[:2]
        r[k1], r[k2] = r[k2] + 1, r[k1] - 1
        swapped = _with_r(ctx.brace, r)
        assert _seen(verify_quasitriangularity(swapped), "counit_laws", "fusion_first_leg", "fusion_second_leg"), where
        ybe_failures += not verify_universal_ybe(swapped).ok
    assert ybe_failures == 132
