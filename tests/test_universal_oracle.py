"""The universal identities against their tensor oracles.

``verify_hopf_axioms`` decides coassociativity, the counit and the antipode
row by row on the structure-map tables and ``prod``; ``oracle_hopf_axioms``
applies the slot maps to whole tensors, one basis element at a time, and
multiplies the coproducts pair by pair.  ``verify_universal_ybe``,
``verify_quasitriangularity``, ``verify_twist_conditions`` and
``nfold_twist(ctx, 3)`` read the products R13 R23, R13 R12 and F23 F_{1,23}
that the context builds once; their oracles form every product anew in its
three-factor bracketing.  The two routes must give equal reports (names,
verdicts, witnesses, detail), on failing subjects too: the universal YBE, the
cocycle and the 3-fold exchange laws fail on the sampled order-6 contexts with
non-abelian addition, and corrupted tables and overrides fail everywhere.
"""

from __future__ import annotations

import pytest

import ybtwist as yb
from conftest import (oracle_hopf_axioms, oracle_nfold_twist3, oracle_quasitriangularity,
                      oracle_twist_conditions, oracle_universal_ybe)
from ybtwist.algebra import (AlgebraContext, nfold_twist, verify_hopf_axioms, verify_quasitriangularity,
                             verify_twist_conditions, verify_universal_ybe)


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
        # the twisted antipode is defined for braces only
        assert (report.ok if ctx.is_brace or not twisted
                else report == ("ValidationFailure", "not_a_brace", None))


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("row", [1, 6, 8], ids=["h0w1", "h1w2", "h2w2"])
def test_hopf_axioms_corrupted_antipode(z3_squared_brace, monkeypatch, twisted, row):
    # one antipode image moved to the next basis element: only the antipode law
    # can see it, at the first row of Delta whose terms reach the moved image
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


def test_shared_products_are_built_once(z6_brace):
    ctx = AlgebraContext(z6_brace)
    verify_universal_ybe(ctx)
    shared = ctx._r13_r23, ctx._r13_r12
    verify_quasitriangularity(ctx)
    verify_twist_conditions(ctx)
    f3 = ctx._f23_f1_23
    nfold_twist(ctx, 3)
    assert (ctx._r13_r23, ctx._r13_r12, ctx._f23_f1_23) == (*shared, f3)
    assert ctx._r13_r23 is shared[0] and ctx._f23_f1_23 is f3


def test_overrides_form_their_own_products(contexts):
    # a corrupted R or F passed in must not read the context's shared products;
    # the swapped R terms of the perfbench negative control break the YBE only
    # where the first two terms of R do not commute past the others
    ybe_failures = 0
    for ctx in contexts[1:]:
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
