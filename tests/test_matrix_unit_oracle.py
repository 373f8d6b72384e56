"""The per-brace matrix-unit identities on indices, against their ExactMatrix oracles.

``rho_is_homomorphism``, ``check_augmented_relations`` and
``adjudicate_twisted_coproduct`` decide their identities by index arithmetic
on matrix units and permutations.  Their oracles in ``conftest.py`` multiply
the same matrices as ``ExactMatrix`` products.  The two routes must give equal
reports (names, verdicts, witnesses, detail) on every context of orders 1-5,
on a seeded sample of order-6 contexts (half with non-abelian addition), on
the order-9 brace whose sigma_g are not involutions, and
under corrupted representations, products, sigma tables and (for the
adjudication) transposed evaluation images, off-diagonal level-0 images and
F^{-1} replaced by F.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

import ybtwist as yb
from conftest import oracle_adjudication, oracle_augmented_relations, oracle_rho_homomorphism
from ybtwist import yangian
from ybtwist.algebra import AlgebraContext
from ybtwist.matrices import ExactMatrix, rho_basis_entry
from ybtwist.yangian import adjudicate_twisted_coproduct, check_augmented_relations

ROUTES = {
    "rho_homomorphism": (yb.rho_is_homomorphism, oracle_rho_homomorphism),
    "augmented_relations": (check_augmented_relations, oracle_augmented_relations),
    "adjudication": (adjudicate_twisted_coproduct, lambda ctx: oracle_adjudication(ctx, 2)),
}


def outcome(fn, *args, **kwargs):
    """The report of fn, or the kind and witness of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except (yb.ValidationFailure, yb.CheckFailed) as exc:
        return type(exc).__name__, exc.kind, exc.witness


def test_sample_covers_both_additions(contexts):
    assert len(contexts) == 19 + 24
    assert sum(not c.brace.is_brace for c in contexts) == 12


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_index_route_matches_oracle(contexts, name):
    route, oracle = ROUTES[name]
    for ctx in contexts:
        report = route(ctx)
        assert report == oracle(ctx), (ctx.brace.n, ctx.brace.add.table, ctx.brace.mul.table)
        assert report.ok


def transposed(ctx):
    def images(i):
        r, c = rho_basis_entry(ctx, i)
        return ExactMatrix(ctx.n, {(c, r): 1})
    return images


def scaled(ctx, at):
    def images(i):
        return (2 if i == at else 1) * ExactMatrix(ctx.n, {rho_basis_entry(ctx, i): 1})
    return images


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_order9_index_route_matches_oracle(z3_squared_brace, name):
    # every sigma_g of orders 1-6 is an involution, so there rho(w_g) and
    # rho(w_g^{-1}) coincide; at order 9 they differ and the index rules must
    # tell them apart
    ctx = yb.algebra_from_brace(z3_squared_brace)
    assert any(ctx.sigma[g] != ctx.sigma[ctx.circle_inv[g]] for g in range(ctx.n))
    route, oracle = ROUTES[name]
    report = route(ctx)
    assert report == oracle(ctx)
    assert report.ok


def test_transposed_images_match_oracle(contexts):
    failed = 0
    for ctx in contexts:
        report = yb.rho_is_homomorphism(ctx, images=transposed(ctx))
        assert report == oracle_rho_homomorphism(ctx, images=transposed(ctx))
        failed += not report.ok
    assert failed > 0


def test_scaled_image_matches_oracle(contexts):
    for ctx in contexts:
        for at in {0, ctx.n + 1, ctx.dim - 1} & set(range(ctx.dim)):
            report = yb.rho_is_homomorphism(ctx, images=scaled(ctx, at))
            assert report == oracle_rho_homomorphism(ctx, images=scaled(ctx, at))
            assert not report.ok


def test_corrupted_product_entry_matches_oracle(contexts, monkeypatch):
    rng = random.Random(5)
    for ctx in contexts:
        if ctx.dim == 1:
            continue
        for _ in range(3):
            bad = list(ctx.prod)
            x = rng.randrange(len(bad))
            bad[x] = -1 if bad[x] >= 0 else rng.randrange(ctx.dim)
            monkeypatch.setattr(ctx, "prod", bad)
            report = yb.rho_is_homomorphism(ctx)
            assert report == oracle_rho_homomorphism(ctx)
            assert not report.ok
            monkeypatch.undo()


def test_transposed_eval_images_adjudication_matches_oracle(contexts, monkeypatch):
    # the index route reads the evaluation images at call time, like its oracle;
    # transposed images break the displayed k=1..m range on most contexts
    monkeypatch.setattr(yangian, "_eval_image", partial(yangian._eval_image, transpose=True))
    reports = [adjudicate_twisted_coproduct(ctx) for ctx in contexts]
    for ctx, report in zip(contexts, reports):
        assert report == oracle_adjudication(ctx, 2), (ctx.brace.add.table, ctx.brace.mul.table)
    assert sum(not r.ok for r in reports) > len(contexts) // 2


def test_corrupted_sigma_matches_oracle(z4_radical):
    # the control of test_augmented_relations_corrupted_sigma: sigma_1 is no
    # longer a permutation, while rho still reads the true ends
    ctx = yb.algebra_from_brace(z4_radical)
    bad = [list(row) for row in ctx.sigma]
    bad[1] = [0, 1, 2, 1]
    ctx.sigma = tuple(tuple(r) for r in bad)
    for name, (route, oracle) in ROUTES.items():
        assert outcome(route, ctx) == outcome(oracle, ctx), name
    assert not check_augmented_relations(ctx).check("w_exchange").passed
    assert outcome(adjudicate_twisted_coproduct, ctx)[:2] == ("CheckFailed", "representation_mismatch")


def test_bijective_sigma_corruption_matches_oracle(contexts, monkeypatch):
    # the last two entries of sigma_a swapped: no level-0 relation sees it (both
    # sides stay delta . 1 w_a), so w_exchange fails first at level 1, where
    # rho(w_a), read from the true ends, no longer moves e_{c,b} as sigma_a does
    failed = 0
    for ctx in contexts:
        if ctx.n < 2:
            continue
        a = ctx.n - 1
        bad = [list(row) for row in ctx.sigma]
        bad[a][-2], bad[a][-1] = bad[a][-1], bad[a][-2]
        monkeypatch.setattr(ctx, "sigma", tuple(tuple(r) for r in bad))
        for name, (route, oracle) in ROUTES.items():
            assert outcome(route, ctx) == outcome(oracle, ctx), name
        check = check_augmented_relations(ctx).check("w_exchange")
        failed += not check.passed
        assert check.passed or check.witness[:2] == (1, a)
        monkeypatch.undo()
    assert failed > 0


@pytest.mark.parametrize("end", ["source", "target"])
def test_swapped_unit_ends_match_oracle(contexts, monkeypatch, end):
    # one end of h_1 and h_2 swapped: rho(w_0) is still a permutation, so every
    # augmented relation is decided on the corrupted units (the adjudication
    # meets the corrupted rho(F) first), and each route must fail where its
    # oracle does
    for ctx in contexts:
        n = ctx.n
        if n < 3:
            continue
        bad = list(getattr(ctx, end))
        bad[n], bad[2 * n] = bad[2 * n], bad[n]
        monkeypatch.setattr(ctx, end, bad)
        for name, (route, oracle) in ROUTES.items():
            assert outcome(route, ctx) == outcome(oracle, ctx), name
        report = check_augmented_relations(ctx)
        assert not any(report.check(name).passed
                       for name in ("w_exchange", "h_transport", "h_annihilation"))
        monkeypatch.undo()


def _corrupted_sigma(ctx):
    # the last two entries of sigma_{n-1} swapped, as in the bijective control above
    bad = [list(row) for row in ctx.sigma]
    bad[-1][-2], bad[-1][-1] = bad[-1][-1], bad[-1][-2]
    return tuple(tuple(r) for r in bad)


def _swapped_source(ctx):
    # the source ends of h_1 and h_2 swapped, as in the unit-ends control above
    bad = list(ctx.source)
    bad[ctx.n], bad[2 * ctx.n] = bad[2 * ctx.n], bad[ctx.n]
    return bad


@pytest.mark.parametrize("corrupt", [None, ("sigma", _corrupted_sigma, 2),
                                     ("source", _swapped_source, 3)])
def test_augmented_levels_above_one_repeat_level_one(contexts, monkeypatch, corrupt):
    # check_augmented_relations scans p = 0 and p = 1 only; its oracle multiplies
    # the evaluation images of each level, and must give the same report
    # (witnesses included) at every pmax in 1..MAX_LEVEL, on every context of
    # orders 1-4, whole or corrupted
    failed = 0
    for ctx in (c for c in contexts if c.n <= 4):
        if corrupt is not None:
            attr, make, min_n = corrupt
            if ctx.n < min_n:
                continue
            monkeypatch.setattr(ctx, attr, make(ctx))
        report = check_augmented_relations(ctx)
        for pmax in range(1, yangian.MAX_LEVEL + 1):
            assert oracle_augmented_relations(ctx, pmax) == report, (pmax, ctx.brace.mul.table)
        assert all(c.passed or c.witness[0] <= 1 for c in report.checks)
        failed += not report.ok
        monkeypatch.undo()
    assert (failed == 0) == (corrupt is None)


def test_augmented_corrupted_sigma_at_every_level(z4_radical):
    # sigma_1 no longer a permutation: w_exchange fails at p = 0, where the
    # oracle at every pmax finds the same first witness
    ctx = yb.algebra_from_brace(z4_radical)
    bad = [list(row) for row in ctx.sigma]
    bad[1] = [0, 1, 2, 1]
    ctx.sigma = tuple(tuple(r) for r in bad)
    report = check_augmented_relations(ctx)
    assert not report.check("w_exchange").passed
    assert all(oracle_augmented_relations(ctx, pmax) == report
               for pmax in range(1, yangian.MAX_LEVEL + 1))


@pytest.mark.parametrize("image", [ExactMatrix(4, {}), ExactMatrix(4, {(0, 0): 1, (1, 1): 1})])
def test_image_that_is_not_a_matrix_unit_is_rejected(z4_radical_ctx, image):
    ctx = z4_radical_ctx

    def images(i):
        return image if i == 3 else ExactMatrix(ctx.n, {rho_basis_entry(ctx, i): 1})

    with pytest.raises(yb.ValidationFailure) as exc:
        yb.rho_is_homomorphism(ctx, images=images)
    assert (exc.value.kind, exc.value.witness) == ("not_a_matrix_unit", 3)


def test_off_diagonal_level0_images_adjudication_matches_oracle(contexts, monkeypatch):
    # L^{(0)}_{c,b} read as e_{c,b} off the diagonal and as zero on it: the
    # display's k = 0 term L_{c,b} h_c then vanishes, because rho(h_c) = e_{c,c}
    # meets only column c, while the conjugated k = 0 term does not; so the
    # k=0..m display reproduces the truncated conjugation wherever the k=1..m
    # display does, which a route keeping every column of the level-0 image misses
    clean = yangian._eval_image

    def images(n, m, i, j, transpose=False):
        if m:
            return clean(n, m, i, j, transpose)
        return ExactMatrix(n, {(i, j): 1} if i != j else {})

    assert all(rho_basis_entry(ctx, c * ctx.n) == (c, c) for ctx in contexts for c in range(ctx.n))
    monkeypatch.setattr(yangian, "_eval_image", images)
    for ctx in contexts:
        report = adjudicate_twisted_coproduct(ctx)
        assert report == oracle_adjudication(ctx, 2), (ctx.brace.add.table, ctx.brace.mul.table)
        detail = report.check("adjudication").detail
        if ctx.n > 1:
            assert detail["display_0m_vs_conjugated_truncated"] is True


def test_uninverted_twist_adjudication_matches_oracle(z3_squared_brace, monkeypatch):
    # F^{-1} replaced by F: the conjugation becomes F X F, which differs from
    # F X F^{-1} where rho(F) is not an involution, as on the order-9 brace;
    # the columns must go through the inverse of F^{-1}'s map, not through F's
    ctx = AlgebraContext(z3_squared_brace)
    monkeypatch.setattr(ctx, "_twist_inv", ctx._twist)
    report = adjudicate_twisted_coproduct(ctx)
    assert report == oracle_adjudication(ctx, 2)
    assert report.check("adjudication").detail["display_1m_vs_conjugated_truncated"] == "mixed"
