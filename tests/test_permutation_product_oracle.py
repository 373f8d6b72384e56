"""The permutation and RTT identities as products of weighted permutations,
against their ExactMatrix oracles.

``check_matrix_ybe``, ``check_reversibility``, ``braid_matrix``,
``unitarity_report``, ``check_rtt`` and ``check_twisted_rtt`` expand each side
over one permutation per factor and multiply only the weights
(``matrices._product``).  Their oracles in ``conftest.py`` materialise every
operator as an ``ExactMatrix``, place it on its legs digit by digit and
multiply the matrices.  The two routes must give equal reports (names,
verdicts, witnesses) for n = 1-5, on every context of orders 1-5, on a seeded
sample of order-6 contexts, on the order-9 brace (twisted RTT), and under a
shifted L pole, a corrupted solution and a corrupted twist.
"""

from __future__ import annotations

import random

import pytest

import ybtwist as yb
from conftest import (oracle_braid_matrix, oracle_matrix_ybe, oracle_reversibility, oracle_rtt,
                      oracle_twisted_rtt, oracle_unitarity_report)
from ybtwist import yangian
from ybtwist.matrices import ExactMatrix
from ybtwist.yangian import check_rtt, check_twisted_rtt, unitarity_report


def swapped_rows(m: ExactMatrix, i: int, j: int) -> ExactMatrix:
    t = {i: j, j: i}
    return ExactMatrix(m.dim, {(t.get(r, r), c): v for (r, c), v in m.coeffs.items()})


def outcome(fn, *args):
    """The result of fn, or the kind and witness of the CheckFailed it raises."""
    try:
        return fn(*args)
    except yb.CheckFailed as exc:
        return exc.kind, exc.witness


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unitarity_and_rtt_match_oracle(n):
    assert unitarity_report(n) == oracle_unitarity_report(n)
    assert check_rtt(n) == oracle_rtt(n)
    assert check_rtt(n).ok and unitarity_report(n).ok
    shifted = check_rtt(n, corrupt_shift=2)
    assert shifted == oracle_rtt(n, corrupt_shift=2)
    # on one dimension every operator is a scalar, so a shifted pole still commutes
    assert shifted.ok == (n == 1)


def test_twisted_rtt_matches_oracle(contexts):
    for ctx in contexts:
        report = check_twisted_rtt(ctx)
        assert report == oracle_twisted_rtt(ctx), (ctx.brace.add.table, ctx.brace.mul.table)
        assert report.ok


def test_twisted_rtt_matches_oracle_on_order9(z3_squared_brace):
    # on every context of orders 1-6 each sigma_g is an involution, and the
    # twisted RTT holds with L1 placed on legs (2, 0) as well as (0, 2); the
    # order-9 brace, whose sigma_g have order 3, tells the two apart
    ctx = yb.algebra_from_brace(z3_squared_brace)
    report = check_twisted_rtt(ctx)
    assert report == oracle_twisted_rtt(ctx)
    assert report.ok


@pytest.mark.parametrize("patched", ["solution_matrix", "twist_matrix"])
def test_corrupted_operator_matches_oracle(contexts, monkeypatch, patched):
    # two rows of r, or of F, swapped: both routes read the patched function
    rng = random.Random(11)
    true = getattr(yangian, patched)
    failed = checked = 0
    for ctx in contexts:
        if ctx.n == 1:
            continue
        i, j = rng.sample(range(ctx.n ** 2), 2)
        monkeypatch.setattr(yangian, patched, lambda c, i=i, j=j: swapped_rows(true(c), i, j))
        report = check_twisted_rtt(ctx)
        assert report == oracle_twisted_rtt(ctx)
        monkeypatch.undo()
        checked += 1
        failed += not report.ok
    assert failed == checked


def test_matrix_checks_match_oracle(contexts):
    for ctx in contexts:
        r = yb.solution_matrix(ctx)
        report = yb.check_matrix_ybe(r)
        assert report == oracle_matrix_ybe(r)
        assert report.ok
        assert yb.check_reversibility(r) is oracle_reversibility(r) is True
        assert yb.braid_matrix(ctx.ybmap) == oracle_braid_matrix(ctx.ybmap)


def test_matrix_checks_on_swapped_rows_match_oracle(contexts):
    rng = random.Random(13)
    failed = 0
    for ctx in contexts:
        if ctx.n == 1:
            continue
        bad = swapped_rows(yb.solution_matrix(ctx), *rng.sample(range(ctx.n ** 2), 2))
        report = yb.check_matrix_ybe(bad)
        assert report == oracle_matrix_ybe(bad)
        assert yb.check_reversibility(bad) == oracle_reversibility(bad)
        failed += not report.ok
    assert failed > 0


def test_braid_bridge_on_corrupted_tau_matches_oracle(contexts):
    # tau_b read one place on: the bridge holds or fails alike on both routes
    mismatches = 0
    for ctx in contexts:
        m = ctx.ybmap
        n = m.n
        tau = tuple(tuple(row[(a + 1) % n] for a in range(n)) for row in m.tau)
        bad = yb.YBMap(n, m.sigma, tau)
        result = outcome(yb.braid_matrix, bad)
        assert result == outcome(oracle_braid_matrix, bad)
        mismatches += result == ("bridge_mismatch", None)
    assert mismatches > 0
