"""The entry statuses of ``suites._run`` and the level ceilings, on the paths a
catalog of orders up to 6 never takes."""

from __future__ import annotations

from ybtwist import algebra
from ybtwist.suites import _run, matrix_suite, universal_suite


def test_order9_skips_the_matrix_nfold_twist(z3_squared_brace):
    # a LimitExceeded raised inside a check is a skipped entry carrying its message
    checks = matrix_suite(z3_squared_brace)
    entry = checks[-1]
    assert entry["name"] == "matrix.nfold_twist" and entry["status"] == "skipped"
    assert entry["witness"] == "n^4 = 6561 exceeds the matrix-level guard"
    assert [c["status"] for c in checks[:-1]] == ["pass"] * (len(checks) - 1)


def test_universal_ceiling_skips_the_level_in_one_entry(z3_squared_brace):
    assert universal_suite(z3_squared_brace, 4) == [{
        "name": "universal.all", "anchor": "tensor-cube checks over the n^2-dimensional algebra",
        "status": "skipped", "millis": 0, "witness": "order 9 above universal ceiling 4"}]


def test_a_check_returning_false_fails_without_witness(z4_radical, s3_trivial_skew, monkeypatch):
    checks: list = []
    assert _run(checks, "x", "anchor", lambda: False) is None
    assert checks[0]["status"] == "fail" and "witness" not in checks[0]

    def cocommutativity(brace):
        return next(c for c in universal_suite(brace, 6) if c["name"] == "universal.cocommutativity")

    # Delta^op = Delta is decided against abelian addition: it passes on both kinds
    # of addition, and fails on each when is_cocommutative says the opposite
    assert cocommutativity(z4_radical)["status"] == cocommutativity(s3_trivial_skew)["status"] == "pass"
    for brace, wrong in ((z4_radical, False), (s3_trivial_skew, True)):
        monkeypatch.setattr(algebra, "is_cocommutative", lambda ctx, wrong=wrong: wrong)
        entry = cocommutativity(brace)
        assert entry["status"] == "fail" and "witness" not in entry
