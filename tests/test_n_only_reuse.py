"""Work decided once and reused: each n-only yangian check once per order in a
verify run, and each brace's AlgebraContext once per run_suites call."""

from __future__ import annotations

import json

import pytest

import ybtwist as yb
from ybtwist import jsonio, yangian
from ybtwist.algebra import AlgebraContext
from ybtwist.braces import enumerate_braces
from ybtwist.cli import main
from ybtwist.reports import PropertyReport
from ybtwist.suites import LEVELS, run_suites
from conftest import CONTEXT_ENTRIES, N_ONLY


@pytest.fixture(scope="module")
def catalog2to4(tmp_path_factory):
    """Every skew brace of orders 2-4 (1 + 1 + 10) in one catalog file."""
    found = [b for n in (2, 3, 4) for b in enumerate_braces(n, skew=True)]
    path = tmp_path_factory.mktemp("reuse") / "catalog.json"
    path.write_text(json.dumps(jsonio.encode_catalog(4, True, found)), encoding="utf-8")
    return path


def _verify(path, out, capsys) -> tuple[int, dict]:
    code = main(["verify", str(path), "--level", "yangian", "--out", str(out)])
    capsys.readouterr()
    return code, json.loads(out.read_text(encoding="utf-8"))


def _verdicts(subject: dict) -> list[dict]:
    return [{k: v for k, v in c.items() if k not in ("millis", "reused")}
            for c in subject["checks"]]


def test_reused_verdicts_match_fresh_runs(catalog2to4, tmp_path, capsys):
    code, report = _verify(catalog2to4, tmp_path / "all.json", capsys)
    assert code == 0
    catalog = json.loads(catalog2to4.read_text(encoding="utf-8"))
    assert len(report["subjects"]) == len(catalog["braces"]) == 12
    reused = 0
    for i, (record, subject) in enumerate(zip(catalog["braces"], report["subjects"])):
        single = tmp_path / f"brace{i}.json"
        single.write_text(json.dumps(record), encoding="utf-8")
        code, alone = _verify(single, tmp_path / f"rep{i}.json", capsys)
        assert code == 0
        (fresh,) = alone["subjects"]
        assert fresh["digest"] == subject["digest"]
        assert not any("reused" in c for c in fresh["checks"])
        assert _verdicts(fresh) == _verdicts(subject)
        reused += sum(c.get("reused", False) for c in subject["checks"])
    assert reused == 9 * len(N_ONLY)  # the nine order-4 braces after the first


def test_reuse_cannot_hide_a_failure(catalog2to4, tmp_path, capsys, monkeypatch):
    calls = []

    def failing_rtt(n, corrupt_shift=None):
        calls.append(n)
        rep = PropertyReport(f"rtt n={n}")
        rep.add("rtt", False, witness=[n, 0, 1])
        return rep

    monkeypatch.setattr(yangian, "check_rtt", failing_rtt)
    code, report = _verify(catalog2to4, tmp_path / "bad.json", capsys)
    assert code == 1
    assert calls == [2, 3, 4]
    order4 = [s for s in report["subjects"] if s["order"] == 4]
    assert len(order4) == 10
    for subject in order4:
        rtt = next(c for c in subject["checks"] if c["name"] == "yangian.rtt")
        assert rtt["status"] == "fail"
        assert rtt["witness"] == {"check": "rtt", "witness": [4, 0, 1]}
    assert report["summary"]["fail"] == 12


def test_reuse_is_scoped_to_one_verify_call(catalog2to4, tmp_path, capsys, monkeypatch):
    calls = []
    original = yangian.check_defining_relations

    def counting(n, *args, **kwargs):
        calls.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(yangian, "check_defining_relations", counting)
    for run in range(2):
        calls.clear()
        code, _report = _verify(catalog2to4, tmp_path / f"run{run}.json", capsys)
        assert code == 0
        assert calls == [2, 3, 4]


# ------------------------------------------------------- one context per brace


def _count_builds(monkeypatch) -> list:
    builds = []
    original = AlgebraContext.__init__

    def counting(self, brace, **kwargs):
        builds.append(brace.n)
        original(self, brace, **kwargs)

    monkeypatch.setattr(AlgebraContext, "__init__", counting)
    return builds


def _strip(checks: list[dict]) -> list[dict]:
    return [{k: v for k, v in c.items() if k not in ("millis", "reused")} for c in checks]


def test_all_levels_build_one_context(trivial2, z4_radical, monkeypatch):
    builds = _count_builds(monkeypatch)
    for b in (trivial2, z4_radical):
        builds.clear()
        checks = run_suites(b, "all", {"universal": b.n, "yangian": b.n})
        assert builds == [b.n]
        entries = [c for c in checks if c["name"] in CONTEXT_ENTRIES]
        assert [c["name"] for c in entries] == list(CONTEXT_ENTRIES)
        assert [c["status"] for c in entries] == ["pass"] * 3
        assert [c.get("reused", False) for c in entries] == [False, True, True]
        assert [c["millis"] for c in entries[1:]] == [0, 0]


def _tau_not_bijective(b) -> bool:
    try:
        yb.derive_sigma_tau(b)
    except yb.ValidationFailure as exc:
        return exc.kind == "tau_not_bijective"
    return False


def test_levels_alone_match_the_all_run(braces_up_to_4):
    bad = next(b for b in enumerate_braces(6, skew=True) if _tau_not_bijective(b))
    subjects = [(b, {}) for bs in braces_up_to_4.values() for b in bs]
    subjects.append((bad, {"universal": 6, "yangian": 6}))
    shared: dict = {}  # n-only verdicts, so each order's yangian checks run once
    for b, ceilings in subjects:
        together = run_suites(b, "all", ceilings, shared)
        alone = [c for level in LEVELS for c in run_suites(b, level, ceilings, shared)]
        assert _strip(together) == _strip(alone)
        assert not any(c.get("reused") for c in alone if c["name"] in CONTEXT_ENTRIES)
    entries = [c for c in together if c["name"] in CONTEXT_ENTRIES]
    assert [c["status"] for c in entries] == ["fail"] * 3
    assert {c["witness"]["error"] for c in entries} == {"tau_not_bijective"}


def test_failed_context_build_is_reused_not_retried(z4_radical, monkeypatch):
    attempts = []

    def broken(self):
        attempts.append(self.n)
        raise yb.CheckFailed("not_associative", (1, 2, 3))

    monkeypatch.setattr(AlgebraContext, "_construction_checks", broken)
    checks = run_suites(z4_radical, "all", {"universal": 4, "yangian": 4})
    assert attempts == [4]
    entries = [c for c in checks if c["name"] in CONTEXT_ENTRIES]
    assert [c["name"] for c in entries] == list(CONTEXT_ENTRIES)
    for c in entries:
        assert c["status"] == "fail"
        assert c["witness"] == {"error": "not_associative", "witness": (1, 2, 3)}
    assert [c.get("reused", False) for c in entries] == [False, True, True]
    assert not any(c["name"].startswith(("universal.", "yangian.")) and c["name"] not in
                   CONTEXT_ENTRIES for c in checks)
