"""Command-line surface: catalogs, verification reports, solutions, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ybtwist as yb
from ybtwist import cli, jsonio
from ybtwist.cli import _emit, _indented, main
from conftest import CONTEXT_ENTRIES, N_ONLY, Z4_RADICAL_MUL_ROWS, cyclic_rows


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def z4_radical_file(tmp_path):
    return write_json(tmp_path / "z4rad.json",
                      {"n": 4, "add": cyclic_rows(4), "mul": Z4_RADICAL_MUL_ROWS})


@pytest.fixture
def trivial2_file(tmp_path):
    rows = cyclic_rows(2)
    return write_json(tmp_path / "triv2.json", {"n": 2, "add": rows, "mul": rows})


def test_enumerate_counts(tmp_path, capsys):
    assert main(["enumerate", "--order", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["enumerate", "--order", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    out = tmp_path / "catalog4.json"
    assert main(["enumerate", "--order", "4", "--skew", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "10"
    catalog = json.loads(out.read_text())
    assert catalog["count"] == 10 and len(catalog["braces"]) == 10


def test_enumerate_ceiling_and_config(tmp_path, capsys):
    assert main(["enumerate", "--order", "7"]) == 2
    capsys.readouterr()
    cfg = write_json(tmp_path / "cfg.json", {"enumeration": 3})
    assert main(["enumerate", "--order", "4", "--config", cfg]) == 2


def test_config_values_must_be_integers(tmp_path, capsys):
    for value in ("abc", [5], True, 5.0):
        cfg = write_json(tmp_path / "cfg.json", {"enumeration": value})
        assert main(["enumerate", "--order", "3", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse" and err["witness"] == "enumeration"
    cfg = write_json(tmp_path / "cfg.json", {"enumeration": 5})
    assert main(["enumerate", "--order", "5", "--config", cfg]) == 0
    capsys.readouterr()
    # a misspelt key is rejected, not ignored in favour of the default ceiling
    cfg = write_json(tmp_path / "cfg.json", {"universl": 6})
    assert main(["enumerate", "--order", "3", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse" and err["witness"] == "universl"


def test_empty_tables_order_zero_and_list_config_exit_2(tmp_path, capsys):
    empty = write_json(tmp_path / "empty.json", {"add": [], "mul": []})
    cfg = write_json(tmp_path / "cfg.json", [1, 2])
    for argv, kind, witness in [(["verify", empty], "bad_order", 0),
                                (["enumerate", "--order", "0"], "bad_order", 0),
                                (["enumerate", "--order", "3", "--config", cfg], "parse", cfg)]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert (err["error"], err["witness"], captured.out) == (kind, witness, "")


def test_report_bytes_are_sorted_indented_json(z4_radical_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", z4_radical_file, "--level", "matrix", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    capsys.readouterr()
    assert main(["verify", z4_radical_file, "--level", "map"]) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


_STRINGS = st.text() | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", 'a"b\\c\nd\t', "é ü", "\u2028",
                                         "\U0001d11e", "\ud800"])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS
            | st.sampled_from([-0.0, 0.0, 1.0, 1e16, 1e-7, math.nan, math.inf, -math.inf]))
_JSON = st.recursive(_SCALARS, lambda kids: st.lists(kids) | st.lists(kids).map(tuple)
                     | st.dictionaries(_STRINGS, kids), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example([True, 2])
@example([1, False, 3])
@example({"rows": [[0, 1], [1, 0]], "b": [[], {}, [[]], [{}]], "": ()})
@example([-0.0, 1e16, 1e-7, math.nan, math.inf, -math.inf, None])
def test_indented_writer_equals_json_dumps(obj):
    assert _indented(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [{1: "x"}, {"a": {None: 1}}, {"a": [{True: 0}]}, {"a": {1.5: 0}}])
def test_indented_writer_rejects_non_str_keys(obj):
    # json.dumps would coerce these keys to strings; no command emits one, so
    # the writer refuses it rather than carry json's coercion rules
    with pytest.raises(TypeError):
        _indented(obj)


def test_each_command_writes_json_dumps_of_its_object(z4_radical_file, tmp_path, capsys, monkeypatch):
    # the bytes of every command are json.dumps of the very object it built,
    # tuples and float millis included, not of a re-parse of the file
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda obj, out_path: (seen.append(obj), _emit(obj, out_path)))
    opposite = write_json(tmp_path / "opp.json",  # S_3 and its opposite group: map.derive fails
                          {"n": 6, "add": S3_ADD_ROWS, "mul": [list(col) for col in zip(*S3_ADD_ROWS)]})
    runs = [(["enumerate", "--order", "4", "--skew"], 0),
            (["verify", opposite, "--level", "all"], 1),
            (["verify", z4_radical_file, "--level", "map"], 0),
            (["solution", z4_radical_file, "--format", "map"], 0),
            (["solution", z4_radical_file, "--format", "matrix"], 0)]
    outs = []
    for i, (argv, code) in enumerate(runs):
        outs.append(tmp_path / f"out{i}.json")
        assert main([*argv, "--out", str(outs[-1])]) == code
    outs.append(tmp_path / "merged.json")
    assert main(["report-merge", str(outs[1]), str(outs[2]), "--out", str(outs[-1])]) == 1
    capsys.readouterr()
    assert len(seen) == len(outs) == 6
    for obj, out in zip(seen, outs):
        assert out.read_bytes() == (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    failing = [c for c in seen[1]["subjects"][0]["checks"] if c["status"] == "fail"]
    assert failing and failing[0].get("witness") is not None
    assert any(c["status"] == "skipped" for c in seen[1]["subjects"][0]["checks"])
    assert any(type(c.get("millis")) is float for c in seen[1]["subjects"][0]["checks"])


@pytest.mark.parametrize("bad", [{1: "x"}, {"a": object()}, {"a": [1, {2, 3}]}])
def test_rejected_object_leaves_out_untouched(bad, tmp_path):
    # the text is built before --out is opened, so a failed write truncates nothing
    out = tmp_path / "report.json"
    out.write_text("previous contents\n", encoding="utf-8")
    with pytest.raises(TypeError):
        _emit(bad, str(out))
    assert out.read_text(encoding="utf-8") == "previous contents\n"


def test_parser_is_built_once_and_runs_the_current_command(monkeypatch, capsys):
    # the parser is cached, but the command function is looked up on each call,
    # so a wrapped one (the benchmark's tracer) still runs
    assert main(["enumerate", "--order", "1"]) == 0
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_enumerate", lambda args: 7)
    assert main(["enumerate", "--order", "1"]) == 7
    capsys.readouterr()


def test_verify_trivial_all_green(trivial2_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", trivial2_file, "--level", "all", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 0
    assert report["summary"]["skipped"] == 0
    names = {c["name"] for c in report["subjects"][0]["checks"]}
    assert {"map.braid", "matrix.ybe", "universal.ybe", "yangian.twisted_rtt"} <= names
    assert all("anchor" in c for c in report["subjects"][0]["checks"])


def test_verify_corrupted_mul_row(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json",
                     {"n": 2, "add": cyclic_rows(2), "mul": [[0, 1], [1, 1]]})
    code = main(["verify", bad])
    err = capsys.readouterr().err
    assert code == 2
    parsed = json.loads(err)
    assert parsed["error"] == "not_latin"
    assert parsed["witness"] == ["row", 1]


def test_verify_yangian_level_records_anchor(z4_radical_file, tmp_path, capsys):
    out = tmp_path / "yang.json"
    assert main(["verify", z4_radical_file, "--level", "yangian", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    twisted = next(c for c in report["subjects"][0]["checks"] if c["name"] == "yangian.twisted_rtt")
    assert twisted["status"] == "pass"
    assert "R^F" in twisted["anchor"]


def test_verify_catalog_round_trip(tmp_path, capsys):
    catalog_path = tmp_path / "cat3.json"
    assert main(["enumerate", "--order", "3", "--out", str(catalog_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "rep3.json"
    assert main(["verify", str(catalog_path), "--level", "map", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    catalog = json.loads(catalog_path.read_text())
    digests = [jsonio.brace_digest(jsonio.decode_brace(rec)) for rec in catalog["braces"]]
    assert [s["digest"] for s in report["subjects"]] == digests


def test_verify_is_deterministic_modulo_millis(z4_radical_file, tmp_path, capsys):
    # orders 2, 3, 2, 3: the repeats reuse the n-only verdicts of the first two
    catalog = write_json(tmp_path / "cat.json", jsonio.encode_catalog(
        3, False, [yb.trivial_brace(n) for n in (2, 3, 2, 3)]))
    reports = {}
    for path, level in ((z4_radical_file, "map"), (catalog, "yangian"), (catalog, "all")):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["verify", path, "--level", level, "--out", str(out)]) == 0
            capsys.readouterr()
            report = json.loads(out.read_text())
            for subject in report["subjects"]:
                for check in subject["checks"]:
                    millis = check.pop("millis")
                    assert isinstance(millis, float) or millis == 0
            outs.append(json.dumps(report, sort_keys=True))
        assert outs[0] == outs[1]
        reports[level] = report
    # at level all the matrix level builds each context and the later levels reuse it
    for level, context_reused in (("yangian", ()), ("all", CONTEXT_ENTRIES[1:])):
        subjects = reports[level]["subjects"]
        for i, subject in enumerate(subjects):
            for check in subject["checks"]:
                if (i >= 2 and check["name"] in N_ONLY) or check["name"] in context_reused:
                    assert check["reused"] is True
                else:
                    assert "reused" not in check
        assert _without_reused(subjects[0]) == _without_reused(subjects[2])


def _without_reused(subject: dict) -> list[dict]:
    return [{k: v for k, v in c.items() if k != "reused"} for c in subject["checks"]]


def test_millis_is_fractional(z4_radical_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify", z4_radical_file, "--level", "map", "--out", str(out)]) == 0
    capsys.readouterr()
    checks = json.loads(out.read_text())["subjects"][0]["checks"]
    timed = [c["millis"] for c in checks]
    assert all(isinstance(m, float) and m == round(m, 3) for m in timed)
    assert any(m > 0 for m in timed)


def test_solution_formats(z4_radical_file, trivial2_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert main(["solution", z4_radical_file, "--format", "map", "--out", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert sol["sigma"][1] == [0, 3, 2, 1]
    assert main(["solution", trivial2_file, "--format", "matrix", "--out", str(out)]) == 0
    mat = json.loads(out.read_text())
    assert mat["dim"] == 4
    assert mat["entries"] == [[i, i] for i in range(4)]
    b1 = write_json(tmp_path / "b1.json", {"n": 1, "add": [[0]], "mul": [[0]]})
    assert main(["solution", b1, "--format", "map", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"n": 1, "sigma": [[0]], "tau": [[0]]}


#: an order-6 skew brace with non-abelian addition (S3) and bijective tau
S3_ADD_ROWS = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
               [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]
S3_SKEW_MUL_ROWS = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 4, 3, 1, 5, 0],
                    [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 0, 2, 1, 4]]


def _solution_entries(add, mul) -> list[list[int]]:
    """Positions (b n + a, sigma_a(b) n + tau_b(a)), with sigma_a(b) = -a + a o b and
    tau_b(a) the x with sigma_{sigma_a(b)}(x) = a, computed from the tables."""
    n = len(add)
    neg = [add[a].index(0) for a in range(n)]
    sigma = [[add[neg[a]][mul[a][b]] for b in range(n)] for a in range(n)]
    tau = [[next(x for x in range(n) if sigma[sigma[a][b]][x] == a) for a in range(n)]
           for b in range(n)]
    return sorted([b * n + a, sigma[a][b] * n + tau[b][a]] for a in range(n) for b in range(n))


@pytest.mark.parametrize("add, mul", [(cyclic_rows(4), Z4_RADICAL_MUL_ROWS),
                                      (S3_ADD_ROWS, S3_SKEW_MUL_ROWS)],
                         ids=["z4_radical", "s3_skew"])
def test_solution_matrix_bytes(add, mul, tmp_path, capsys):
    n = len(add)
    assert yb.validate_group(add).is_abelian == (n == 4)
    path = write_json(tmp_path / "brace.json", {"n": n, "add": add, "mul": mul})
    assert main(["solution", path, "--format", "matrix"]) == 0
    expected = {"dim": n * n, "entries": _solution_entries(add, mul)}
    assert expected["entries"] != [[i, i] for i in range(n * n)]
    assert capsys.readouterr().out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_report_merge(z4_radical_file, trivial2_file, tmp_path, capsys):
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["verify", z4_radical_file, "--level", "map", "--out", str(rep1)])
    main(["verify", trivial2_file, "--level", "map", "--out", str(rep2)])
    capsys.readouterr()
    merged_path = tmp_path / "merged.json"
    assert main(["report-merge", str(rep1), str(rep2), "--out", str(merged_path)]) == 0
    merged = json.loads(merged_path.read_text())
    assert len(merged["subjects"]) == 2
    a, b = json.loads(rep1.read_text()), json.loads(rep2.read_text())
    assert merged["summary"]["pass"] == a["summary"]["pass"] + b["summary"]["pass"]


@pytest.mark.parametrize("where", ["missing_parent", "directory", "full_device"])
@pytest.mark.parametrize("command", ["enumerate", "verify", "solution", "report-merge"])
def test_unwritable_out_exits_2(command, where, trivial2_file, tmp_path, capsys):
    # an --out path that cannot be opened, or whose writes fail, is invalid input
    if where == "full_device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    report = tmp_path / "report.json"
    assert main(["verify", trivial2_file, "--level", "map", "--out", str(report)]) == 0
    argv = {"enumerate": ["enumerate", "--order", "2"],
            "verify": ["verify", trivial2_file, "--level", "map"],
            "solution": ["solution", trivial2_file],
            "report-merge": ["report-merge", str(report)]}[command]
    out = {"missing_parent": str(tmp_path / "no_such_dir" / "out.json"), "directory": str(tmp_path),
           "full_device": "/dev/full"}[where]
    capsys.readouterr()
    assert main([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["witness"]) == ("output", out)


def test_report_merge_rejects_malformed_reports(tmp_path, capsys):
    # each case is one report-merge call; its first report is the malformed one
    failed = {"checks": [{"name": "map.braid", "status": "fail"}]}
    cases = [[[]], [{"summary": {}}], [{"subjects": 5}],
             [{"subjects": [], "summary": 5}],
             [{"subjects": [], "summary": {"pass": "x"}}],
             [{"subjects": [], "level": ["map"]}],
             # counts that cancel across files, or disagree with the checks
             [{"subjects": [], "summary": {"fail": 1}}, {"subjects": [], "summary": {"fail": -1}}],
             [{"subjects": [failed], "summary": {"pass": 0, "fail": 0, "skipped": 0}}],
             [{"subjects": [1, 2], "summary": {}}],
             [{"subjects": [{"checks": [{"status": "ok"}]}], "summary": {}}]]
    for i, objs in enumerate(cases):
        paths = [write_json(tmp_path / f"r{i}_{j}.json", obj) for j, obj in enumerate(objs)]
        assert main(["report-merge", *paths]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse" and err["witness"] == paths[0]


def test_check_names_are_a_stable_contract(monkeypatch):
    # one name per operation; report consumers key on these, and on the inner
    # check names of a failing entry's witness
    from ybtwist import suites
    from ybtwist.reports import PropertyReport

    inner = {}
    run = suites._run

    def recording(checks, name, anchor, fn):
        def call():
            result = fn()
            if isinstance(result, PropertyReport):
                inner[name] = (result.subject, [c.name for c in result.checks])
            return result
        return run(checks, name, anchor, call)

    monkeypatch.setattr(suites, "_run", recording)
    names = [c["name"] for c in suites.run_suites(yb.trivial_brace(2), "all")]
    assert names == [
        "map.derive", "map.braid", "map.properties", "map.involutive",
        "matrix.rep_consistency", "matrix.rho_homomorphism", "matrix.ybe",
        "matrix.combinatorial", "matrix.reversible", "matrix.braid_bridge",
        "matrix.nfold_twist",
        "universal.construction", "universal.twisted_r",
        "universal.twist_conditions", "universal.ybe", "universal.hopf",
        "universal.cocommutativity", "universal.hopf_twisted",
        "universal.quasitriangularity", "universal.nfold_twist",
        "yangian.context", "yangian.defining_relations",
        "yangian.displayed_relations", "yangian.unitarity", "yangian.rtt",
        "yangian.augmented_relations", "yangian.twisted_rtt",
        "yangian.coassociativity", "yangian.antipode_series",
        "yangian.twisted_coproduct_adjudication",
    ]
    assert len(names) == len(set(names))
    hopf = ["coproduct_homomorphism", "coassociativity", "counit", "antipode"]
    assert inner == {
        "map.braid": ("braid", ["braid"]),
        "map.properties": ("brace_identities", [
            "circle_of_pair", "sigma_composition", "distributivity", "neutral_values",
            "circle_factorization"]),
        "matrix.rho_homomorphism": ("rho_homomorphism", ["homomorphism"]),
        "matrix.ybe": ("matrix_ybe", ["ybe"]),
        "matrix.nfold_twist": ("matrix_nfold_twist_k4", [
            "recursion", "closed_form", "exchange_law_legs_1_2", "exchange_law_legs_2_3",
            "exchange_law_legs_3_4"]),
        "universal.twist_conditions": ("twist_conditions", [
            "cocycle", "one_two_three_symmetry", "two_one_three_symmetry", "exchange_r23",
            "exchange_r12", "coproduct_images"]),
        "universal.ybe": ("universal_ybe", ["ybe"]),
        "universal.hopf": ("hopf_axioms_untwisted", hopf),
        "universal.hopf_twisted": ("hopf_axioms_twisted", hopf),
        "universal.quasitriangularity": ("quasitriangularity", [
            "intertwines_coproduct", "fusion_first_leg", "fusion_second_leg", "counit_laws"]),
        "universal.nfold_twist": ("nfold_twist_k3", [
            "recursion_3_fold", "closed_form", "exchange_law_legs_1_2", "exchange_law_legs_2_3"]),
        "yangian.defining_relations": ("defining_relations", ["relations"]),
        "yangian.displayed_relations": ("displayed_exchange_relations", [
            "level1_level1", "level2_level1", "level3_minus_level22", "level3_level1"]),
        "yangian.unitarity": ("unitarity", ["unitarity"]),
        "yangian.rtt": ("rtt", ["rtt"]),
        "yangian.augmented_relations": ("augmented_relations", [
            "w_exchange", "h_transport", "h_annihilation"]),
        "yangian.twisted_rtt": ("twisted_rtt", ["conjugation_form", "twisted_rtt"]),
        "yangian.coassociativity": ("coassociativity", ["coassociativity"]),
        "yangian.antipode_series": ("antipode_series", [
            f"{side}_identity_level{m}" for m in range(1, 5) for side in ("left", "right")]),
        "yangian.twisted_coproduct_adjudication": ("twisted_coproduct_adjudication", ["adjudication"]),
    }


@pytest.mark.parametrize("obj, witness", [
    ({"n": 2, "add": [[0, "a"], [1, 0]], "mul": cyclic_rows(2)}, [0, 1]),
    ({"n": 2, "add": cyclic_rows(2), "mul": "xx"}, None),
    ({"version": 1, "braces": 5}, None),
    ({"n": "2", "add": cyclic_rows(2), "mul": cyclic_rows(2)}, "2"),
    ({"n": 2, "add": [[0, True], [1, 0]], "mul": cyclic_rows(2)}, [0, 1]),
    ({"braces": [{"add": [[0]], "mul": [[0]]}], "count": None}, None),
], ids=["cell", "mul", "braces", "n", "bool_cell", "count"])
def test_malformed_input_exits_2(obj, witness, tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", obj)
    assert main(["verify", path, "--level", "map"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "parse" and err["witness"] == witness


def test_unreadable_json_exits_2(tmp_path, capsys):
    bad_utf8 = tmp_path / "bad.json"
    bad_utf8.write_bytes(b"\xff\xfe{")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    for path in (bad_utf8, deep):
        assert main(["verify", str(path), "--level", "map"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "parse"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(allow_nan=False, width=16)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "add", "mul", "braces", "count", "x"]), inner, max_size=3),
    max_leaves=12)
_TABLE = st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1, max_size=3)
_BRACE = st.fixed_dictionaries({"add": _TABLE, "mul": _TABLE})
_REPORT = st.fixed_dictionaries(
    {"subjects": st.lists(_JSON, max_size=2),
     "summary": st.dictionaries(st.sampled_from(["pass", "fail", "skipped"]), _JSON, max_size=3)},
    optional={"level": _JSON})


@settings(max_examples=150, deadline=None)
@given(obj=_JSON | _BRACE | st.builds(lambda b: {"braces": b}, st.lists(_BRACE, max_size=2))
       | _REPORT)
def test_any_json_gets_an_exit_code(obj, tmp_path_factory):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    for argv in (["verify", path, "--level", "all"], ["solution", path, "--format", "matrix"],
                 ["report-merge", path]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
