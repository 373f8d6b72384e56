"""Command-line interface: enumerate, verify, solution, report-merge.

All output is UTF-8 JSON with sorted keys and a two-space indent, byte-equal
to ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.  Exit codes:
0 when every executed (non-skipped) check passes, 1 when some check fails, 2
on invalid input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache
from json.encoder import encode_basestring_ascii

from . import jsonio, suites
from .algebra import AlgebraContext
from .braces import derive_sigma_tau, enumerate_braces
from .errors import LimitExceeded, ValidationFailure
from .groups import DEFAULT_CEILING
from .matrices import solution_matrix


#: every scalar but a string, through json's C encoder (float repr, NaN, Infinity)
_scalar = json.JSONEncoder().encode


def _indented(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for ``obj`` at indent ``pad``,
    each container joined once.  A dict key that is not a str raises TypeError
    (json would coerce it; no output holds one)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = (",\n" + inner).join(encode_basestring_ascii(k) + ": " + _indented(v, inner)
                                    for k, v in sorted(obj.items()))
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):  # a group-table row; bool is no int here
            body = (",\n" + inner).join(map(int.__repr__, obj))
        else:
            body = (",\n" + inner).join(_indented(v, inner) for v in obj)
        return f"[\n{inner}{body}\n{pad}]"
    return _scalar(obj)


def _emit(obj, out_path: str | None) -> None:
    # the whole text is built before the file is opened, so an object the
    # writer rejects never truncates an existing --out
    text = _indented(obj) + "\n"
    try:
        with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, a full device
        raise ValidationFailure("output", out_path, f"cannot write {out_path or 'stdout'}: {exc}") from exc


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ValidationFailure("parse", path, f"cannot read {path}: {exc}") from exc


#: the ceilings a --config file may set
_CONFIG_KEYS = ("enumeration", "universal", "yangian")


def _ceilings(args) -> dict:
    ceilings = {"enumeration": DEFAULT_CEILING}
    if getattr(args, "config", None):
        cfg = _load_json(args.config)
        if not isinstance(cfg, dict):
            raise ValidationFailure("parse", args.config, "config must be a JSON object")
        for key, value in cfg.items():
            if key not in _CONFIG_KEYS:
                raise ValidationFailure("parse", key, f"config key {key!r} is not one of {_CONFIG_KEYS}")
            if type(value) is not int:
                raise ValidationFailure("parse", key, f"config value for {key!r} must be an integer")
        ceilings.update(cfg)
    return ceilings


def cmd_enumerate(args) -> int:
    ceilings = _ceilings(args)
    found = enumerate_braces(args.order, skew=args.skew, ceiling=ceilings["enumeration"])
    catalog = jsonio.encode_catalog(args.order, args.skew, found)
    if args.out:
        _emit(catalog, args.out)
    print(len(found))
    return 0


def cmd_verify(args) -> int:
    ceilings = _ceilings(args)
    obj = _load_json(args.file)
    subjects = jsonio.load_subjects(obj)
    report_subjects = []
    shared: dict = {}  # n-only yangian verdicts, reused within this run only
    for brace in subjects:
        checks = suites.run_suites(brace, args.level, ceilings, shared)
        report_subjects.append({
            "digest": jsonio.brace_digest(brace),
            "order": brace.n,
            "abelian_addition": brace.is_brace,
            "checks": checks,
        })
    report = {
        "version": 1,
        "level": args.level,
        "subjects": report_subjects,
        "summary": _status_counts(report_subjects),
    }
    _emit(report, args.out)
    return 0 if report["summary"]["fail"] == 0 else 1


def cmd_solution(args) -> int:
    obj = _load_json(args.file)
    brace = jsonio.decode_brace(obj)
    if args.format == "map":
        _emit(jsonio.encode_ybmap(derive_sigma_tau(brace)), args.out)
    else:
        ctx = AlgebraContext(brace)
        _emit(jsonio.encode_permutation_matrix(solution_matrix(ctx)), args.out)
    return 0


def _status_counts(subjects: list) -> dict | None:
    """How many checks of the report subjects have each status; None unless every
    subject is an object with a checks list of objects with such a status."""
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for subject in subjects:
        checks = subject.get("checks") if isinstance(subject, dict) else None
        if not isinstance(checks, list):
            return None
        for check in checks:
            if not isinstance(check, dict) or check.get("status") not in ("pass", "fail", "skipped"):
                return None
            counts[check["status"]] += 1
    return counts


def _load_report(path: str) -> dict:
    """A verify report: subjects, a string level and summary counts equal to theirs."""
    report = _load_json(path)
    summary = report.get("summary", {}) if isinstance(report, dict) else None
    subjects = report.get("subjects") if isinstance(summary, dict) else None
    counts = _status_counts(subjects) if isinstance(subjects, list) else None
    if (counts is None or not isinstance(report.get("level"), (str, type(None)))
            or any(type(summary.get(k, 0)) is not int or summary.get(k, 0) != v
                   for k, v in counts.items())):
        raise ValidationFailure("parse", path, f"{path} is not a verification report")
    return report


def cmd_report_merge(args) -> int:
    subjects = []
    levels = set()
    for path in args.files:
        report = _load_report(path)
        subjects.extend(report["subjects"])
        levels.add(report.get("level"))
    level = levels.pop() if len(levels) == 1 else "mixed"
    totals = _status_counts(subjects)
    merged = {"version": 1, "level": level or "mixed", "subjects": subjects, "summary": totals}
    _emit(merged, args.out)
    return 0 if totals["fail"] == 0 else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybtwist",
        description="Exact verification of set-theoretic Yang-Baxter structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="Enumerate skew braces of one order into a catalog.")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--skew", action="store_true",
                   help="Allow nonabelian additive groups (default: braces only).")
    p.add_argument("--out", help="Write the catalog JSON here (count prints either way).")
    p.add_argument("--config", help="JSON file overriding ceilings, e.g. {\"enumeration\": 5}.")

    p = sub.add_parser("verify", help="Run verification suites over a brace or catalog file.")
    p.add_argument("file")
    p.add_argument("--level", choices=[*suites.LEVELS, "all"], default="all")
    p.add_argument("--out", help="Write the report JSON here instead of stdout.")
    p.add_argument("--config", help="JSON file overriding ceilings.")

    p = sub.add_parser("solution", help="Emit the induced solution as map tables or a matrix.")
    p.add_argument("file")
    p.add_argument("--format", choices=["map", "matrix"], default="map")
    p.add_argument("--out")

    p = sub.add_parser("report-merge", help="Merge verification reports into one.")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name on each call, not held by the cached parser, so a
    # wrapped or patched cmd_* function is the one that runs
    command = {"enumerate": cmd_enumerate, "verify": cmd_verify, "solution": cmd_solution,
               "report-merge": cmd_report_merge}[args.command]
    try:
        return command(args)
    except (ValidationFailure, LimitExceeded) as exc:
        kind = getattr(exc, "kind", "limit_exceeded")
        witness = getattr(exc, "witness", None)
        print(json.dumps({"error": kind, "witness": witness, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
