"""Command-line interface: enumerate, verify, solution, report-merge.

All output is UTF-8 JSON with sorted keys.  Exit codes: 0 when every
executed (non-skipped) check passes, 1 when some check fails, 2 on invalid
input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import jsonio, suites
from .algebra import AlgebraContext
from .braces import derive_sigma_tau, enumerate_braces
from .errors import LimitExceeded, ValidationFailure
from .groups import DEFAULT_CEILING
from .matrices import solution_matrix


def _emit(obj, out_path: str | None) -> None:
    # streamed chunk by chunk, so a large report is never held as one string
    try:
        with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
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
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="Run verification suites over a brace or catalog file.")
    p.add_argument("file")
    p.add_argument("--level", choices=[*suites.LEVELS, "all"], default="all")
    p.add_argument("--out", help="Write the report JSON here instead of stdout.")
    p.add_argument("--config", help="JSON file overriding ceilings.")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solution", help="Emit the induced solution as map tables or a matrix.")
    p.add_argument("file")
    p.add_argument("--format", choices=["map", "matrix"], default="map")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solution)

    p = sub.add_parser("report-merge", help="Merge verification reports into one.")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report_merge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationFailure, LimitExceeded) as exc:
        kind = getattr(exc, "kind", "limit_exceeded")
        witness = getattr(exc, "witness", None)
        print(json.dumps({"error": kind, "witness": witness, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
