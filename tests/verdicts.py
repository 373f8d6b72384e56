"""The verdict table: what `verify --level all` decides for every skew brace of orders 1-6.

Run from anywhere; stdlib only:

    python tests/verdicts.py    # rewrite tests/verdicts.json

For each order it enumerates all labelled skew braces (``enumerate --skew``)
and verifies them at every level with the universal and yangian ceilings at 6,
through the command line in this process.  For each order and check name the
table holds the pass, fail and skipped counts and a digest of the sorted
(subject digest, status, witness, detail) entries, so any change of a verdict,
a witness or a reported detail shows as a changed digest, and a changed
count says which way it moved.  ``millis`` and ``reused`` are left out: they
describe how the verdict was reached, not what it is.  ``tests/test_verdicts.py``
recomputes the table in the tier-1 suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "verdicts.json"
ORDERS = range(1, 7)
CEILINGS = {"universal": 6, "yangian": 6}


def order_table(n: int, work: Path) -> dict:
    """{check name: {"pass", "fail", "skipped", "digest"}} over the skew braces of order n."""
    from ybtwist.cli import main

    config, catalog, report = work / "ceilings.json", work / f"catalog{n}.json", work / f"report{n}.json"
    config.write_text(json.dumps(CEILINGS), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["enumerate", "--order", str(n), "--skew", "--out", str(catalog)]) != 0:
            raise SystemExit(f"enumerate --order {n} failed")
        if main(["verify", str(catalog), "--level", "all", "--config", str(config), "--out", str(report)]) not in (0, 1):
            raise SystemExit(f"verify of order {n} did not give a verdict")
    entries: dict[str, list[str]] = {}
    counts: dict[str, dict] = {}
    for subject in json.loads(report.read_text(encoding="utf-8"))["subjects"]:
        for check in subject["checks"]:
            name = check["name"]
            row = counts.setdefault(name, {"pass": 0, "fail": 0, "skipped": 0})
            row[check["status"]] += 1
            entry = [subject["digest"], check["status"], check.get("witness"), check.get("detail")]
            entries.setdefault(name, []).append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    return {name: {**row, "digest": hashlib.sha256("\n".join(sorted(entries[name])).encode()).hexdigest()[:16]}
            for name, row in sorted(counts.items())}


def table() -> dict:
    with tempfile.TemporaryDirectory(prefix="ybtwist-verdicts-") as tmp:
        return {"ceilings": CEILINGS, "orders": {str(n): order_table(n, Path(tmp)) for n in ORDERS}}


def render(obj: dict) -> str:
    """JSON with one line per check name."""
    orders = ",\n".join(
        f'    "{n}": {{\n' + ",\n".join(f"      {json.dumps(name)}: {json.dumps(row, sort_keys=True)}"
                                     for name, row in sorted(rows.items())) + "\n    }"
        for n, rows in obj["orders"].items())
    return f'{{\n  "ceilings": {json.dumps(obj["ceilings"], sort_keys=True)},\n  "orders": {{\n{orders}\n  }}\n}}\n'


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    DATA.write_text(render(table()), encoding="utf-8")
    print(f"wrote {DATA}")
