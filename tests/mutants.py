"""Mutation gate: every mutant in ``mutants.json`` must fail the tests it names.

Run from anywhere, outside the tier-1 suite (each mutant takes a few seconds):

    python tests/mutants.py             # every mutant
    python tests/mutants.py ID [ID ...]  # the named ones

A mutant is a source file, one exact snippet of it, the snippet's replacement
and the test node ids that must catch it.  For each mutant the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, replaces
the snippet there (it must occur exactly once) and runs only the named tests
against that copy; the working tree is never written.  A mutant is killed
when a named test fails.  A mutant marked ``equivalent`` changes no report on
any valid input, for the reason it gives: it is run too, and must survive.
The exit code is 0 when every mutant ends as expected, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "mutants.json"
FIELDS = {"id", "file", "snippet", "replacement", "tests"}
TIMEOUT_S = 900


def load(path: Path = DATA) -> list[dict]:
    return json.loads(path.read_text())


def problems(mutants: list[dict], root: Path = ROOT) -> list[str]:
    """What keeps a mutant from applying to the tree at ``root``: a missing or
    unknown field, a repeated id, a snippet that does not occur exactly once,
    a no-op replacement, or a test node whose file or function is missing."""
    out = []
    ids = [m.get("id") for m in mutants]
    out += [f"repeated id {i!r}" for i in sorted({i for i in ids if ids.count(i) > 1})]
    for m in mutants:
        name = m.get("id")
        if set(m) - {"equivalent"} != FIELDS:
            out.append(f"{name}: fields {sorted(m)}")
            continue
        if "equivalent" in m and not (isinstance(m["equivalent"], str) and m["equivalent"].strip()):
            out.append(f"{name}: an equivalent mutant needs its reason")
        source = root / m["file"]
        count = source.read_text().count(m["snippet"]) if source.is_file() else 0
        if count != 1:
            out.append(f"{name}: snippet occurs {count} times in {m['file']}")
        if m["replacement"] == m["snippet"]:
            out.append(f"{name}: replacement equals the snippet")
        if not m["tests"]:
            out.append(f"{name}: no tests")
        for node in m["tests"]:
            file, _, func = node.partition("::")
            test_file = root / file
            if not test_file.is_file() or (func and f"def {func}(" not in test_file.read_text()):
                out.append(f"{name}: no test {node}")
    return out


def run(mutant: dict) -> tuple[str, float]:
    """Apply one mutant to a temporary copy and run its tests there; return
    ("killed" | "survived" | "error <exit code or timeout>", seconds)."""
    with tempfile.TemporaryDirectory(prefix="ybtwist-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, work / sub, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / mutant["file"]
        target.write_text(target.read_text().replace(mutant["snippet"], mutant["replacement"], 1))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        try:
            code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                                   *mutant["tests"]], cwd=work, env=env, capture_output=True,
                                  timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        seconds = time.perf_counter() - t0
    return {0: "survived", 1: "killed"}.get(code, f"error {code}"), seconds


def main(argv: list[str]) -> int:
    mutants = load()
    found = problems(mutants)
    if found:
        print("\n".join(found))
        return 1
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print(f"unknown mutants: {sorted(unknown)}")
            return 1
        mutants = [m for m in mutants if m["id"] in argv]
    unexpected = 0
    for m in mutants:
        status, seconds = run(m)
        expected = "survived" if "equivalent" in m else "killed"
        unexpected += status != expected
        mark = "ok " if status == expected else "BAD"
        print(f"{mark} {status:<9} {m['id']:<40} {seconds:6.1f} s"
              + (" (equivalent)" if "equivalent" in m else ""), flush=True)
    print(f"{len(mutants)} mutants, {unexpected} not as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
