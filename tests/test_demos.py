"""Every narrative demo runs top to bottom, exits 0 and prints its pinned output.

The pinned output of demo ``<stem>.py`` is ``demos/expected/<stem>.txt``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = ROOT / "demos" / "expected" / f"{demo.stem}.txt"
    assert proc.stdout == expected.read_text(encoding="utf-8")
