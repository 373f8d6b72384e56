"""Report values returned by the verification operations.

Checks never raise on a failed identity: the failure, with its first
witness, is the result.  An identity between two exact sides is recorded
with ``PropertyReport.compare``, whose witness is the first differing key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named identity check."""

    name: str
    passed: bool
    witness: Any = None
    detail: Any = None


@dataclass
class PropertyReport:
    """A bundle of named checks over one subject."""

    subject: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def add(self, name: str, passed: bool, witness: Any = None, detail: Any = None) -> None:
        self.checks.append(CheckResult(name, bool(passed), witness, detail))

    def compare(self, name: str, lhs, rhs) -> None:
        """Record the identity lhs = rhs of two ``Sparse`` sides; a failure's
        witness is ``lhs.first_diff(rhs)``."""
        passed = lhs == rhs
        self.add(name, passed, None if passed else lhs.first_diff(rhs))
