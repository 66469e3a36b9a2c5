"""Structured verification reports.

Every checked inequality or identity is recorded as a Check with its two
sides, the margin, and a stable check id, so a failure can be traced to the
exact quantity that broke.  Measured ratios that are never asserted (finite-N
stand-ins for asymptotic statements) live in ``ratios``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# Tolerance of the identity and inequality checks: absolute for quantities of
# order one, otherwise scaled by max(1, magnitude of the sides).
TOL = 1e-9


@dataclass(frozen=True)
class Check:
    check: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    note: str = ""

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "note": self.note,
        }


def ineq_check(check: str, lhs: float, rhs: float, slack: float, note: str = "") -> Check:
    """Record ``lhs <= rhs`` up to ``slack``; margin is rhs - lhs."""
    margin = rhs - lhs
    return Check(check, float(lhs), float(rhs), float(margin), bool(margin >= -slack), note)


def eq_check(check: str, lhs: float, rhs: float, tol: float, note: str = "") -> Check:
    """Record ``lhs == rhs`` up to ``tol``; margin is the signed difference."""
    margin = rhs - lhs
    return Check(check, float(lhs), float(rhs), float(margin), bool(abs(margin) <= tol), note)


@dataclass
class VerificationReport:
    name: str
    checks: list[Check] = field(default_factory=list)
    ratios: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: Check) -> Check:
        self.checks.append(check)
        return check

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)
        self.ratios.update(other.ratios)
        self.notes.extend(other.notes)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "checks": [c.to_json_obj() for c in self.checks],
            "ratios": dict(sorted(self.ratios.items())),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)
