"""Structured pass/fail reports.

Every law check in the package appends one entry per checked law to a Report.
Entries carry a stable check id, the law in human-readable form, the status,
and a witness string only when the check failed. Reports are deterministic
functions of their inputs: no timing, paths, or environment data may enter,
so serialized reports are byte-identical across runs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class CheckResult(NamedTuple):
    check_id: str
    law: str
    status: str  # "pass" or "fail"
    witness: Optional[str] = None

    def to_dict(self) -> dict:
        d = {"check": self.check_id, "law": self.law, "status": self.status}
        if self.status == "fail":
            d["witness"] = self.witness or ""
        return d


class Report:
    """An ordered collection of check results for one suite."""

    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[CheckResult] = []

    def record(self, check_id: str, law: str, ok: bool, witness: Optional[str] = None) -> None:
        if ok:
            self.checks.append(CheckResult(check_id, law, "pass"))
        else:
            self.checks.append(CheckResult(check_id, law, "fail", witness or "unspecified"))

    def merge(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail"]

    def first_witness(self) -> Optional[str]:
        f = self.failures()
        return f[0].witness if f else None

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "status": "pass" if self.ok else "fail",
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.check_id)],
        }

    def __repr__(self) -> str:
        n_fail = len(self.failures())
        return f"Report(suite={self.suite!r}, checks={len(self.checks)}, failures={n_fail})"
