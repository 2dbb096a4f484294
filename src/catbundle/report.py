"""Structured pass/fail reports.

Every law check in the package appends one entry per checked law to a Report.
Entries carry a stable check id, the law in human-readable form, the status,
and a witness string only when the check failed. Reports are deterministic
functions of their inputs: no timing, paths, or environment data may enter,
so serialized reports are byte-identical across runs.

A law check is a search for a counterexample. `Report.search` takes the
check's witnesses as an iterable, usually a generator that yields one string
per violation in a fixed scan order, and records the first one, or a pass if
there is none. It pulls nothing after the first witness, so the scan stops
there and its cost is that of the prefix up to the first violation. A
`CompositionError` or `DomainError` raised while it pulls fails the law with
the witness "<class>: <message>": the first case that cannot be evaluated.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import CompositionError, DomainError


def unevaluated(err: Exception) -> str:
    """The witness of a law whose scan raised `err`."""
    return f"{type(err).__name__}: {err}"


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

    def search(self, check_id: str, law: str, witnesses: Iterable[str],
               decision: Optional[Iterable[str]] = None) -> None:
        """Record `law` as failed with the first string `witnesses` yields, or
        as passed if it yields none; the iterable is not resumed after that.
        A `decision` decides the law exactly on generators: `witnesses` is
        read only if it fails, and its own witness stands if they yield none."""
        try:
            if decision is None:
                witness = next(iter(witnesses), None)
            else:
                witness = next(iter(decision), None)
                if witness is not None:
                    witness = next(iter(witnesses), witness)
        except (CompositionError, DomainError) as err:
            witness = unevaluated(err)
        self.record(check_id, law, witness is None, witness)

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
