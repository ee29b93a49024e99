"""Verification report records shared by the identity-checking operations.

The records here and across the package are immutable `NamedTuple`s rather
than frozen dataclasses: every CLI call is a fresh process, and importing
`dataclasses` (with `inspect`, `ast` and `dis` behind it) plus building each
class cost that process about a fifth of its start-up.
"""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    """One identity's verdict: it holds exactly when no defect was found."""

    identity: str
    first_defect: str | None = None
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.first_defect is None

    def to_json(self) -> dict:
        out: dict = {"identity": self.identity, "status": "pass" if self.passed else "fail"}
        if self.first_defect is not None:
            out["firstDefect"] = self.first_defect
        if self.note is not None:
            out["note"] = self.note
        return out


class VerificationReport(NamedTuple):
    """Outcome of one verification at a fixed truncation order.

    The identity functions of tate_h, tate_k and renorm are deterministic and
    leave `seed` unset; the seeded suites of `verify` record theirs.
    """

    suite: str
    order: int
    checks: tuple[Check, ...]
    seed: int | None = None
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_defect(self) -> str | None:
        return next((c.first_defect for c in self.checks if not c.passed), None)

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "order": self.order,
            "seed": self.seed,
            "pass": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def __str__(self) -> str:
        lines = [f"suite {self.suite}: order={self.order} seed={self.seed} "
                 f"-> {'pass' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            line = f"  [{mark}] {c.identity}"
            if c.first_defect:
                line += f" -- first defect: {c.first_defect}"
            if c.note:
                line += f"  ({c.note})"
            lines.append(line)
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)
