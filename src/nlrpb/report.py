"""Named residual checks with tolerances and verdicts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError

__all__ = ["Check", "VerificationReport"]


@dataclass(frozen=True)
class Check:
    """A single named residual compared against a tolerance; it passes
    iff the residual is finite and at most the tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        residual = float(self.residual)
        tolerance = float(self.tolerance)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "passed", math.isfinite(residual) and residual <= tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    """An ordered collection of checks; passes iff every check passes."""

    checks: tuple

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def raise_first_failure(where: str, checks, reasons: dict) -> None:
    """Raise ValidationError for the first failed check, led by ``reasons[check.name]``.

    This is how a builder enforces the same checks that a report prints.
    """
    for c in checks:
        if not c.passed:
            raise ValidationError(
                f"{where}: {reasons[c.name]} ({c.name} residual {c.residual:.3e} > {c.tolerance:g})"
            )
