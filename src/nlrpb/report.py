"""Named residual checks, the whole tolerance policy (defaults and rules), and verdicts.

Checkers measure residuals; ``judge`` turns them into ``Check``s at the
tolerance that ``TOLERANCE_RULES`` gives each check name: "zero" for the
structural gates (deficits, held to 0 whatever tolerance is given),
"roundtrip" (ROUNDTRIP_TOL unless a tolerance is given) and, for every
other name, "flat" (``default_tolerance(n)`` unless a tolerance is given).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError

__all__ = ["Check", "ROUNDTRIP_TOL", "VerificationReport", "default_tolerance", "judge"]

#: Default tolerance of the round-trip checks of ``convert``.
ROUNDTRIP_TOL = 1e-9


def default_tolerance(n: int) -> float:
    """Default absolute residual tolerance of the "flat" rule for size-``n`` problems.

    1e-10 up to n = 16, then ``n * 1e-12``: 1.7e-11 at 17, 6.4e-11 at 64, 1e-10 again at 100.
    """
    if n <= 16:
        return 1e-10
    return n * 1e-12


#: Each check's tolerance rule, by check name; a name not listed is "flat".
TOLERANCE_RULES = {
    **dict.fromkeys(("eps_structure", "metric_spd", "p5_frame_bounds", "spectrum_min_gap"), "zero"),
    **dict.fromkeys(("eps_roundtrip", "eigenline_cosines", "h_roundtrip", "theta_roundtrip"), "roundtrip"),
}


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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def judge(n: int, tolerance, **residuals) -> list:
    """One ``Check`` per named residual, in the order given, at the tolerance that the
    name's rule sets for size ``n`` and the given ``tolerance`` (None for the defaults)."""
    return [Check(name, residual, _tolerance(name, n, tolerance)) for name, residual in residuals.items()]


def _tolerance(name: str, n: int, tolerance) -> float:
    rule = TOLERANCE_RULES.get(name, "flat")
    if rule == "zero":
        return 0.0
    if tolerance is not None:
        return float(tolerance)
    return ROUNDTRIP_TOL if rule == "roundtrip" else default_tolerance(n)


def raise_first_failure(where: str, checks, reasons: dict) -> None:
    """Raise ValidationError for the first failed check, led by ``reasons[check.name]``.

    This is how a builder enforces the same checks that a report prints.
    """
    for c in checks:
        if not c.passed:
            raise ValidationError(
                f"{where}: {reasons[c.name]} ({c.name} residual {c.residual:.3e} > {c.tolerance:g})"
            )
