"""Biorthogonal ladder systems in finite dimension.

A system is a strictly increasing sequence ``eps`` with ``eps[0] = 0``
together with two bases ``phi_n``, ``eta_n`` of R^N satisfying
``<phi_n, eta_m> = delta_nm``.  From that data the module builds the
lowering/raising pair

    a = sum_{n=1}^{N-1} sqrt(eps[n])   |phi[n-1]><eta[n]|
    b = sum_{n=0}^{N-2} sqrt(eps[n+1]) |phi[n+1]><eta[n]|

and the frame operators S_phi = sum |phi_n><phi_n| and
S_eta = sum |eta_n><eta_n|, which are positive definite and mutually
inverse.  ``verify_axioms`` reports on the five defining properties:

1. ``a`` annihilates the vacuum ``phi_0``.
2. ``b^T`` annihilates the dual vacuum ``eta_0`` (real arithmetic, so
   the adjoint is the transpose).
3. Ladder relations with factors sqrt(eps), plus biorthonormality.
4. Resolution of identity: sum_n |phi_n><eta_n| = I.
5. Frame bounds: S_phi and S_eta positive definite with S_phi S_eta = I.

The truncation closes the ladder at the top: ``b`` annihilates
``phi[N-1]``, so ladder and commutator identities hold for levels
n <= N-2 only, and ``commutator_defect`` rejects the top level.

Each rule on the data is one function returning a ``Check``:
``eps_structure_check`` (eps[0] = 0 within 1e-12, every gap at least
MIN_EPS_GAP), ``biorthonormality_check``, ``eigen_check`` (phi and eta
as right and left eigenvectors of a given operator),
``commutator_check`` and ``stored_metrics_check`` (stored frame
operators against the bases).  ``system_checks`` is the one verdict on
a system: its ``eps_structure`` gate decides whether the axiom,
commutator and eigen checks run or only ``biorthonormality_check``.
``build_system`` raises on the first two, and reports call the same
functions, so a builder and a report cannot disagree on a verdict.

The residuals take as few passes as give the bits of one relation at a
time: row norms once per system, one norm pass for the four p3 ladder
relations (rows of the full products phi a^T, phi b^T, eta a, eta b),
and S_phi, S_eta formed and tested once each, by ``build_metrics`` alone.
Input types validate their data; ``MetricPair``, a result, holds what it is given.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import _TINY, _checked, as_square_pair, as_vector, effective_tolerance, freeze, frobenius_norm, residual_norm, spd_deficit, symmetric_part_eigenvalues
from .report import Check, VerificationReport, raise_first_failure

__all__ = [
    "MIN_EPS_GAP",
    "BiorthogonalSystem",
    "LadderPair",
    "MetricPair",
    "biorthonormality_check",
    "build_ladders",
    "build_metrics",
    "build_system",
    "commutator_check",
    "commutator_defect",
    "eigen_check",
    "eps_structure_check",
    "rescale",
    "stored_metrics_check",
    "system_checks",
    "verify_axioms",
]

#: Smallest admissible gap between consecutive eps values (simple spectrum);
#: a gap equal to it is admissible.
MIN_EPS_GAP = 1e-10

_EPS0_TOL = 1e-12

_BUILD_FAILURES = {
    "eps_structure": f"eps must start at eps[0] = 0 and increase strictly with gaps of at least {MIN_EPS_GAP:g}",
    "p3_biorthonormality": "biorthonormality violated, max |<phi_n, eta_m> - delta_nm| too large",
}


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Spectrum ``eps`` plus row-stacked bases ``phi`` and ``eta``; ``n`` is
    the number of levels, len(eps).

    The dataclass only enforces shapes and finiteness; semantic
    validation (monotone eps, biorthonormality) happens in
    ``build_system`` so that verification code can still represent
    deliberately broken data.
    """

    eps: np.ndarray
    phi: np.ndarray
    eta: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        eps = as_vector(self.eps, "eps")
        phi, eta = as_square_pair("system", self.phi, self.eta, ("phi", "eta"))
        if eps.shape[0] != phi.shape[0]:
            raise ValidationError(f"system: eps has {eps.shape[0]} entries, bases {phi.shape}")
        freeze(self, eps=eps, phi=phi, eta=eta, n=eps.shape[0])

    @functools.cached_property
    def _row_norms(self) -> tuple:
        """(||phi_n||, ||eta_n||) floored at 1e-300, the relative residuals' divisors."""
        return tuple(np.maximum(frobenius_norm(rows, axis=1), _TINY) for rows in (self.phi, self.eta))


@dataclass(frozen=True)
class LadderPair:
    """Lowering matrix ``a`` and raising matrix ``b``."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = as_square_pair("ladders", self.a, self.b, ("a", "b"))
        freeze(self, a=a, b=b)


@dataclass(frozen=True)
class MetricPair:
    """``build_metrics``' S_phi and S_eta (mutually inverse when valid), held read-only."""

    s_phi: np.ndarray
    s_eta: np.ndarray

    def __post_init__(self):
        freeze(self, s_phi=self.s_phi, s_eta=self.s_eta)


def gap_deficit(values) -> float:
    """How far the smallest gap between consecutive ``values`` falls below
    MIN_EPS_GAP; 0.0 when every gap is admissible (or there is one value)."""
    if len(values) < 2:
        return 0.0
    return max(0.0, MIN_EPS_GAP - float((values[1:] - values[:-1]).min()))


def eps_structure_check(sys: BiorthogonalSystem) -> Check:
    """``eps_structure``: |eps[0]| <= 1e-12 and every gap >= MIN_EPS_GAP (tolerance 0)."""
    deficit = max(0.0, abs(float(sys.eps[0])) - _EPS0_TOL, gap_deficit(sys.eps))
    return Check("eps_structure", deficit, 0.0)


def biorthonormality_check(sys: BiorthogonalSystem, tolerance=None) -> Check:
    """``p3_biorthonormality``: max |<phi_n, eta_m> - delta_nm|."""
    dev = float(np.abs(sys.phi @ sys.eta.T - np.eye(sys.n)).max())
    return Check("p3_biorthonormality", dev, effective_tolerance(sys.n, tolerance))


def build_system(phi, eta, eps, tolerance=None) -> BiorthogonalSystem:
    """Validate and freeze a biorthogonal system.

    Raises unless ``eps_structure_check`` and ``biorthonormality_check``
    pass (tolerance default_tolerance(N) when not given).
    """
    sys = BiorthogonalSystem(eps, phi, eta)
    checks = (eps_structure_check(sys), biorthonormality_check(sys, tolerance))
    raise_first_failure("build_system", checks, _BUILD_FAILURES)
    return sys


def build_ladders(sys: BiorthogonalSystem) -> LadderPair:
    """Lowering/raising matrices from the rank-one expansions."""
    if np.any(sys.eps[1:] < 0.0):
        raise ValidationError("build_ladders: eps must be nonnegative")
    root = np.sqrt(sys.eps[1:])
    a = (sys.phi[:-1].T * root) @ sys.eta[1:]
    b = (sys.phi[1:].T * root) @ sys.eta[:-1]
    return LadderPair(a, b)


def build_metrics(sys: BiorthogonalSystem) -> MetricPair:
    """(S_phi, S_eta) = (phi^T phi, eta^T eta), sums of rank-one projectors,
    each tested for finite entries.  As numpy forms x^T x it is exactly
    symmetric, so the eigensolvers' symmetry rule has nothing to raise."""
    return MetricPair(_checked(sys.phi.T @ sys.phi, "s_phi", 2), _checked(sys.eta.T @ sys.eta, "s_eta", 2))


def verify_axioms(sys: BiorthogonalSystem, ladders: LadderPair, tolerance=None) -> VerificationReport:
    """Residual report for the five axioms (see module docstring).

    Ladder residuals are relative to the norms of the vectors acted on;
    the frame-bound entry is a positive-definiteness deficit with
    tolerance 0, independent of the residual tolerance.
    """
    n = sys.n
    if ladders.a.shape != (n, n):
        raise ValidationError(f"verify_axioms: ladder shape {ladders.a.shape} does not match n = {n}")
    tol = effective_tolerance(n, tolerance)
    phi, eta, eps = sys.phi, sys.eta, sys.eps
    a, b = ladders.a, ladders.b
    nphi, neta = sys._row_norms
    root = np.sqrt(np.clip(eps, 0.0, None))

    p1 = float(frobenius_norm(a @ phi[0]) / nphi[0])
    p2 = float(frobenius_norm(b.T @ eta[0]) / neta[0])

    ladder = 0.0
    if n > 1:
        # Row n of phi a^T is a phi_n, of eta a is a^T eta_n: a lowers phi_n for
        # n >= 1, b raises it for n <= N-2, the transposes act dually on eta.
        # Full products are sliced: products of slices round differently.
        lhs = np.concatenate(((phi @ a.T)[1:], (phi @ b.T)[:-1], (eta @ a)[:-1], (eta @ b)[1:]))
        rhs = np.concatenate((phi[:-1], phi[1:], eta[1:], eta[:-1]))
        r = np.concatenate((root[1:],) * 4)[:, None]
        norms = np.concatenate((nphi[1:], nphi[:-1], neta[:-1], neta[1:]))
        ladder = float((frobenius_norm(lhs - r * rhs, axis=1) / norms).max())

    metrics = build_metrics(sys)
    s_phi, s_eta = metrics.s_phi, metrics.s_eta
    deficit = max(spd_deficit(symmetric_part_eigenvalues(s)[0]) for s in (s_phi, s_eta))
    eye = np.eye(n)

    checks = (
        Check("p1_vacuum_phi", p1, tol),
        Check("p2_vacuum_eta", p2, tol),
        biorthonormality_check(sys, tol),
        Check("p3_ladder_relations", ladder, tol),
        Check("p4_resolution_of_identity", float(frobenius_norm(phi.T @ eta - eye)), tol),
        Check("p5_frame_bounds", deficit, 0.0),
        Check("p5_metric_duality", float(frobenius_norm(s_phi @ s_eta - eye)), tol),
    )
    return VerificationReport(checks)


def commutator_defect(sys: BiorthogonalSystem, ladders: LadderPair, n: int | np.ndarray) -> float | np.ndarray:
    """Relative residual of [a, b] phi_n = (eps[n+1] - eps[n]) phi_n: a float
    for an int level ``n``, one residual per level for an integer array of
    levels, with [a, b] formed once and ||phi_n|| from the system's row norms.

    Valid for 0 <= n <= N-2; the top level is rejected because b
    annihilates phi[N-1] under truncation, and so is a non-integer level.
    """
    levels = np.asarray(n)
    if levels.dtype.kind not in "iu":
        raise ValidationError(f"commutator_defect: levels must be integers, got dtype {levels.dtype}")
    outside = levels[(levels < 0) | (levels > sys.n - 2)]
    if outside.size:
        raise ValidationError(
            f"commutator_defect: level {outside.flat[0]} outside 0..{sys.n - 2}; "
            "the top level is not ladder-closed in finite dimension"
        )
    comm = ladders.a @ ladders.b - ladders.b @ ladders.a
    gap = sys.eps[levels + 1] - sys.eps[levels]
    phi = sys.phi[levels]  # row k is phi_{levels[k]}
    res = phi @ comm.T - gap[..., None] * phi
    defects = frobenius_norm(res, axis=-1) / sys._row_norms[0][levels]
    return defects if levels.ndim else float(defects)


def commutator_check(sys: BiorthogonalSystem, ladders: LadderPair, tolerance=None) -> Check:
    """``commutator_gaps``: the worst ``commutator_defect`` over levels 0..N-2 (0.0 when N = 1)."""
    worst = commutator_defect(sys, ladders, np.arange(sys.n - 1)).max(initial=0.0)
    return Check("commutator_gaps", worst, effective_tolerance(sys.n, tolerance))


def system_checks(sys: BiorthogonalSystem, ladders: LadderPair | None = None, m=None, tolerance=None) -> list:
    """``eps_structure_check``, then ``verify_axioms``'s checks, ``commutator_check``
    and, when ``m`` is known, ``eigen_check``; when the gate fails, sqrt(eps) means
    nothing and only ``biorthonormality_check`` follows.  ``ladders`` default to
    ``build_ladders(sys)``."""
    gate = eps_structure_check(sys)
    if not gate.passed:
        return [gate, biorthonormality_check(sys, tolerance)]
    if ladders is None:
        ladders = build_ladders(sys)
    checks = [gate, *verify_axioms(sys, ladders, tolerance).checks, commutator_check(sys, ladders, tolerance)]
    if m is not None:
        checks.append(eigen_check(sys, m, tolerance))
    return checks


def stored_metrics_check(sys: BiorthogonalSystem, s_phi, s_eta, tolerance=None) -> Check:
    """``stored_metrics``: the larger of ||S_stored - S||_F / ||S||_F over the
    two frame operators, S computed from the system's bases."""
    metrics = build_metrics(sys)
    # float64 division, so an overflow raises under the CLI's errstate
    worst = max(
        residual_norm(stored, computed) / np.maximum(frobenius_norm(computed), _TINY)
        for stored, computed in ((s_phi, metrics.s_phi), (s_eta, metrics.s_eta))
    )
    return Check("stored_metrics", worst, effective_tolerance(sys.n, tolerance))


def eigen_check(sys: BiorthogonalSystem, m, tolerance=None) -> Check:
    """``eigen_relations``: m phi_n = eps[n] phi_n and m^T eta_n = eps[n] eta_n,
    relative to the norms of the vectors."""
    eps = sys.eps[:, None]
    nphi, neta = sys._row_norms
    left = frobenius_norm(sys.phi @ m.T - eps * sys.phi, axis=1) / nphi
    right = frobenius_norm(sys.eta @ m - eps * sys.eta, axis=1) / neta
    worst = max(float(left.max()), float(right.max()))
    return Check("eigen_relations", worst, effective_tolerance(sys.n, tolerance))


def rescale(sys: BiorthogonalSystem, nu) -> BiorthogonalSystem:
    """Gauge change phi_n -> phi_n / nu_n, eta_n -> nu_n eta_n (nu_n > 0).

    Biorthonormality and sum_n eps[n] |phi_n><eta_n| are preserved; the
    frame operators change unless nu is constant 1.
    """
    nu = as_vector(nu, "nu")
    if nu.shape[0] != sys.n:
        raise ValidationError(f"rescale: need {sys.n} factors, got {nu.shape[0]}")
    if np.any(nu <= 0.0):
        raise ValidationError("rescale: all factors must be positive")
    return BiorthogonalSystem(sys.eps, sys.phi / nu[:, None], sys.eta * nu[:, None])
