"""Hidden-hermiticity pairs (H, Theta) and their symmetric forms.

A square matrix H is cryptohermitian with respect to a symmetric
positive definite metric Theta when Theta H = H^T Theta (real
arithmetic, so the adjoint is the transpose).  Its similarity transform
h = Theta^{1/2} H Theta^{-1/2} is then symmetric, and the two
representations convert into each other:

* ``from_crypto``: eigenpairs (lam_n, e_n) of h give a biorthogonal
  system with phi_n = Theta^{-1/2} e_n, eta_n = Theta^{1/2} e_n and
  eps = lam - lam.min().
* ``from_nlrpb``: a system gives back H = b a and Theta = S_eta.

``nlrpb_roundtrip`` and ``crypto_roundtrip`` convert, convert back and
report how much of the start survived.  The checkers here measure, and
``report.judge`` sets each check's tolerance by its rule in the table there.

``hermitized_checks`` is the one home of the pair's rules: on a validated
``CryptoPair`` it reports ``verify_chwrt``'s checks and, when those pass,
builds h from both roots of the split of Theta that the metric check solved,
one solve for the two, and adds ``hermitized_symmetry`` (||h - h^T|| relative
to max(||h||, 1)) and ``spectrum_min_gap`` (every eigenvalue gap at least
MIN_EPS_GAP).  ``from_crypto`` and the round trips reuse those roots and checks.
``hermitize`` builds the pair and raises on the first check that fails.  It
stores the spectrum shifted so its minimum is exactly zero, recording
the shift, which keeps the stored matrix consistent with
h e_n = spectrum[n] e_n while the original operator is recovered as
h + shift I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    _TINY,
    SPD_GATE,
    _eigh,
    _spd_roots,
    as_square_pair,
    freeze,
    frobenius_norm,
    residual_norm,
    spd_deficit,
    symmetric_part,
    symmetric_part_eigenvalues,
)
from .pseudoboson import MIN_EPS_GAP, BiorthogonalSystem, build_ladders, build_system, gap_deficit
from .report import ROUNDTRIP_TOL, VerificationReport, judge, raise_first_failure  # noqa: F401  (ROUNDTRIP_TOL is importable here too)

__all__ = [
    "CryptoPair",
    "HermitizedSystem",
    "crypto_roundtrip",
    "from_crypto",
    "from_nlrpb",
    "hermitize",
    "hermitized_checks",
    "nlrpb_roundtrip",
    "verify_chwrt",
]

_HERMITIZE_FAILURES = {
    "cryptohermiticity": "pair is not cryptohermitian",
    "metric_spd": "pair is not cryptohermitian",
    "hermitized_symmetry": "transform asymmetric; the metric does not hermitize the operator",
    "spectrum_min_gap": f"degenerate spectrum, an eigenvalue gap below {MIN_EPS_GAP:g}",
}

_FROM_NLRPB_FAILURES = {
    "cryptohermiticity": "constructed pair failed cryptohermiticity; system data inconsistent",
    "metric_spd": f"S_eta is not positive definite within the SPD gate ({SPD_GATE:g})",
}


@dataclass(frozen=True)
class CryptoPair:
    """Operator with metric; ``h_matrix`` is generally non-symmetric."""

    h_matrix: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        h, t = as_square_pair("crypto pair", self.h_matrix, self.theta, ("h_matrix", "theta"))
        freeze(self, h_matrix=h, theta=t)


@dataclass(frozen=True)
class HermitizedSystem:
    """Symmetric representative with zero-based spectrum.

    ``h`` is the shifted symmetric matrix, so h e_n = spectrum[n] e_n
    with spectrum[0] = 0 and spectrum strictly increasing; ``shift``
    restores the original operator as h + shift I.  Rows of ``e`` are
    the orthonormal eigenvectors.  A result: it holds what it is given.
    """

    h: np.ndarray
    shift: float
    spectrum: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        freeze(self, h=self.h, spectrum=self.spectrum, e=self.e)


def _chwrt_checks(pair: CryptoPair, tolerance) -> tuple:
    """(``verify_chwrt``'s two checks, Theta's symmetric split) for a validated pair:
    the split is what the metric's values solve ran on, and the SPD roots reuse it."""
    h, t = pair.h_matrix, pair.theta
    lam, asymmetry, t_sym = symmetric_part_eigenvalues(t)
    metric_residual = max(0.0, asymmetry, spd_deficit(lam))
    th = t @ h
    # float64 division, so an overflow raises under the CLI's errstate
    crypto_residual = residual_norm(th, h.T @ t) / np.maximum(frobenius_norm(th), _TINY)
    return judge(h.shape[0], tolerance, cryptohermiticity=crypto_residual, metric_spd=metric_residual), t_sym


def verify_chwrt(h_matrix, theta, tolerance=None) -> VerificationReport:
    """Report on Theta being SPD and on the residual Theta H - H^T Theta.

    The cryptohermiticity residual is relative to ||Theta H||_F; the
    metric entry is a positive-definiteness deficit, judged at tolerance 0.
    """
    return VerificationReport(tuple(_chwrt_checks(CryptoPair(h_matrix, theta), tolerance)[0]))


def _hermitized(pair: CryptoPair, chwrt: tuple, tolerance) -> tuple:
    """``hermitized_checks`` from its ``_chwrt_checks`` result, plus the roots that built h."""
    checks, t_sym = chwrt
    if not all(c.passed for c in checks):
        return checks, None, None
    # t_sym passed metric_spd, and symmetric_part(raw) is finite (residual_norm rejects
    # a non-finite raw) and exactly symmetric: both pass the solvers' input rule already
    h = pair.h_matrix
    n = h.shape[0]
    root, inv_root = _spd_roots(t_sym, "spd_sqrt")
    raw = root @ h @ inv_root
    asym = residual_norm(raw, raw.T) / max(float(frobenius_norm(raw)), 1.0)
    sym = symmetric_part(raw)
    eig = _eigh(sym)
    lam = eig.eigenvalues
    checks = checks + judge(n, tolerance, hermitized_symmetry=asym, spectrum_min_gap=gap_deficit(lam))
    shift = float(lam[0])
    # C order: from_crypto's e @ root rounds differently on the transposed view at some N
    return checks, HermitizedSystem(sym - shift * np.eye(n), shift, lam - shift, eig.eigenvectors.T.copy()), (root, inv_root)


def hermitized_checks(pair: CryptoPair, tolerance=None):
    """(checks, HermitizedSystem or None) for the validated pair (H, Theta).

    The checks are ``verify_chwrt``'s; when they pass, h = Theta^{1/2} H
    Theta^{-1/2} is built, diagonalized and ``hermitized_symmetry`` and
    ``spectrum_min_gap`` are added.  The HermitizedSystem is None only when
    ``verify_chwrt`` fails; it is returned even when a later check fails,
    so a report can show the spectrum it judged.
    """
    return _hermitized(pair, _chwrt_checks(pair, tolerance), tolerance)[:2]


def hermitize(h_matrix, theta, tolerance=None) -> HermitizedSystem:
    """Similarity-transform to the symmetric representative and diagonalize.

    Raises on the first failed ``hermitized_checks`` check: the pair is
    not cryptohermitian, the transform stays asymmetric (a false metric),
    or an eigenvalue gap is below MIN_EPS_GAP (degeneracy).
    """
    checks, hs = hermitized_checks(CryptoPair(h_matrix, theta), tolerance)
    raise_first_failure("hermitize", checks, _HERMITIZE_FAILURES)
    return hs


def _from_crypto(pair: CryptoPair, chwrt: tuple, tolerance) -> tuple:
    """(system, HermitizedSystem) of ``from_crypto``, from the pair's ``_chwrt_checks`` result."""
    checks, hs, roots = _hermitized(pair, chwrt, tolerance)
    raise_first_failure("hermitize", checks, _HERMITIZE_FAILURES)
    root, inv_root = roots
    return build_system(hs.e @ inv_root, hs.e @ root, hs.spectrum, tolerance), hs


def from_crypto(h_matrix, theta, tolerance=None):
    """Biorthogonal system and ladders from a cryptohermitian pair.

    Constructs phi_n = Theta^{-1/2} e_n and eta_n = Theta^{1/2} e_n from the roots
    that built h; they are biorthonormal because the e_n are orthonormal.
    """
    pair = CryptoPair(h_matrix, theta)
    sys, _ = _from_crypto(pair, _chwrt_checks(pair, tolerance), tolerance)
    return sys, build_ladders(sys)


def _from_nlrpb(sys: BiorthogonalSystem, tolerance) -> tuple:
    """(pair, its ``_chwrt_checks`` result) of ``from_nlrpb``."""
    lad = build_ladders(sys)
    pair = CryptoPair(lad.b @ lad.a, sys.eta.T @ sys.eta)  # S_eta, as build_metrics forms it
    chwrt = _chwrt_checks(pair, tolerance)
    raise_first_failure("from_nlrpb", chwrt[0], _FROM_NLRPB_FAILURES)
    return pair, chwrt


def from_nlrpb(sys: BiorthogonalSystem, tolerance=None) -> CryptoPair:
    """Operator H = b a with metric Theta = S_eta; raises on the first
    ``verify_chwrt`` check, at ``tolerance``, that the pair fails."""
    return _from_nlrpb(sys, tolerance)[0]


def _line_cosine_defect(sys_a: BiorthogonalSystem, sys_b: BiorthogonalSystem) -> float:
    """Largest 1 - |cos| between matching phi rows and matching eta rows."""
    worst = 0.0
    pairs = zip((sys_a.phi, sys_a.eta), (sys_b.phi, sys_b.eta), sys_a._row_norms, sys_b._row_norms)
    for rows_a, rows_b, norms_a, norms_b in pairs:
        dots = np.abs(np.sum(rows_a * rows_b, axis=1))
        worst = max(worst, float((1.0 - dots / np.maximum(norms_a * norms_b, _TINY)).max()))
    return worst


def nlrpb_roundtrip(sys: BiorthogonalSystem, tolerance=None):
    """(CryptoPair, checks): ``from_nlrpb(sys)``, then ``eps_roundtrip`` and
    ``eigenline_cosines`` of the system ``from_crypto`` rebuilds from it on those checks."""
    pair, chwrt = _from_nlrpb(sys, tolerance)
    back, _ = _from_crypto(pair, chwrt, tolerance)
    eps_defect = float(np.abs(back.eps - sys.eps).max())
    return pair, judge(sys.n, tolerance, eps_roundtrip=eps_defect, eigenline_cosines=_line_cosine_defect(sys, back))


def crypto_roundtrip(pair: CryptoPair, tolerance=None):
    """(system, shift, checks): ``from_crypto(pair)`` and its hermitization's shift, then
    ``h_roundtrip`` (against H - shift I, relative to max(||H||, 1)) and ``theta_roundtrip``
    (relative to ||Theta||) of the pair ``from_nlrpb`` rebuilds from it."""
    h, t = pair.h_matrix, pair.theta
    sys, hs = _from_crypto(pair, _chwrt_checks(pair, tolerance), tolerance)
    back = from_nlrpb(sys, tolerance)
    h_defect = residual_norm(back.h_matrix, h - hs.shift * np.eye(sys.n)) / max(float(frobenius_norm(h)), 1.0)
    t_defect = residual_norm(back.theta, t) / max(float(frobenius_norm(t)), _TINY)
    return sys, hs.shift, judge(sys.n, tolerance, h_roundtrip=h_defect, theta_roundtrip=t_defect)
