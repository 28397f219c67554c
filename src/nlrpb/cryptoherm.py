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

``hermitized_checks`` judges the pair's ``verify_chwrt`` checks and, when
they pass, builds h from Theta's roots and adds ``hermitized_symmetry``
(||h - h^T|| relative to max(||h||, 1)) and ``spectrum_min_gap`` (every
eigenvalue gap at least MIN_EPS_GAP).  Each ``CryptoPair`` caches those
measurements and roots, so Theta is solved once per pair, whoever reads it.
``hermitize`` builds the pair and raises on the first check that fails.  It
stores the spectrum shifted so its minimum is exactly zero, recording
the shift, which keeps the stored matrix consistent with
h e_n = spectrum[n] e_n while the original operator is recovered as
h + shift I.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, eq=False)
class CryptoPair:
    """Operator with metric; ``h_matrix`` is generally non-symmetric.

    Like ``BiorthogonalSystem``, the pair measures itself once, on first use:
    ``_chwrt`` and ``_roots`` hold no tolerance, so it can be judged at any.
    """

    h_matrix: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        h, t = as_square_pair("crypto pair", self.h_matrix, self.theta, ("h_matrix", "theta"))
        freeze(self, h_matrix=h, theta=t)

    @functools.cached_property
    def _chwrt(self) -> tuple:
        """(``verify_chwrt``'s residuals by check name, the split of Theta that the metric's values solve ran on)."""
        h, t = self.h_matrix, self.theta
        lam, asymmetry, t_sym = symmetric_part_eigenvalues(t)
        th = t @ h
        # float64 division, so an overflow raises under the CLI's errstate
        crypto = residual_norm(th, h.T @ t) / np.maximum(frobenius_norm(th), _TINY)
        return {"cryptohermiticity": crypto, "metric_spd": max(0.0, asymmetry, spd_deficit(lam))}, t_sym

    @functools.cached_property
    def _roots(self) -> tuple:
        """(Theta^{1/2}, Theta^{-1/2}) from one eigh of ``_chwrt``'s split, read once metric_spd
        passed: that is the pair's one SPD gate, so this solve's values are not judged again."""
        return _spd_roots(self._chwrt[1])


@dataclass(frozen=True, eq=False)
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


def verify_chwrt(h_matrix, theta, tolerance=None) -> VerificationReport:
    """Report on Theta being SPD and on the residual Theta H - H^T Theta.

    The cryptohermiticity residual is relative to ||Theta H||_F; the
    metric entry is a positive-definiteness deficit, judged at tolerance 0.
    """
    pair = CryptoPair(h_matrix, theta)
    return VerificationReport(tuple(judge(pair.theta.shape[0], tolerance, **pair._chwrt[0])))


def hermitized_checks(pair: CryptoPair, tolerance=None):
    """(checks, HermitizedSystem or None) for the validated pair (H, Theta).

    The checks are ``verify_chwrt``'s; when they pass, h = Theta^{1/2} H
    Theta^{-1/2} is built, diagonalized and ``hermitized_symmetry`` and
    ``spectrum_min_gap`` are added.  The HermitizedSystem is None only when
    ``verify_chwrt`` fails; it is returned even when a later check fails,
    so a report can show the spectrum it judged.
    """
    h = pair.h_matrix
    n = h.shape[0]
    checks = judge(n, tolerance, **pair._chwrt[0])
    if not all(c.passed for c in checks):
        return checks, None
    # symmetric_part(raw) is finite (residual_norm rejects a non-finite raw) and
    # exactly symmetric: it passes the solver's input rule already
    root, inv_root = pair._roots
    raw = root @ h @ inv_root
    asym = residual_norm(raw, raw.T) / max(float(frobenius_norm(raw)), 1.0)
    sym = symmetric_part(raw)
    eig = _eigh(sym)
    lam = eig.eigenvalues
    checks = checks + judge(n, tolerance, hermitized_symmetry=asym, spectrum_min_gap=gap_deficit(lam))
    shift = float(lam[0])
    # C order: from_crypto's e @ root rounds differently on the transposed view at some N
    return checks, HermitizedSystem(sym - shift * np.eye(n), shift, lam - shift, eig.eigenvectors.T.copy())


def hermitize(h_matrix, theta, tolerance=None) -> HermitizedSystem:
    """Similarity-transform to the symmetric representative and diagonalize.

    Raises on the first failed ``hermitized_checks`` check: the pair is
    not cryptohermitian, the transform stays asymmetric (a false metric),
    or an eigenvalue gap is below MIN_EPS_GAP (degeneracy).
    """
    checks, hs = hermitized_checks(CryptoPair(h_matrix, theta), tolerance)
    raise_first_failure("hermitize", checks, _HERMITIZE_FAILURES)
    return hs


def _from_crypto(pair: CryptoPair, tolerance) -> tuple:
    """(system, HermitizedSystem) of ``from_crypto`` on the validated pair."""
    checks, hs = hermitized_checks(pair, tolerance)
    raise_first_failure("hermitize", checks, _HERMITIZE_FAILURES)
    root, inv_root = pair._roots
    return build_system(hs.e @ inv_root, hs.e @ root, hs.spectrum, tolerance), hs


def from_crypto(h_matrix, theta, tolerance=None):
    """Biorthogonal system and ladders from a cryptohermitian pair.

    Constructs phi_n = Theta^{-1/2} e_n and eta_n = Theta^{1/2} e_n from the roots
    that built h; they are biorthonormal because the e_n are orthonormal.
    """
    sys, _ = _from_crypto(CryptoPair(h_matrix, theta), tolerance)
    return sys, build_ladders(sys)


def from_nlrpb(sys: BiorthogonalSystem, tolerance=None) -> CryptoPair:
    """Operator H = b a with metric Theta = S_eta; raises on the first
    ``verify_chwrt`` check, at ``tolerance``, that the pair fails."""
    lad = build_ladders(sys)
    pair = CryptoPair(lad.b @ lad.a, sys.eta.T @ sys.eta)  # S_eta, as build_metrics forms it
    raise_first_failure("from_nlrpb", judge(sys.n, tolerance, **pair._chwrt[0]), _FROM_NLRPB_FAILURES)
    return pair


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
    ``eigenline_cosines`` of the system ``from_crypto`` rebuilds from that pair."""
    pair = from_nlrpb(sys, tolerance)
    back, _ = _from_crypto(pair, tolerance)
    eps_defect = float(np.abs(back.eps - sys.eps).max())
    return pair, judge(sys.n, tolerance, eps_roundtrip=eps_defect, eigenline_cosines=_line_cosine_defect(sys, back))


def crypto_roundtrip(pair: CryptoPair, tolerance=None):
    """(system, shift, checks): ``from_crypto(pair)`` and its hermitization's shift, then
    ``h_roundtrip`` (against H - shift I, relative to max(||H||, 1)) and ``theta_roundtrip``
    (relative to ||Theta||) of the pair ``from_nlrpb`` rebuilds from it."""
    h, t = pair.h_matrix, pair.theta
    sys, hs = _from_crypto(pair, tolerance)
    back = from_nlrpb(sys, tolerance)
    h_defect = residual_norm(back.h_matrix, h - hs.shift * np.eye(sys.n)) / max(float(frobenius_norm(h)), 1.0)
    t_defect = residual_norm(back.theta, t) / max(float(frobenius_norm(t)), _TINY)
    return sys, hs.shift, judge(sys.n, tolerance, h_roundtrip=h_defect, theta_roundtrip=t_defect)
