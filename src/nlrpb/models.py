"""Exactly solvable model families.

Two-parameter family (beta != delta, beta*delta < 0): the nilpotent
matrices

    A = [[-1, beta],  [-1/beta, 1]]      (lowering)
    B = [[-1, delta], [-1/delta, 1]]     (raising)

annihilate phi_0 = y (beta, 1) and, transposed, eta_0 = w (1, -delta);
the spectrum is eps = (0, -(beta - delta)^2 / (beta delta)) and
M = B A is cryptohermitian with respect to S_eta.  The constraint
y w (beta - delta) = 1 fixes the level-0 pairing; only the product is
physical, so (y, w) -> (t y, w/t) is a gauge move.

Chebyshev family: M is the N x N matrix with constant diagonal Z,
superdiagonal (2, 1, ..., 1) and unit subdiagonal, where
Z = -2 cos((N - 1/2) pi / N) > 0.  Its eigendata are values of
first-kind Chebyshev polynomials at the roots
x_n = -cos((n + 1/2) pi / N) of T_N:

    M   phi_n = eps_n phi_n,   phi_n ~ (T_0(x_n), ..., T_{N-1}(x_n))
    M^T eta_n = eps_n eta_n,   eta_n ~ (1/2, T_1(x_n), ..., T_{N-1}(x_n))
    eps_n = 2 x_n + Z

The raw diagonal pairings are <phi_n, eta_n> = N/2, so the default
normalization keeps eta raw and rescales phi by 2/N.  For sizes 2 and 3
``chebyshev_paper_normalization`` returns variants with specific
hand-picked constants whose frame operator S_eta matches the reference
matrices used in the golden tests.
"""

from __future__ import annotations

import math
import sys as _sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import _TINY, freeze
from .pseudoboson import BiorthogonalSystem, build_system
from .report import Check, judge

__all__ = [
    "ChebyshevSpec",
    "TwoParamSpec",
    "chebyshev_model",
    "chebyshev_paper_normalization",
    "stored_params_check",
    "two_param_model",
]


def _chebyshev_nodes(n: int) -> np.ndarray:
    """Roots of T_n in ascending order: x_j = -cos((j + 1/2) pi / n)."""
    return -np.cos((np.arange(n) + 0.5) * np.pi / n)


@dataclass(frozen=True)
class ChebyshevSpec:
    """Size of the Chebyshev family and its shift Z = -2 cos((N - 1/2) pi / N) > 0."""

    n: int
    z: float = field(init=False)

    def __post_init__(self):
        try:
            n = int(self.n)
        except (TypeError, ValueError):
            raise ValidationError(f"chebyshev family: size must be an integer, got {self.n!r}") from None
        if n != self.n or n < 2:
            raise ValidationError(f"chebyshev family: size must be an integer >= 2, got {self.n!r}")
        if n * n * 8 > _sys.maxsize:
            raise ValidationError(f"chebyshev family: size {n} is too large for an N x N float64 array")
        freeze(self, n=n, z=float(-2.0 * np.cos((n - 0.5) * np.pi / n)))

    @property
    def eps(self) -> np.ndarray:
        """Spectrum 2 x + Z minus its first entry, which pins eps[0] to
        exactly 0 in floating point."""
        eps = 2.0 * _chebyshev_nodes(self.n) + self.z
        return eps - eps[0]


@dataclass(frozen=True)
class TwoParamSpec:
    """Parameters of the 2x2 family; the pairing gauge is computed, with
    y w (beta - delta) = 1 and y = w if beta > delta, else y = -w."""

    beta: float
    delta: float
    y: float = field(init=False)
    w: float = field(init=False)
    n = 2  # levels; a class attribute, not a field

    def __post_init__(self):
        beta = float(self.beta)
        delta = float(self.delta)
        if not (math.isfinite(beta) and math.isfinite(delta)):
            raise ValidationError("two-param family: beta and delta must be finite")
        if beta == delta:
            raise ValidationError("two-param family: beta equals delta")
        if beta == 0.0 or delta == 0.0:
            raise ValidationError("two-param family: beta and delta must be nonzero")
        if beta * delta >= 0.0:
            raise ValidationError(
                "two-param family: beta*delta must be negative so that "
                "eps[1] = -(beta-delta)^2/(beta*delta) is positive"
            )
        if beta > delta:
            y = w = 1.0 / math.sqrt(beta - delta)
        else:
            y = 1.0 / math.sqrt(delta - beta)
            w = -y
        freeze(self, beta=beta, delta=delta, y=y, w=w)
        try:
            finite = all(map(math.isfinite, (self.eps1, 1.0 / beta, 1.0 / delta)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(
                "two-param family: eps[1] = -(beta-delta)^2/(beta*delta), 1/beta and 1/delta "
                f"must be finite, got beta={beta!r}, delta={delta!r}"
            )

    @property
    def eps1(self) -> float:
        return -((self.beta - self.delta) ** 2) / (self.beta * self.delta)

    @property
    def eps(self) -> np.ndarray:
        return np.array([0.0, self.eps1])


#: Each family's spec and the params it is built from; the other stored
#: params (z, y, w) are derived.
_FAMILIES = {"chebyshev": (ChebyshevSpec, ("n",)), "two-param": (TwoParamSpec, ("beta", "delta"))}


def stored_params_check(family: str, params: dict, sys: BiorthogonalSystem, tolerance=None) -> Check:
    """``stored_params``: max |eps - eps_spec| / max(eps_spec), eps_spec the
    spectrum of the spec that ``_FAMILIES[family]`` builds from ``params``.

    The residual is 1.0 when those params are missing or not numbers, the
    spec rejects them, or its model has another number of levels than
    ``sys``.
    """
    spec_type, keys = _FAMILIES[family]
    values = [params.get(key) for key in keys]
    residual = 1.0
    # Exact types: a spec takes bools and numeric strings too, and raises TypeError on containers.
    if all(type(v) in (int, float) for v in values):
        try:
            spec = spec_type(*values)
        except ValidationError:
            spec = None
        if spec is not None and spec.n == sys.n:
            ref = spec.eps
            residual = float(np.abs(sys.eps - ref).max() / max(float(ref[-1]), _TINY))
    return judge(sys.n, tolerance, stored_params=residual)[0]


def two_param_model(beta, delta):
    """(A, B, system) for the two-parameter family.

    A and B double as the system's ladder pair: applying
    ``build_ladders`` to the returned system reproduces them.
    """
    spec = TwoParamSpec(beta, delta)
    beta, delta, y, w = spec.beta, spec.delta, spec.y, spec.w
    a_mat = np.array([[-1.0, beta], [-1.0 / beta, 1.0]])
    b_mat = np.array([[-1.0, delta], [-1.0 / delta, 1.0]])
    root = math.sqrt(spec.eps1)
    phi0 = y * np.array([beta, 1.0])
    eta0 = w * np.array([1.0, -delta])
    phi1 = (b_mat @ phi0) / root
    eta1 = (a_mat.T @ eta0) / root
    sys = build_system(np.array([phi0, phi1]), np.array([eta0, eta1]), spec.eps)
    return a_mat, b_mat, sys


def chebyshev_model(n: int):
    """(M, system) for the Chebyshev family of size n >= 2."""
    spec = ChebyshevSpec(n)
    n = spec.n
    z = spec.z
    x = _chebyshev_nodes(n)
    m = np.diag(np.full(n, z))
    m += np.diag(np.r_[2.0, np.ones(n - 2)], 1)
    m += np.diag(np.ones(n - 1), -1)
    # Rows (T_0(x_i), ..., T_{n-1}(x_i)), copied to C order: on chebvander's Fortran
    # order phi_raw @ eta_raw.T rounds differently (the bases' last bits at N = 32..34).
    # numpy.polynomial loads on first use, so only this builder pays for its import.
    phi_raw = np.ascontiguousarray(np.polynomial.chebyshev.chebvander(x, n - 1))
    eta_raw = phi_raw.copy()
    eta_raw[:, 0] = 0.5
    # phi rows scaled by 1 / <phi_raw_n, eta_raw_n> (= 2/N); build_system's
    # p3_biorthonormality bounds the off-diagonal pairings
    phi = phi_raw / np.diag(phi_raw @ eta_raw.T)[:, None]
    eta = eta_raw
    sys = build_system(phi, eta, spec.eps)
    return m, sys


def chebyshev_paper_normalization(n: int) -> BiorthogonalSystem:
    """Size-2 and size-3 systems with the hand-picked normalization
    constants behind the reference frame operators."""
    s2 = math.sqrt(2.0)
    s3 = math.sqrt(3.0)
    if n == 2:
        phi = np.array([[1.0 / s2, -0.5], [1.0, 1.0 / s2]])
        eta = np.array([[1.0 / s2, -1.0], [0.5, 1.0 / s2]])
        eps = np.array([0.0, 2.0 * s2])
    elif n == 3:
        phi = np.array(
            [
                [1.0 / 3.0, -s3 / 6.0, 1.0 / 6.0],
                [1.0 / 3.0, 0.0, -1.0 / 3.0],
                [1.0 / 3.0, s3 / 6.0, 1.0 / 6.0],
            ]
        )
        eta = np.array([[1.0, -s3, 1.0], [1.0, 0.0, -2.0], [1.0, s3, 1.0]])
        eps = np.array([0.0, s3, 2.0 * s3])
    else:
        raise ValidationError("explicit normalization constants are built in only for sizes 2 and 3")
    return build_system(phi, eta, eps)
